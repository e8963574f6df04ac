"""tail-hz: driver-side compression of paper-tail trajectories, no Spark.

Each round encodes and decodes every trajectory's instances with the TED
baseline's per-instance codec, then calls ``compress_trajectory`` and
``decode_trajectory`` on it (reference selection grows about as n^2.1, so
it dominates here), with the calibration loop before, between and after.
The oversized trajectory fails in every round after its full selection
work, which stays in the timings.

The end-to-end costs: ``utcq_cost`` is, per trajectory, the median over
rounds of its compress + decode time divided by the time of the
calibration loops just before and just after it (``calib``), summed over
the trajectories; ``ted_cost`` the same for the TED codec.
"""
from __future__ import annotations

import statistics
import time

from repro.bits import bits_needed
from repro.core.config import DATASET_CONFIGS
from repro.core.decoder import decode_trajectory
from repro.core.encoder import compress_trajectory
from repro.core.model import instance_to_ted
from repro.roadnet import grid_network
from repro.ted.ted_encode import decode_instance_payload, encode_instance_payload
from repro.trajgen.uncertain import generate_trajectory

import checks
import inputs
import replay
from calib import calibrate

CFG = DATASET_CONFIGS["hz"]
# Instances per blob the current format accepts: only a trajectory above
# it may fail to compress, and only then is its failure the known fault.
BLOB_LIMIT = 255


def run(ctx) -> dict:
    tr = ctx.tracer
    net = grid_network(inputs.HZ.network)
    be = bits_needed(net.max_out_degree + 1)
    setups = []
    for _ in range(3):
        t0 = time.perf_counter()
        with tr.span("trajgen.generate"):
            trajs = inputs.tail_trajectories(net, ctx.seed)
            if ctx.small:
                trajs = [_shrink(net, t) for t in trajs]
        warm = generate_trajectory(net, inputs.HZ, 0)
        decode_trajectory(compress_trajectory(net, warm, CFG), CFG,
                          net.max_out_degree)
        setups.append(time.perf_counter() - t0)

    def utcq(traj):
        t0 = time.perf_counter()
        try:
            ct = compress_trajectory(net, traj, CFG)
        except ValueError as e:
            checks.expect(len(traj.instances) > BLOB_LIMIT,
                          f"traj {traj.traj_id} ({len(traj.instances)} "
                          f"instances) failed: {e}")
            return None, None, time.perf_counter() - t0, 0.0
        t1 = time.perf_counter()
        dec = decode_trajectory(ct, CFG, net.max_out_degree)
        return ct, dec, t1 - t0, time.perf_counter() - t1

    def ted(traj):
        m = traj.num_points
        t0 = time.perf_counter()
        out = [decode_instance_payload(
                   encode_instance_payload(instance_to_ted(net, inst), be,
                                           CFG.eta_d, CFG.eta_p),
                   m, be, CFG.eta_d, CFG.eta_p)
               for inst in traj.instances]
        return out, time.perf_counter() - t0

    def one_round():
        # (UTCQ, TED, calibration around UTCQ, calibration around TED)
        out = []
        c0 = calibrate()
        for t in trajs:
            t_out = ted(t)
            c1 = calibrate()
            u = utcq(t)
            c2 = calibrate()
            out.append((u, t_out, (c1 + c2) / 2, (c0 + c1) / 2))
            c0 = c2
        return out

    rounds = []
    if ctx.trace:
        rounds.append(one_round())
        untraced = sum(u[2] + u[3] + t[1] for u, t, *_ in rounds[0])
        layers = replay.kernels(ctx, net, CFG, trajs)
        for traj in trajs:
            with tr.span("ted.codec"):
                ted(traj)
        traced = sum(tr.seconds(s) for s in replay.KERNEL_SPANS
                     if s != "query.stiu_build") + tr.seconds("ted.codec")
        layers.update(replay.ted_matrix(ctx, net, trajs))
        layers["trajgen.generate_s"] = statistics.median(
            s["end"] - s["start"] for s in tr.spans if s["name"] == "trajgen.generate")
        layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    else:
        t_end = time.perf_counter() + ctx.seconds
        while not rounds or time.perf_counter() < t_end:
            rounds.append(one_round())

    _check(net, trajs, rounds)
    # A failure is a trajectory compress_trajectory did not compress;
    # instances per second count only those it did.
    failed = [[t.traj_id for t, (u, *_) in zip(trajs, r) if u[0] is None]
              for r in rounds]
    ok_inst = [sum(len(t.instances) for t, (u, *_) in zip(trajs, r)
                   if u[0] is not None) for r in rounds]
    # Trajectory i is the same in every round: its median over rounds.
    utcq_cost = sum(statistics.median((r[i][0][2] + r[i][0][3]) / r[i][2]
                                      for r in rounds)
                    for i in range(len(trajs)))
    ted_cost = sum(statistics.median(r[i][1][1] / r[i][3] for r in rounds)
                   for i in range(len(trajs)))
    result = {
        "attempted": len(trajs) * len(rounds),
        "failed": sum(len(f) for f in failed),
        "detail": {
            "rounds": len(rounds),
            "failed_ids": sorted({i for f in failed for i in f}),
            "traj_ids": [t.traj_id for t in trajs],
            "instances": [len(t.instances) for t in trajs],
            "edges": [len(t.instances[0].path) for t in trajs],
            "compress_s": [round(u[2], 3) for r in rounds for u, *_ in r],
            "tail_instances_per_s": statistics.median(
                n / sum(u[2] for u, *_ in r) for n, r in zip(ok_inst, rounds)),
            "utcq_ms": statistics.median(
                1e3 * statistics.fmean(u[2] + u[3] for u, *_ in r)
                for r in rounds),
            "ted_ms": statistics.median(
                1e3 * statistics.fmean(t[1] for _, t, *_ in r) for r in rounds),
            "calib_ms": statistics.median(
                1e3 * c for r in rounds for _, _, c, _ in r),
            "utcq_speedup": ted_cost / utcq_cost,
        },
    }
    if ctx.trace:
        result["layers"] = layers
    else:
        orig = comp = 0
        for (ct, _, _, _), *_ in rounds[0]:
            if ct is not None:
                orig += sum(ct.orig_bits.values())
                comp += sum(ct.comp_bits.values())
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "utcq_cost": utcq_cost,
            "ted_cost": ted_cost,
            "utcq_ratio": orig / comp,
        }
    return result


def _check(net, trajs, rounds) -> None:
    for r in rounds:
        for traj, ((ct, dec, _, _), (ted_out, _), *_) in zip(trajs, r):
            for i, got in enumerate(ted_out):
                checks.ted_payload_matches(net, traj, i, got, CFG)
            if ct is None:
                continue
            checks.blob_accounting(ct)
            checks.decoded_matches(net, traj, dec, CFG)
            orig = checks.original_bits(net, [traj])
            checks.expect({k: ct.orig_bits[k] for k in orig} == orig,
                          f"traj {traj.traj_id}: original bits differ")


def _shrink(net, traj):
    """Small-input self-test: the same trajectory with its first 20
    instances and renormalised probabilities (the oversized one keeps all
    of them, so the failure path still runs)."""
    if len(traj.instances) > BLOB_LIMIT:
        return traj
    keep = traj.instances[:20]
    total = sum(i.prob for i in keep)
    for i in keep:
        i.prob /= total
    traj.instances = keep
    return traj
