"""Driver-side replay of the codec kernels, for the traced run.

The Spark jobs run their kernels in Python workers the benchmark cannot
trace, so a traced run replays each kernel's public calls on the driver,
over the same trajectories and in the order ``compress_trajectory`` makes
them, with a span around each.  Call counters that would slow the timed
calls down (one Python call per bit) run in a second, untimed pass.
"""
from __future__ import annotations

from repro.bits import BitWriter, bits_needed
from repro.core.compress_job import network_grid
from repro.core.decoder import decode_trajectory
from repro.core.encoder import encode_trajectory
from repro.core.fjd import score_matrix
from repro.core.model import instance_to_ted
from repro.core.pivots import select_pivots
from repro.core.refselect import select_references
from repro.query.stiu import build_traj_tuples
from repro.ted.matrix import compress_group
from repro.ted.ted_encode import e_bitstring

KERNEL_SPANS = ("core.tedform", "core.pivots", "core.fjd", "core.refselect",
                "core.encode", "query.stiu_build", "core.decode")


def kernels(ctx, net, cfg, trajs) -> dict:
    tr = ctx.tracer
    grid = network_grid(net, cfg.grid_n)
    duration_s = cfg.time_partition_min * 60
    refs = blob_bits = n_temporal = n_spatial = 0
    encoded = []
    for traj in trajs:
        with tr.span("core.tedform"):
            teds = [instance_to_ted(net, inst) for inst in traj.instances]
        with tr.span("core.pivots"):
            _, coms = select_pivots([t.entries for t in teds], cfg.n_pivots)
        with tr.span("core.fjd"):
            sm = score_matrix([t.prob for t in teds], [t.sv for t in teds], coms)
        with tr.span("core.refselect"):
            asg = select_references(sm)
        try:
            with tr.span("core.encode"):
                ct = encode_trajectory(net, traj, teds, asg, cfg)
        except ValueError:
            continue  # the blob-format guard; counted by the workload
        encoded.append((traj, teds, asg))
        refs += len(asg.refs)
        blob_bits += ct.nbits
        with tr.span("query.stiu_build"):
            temporal, spatial = build_traj_tuples(
                net, grid, duration_s, cfg.eta_d, dict(enumerate(teds)),
                ct.ref_of, ct, traj.timestamps())
        n_temporal += len(temporal)
        n_spatial += len(spatial)
        with tr.span("core.decode"):
            decode_trajectory(ct, cfg, net.max_out_degree)

    with tr.wrap_calls(BitWriter, "write_bit", "bits.writer_calls"):
        for traj, teds, asg in encoded:
            encode_trajectory(net, traj, teds, asg, cfg)

    out = {f"{name}_s": tr.seconds(name) for name in KERNEL_SPANS}
    out.update({
        "bits.writer_calls": tr.counts["bits.writer_calls"],
        "core.references": refs,
        "core.blob_bits": blob_bits,
        "query.stiu_temporal_tuples": n_temporal,
        "query.stiu_spatial_tuples": n_spatial,
    })
    return out


def ted_matrix(ctx, net, trajs) -> dict:
    """TED's matrix stage over the same instances, one call per code
    length, as the second TED Spark stage groups them."""
    be = bits_needed(net.max_out_degree + 1)
    groups: dict[int, list[str]] = {}
    for traj in trajs:
        for inst in traj.instances:
            code = e_bitstring(instance_to_ted(net, inst), be)
            groups.setdefault(len(code), []).append(code)
    for codes in groups.values():
        with ctx.tracer.span("ted.matrix"):
            compress_group(codes, be)
    return {"ted.matrix_s": ctx.tracer.seconds("ted.matrix")}
