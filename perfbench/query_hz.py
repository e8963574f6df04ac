"""query-hz: the read path over compressed HZ-lite.

Set-up compresses the fixed HZ-lite dataset through the Spark job and builds
the driver-side ``UTCQEngine`` (``from_compressed_df``) and the
``TEDBaselineEngine``.  Each round then runs the seeded where and when
queries and the fixed range set one query at a time on both engines, in
batches of one query type, and a short series of ``range_query_job`` Spark
queries.  Compression runs only in set-up.

The end-to-end costs time each query type on its own, as the paper's §6.3
(Figs. 9-10) does, and weight the three types equally: ``utcq_cost`` and
``ted_cost`` are the geometric mean over where, when and range of the
per-query time of that type, each batch's time divided by the calibration
loop's time around it (``calib``) and taken as its median over rounds.

The write path's outputs are checked here too: every UTCQ blob and TED
payload before the rounds, and in traced and self-test runs the TED Table 8
job, run once on the same input, with its rows and Totals.
"""
from __future__ import annotations

import itertools
import statistics
import time
from collections import defaultdict

import numpy as np

from repro.bits import BitReader, bits_needed
from repro.core import decoder as core_decoder
from repro.core.compress_job import compress_dataset, network_grid, ratio_summary
from repro.core.config import DATASET_CONFIGS
from repro.core.decoder import decode_trajectory
from repro.core.model import UncertainTrajectory, ted_to_instance
from repro.query import queries as query_engine
from repro.query.query_job import range_query_job
from repro.query.queries import UTCQEngine
from repro.query.reference import range_query_ref, when_query_ref, where_query_ref
from repro.query.stiu import index_dataframes
from repro.roadnet.grid import Rect
from repro.ted.matrix import decompress_check
from repro.ted.ted_encode import decode_instance_payload
from repro.ted.ted_job import (
    ted_compress_dataset,
    ted_compressed_payloads,
    ted_ratio_summary,
)
from repro.ted.ted_query import TEDBaselineEngine
from repro.trajgen import generate_dataset
from repro.trajgen.spark_io import dataset_df

import checks
import inputs
from calib import calibrate
import replay
import sparkctl

CFG = DATASET_CONFIGS["hz"]
KINDS = ("where", "when", "range")
# Queries of one type per batch, timed between two calibrations.
BATCH = 40


def run(ctx) -> dict:
    small = ctx.small
    n_traj = 30 if small else inputs.QUERY_TRAJ
    tr = ctx.tracer
    group = (lambda name: sparkctl.set_group(spark, name)) if ctx.trace \
        else (lambda name: None)

    t_setup = time.perf_counter()
    with tr.span("spark.session_start"):
        spark = sparkctl.start(ctx.root, ctx.work)
    try:
        with tr.span("trajgen.generate"):
            instances, times, net = dataset_df(spark, inputs.HZ, n_traj=n_traj)
            instances = instances.cache()
            times = times.cache()
            instances.count()
            times.count()
        grid = network_grid(net, CFG.grid_n)
        with tr.span("setup.compress"):
            group("utcq")
            compressed = compress_dataset(spark, instances, times, net, CFG).cache()
            compressed.count()
            group("index")
            _, sindex = index_dataframes(compressed)
            sindex = sindex.cache()
            sindex.count()
        with tr.span("query.engine_build"):
            engine = UTCQEngine.from_compressed_df(compressed, net, CFG)
        with tr.span("setup.ted_engine"):
            group("ted")
            ted = TEDBaselineEngine.from_dfs(
                ted_compressed_payloads(spark, instances, times, net, CFG),
                times, net, CFG, grid)
        with tr.span("setup.warm_up"):
            group("warm-up")
            v0 = next(iter(net.coords.values()))
            range_query_job(
                spark, compressed, sindex, net, CFG,
                Rect(v0[0], v0[1], v0[0] + 4 * grid.dx, v0[1] + 4 * grid.dx),
                43_200, 0.3)
        setup_s = time.perf_counter() - t_setup

        summary = ratio_summary(compressed)
        with tr.span("checks.output"):
            trajs = generate_dataset(net, inputs.HZ, n_traj=n_traj)
            decoded = _check_compressed(net, trajs, engine, summary)
            _check_ted(net, trajs, ted)
        # The TED Table 8 job takes about 10 s, a seventh of an untraced
        # run, which does not time it; traced and self-test runs run and
        # check it.
        ted_rows = ted_summary = None
        if ctx.trace or small:
            with tr.span("table8.ted_job"):
                group("ted-job")
                ted_df = ted_compress_dataset(spark, instances, times, net, CFG)
                ted_summary = ted_ratio_summary(ted_df)
                group("ted-rows")
                ted_rows = ted_df.collect()
            _check_table8(net, trajs, ted_rows, ted_summary, summary)
        w = Workload(ctx, net, grid, engine, ted, decoded, trajs,
                     lambda rect, tq, a: range_query_job(
                         spark, compressed, sindex, net, CFG, rect, tq, a))

        rounds = []
        if ctx.trace:
            rounds.append(w.round())  # warm-up, not compared
            rounds.append(w.round())  # untraced reference for the overhead
            layers = _traced(ctx, spark, w, rounds, summary)
        else:
            t_end = time.perf_counter() + ctx.seconds
            while not rounds or time.perf_counter() < t_end:
                rounds.append(w.round())
    finally:
        sparkctl.stop(spark)

    detail = w.detail(rounds)
    detail["calib_ms"] = statistics.median(
        1e3 * b[4] for r in rounds for b in r["batches"])
    costs = {side: _costs(rounds, side) for side in ("utcq", "ted")}
    for side, per_kind in costs.items():
        for kind, c in per_kind.items():
            detail[f"{side}_{kind}_cost"] = round(c, 4)
    cost = {side: statistics.geometric_mean(per_kind.values())
            for side, per_kind in costs.items()}
    detail["utcq_speedup"] = round(cost["ted"] / cost["utcq"], 4)
    detail["setup_spans"] = {s["name"]: round(s["end"] - s["start"], 3)
                             for s in tr.spans if s["parent"] is None}
    if ted_summary is not None:
        detail["ted_ratio"] = ted_summary["Total"]
    result = {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "detail": detail,
    }
    if ctx.trace:
        layers["spark.ted_encode_sum_s"] = sum(r.encode_ms for r in ted_rows) / 1e3
        layers["spark.ted_matrix_sum_s"] = sum(r.matrix_ms for r in ted_rows) / 1e3
        layers["ted.ratio"] = ted_summary["Total"]
        layers["trajgen.generate_s"] = tr.seconds("trajgen.generate")
        layers["query.engine_build_s"] = tr.seconds("query.engine_build")
        layers.update(replay.kernels(ctx, net, CFG, trajs))
        layers.update(replay.ted_matrix(ctx, net, trajs))
        layers["query.stiu_temporal_tuples"] = sum(
            len(e.temporal) for e in engine.entries.values())
        layers["query.stiu_spatial_tuples"] = sum(
            len(e.spatial) for e in engine.entries.values())
        result["layers"] = layers
    else:
        result["metrics"] = {
            "setup_s": setup_s,
            "utcq_cost": cost["utcq"],
            "ted_cost": cost["ted"],
            "utcq_ratio": summary["Total"],
        }
    return result


class Workload:
    """The queries of one run, in batches, and the checks of every answer."""

    def __init__(self, ctx, net, grid, engine, ted, decoded, trajs, range_job):
        self.net = net
        self.engine = engine
        self.ted = ted
        self.decoded = decoded
        self.range_job = range_job
        small = ctx.small
        rng = np.random.default_rng(ctx.seed)
        n_where = 40 if small else inputs.WHERE_PER_ROUND
        n_when = 40 if small else inputs.WHEN_PER_ROUND
        self.range_qs = inputs.range_queries(net, grid, trajs)
        if small:
            self.range_qs = self.range_qs[:25]
        self.queries = {
            "where": inputs.where_queries(rng, trajs, n_where),
            "when": inputs.when_queries(rng, trajs, n_when),
            "range": list(range(len(self.range_qs))),
        }
        # Batches of one type, the types taking turns, so that every type
        # is timed across the whole round.
        per_kind = [[(kind, list(enumerate(qs))[i:i + BATCH])
                     for i in range(0, len(qs), BATCH)]
                    for kind, qs in self.queries.items()]
        self.batches = [b for turn in itertools.zip_longest(*per_kind)
                        for b in turn if b is not None]
        self.job_qs = [i for i in inputs.RANGE_JOB_QUERIES if i < len(self.range_qs)]
        self._expected: dict = {}
        self.kind = "where"  # query type being run, for the traced counters

    def call(self, eng, kind, q):
        if kind == "range":
            return eng.range(*self.range_qs[q])
        return getattr(eng, kind)(*q)

    def expected(self, kind, q):
        key = (kind, q)
        if key not in self._expected:
            if kind == "where":
                tid, t, alpha = q
                ans = where_query_ref(self.net, self.decoded[tid], t, alpha)
            elif kind == "when":
                tid, edge, rd, alpha = q
                ans = when_query_ref(self.net, self.decoded[tid], edge, rd, alpha)
            else:
                rect, tq, alpha = self.range_qs[q]
                ans = range_query_ref(
                    self.net,
                    [d for d in self.decoded.values()
                     if d.t_first <= tq <= d.t_last],
                    rect, tq, alpha)
            self._expected[key] = ans
        return self._expected[key]

    def round(self) -> dict:
        times = {"utcq": [], "ted": [], "kind": []}  # per query
        batches = []  # (kind, queries, UTCQ s, TED s, calibration s)
        answers = []
        c_before = calibrate()
        for kind, qs in self.batches:
            self.kind = kind
            spent = {"utcq": 0.0, "ted": 0.0}
            for n, q in qs:
                t0 = time.perf_counter()
                a_u = self.call(self.engine, kind, q)
                t1 = time.perf_counter()
                a_t = self.call(self.ted, kind, q)
                t2 = time.perf_counter()
                times["utcq"].append(t1 - t0)
                times["ted"].append(t2 - t1)
                times["kind"].append(kind)
                spent["utcq"] += t1 - t0
                spent["ted"] += t2 - t1
                answers.append((kind, n, q, a_u, a_t))
            c_after = calibrate()
            batches.append((kind, len(qs), spent["utcq"], spent["ted"],
                            (c_before + c_after) / 2))
            c_before = c_after
        job_s, job_answers = [], []
        for i in self.job_qs:
            t0 = time.perf_counter()
            job_answers.append((i, self.range_job(*self.range_qs[i])))
            job_s.append(time.perf_counter() - t0)

        failed = []
        for kind, n, q, a_u, a_t in answers:
            exp = self.expected(kind, q)
            qid = f"{kind}:{n}"
            if not checks.same_answer(a_u, exp):
                failed.append("utcq-" + qid)
            if not checks.same_answer(a_t, exp):
                failed.append("ted-" + qid)
        for i, got in job_answers:
            if not checks.same_answer(got, self.expected("range", i)):
                failed.append(f"range-job-range:{i}")
        return {"times": times, "batches": batches, "job_s": job_s,
                "failed": failed,
                "query_cost": sum((u + t) / c for _, _, u, t, c in batches),
                "attempted": 2 * len(answers) + len(job_answers)}

    def detail(self, rounds) -> dict:
        out = {"rounds": len(rounds), "failed_ids": sorted(set(
            f for r in rounds for f in r["failed"]))}
        for side in ("utcq", "ted"):
            for kind in KINDS:
                xs = sorted(1e3 * t for r in rounds for t, k in
                            zip(r["times"][side], r["times"]["kind"]) if k == kind)
                out[f"{side}_{kind}_ms"] = round(statistics.median(xs), 4)
                # The highest percentile with ten samples beyond it.
                if len(xs) > 10:
                    out[f"{side}_{kind}_tail_ms"] = round(xs[-11], 4)
                    out[f"{side}_{kind}_tail_pct"] = round(
                        100 * (len(xs) - 10) / len(xs), 2)
        out["samples"] = {k: sum(r["times"]["kind"].count(k) for r in rounds)
                          for k in KINDS}
        out["range_job_s"] = [round(s, 3) for r in rounds for s in r["job_s"]]
        return out


def _costs(rounds, side: str) -> dict[str, float]:
    """Per query type, the per-query time in calibration-loop times
    (``calib``): each batch's median over rounds (a batch holds the same
    queries in every round), summed over the type's batches and divided by
    its number of queries."""
    col = {"utcq": 2, "ted": 3}[side]
    out = {}
    for kind in KINDS:
        per_round = [[b for b in r["batches"] if b[0] == kind] for r in rounds]
        n = sum(b[1] for b in per_round[0])
        out[kind] = sum(statistics.median(b[col] / b[4] for b in same)
                        for same in zip(*per_round)) / n
    return out


def _check_compressed(net, trajs, engine, summary) -> dict:
    """Decode every blob in full (the data the reference queries run on)
    and check it against the generated input and the bit accounting."""
    orig = checks.original_bits(net, trajs)
    comp = defaultdict(int)
    out = {}
    for traj in trajs:
        ct = engine.entries[traj.traj_id].ct
        checks.blob_accounting(ct)
        dec = decode_trajectory(ct, CFG, net.max_out_degree)
        checks.decoded_matches(net, traj, dec, CFG)
        for k, v in ct.comp_bits.items():
            comp[k] += v
        d = UncertainTrajectory(
            traj.traj_id, dec.t0, dec.deltas, dec.ts,
            [ted_to_instance(net, dec.teds[i]) for i in sorted(dec.teds)])
        tss = d.timestamps()
        d.t_first, d.t_last = tss[0], tss[-1]
        out[traj.traj_id] = d
    checks.same_ratio(summary["Total"], checks.ratio(orig, comp), "UTCQ Total ratio")
    return out


def _check_table8(net, trajs, ted_rows, ted_summary, summary) -> None:
    """The TED side of Table 8: the original bits equal a recount, the
    Total equals the rows', and UTCQ's Total exceeds TED's."""
    orig = checks.original_bits(net, trajs)
    t_orig = {k: 0 for k in orig}
    t_comp = 0
    for row in ted_rows:
        for k, col in (("T", "orig_t"), ("E", "orig_e"), ("D", "orig_d"),
                       ("Tp", "orig_tp"), ("p", "orig_p")):
            t_orig[k] += int(row[col])
        t_comp += sum(int(row[c]) for c in
                      ("comp_t", "comp_e", "comp_d", "comp_tp", "comp_p"))
    checks.expect(t_orig == orig, f"TED original bits {t_orig} != {orig}")
    ted_total = sum(orig.values()) / t_comp
    checks.same_ratio(ted_summary["Total"], ted_total, "TED Total ratio")
    checks.expect(summary["Total"] > ted_total,
                  f"Table 8 shape: UTCQ Total {summary['Total']} <= TED {ted_total}")


def _check_ted(net, trajs, ted) -> None:
    """The query baseline's data: every TED payload decodes to the input,
    and every matrix group of its code lengths is lossless."""
    be = bits_needed(net.max_out_degree + 1)
    groups: dict[int, list[str]] = {}
    for traj in trajs:
        blob = ted.blobs[traj.traj_id]
        checks.expect(len(blob.payloads) == len(traj.instances),
                      f"TED traj {traj.traj_id}: payload count")
        for i, payload in enumerate(blob.payloads):
            got = decode_instance_payload(payload, blob.m, be, CFG.eta_d, CFG.eta_p)
            checks.ted_payload_matches(net, traj, i, got, CFG)
            _, entries, _ = checks.ted_form(net, traj.instances[i])
            code = "".join(format(no, f"0{be}b") for no in entries)
            groups.setdefault(len(code), []).append(code)
    for length, codes in groups.items():
        checks.expect(decompress_check(codes, be),
                      f"TED matrix group of {length}-bit codes is lossy")


def _traced(ctx, spark, w: Workload, rounds, summary) -> dict:
    """Pass A repeats the round with spans and call counters on the layer
    entry points; pass B counts bit reads, which would slow pass A down."""
    tr = ctx.tracer
    eng, ted = w.engine, w.ted
    counts = tr.counts
    n_kind = {kind: len(qs) for kind, qs in w.queries.items()}

    orig_rc, orig_refine, orig_dec = (
        eng.range_candidates, eng.refine_range, ted.decompress)

    def range_candidates(*a, **k):
        with tr.span("query.range_index"):
            out = orig_rc(*a, **k)
        counts["query.range_candidates"] += sum(len(v) for v in out.values())
        return out

    def refine_range(*a, **k):
        with tr.span("query.refine"):
            return orig_refine(*a, **k)

    def decompress(*a, **k):
        with tr.span("ted.decompress"):
            out = orig_dec(*a, **k)
        counts["ted.decompressed_instances"] += len(out.instances)
        return out

    orig_partial = core_decoder.decode_instance_partial

    def partial(*a, **k):
        counts[f"query.partial_decodes.{w.kind}"] += 1
        return orig_partial(*a, **k)

    eng.range_candidates, eng.refine_range, ted.decompress = (
        range_candidates, refine_range, decompress)
    core_decoder.decode_instance_partial = partial
    query_engine.decode_instance_partial = partial
    orig_job = w.range_job
    job_stats = []

    def range_job(*a):
        group = f"range-job-{len(job_stats)}"
        sparkctl.set_group(spark, group)
        t0 = time.perf_counter()
        out = orig_job(*a)
        job_stats.append((time.perf_counter() - t0,
                          len(sparkctl.group_stages(spark, group))))
        return out

    w.range_job = range_job
    try:
        with tr.span("round.traced"):
            rounds.append(w.round())
    finally:
        del eng.range_candidates, eng.refine_range, ted.decompress
        core_decoder.decode_instance_partial = orig_partial
        query_engine.decode_instance_partial = orig_partial
        w.range_job = orig_job

    with tr.wrap_calls(BitReader, "read_bit", "bits.reader_calls"):
        for kind, qs in w.queries.items():
            before = counts["bits.reader_calls"]
            for q in qs:
                w.call(eng, kind, q)
            counts[f"bits.reader_calls.{kind}"] = counts["bits.reader_calls"] - before

    # Driver query time only, in calibration-loop times: the Spark range
    # jobs of a round vary by more than the whole query time, and so does
    # the host's speed between two rounds.  Round 0 warmed up.
    untraced, traced = rounds[1]["query_cost"], rounds[2]["query_cost"]
    layers = {
        "spark.utcq_kernel_tasks": sparkctl.pandas_udf_tasks(spark, "utcq"),
        "spark.ted_kernel_tasks": sparkctl.pandas_udf_tasks(spark, "ted-job"),
        "spark.utcq_kernel_sum_s": summary["kernel_ms"] / 1e3,
        "spark.range_job_s": statistics.fmean(s for s, _ in job_stats),
        "spark.range_job_stages": statistics.fmean(n for _, n in job_stats),
        "query.range_index_s": tr.seconds("query.range_index"),
        "query.range_candidates": counts["query.range_candidates"] / n_kind["range"],
        "query.refine_s": tr.seconds("query.refine"),
        "ted.decompress_s": tr.seconds("ted.decompress"),
        "ted.decompressed_instances": counts["ted.decompressed_instances"],
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
    }
    for kind in KINDS:
        layers[f"query.partial_decodes.{kind}"] = (
            counts[f"query.partial_decodes.{kind}"] / n_kind[kind])
        layers[f"bits.reader_calls.{kind}"] = (
            counts[f"bits.reader_calls.{kind}"] / n_kind[kind])
    return layers
