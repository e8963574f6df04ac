"""UTCQ benchmark: Spark compression and queries, and paper-tail
reference selection, end to end or layer by layer.

    python3 perfbench/run.py --workload query-hz|tail-hz \
        --seed N --seconds S --trace 0|1 [--small]

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Diagnostics go to standard error.  ``--small``
shrinks every input for the self-test (``perfbench/selftest.py``).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query-hz", "tail-hz")


@dataclass
class Ctx:
    seed: int
    seconds: int
    trace: bool
    small: bool
    root: str
    work: str
    tracer: object


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import checks
    from spans import Tracer

    work = os.path.join(ROOT, ".bench_work")
    scratch = os.path.join(work, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    ctx = Ctx(args.seed, args.seconds, bool(args.trace), args.small, ROOT,
              scratch, Tracer())
    module = __import__(args.workload.replace("-", "_"))
    try:
        res = module.run(ctx)
        correct = True
    except checks.CheckError as e:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
        res, correct = None, False
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if res is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 0

    print("perfbench detail: " + json.dumps(res["detail"]), file=sys.stderr)
    if args.trace:
        ctx.tracer.dump(os.path.join(
            work, f"spans-{args.workload}-seed{args.seed}.json"))
    values = res["layers" if args.trace else "metrics"]
    metrics = {}
    for m in wanted:
        # A per-layer metric of a layer this workload does not run reads 0.
        v = values[m["name"]] if not args.trace else values.get(m["name"], 0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
