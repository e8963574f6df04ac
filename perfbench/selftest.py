"""Small-input self-test of the benchmark, about a minute on 4 cores.

    python3 perfbench/selftest.py

Runs every workload once with ``--small`` (tiny inputs, every check still
applied), checks the shape of each result line against BENCHMARK.json and
that the two known faults show up as failed operations, and checks that the
benchmark refuses to run where the program's sources are missing.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0", "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"] for m in spec["end_to_end"]}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        p = run(ROOT, w)
        if p.returncode != 0:
            problems.append(f"{w}: exit {p.returncode}\n{p.stderr[-2000:]}")
            continue
        res = json.loads(p.stdout.strip().splitlines()[-1])
        print(w, json.dumps(res))
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{w}: result keys {sorted(res)}")
        if not res["correct"] or res["attempted"] < 1:
            problems.append(f"{w}: correct={res['correct']} "
                            f"attempted={res['attempted']}")
        if set(res["metrics"]) != names or any(
                not m["value"] for m in res["metrics"].values()):
            problems.append(f"{w}: metrics {res['metrics']}")
        # The range index misses answers on query-hz and the oversized
        # trajectory fails on tail-hz.
        if res["failed"] == 0:
            problems.append(f"{w}: no failed operations")

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bare, "tail-hz")
        if p.returncode == 0 or p.stdout.strip():
            problems.append("ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for msg in problems:
        print("FAIL", msg)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
