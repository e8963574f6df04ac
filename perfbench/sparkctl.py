"""Spark session lifetime and status-tracker readings for the benchmark.

The session is the program's own (``jobs/_common.get_spark``: local[*],
64 shuffle partitions, Arrow, no broadcast joins).  Only where Spark puts
its scratch files is set here, so a run writes inside its checkout.
"""
from __future__ import annotations

import os
import subprocess
import sys


def start(root: str, work: str):
    """Start the program's SparkSession with its Python workers able to
    import ``repro`` (``PYTHONPATH=src``)."""
    os.environ["PYTHONPATH"] = os.path.join(root, "src")
    os.environ["SPARK_LOCAL_DIRS"] = work
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f'--driver-java-options "-Djava.io.tmpdir={work} -XX:-UsePerfData" '
        "pyspark-shell",
    )
    # The program's defaults, not whatever the caller's shell exported.
    os.environ.pop("SPARK_MASTER", None)
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
    sys.path.insert(0, os.path.join(root, "jobs"))
    from _common import get_spark

    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session, then the gateway JVM (and with it the Python
    worker daemons), and wait for the JVM to exit."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def set_group(spark, group: str) -> None:
    spark.sparkContext.setJobGroup(group, group)


def _cluster_names(store, stage_id: int) -> set[str]:
    names: set[str] = set()
    todo = [store.operationGraphForStage(stage_id).rootCluster()]
    while todo:
        c = todo.pop()
        names.add(c.name())
        it = c.childClusters().iterator()
        while it.hasNext():
            todo.append(it.next())
    return names


def group_stages(spark, group: str) -> list[tuple[int, int, set[str]]]:
    """(stage id, completed tasks, operator names) of every stage that ran
    tasks for jobs of ``group``; skipped (reused) stages ran none."""
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    out = []
    for job in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(job)
        if info is None:
            continue
        for sid in info.stageIds:
            st = tracker.getStageInfo(sid)
            if st is None or st.numCompletedTasks == 0:
                continue
            out.append((sid, st.numCompletedTasks, _cluster_names(store, sid)))
    return out


def pandas_udf_tasks(spark, group: str) -> int:
    """Tasks of the ``applyInPandas`` stages of ``group``'s jobs.  A stage
    that scans a cached result shows the operators that built it in its
    graph as well; it is told apart by its ``InMemoryTableScan``."""
    return sum(n for _, n, names in group_stages(spark, group)
               if "FlatMapGroupsInPandas" in names
               and "InMemoryTableScan" not in names)
