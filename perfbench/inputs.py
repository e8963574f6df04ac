"""Seeded inputs of the three workloads.

The program only ever sees generated trajectories and query tuples; every
choice below is made here, from ``--seed`` or from a constant that does not
depend on it (stated where it is used).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from repro.roadnet.grid import Rect
from repro.trajgen import DATASET_PROFILES
from repro.trajgen.uncertain import generate_trajectory

HZ = DATASET_PROFILES["hz"]

# query-hz: the program's own HZ-lite profile (its fixed profile seed), so
# the data -- and with it the range answers the index gets wrong -- are the
# same in every run; --seed draws the where and when queries.  Each type is
# timed in its own batches and the types are weighted equally (see
# query_hz), so these counts set how many batches each median is taken
# over, not a traffic mix.
QUERY_TRAJ = 200
WHERE_PER_ROUND = 480
WHEN_PER_ROUND = 480
# The range set is fixed too (constant seed): a seeded set would miss a
# different number of answers on each seed.  Range jobs replay two members
# of it: query 0, and query 15, one of the six the index answers wrongly.
RANGE_SEED = 1
RANGE_PER_ROUND = 200
RANGE_JOB_QUERIES = (0, 15)

# tail-hz: paper-tail trajectories (Table 5: up to 1,500 instances and 189
# edges), of the (edges, requested instances) shapes below, spanning the
# tail within the blob format's 255-instance limit, and one that requests
# 1,500 and yields 267 distinct instances on 167 edges, so it fails in
# every run (the stale guard in encode_trajectory).  A route too short of
# detours to give the requested number of distinct instances is redrawn.
# The trajectories are fixed, like query-hz's data: at the same shape,
# FJD's work differed by up to 1.6x from one seeded route to another (with
# how the instances share start vertices and factors), far more than the
# host's noise, and no run of bearable length averages that out.  --seed
# draws the order the trajectories are compressed in.
TAIL_SHAPES = ((120, 120), (155, 180), (189, 240))
TAIL_SEED = 1
TAIL_OVERSIZE_REQUEST = 1500
TAIL_OVERSIZE_SEED = 17_000_029
TAIL = dataclasses.replace(
    HZ, name="hz-tail", min_edges=120, avg_edges=155.0, max_edges=189
)


def tail_trajectories(net, seed: int) -> list:
    """The fixed tail trajectories, the oversized one with the largest id,
    in the order ``seed`` draws."""
    out = []
    for k, (edges, req) in enumerate(TAIL_SHAPES):
        prof = dataclasses.replace(
            TAIL, min_edges=edges, avg_edges=float(edges), max_edges=edges,
            min_instances=req, avg_instances=float(req), max_instances=req,
        )
        for attempt in range(50):
            traj = generate_trajectory(
                net, prof, k, seed=(TAIL_SEED * 1_000_003 + k) * 101 + attempt)
            if len(traj.instances) == req:
                break
        out.append(traj)
    big = dataclasses.replace(
        TAIL, min_instances=TAIL_OVERSIZE_REQUEST,
        avg_instances=float(TAIL_OVERSIZE_REQUEST),
        max_instances=TAIL_OVERSIZE_REQUEST,
    )
    out.append(generate_trajectory(
        net, big, len(TAIL_SHAPES), seed=TAIL_OVERSIZE_SEED))
    return [out[i] for i in np.random.default_rng(seed).permutation(len(out))]


def range_queries(net, grid, trajs) -> list[tuple[Rect, int, float]]:
    """Fixed range set: a 2-6 cell wide square around a vertex some
    instance visits, a time inside that trajectory's span, and α."""
    rng = np.random.default_rng(RANGE_SEED)
    out = []
    for _ in range(RANGE_PER_ROUND):
        tr = trajs[int(rng.integers(len(trajs)))]
        inst = tr.instances[0]
        v = inst.path[int(rng.integers(len(inst.path)))][0]
        vx, vy = net.coords[v]
        half = float(rng.uniform(1, 3)) * grid.dx
        tss = tr.timestamps()
        tq = int(rng.integers(tss[0], tss[-1] + 1))
        alpha = float(rng.choice([0.1, 0.3, 0.5, 0.7]))
        out.append((Rect(vx - half, vy - half, vx + half, vy + half), tq, alpha))
    return out


def where_queries(rng, trajs, n: int) -> list[tuple[int, int, float]]:
    out = []
    for _ in range(n):
        tr = trajs[int(rng.integers(len(trajs)))]
        tss = tr.timestamps()
        t = int(rng.integers(tss[0], tss[-1] + 1))
        out.append((tr.traj_id, t, float(rng.choice([0.05, 0.1, 0.2, 0.3]))))
    return out


def when_queries(rng, trajs, n: int) -> list[tuple[int, tuple, float, float]]:
    out = []
    for _ in range(n):
        tr = trajs[int(rng.integers(len(trajs)))]
        inst = tr.instances[int(rng.integers(len(tr.instances)))]
        edge = inst.path[int(rng.integers(len(inst.path)))]
        rd = float(rng.integers(0, 16)) / 16.0
        out.append((tr.traj_id, edge, rd,
                    float(rng.choice([0.05, 0.1, 0.2, 0.3]))))
    return out
