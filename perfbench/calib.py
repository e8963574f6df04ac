"""Host-speed calibration for the end-to-end costs.

This host's CPU speed drifts by up to ±20 % from one few-second window to
the next, so absolute timings of the same work spread too far between runs
to gate on.  The end-to-end costs are therefore times divided by the time
of a fixed pure-Python loop run just before and just after the measured
work.  The loop shares no code with the program, so a change to any layer
of the program moves the cost, and only the host's speed cancels out.

The loop does the kind of work the program's kernels do in the
interpreter: integer arithmetic, shifts and masks, dict and list access and
small function calls.
"""
from __future__ import annotations

import statistics
import time

PASS_ITERS = 8000  # one pass takes 1-2 ms on this host
PASSES = 5


def _step(acc: int, k: int) -> int:
    return ((acc << 5) ^ (acc >> 2) ^ k) & 0xFFFFFFFF


def _one_pass() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    row = [0] * 64
    acc = 1
    for i in range(PASS_ITERS):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + (acc & 7)
        row[k & 63] += k >> 6
        acc = _step(acc, row[(k >> 3) & 63])
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median time of a few passes of the fixed loop, in seconds."""
    return statistics.median(_one_pass() for _ in range(PASSES))
