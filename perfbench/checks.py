"""Correctness checks computed apart from the program.

Each function raises ``CheckError`` with a message naming what differs.
Expected values are derived here from the generated input: the improved
TED form (SV, E, T') straight from an instance's path and sample points,
and the original-bit accounting straight from the trajectory's shape.
"""
from __future__ import annotations

import math


class CheckError(AssertionError):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def ted_form(net, inst) -> tuple[int, list[int], list[int]]:
    """(SV, E, T' with both end bits) of one generated instance (§4.1):
    per path edge its outgoing number, one extra 0 entry per additional
    sample point on that edge; the flag marks entries carrying a point."""
    per_edge = [0] * len(inst.path)
    for e in inst.point_edge_idx:
        per_edge[e] += 1
    entries, flags = [], []
    for (u, v), r in zip(inst.path, per_edge):
        entries += [net.out_no(u, v)] + [0] * max(0, r - 1)
        flags += [1 if r else 0] + [1] * max(0, r - 1)
    return inst.path[0][0], entries, flags


def original_bits(net, trajs) -> dict[str, int]:
    """Uncompressed NCUT size by component: every instance lists its own
    32-bit timestamps, 32-bit SV and edge ids, 64-bit distances and
    probability, and one flag bit per E entry."""
    out = {"T": 0, "E": 0, "D": 0, "Tp": 0, "p": 0}
    for tr in trajs:
        m = len(tr.deltas) + 1
        for inst in tr.instances:
            _, e, f = ted_form(net, inst)
            out["T"] += 32 * m
            out["E"] += 32 * (1 + len(e))
            out["D"] += 64 * m
            out["Tp"] += len(f)
            out["p"] += 64
    return out


def decoded_matches(net, tr, dec, cfg) -> None:
    """A fully decoded UTCQ trajectory against its generated input: SV, E,
    T' and timestamps exactly; D within η_D and p within η_p, inclusive
    (p = 1 quantizes to 1 − η_p)."""
    tid = tr.traj_id
    expect(dec.timestamps() == tr.timestamps(), f"traj {tid}: timestamps differ")
    expect(sorted(dec.teds) == list(range(len(tr.instances))),
           f"traj {tid}: decoded instance ids {sorted(dec.teds)}")
    for i, inst in enumerate(tr.instances):
        got = dec.teds[i]
        sv, e, f = ted_form(net, inst)
        expect((got.sv, got.entries, got.tflag) == (sv, e, f),
               f"traj {tid} inst {i}: SV/E/T' differ")
        expect(len(got.d) == len(inst.rds), f"traj {tid} inst {i}: |D| differs")
        expect(all(abs(a - b) <= cfg.eta_d for a, b in zip(got.d, inst.rds)),
               f"traj {tid} inst {i}: D beyond eta_d")
        expect(abs(got.prob - inst.prob) <= cfg.eta_p,
               f"traj {tid} inst {i}: p beyond eta_p")


def blob_accounting(ct) -> None:
    """The blob is exactly as long as its accounted component bits, and
    every reference Algorithm 1 chose represents itself."""
    expect(ct.nbits == sum(ct.comp_bits.values()),
           f"traj {ct.traj_id}: nbits {ct.nbits} != component bits")
    expect(len(ct.blob) == (ct.nbits + 7) // 8,
           f"traj {ct.traj_id}: blob length does not match nbits")
    for r in set(ct.ref_of.values()):
        expect(ct.ref_of.get(r) == r, f"traj {ct.traj_id}: reference {r} not its own")


def ted_payload_matches(net, tr, i, got, cfg) -> None:
    inst = tr.instances[i]
    sv, e, f = ted_form(net, inst)
    expect((got.sv, got.entries, got.tflag) == (sv, e, f),
           f"TED traj {tr.traj_id} inst {i}: SV/E/T' differ")
    expect(all(abs(a - b) <= cfg.eta_d for a, b in zip(got.d, inst.rds))
           and len(got.d) == len(inst.rds),
           f"TED traj {tr.traj_id} inst {i}: D beyond eta_d")
    expect(abs(got.prob - inst.prob) <= cfg.eta_p,
           f"TED traj {tr.traj_id} inst {i}: p beyond eta_p")


def ratio(orig: dict, comp: dict) -> float:
    return sum(orig.values()) / sum(comp.values())


def same_ratio(a: float, b: float, what: str) -> None:
    expect(math.isclose(a, b, rel_tol=1e-12), f"{what}: {a} != {b}")



def same_answer(got, expected) -> bool:
    """Query answers are equal: ids exactly, distances and times up to
    floating-point rounding.  At a time equal to a sample's, the engine
    reaches the sample as the end of the interval before it (p0 + (p1 - p0)
    * 1) and the reference as the start of the next (p1), which may differ
    in the last bits."""
    if len(got) != len(expected):
        return False
    for a, b in zip(got, expected):
        a, b = (a, b) if isinstance(a, tuple) else ((a,), (b,))
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(y, float) or isinstance(x, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-6):
                    return False
            elif x != y:
                return False
    return True
