"""The benchmark's workloads: input generation, the call under test, the
independent output check and the serialized output that is digested.

Inputs come only from the workload name, the run seed and the call index,
so the same seed gives the same inputs; nothing is filtered or resampled.
Fields are assigned round-robin over the call index, so every run holds the
same mix of fields.  Sizes are chosen so that a call takes 0.2-1 s on one
core: a run then holds 40-150 calls, enough for its median to repeat from
seed to seed, and each workload's per-call times form one cluster rather
than several (a median that falls between two clusters jumps between them).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """An output failed the benchmark's own correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: tuple        # (p, n) pairs, assigned round-robin
    make: Callable       # (lib, ratfield, rng, index) -> input
    call: Callable       # (lib, input, index) -> output
    check: Callable      # (lib, input, output) -> None, raises CheckFailed
    serialize: Callable  # (lib, input, output) -> str
    trace_calls: int     # calls in a traced run (a fixed set, so counts repeat)


def input_rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512 by random.seed: stable across runs
    return random.Random("%s:%d:%d" % (workload, seed, index))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------

def _first_order_lclm(lib, R, a, b):
    """LCLM(D - a, D - b) in closed form, independent of ``ore.lclm``:
    (D - c)(D - a) with c = b + (b - a)'/(b - a) is the monic order-2
    operator that D - b also right-divides (Riccati condition)."""
    if a == b:
        return lib.ore.OrePoly(R, [-a, R.one])
    d = b - a
    c = b + d.derivative() / d
    return lib.ore.OrePoly(R, [c * a - a.derivative(), -(a + c), R.one])


def make_split(lib, R, rng, index):
    # degree 2/2 over GF(p), 1/1 over GF(p^2), so GF(9)'s calls cost about
    # what GF(5)'s and GF(7)'s do
    deg = 2 if R.base.n == 1 else 1
    a = R.random(rng, deg, deg)
    b = R.random(rng, deg, deg)
    return _first_order_lclm(lib, R, a, b)


def make_central(lib, R, rng, index):
    """D^p - c(t^p) with c = alpha + rho/(t - t0), rho != 0, t0 != 0: a
    degree-1/1 c with a simple pole, so over GF(p) no f solves the
    Artin-Schreier equation and every call takes the ASD failure path.  (A
    pole at t = 0 costs a third as much; mixing both would put the median
    between two clusters.)"""
    F = R.base
    p = F.p
    rho = F.from_int(1 + rng.randrange(p - 1))
    t0 = F.from_int(1 + rng.randrange(p - 1))
    alpha = F.random(rng)
    Poly = lib.fieldkit.Poly
    c = R.from_base(alpha) + R.elem(Poly(F, [rho]), Poly(F, [-t0, F.one]))
    c = c.inflate(p)
    return lib.ore.OrePoly(R, [-c] + [R.zero] * (p - 1) + [R.one])


def make_classify(lib, R, rng, index):
    coeffs = [R.random(rng, 2, 1) for _ in range(3)]
    return lib.ore.OrePoly(R, coeffs + [R.one])


# ---------------------------------------------------------------------------
# Calls under test
# ---------------------------------------------------------------------------

def call_decompose(lib, L, index):
    return lib.decomp.lclm_decompose(L, seed=index)


def call_classify(lib, L, index):
    data = lib.pcurv.pcurv_data(L)
    factors = lib.decomp.check_hypothesis(L)
    return data, factors


# ---------------------------------------------------------------------------
# Independent output checks (no ASD oracle, no verify_decomposition)
# ---------------------------------------------------------------------------

def check_decomposition(lib, L, report):
    """lclm(factors) is the monic input, the factor orders add up to its
    order, and every factor is monic of positive order and right-divides it."""
    mon = L.monic()
    factors = list(report.factors)
    if report.monic_input != mon:
        raise CheckFailed("report carries a different monic input")
    if not factors:
        raise CheckFailed("no factors")
    if sum(f.order for f in factors) != mon.order:
        raise CheckFailed("factor orders do not add up to the input order")
    for f in factors:
        if f.order < 1 or not f.is_monic():
            raise CheckFailed("factor is not monic of positive order")
        if lib.ore.ore_rem(mon, f):
            raise CheckFailed("factor does not right-divide the input")
    if lib.ore.lclm(factors) != mon:
        raise CheckFailed("lclm of the factors is not the monic input")


def check_classify(lib, L, output):
    """The invariants form a chain that multiplies to chi, deg chi = r, and
    the separable factors N_*^m multiply to the p-th root of chi."""
    data, factors = output
    R = L.field
    chi = data.charpoly
    if chi.degree != L.order or not chi.is_monic():
        raise CheckFailed("chi is not monic of degree ord L")
    prod = lib.fieldkit.Poly.one(R)
    for P in data.invariants:
        prod = prod * P
    if prod != chi:
        raise CheckFailed("invariants do not multiply to chi")
    for a, b in zip(data.invariants, data.invariants[1:]):
        if b.divmod(a)[1]:
            raise CheckFailed("invariants do not form a divisibility chain")
    root = lib.fieldkit.Poly.one(R)
    for Q in data.invariant_roots:
        root = root * Q
    prod = lib.fieldkit.Poly.one(R)
    for n_star, m in factors:
        prod = prod * n_star ** m
    if prod != root:
        raise CheckFailed("separable factors do not multiply to the root of chi")


# ---------------------------------------------------------------------------
# Serialized outputs
# ---------------------------------------------------------------------------

def serialize_decomposition(lib, L, report):
    ser = lib.serialize
    parts = [ser.operator_str(L)]
    parts.extend(ser.operator_str(f) for f in report.factors)
    parts.extend(ser.spoly_str(P) for P in report.invariants)
    return "\n".join(parts)


def serialize_classify(lib, L, output):
    ser = lib.serialize
    data, factors = output
    parts = [ser.operator_str(L)]
    parts.extend(ser.spoly_str(P) for P in data.invariants)
    parts.extend("%s^%d" % (ser.ypoly_str(n), m) for n, m in factors)
    return "\n".join(parts)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "split",
            "LCLMs of two first-order operators over GF(5), GF(9), GF(7): the "
            "generic reducible case, where the hom-space elimination dominates",
            ((5, 1), (3, 2), (7, 1)),
            make_split, call_decompose, check_decomposition,
            serialize_decomposition, 48),
        Workload(
            "central",
            "central operators D^3 - c(t^3) over GF(3): m = p stripping, the "
            "central power loop and the ASD failure path",
            ((3, 1),),
            make_central, call_decompose, check_decomposition,
            serialize_decomposition, 18),
        Workload(
            "classify",
            "p-curvature invariants of order-3 operators over GF(17): pcurv and "
            "linalg dominate; no ASD and no hom space run",
            ((17, 1),),
            make_classify, call_classify, check_classify,
            serialize_classify, 46),
    )
}
