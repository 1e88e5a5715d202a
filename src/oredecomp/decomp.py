"""The LCLM-decomposition pipeline.

Given an operator L over GF(q)(t) whose p-curvature characteristic polynomial
has no inseparable irreducible factor, the pipeline:

1. reads the Frobenius invariants P_1 | ... | P_m of the p-curvature and
   their p-th roots Q_1 | ... | Q_m over GF(q)(t);
2. classifies each irreducible factor N_* of Q_m by its layers nu_N(Q_i);
   its primary block is GCRD(L, W), W the operator with coordinates
   N^nu(Psi) e_0 = N^nu(D^p) mod L, read from the polynomial numerators of
   the p-curvature Psi in step 1's record (L itself when W = 0);
3. emits a cyclic block (N_* only in Q_m) as it is: its decomposition is
   unique;
4. emits a central block (m = p, N_* equal in every layer) as it is when its
   symbol is irreducible, else as the p pieces of nice_repr([N_*^nu] * p);
5. gathers the other N_* into one residual block, builds a representative
   L* with its invariants from first-order data in the extensions K_N
   (through the Artin-Schreier witnesses), whose decomposition is known by
   construction, finds an isomorphism of quotient modules D_L* -> D_block
   as a random GCRD-coprime element of the kernel of M |-> L*M mod block, a
   GF(q)(t^p)-linear map, and propagates the known decomposition through it
   by GCRDs, acting on D_block only through its companion connection
   (ore.times_d_mod, ore.mul_mod).

Every returned decomposition is re-verified exactly: LCLM re-check, order
sum, right-divisibility and per-factor indecomposability.  One run solves
the Artin-Schreier system at most once per N_*: its verdict store is filled
by steps 4 and 5 and read by verification, which also reuses the run's
p-curvature record, with chi's factorisation, for a factor equal to the
input.  The report's iso_witness is the isomorphism of step 5, onto the
residual block; it is None when every block is cyclic or central.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .algext import ExtField
from .asd import central_operator_reducible
from .errors import (
    CentralIrreducibleFactor,
    ConstantFieldViolation,
    EmptyRequest,
    NotCoprime,
    OrderMismatch,
    RetryExhausted,
    VerificationFailed,
    ZeroOperator,
)
from .fieldkit import Poly, RatFuncField
from .linalg import Matrix, first_dependency, frac_poly_e0, kernel_basis
from .ore import (
    OrePoly,
    gcrd,
    lclm,
    mul_mod,
    operator_degree,
    ore_mul,
    ore_pow,
    ore_rem,
    shift_partial,
    times_d_mod,
)
from .serialize import ypoly_str
from .pcurv import (
    PCurvData,
    central_operator,
    invariants_pth_root,
    pcurv_charpoly,
    pcurv_data,
    ratfunc_from_constants,
    separable_factors,
    ypoly_from_constants,
    ypoly_pth_power,
)


# ---------------------------------------------------------------------------
# Small data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantRequest:
    """A divisibility chain Q_1 | ... | Q_m of monic polynomials over
    GF(q)(t), m <= p, whose last entry has only separable irreducible
    factors with reducible central symbol."""

    chain: tuple

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple(self.chain))


@dataclass(frozen=True)
class FactorLabel:
    """Bookkeeping for one factor: its chi-root N_*^nu and the shift layer."""

    n_star: Poly
    nu: int
    shift: int

    def sort_key(self):
        return (self.n_star.sort_key(), self.nu, self.shift)


@dataclass(frozen=True)
class NiceRepr:
    l_star: OrePoly
    pieces: tuple
    labels: tuple


@dataclass(frozen=True)
class HomBasis:
    """A GF(q)(t^p)-basis of the module homomorphisms D_L* -> D_L, each given
    by its value at 1 (an operator of order < ord L)."""

    basis: tuple


@dataclass(frozen=True)
class VerificationFlags:
    lclm_ok: bool
    order_sum_ok: bool
    divides_ok: tuple
    indecomposable_ok: tuple

    @property
    def all_ok(self):
        return (
            self.lclm_ok
            and self.order_sum_ok
            and all(self.divides_ok)
            and all(self.indecomposable_ok)
        )


@dataclass(frozen=True)
class DecompositionReport:
    input: OrePoly
    monic_input: OrePoly
    charpoly: Poly
    invariants: tuple
    invariant_roots: tuple
    factors: tuple
    labels: tuple
    iso_witness: OrePoly | None
    flags: VerificationFlags | None
    degrees: tuple
    seed: int

    @property
    def verified(self):
        return self.flags.all_ok if self.flags is not None else None


# ---------------------------------------------------------------------------
# Hypothesis and first decomposition
# ---------------------------------------------------------------------------

def check_hypothesis(L: OrePoly):
    """Factor the p-th root of chi(psi_p^L) over GF(q)(t) and require every
    irreducible factor separable.  Returns [(N_*, multiplicity)]."""
    if not L:
        raise ZeroOperator("hypothesis check of the zero operator")
    return separable_factors(invariants_pth_root(pcurv_charpoly(L)))


def _block(L: OrePoly, part, data: PCurvData) -> OrePoly:
    """The right factor of L whose module is the sum of the N_*-primary parts
    of D_L for (N_*, nu) in part, nu >= nu_N(Q_m): GCRD(L, W), W the
    operator with coordinates N(Psi) e_0, where Psi is the p-curvature of L
    and N(Y^p) = prod N_*^(p nu).  D^p is central and N's coefficients lie
    in GF(q)(t^p), so N(Psi) e_0 = N(D^p) mod L, of order < ord L.  The
    vector comes from the run's record by Horner on Psi's polynomial
    numerators over their one denominator (linalg.frac_poly_e0), so Psi's
    reduced entries are not built.  When part holds every factor of Q_m to
    at least its power there, the minimal polynomial P_m of Psi divides N,
    so W = 0 and the block is monic L, with nothing to evaluate."""
    nus = dict(part)
    if all(nus.get(n_star, 0) >= nu for n_star, nu in data.root_factors):
        return L.monic()
    root = math.prod((n_star ** nu for n_star, nu in part), start=Poly.one(L.field))
    n_e0 = frac_poly_e0(ypoly_from_constants(ypoly_pth_power(root)),
                        data.numerators, data.denominator)
    return gcrd(L, OrePoly(L.field, n_e0))


def first_decomposition(L: OrePoly):
    """Split L along the distinct irreducible factors of chi into its
    primary blocks L_i = GCRD(L, N_i^nu_i(D^p)), read from one p-curvature
    record.  Returns [(L_i, N_i_star, nu_i)], nu_i the multiplicity of
    N_i_star in chi's p-th root, with the orders of the L_i summing to
    ord L."""
    if not L:
        raise ZeroOperator("first decomposition of the zero operator")
    data = pcurv_data(L)
    root = invariants_pth_root(data.charpoly)  # Q_m's factors, to higher powers
    factors = [(n_star, _multiplicity(n_star, root)) for n_star, _ in data.root_factors]
    out = [(_block(L, [(n_star, nu)], data), n_star, nu) for n_star, nu in factors]
    if sum(li.order for li, _, _ in out) != L.order:
        raise VerificationFailed("first decomposition lost order")
    return out


# ---------------------------------------------------------------------------
# Minimal rational left multiples
# ---------------------------------------------------------------------------

def minimal_rational_multiple(R: OrePoly, ext: ExtField) -> OrePoly:
    """The minimal-order monic operator over GF(q)(t) that is a left multiple
    of R in K<D>.

    The remainders of D^k modulo R, k = 0 .. dim, stepped by R's companion
    connection, are flattened to GF(q)(t) coordinates (dimension
    dim = ord R * deg K); their first linear dependency
    (linalg.first_dependency) gives the multiple."""
    if not R:
        raise ZeroOperator("minimal multiple of the zero operator")
    ratfield = ext.ratfield
    tail = R.monic().coeffs[:-1]
    cur = [ext.one if j == 0 else ext.zero for j in range(R.order)]
    images = [[x for c in cur for x in c.coords]]
    for _ in range(R.order * ext.deg):
        cur = times_d_mod(cur, tail, ext)
        images.append([x for c in cur for x in c.coords])
    return OrePoly(ratfield, first_dependency(ratfield, images))


# ---------------------------------------------------------------------------
# Canonical representatives (nice_repr)
# ---------------------------------------------------------------------------

def _verdict(n_star: Poly, witnesses: dict):
    """The ASD verdict on N_*'s central symbol, solved at most once per
    store."""
    verdict = witnesses.get(n_star)
    if verdict is None:
        verdict = central_operator_reducible(n_star)
        witnesses[n_star] = verdict
    return verdict


def _multiplicity(n_star: Poly, q_poly: Poly) -> int:
    m = 0
    while q_poly.degree >= n_star.degree:
        quo, rem = q_poly.divmod(n_star)
        if rem:
            break
        q_poly = quo
        m += 1
    return m


def nice_repr(request, witnesses: dict | None = None) -> NiceRepr:
    """Build an operator L* whose Frobenius invariants are the requested
    chain P_1 | ... | P_m (given through the p-th roots Q_i over GF(q)(t)),
    together with its LCLM-decomposition.

    For every layer i and every irreducible factor N_* of Q_m with
    nu = nu_N(Q_i) > 0, the piece is the shift by i/t of the minimal rational
    multiple of (tD - t f_N)^nu over K_N, where f_N is the Artin-Schreier
    witness of N_*.  L* is the LCLM of the pieces.

    ``witnesses`` is a verdict store {N_*: ReducibilityVerdict}: verdicts in
    it are reused, and the ones computed here are added to it.
    """
    chain = list(request.chain if isinstance(request, InvariantRequest) else request)
    if not chain or all(q.degree == 0 for q in chain):
        raise EmptyRequest("no nontrivial invariant requested")
    ratfield = chain[0].field
    if not isinstance(ratfield, RatFuncField):
        raise TypeError("invariant chains live over GF(q)(t)")
    p = ratfield.base.p
    if len(chain) > p:
        raise EmptyRequest("chain longer than p")
    for q_poly in chain:
        if not q_poly.is_monic():
            raise EmptyRequest("chain entries must be monic")
    for a, b in zip(chain, chain[1:]):
        if a.degree > 0 and b.divmod(a)[1]:
            raise EmptyRequest("chain entries must form a divisibility chain")
    return _nice_repr(chain, separable_factors(chain[-1]),
                      {} if witnesses is None else witnesses)


def _nice_repr(chain, factors, witnesses: dict) -> NiceRepr:
    """nice_repr on a valid chain whose last entry factors as ``factors``,
    [(N_*, nu)]: the pipeline passes the factors it already holds."""
    ratfield = chain[0].field
    pieces = []
    labels = []
    t_rf = ratfield.t
    for n_star, _ in factors:
        verdict = _verdict(n_star, witnesses)
        if not verdict.reducible:
            raise CentralIrreducibleFactor(
                "central symbol of %s is irreducible" % ypoly_str(n_star)
            )
        ext = verdict.witness.f.field
        f_n = verdict.witness.f
        t_e = ext.from_ratfunc(t_rf)
        base_op = OrePoly(ext, [-(t_e * f_n), t_e])  # tD - t f_N
        for i, q_i in enumerate(chain, start=1):
            nu = _multiplicity(n_star, q_i)
            if nu == 0:
                continue
            rational = minimal_rational_multiple(ore_pow(base_op, nu), ext)
            if rational.order != nu * n_star.degree:
                raise VerificationFailed(
                    "rational multiple has order %d, expected %d"
                    % (rational.order, nu * n_star.degree)
                )
            shift = ratfield.from_int(i) / t_rf
            pieces.append(shift_partial(rational, shift))
            labels.append(FactorLabel(n_star, nu, i))
    order = sorted(range(len(pieces)), key=lambda k: labels[k].sort_key())
    pieces = [pieces[k] for k in order]
    labels = [labels[k] for k in order]
    return NiceRepr(l_star=lclm(pieces), pieces=tuple(pieces), labels=tuple(labels))


# ---------------------------------------------------------------------------
# Homomorphism spaces and isomorphism selection
# ---------------------------------------------------------------------------

def hom_space(l_star: OrePoly, L: OrePoly) -> HomBasis:
    """A basis of ker(M |-> L* M mod L) over GF(q)(t^p), the space of module
    homomorphisms D_L* -> D_L.

    The map is GF(q)(t^p)-linear; its (p r) x (p r) matrix is taken in the
    bases t^u D^j (0 <= u < p, 0 <= j < r) by splitting every remainder
    coefficient into its t^p-components.
    """
    if l_star.order != L.order or L.order < 1:
        raise OrderMismatch("hom space needs equal positive orders")
    field = L.field
    p = field.base.p
    r = L.order
    t_rf = field.t
    columns = []
    for j in range(r):
        for u in range(p):
            w = mul_mod(l_star, [field.zero] * j + [t_rf ** u], L)
            columns.append([x for c in w for x in c.tp_components()])
    mat = Matrix(field, list(zip(*columns)))
    basis = []
    for vec in kernel_basis(mat):
        coeffs = []
        for j in range(r):
            acc = field.zero
            for u in range(p):
                c = vec[j * p + u]
                if c:
                    acc = acc + ratfunc_from_constants(c) * t_rf ** u
            coeffs.append(acc)
        op = OrePoly(field, coeffs)
        if ore_rem(ore_mul(l_star, op), L):
            raise ConstantFieldViolation(
                "hom-space element fails L* M = 0 mod L after reassembly"
            )
        basis.append(op)
    return HomBasis(basis=tuple(basis))


def pick_iso(l_star: OrePoly, L: OrePoly, basis: HomBasis, rng: random.Random) -> OrePoly:
    """A random kernel element M with GCRD(M, L) = 1, i.e. an isomorphism.

    Coefficients are sampled from GF(q) first, then from polynomials in t^p
    of degree 1, 2, 3 on escalation; 64 samples per level."""
    if not basis.basis:
        raise RetryExhausted("empty hom basis")
    field = L.field
    base = field.base
    p = base.p
    for level in range(4):
        for _ in range(64):
            m_op = OrePoly.zero(field)
            for b in basis.basis:
                coeff_poly = Poly(base, [base.random(rng) for _ in range(level + 1)])
                c = field.from_poly(coeff_poly).inflate(p) if coeff_poly else field.zero
                if c:
                    m_op = m_op + b.scale(c)
            if not m_op:
                continue
            if gcrd(m_op, L).order == 0:
                return m_op
    raise RetryExhausted("no coprime hom-space element found in 4*64 samples")


def propagate(L: OrePoly, m_op: OrePoly, pieces) -> list[OrePoly]:
    """Push a known decomposition through the isomorphism M:
    the factors of L are GCRD(L, L*_i M mod L), monic."""
    if gcrd(m_op, L).order != 0:
        raise NotCoprime("isomorphism witness is not coprime with L")
    return _propagate(L, m_op, pieces)


def _propagate(L: OrePoly, m_op: OrePoly, pieces) -> list[OrePoly]:
    """propagate for an M that pick_iso has already found coprime with L."""
    m_vec = ore_rem(m_op, L).coeffs
    out = []
    for piece in pieces:
        out.append(gcrd(L, OrePoly(L.field, mul_mod(piece, m_vec, L))))
    return out


# ---------------------------------------------------------------------------
# Indecomposability
# ---------------------------------------------------------------------------

def is_indecomposable(L: OrePoly, *, witnesses: dict | None = None,
                      data: PCurvData | None = None) -> bool:
    """True when D_L does not split: chi's p-th root is a power N_*^k of a
    single irreducible N_*, k = ord L / deg N_*, and either the central
    symbol of N_* is reducible and the p-curvature has a single invariant
    factor, or it is irreducible and L is N^(k/p)(D^p) itself.

    The ASD verdict is needed only when p divides k: an irreducible symbol
    makes every simple module of order p deg N_*, hence k a multiple of p,
    so for k prime to p the symbol is reducible.

    ``witnesses`` is a verdict store as in nice_repr and ``data`` the
    p-curvature record of L, when the caller has them; a call without them
    solves and computes its own.
    """
    if L.order < 1:
        return False
    if L.order == 1:
        return True
    if data is None:
        data = pcurv_data(L)
    factors = data.root_factors
    if len(factors) != 1:
        return False
    n_star = factors[0][0]
    k = L.order // n_star.degree
    p = L.field.base.p
    if k % p or _verdict(n_star, {} if witnesses is None else witnesses).reducible:
        return len(data.invariants) == 1
    return L.monic() == central_operator(n_star, k)


# ---------------------------------------------------------------------------
# Verification and the top-level pipeline
# ---------------------------------------------------------------------------

def verify_decomposition(L: OrePoly, factors, *, witnesses: dict | None = None,
                         data: PCurvData | None = None) -> VerificationFlags:
    """Exact re-check of a claimed decomposition: LCLM, order sum,
    right-divisibility, and per-factor indecomposability.

    ``witnesses`` and ``data`` (the p-curvature record of L) are handed to
    is_indecomposable, ``data`` only for a factor equal to monic L."""
    factors = list(factors)
    if not factors:
        ok = L.order == 0
        return VerificationFlags(ok, ok, (), ())
    if witnesses is None:
        witnesses = {}
    l_mon = L.monic()
    lclm_ok = lclm(factors) == l_mon
    order_sum_ok = sum(f.order for f in factors) == L.order
    divides_ok = tuple(not ore_rem(L, f) for f in factors)
    indecomposable_ok = tuple(
        is_indecomposable(f, witnesses=witnesses,
                          data=data if f.monic() == l_mon else None)
        for f in factors
    )
    return VerificationFlags(lclm_ok, order_sum_ok, divides_ok, indecomposable_ok)


def lclm_decompose(L: OrePoly, seed: int = 0, verify: bool = True) -> DecompositionReport:
    """The full decomposition pipeline (deterministic under the seed): one
    pass over chi's factors emits the cyclic and central primary blocks,
    then the residual block, if any, goes through nice_repr, hom_space,
    pick_iso and propagate.  The report's iso_witness maps D_L* onto the
    residual block and is None when every block is cyclic or central."""
    if not L:
        raise ZeroOperator("cannot decompose the zero operator")
    rng = random.Random(seed)
    l_mon = L.monic()
    field = L.field
    p = field.base.p

    if l_mon.order == 0:
        return DecompositionReport(
            input=L, monic_input=l_mon,
            charpoly=Poly.one(field), invariants=(), invariant_roots=(),
            factors=(), labels=(), iso_witness=None,
            flags=VerificationFlags(True, True, (), ()) if verify else None,
            degrees=(), seed=seed,
        )

    data = pcurv_data(l_mon)
    chain = data.invariant_roots
    m = len(chain)
    collected: list[OrePoly] = []
    labels: list[FactorLabel] = []
    witnesses: dict = {}
    residual = []
    for n_star, nu in data.root_factors:
        layers = [_multiplicity(n_star, q) for q in chain[:-1]] + [nu]
        if not any(layers[:-1]):
            # only in Q_m: the block is cyclic and indecomposable (an
            # irreducible symbol would put N_* in p equal layers)
            collected.append(_block(l_mon, [(n_star, nu)], data))
            labels.append(FactorLabel(n_star, nu, m))
        elif m == p and layers[0] == nu:
            # equal in every layer: the block is the central N^nu(D^p)
            block = _block(l_mon, [(n_star, nu)], data)
            if not _verdict(n_star, witnesses).reducible:
                collected.append(block)
                labels.append(FactorLabel(n_star, p * nu, 0))
            else:
                sub = _nice_repr([n_star ** nu] * p, [(n_star, nu)], witnesses)
                if sub.l_star != block:
                    raise VerificationFailed("central pieces do not rebuild the block")
                collected.extend(sub.pieces)
                labels.extend(sub.labels)
        else:
            residual.append((n_star, layers))

    iso_witness = None
    if residual:
        part = [(n, layers[-1]) for n, layers in residual]
        block = _block(l_mon, part, data)
        sub_chain = [
            math.prod((n ** layers[i] for n, layers in residual), start=Poly.one(field))
            for i in range(m)
        ]
        rep = _nice_repr(sub_chain, part, witnesses)
        basis = hom_space(rep.l_star, block)
        iso_witness = pick_iso(rep.l_star, block, basis, rng)
        collected.extend(_propagate(block, iso_witness, rep.pieces))
        labels.extend(rep.labels)

    order = sorted(range(len(collected)), key=lambda k: labels[k].sort_key())
    collected = [collected[k] for k in order]
    labels = [labels[k] for k in order]

    flags = None
    if verify:
        flags = verify_decomposition(l_mon, collected, witnesses=witnesses, data=data)
        if not flags.all_ok:
            raise VerificationFailed(
                "decomposition re-check failed: %r" % (flags,)
            )
    return DecompositionReport(
        input=L,
        monic_input=l_mon,
        charpoly=data.charpoly,
        invariants=tuple(data.invariants),
        invariant_roots=tuple(data.invariant_roots),
        factors=tuple(collected),
        labels=tuple(labels),
        iso_witness=iso_witness,
        flags=flags,
        degrees=tuple(operator_degree(f) for f in collected),
        seed=seed,
    )
