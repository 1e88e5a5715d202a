"""Factorisation of monic polynomials in GF(q)(t)[Y] into irreducibles.

The strategy is classical (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 15): clear denominators to a primitive F in GF(q)[t][Y]; reduce
to the squarefree separable case (with a p-th-root descent when the
Y-derivative vanishes, which can surface genuinely inseparable irreducible
factors); pick an evaluation point t0 with a degree-preserving squarefree
specialization, enlarging the evaluation field to GF(q^k), k <= 4, when the
base field is too small; factor the specialization; Hensel-lift the local
factors in powers of u = t - t0; and recombine subsets by trial exact
division.

Every Y-polynomial here is a ``Poly``: over GF(q)(t), over GF(q) (the
specializations), or over the polynomial ring GF(q)[t] or GF(q^k)[u] (F, its
series picture, the lifted factors, their Bezout pairs and the products tried
in recombination).  Series are truncated mod u^k after each ring operation.

Lift precision is 2*deg_t + 1 of the cleared polynomial: a factor's t-degree
cannot exceed the total, and doubling guards the leading-coefficient products
formed during recombination.
"""

from __future__ import annotations

import itertools
import random

from .errors import NoGoodSpecialization, NotMonic
from .fieldkit import (
    FqField,
    Poly,
    RatFunc,
    common_denominator,
    fq_make,
    poly_factor_fq,
    poly_gcd,
    poly_xgcd,
    squarefree_descent,
)
from .linalg import Matrix, solve


def is_separable_irreducible(n_poly: Poly) -> bool:
    """True when a monic irreducible over GF(q)(t) has dN/dY != 0."""
    return bool(n_poly.derivative())


# ---------------------------------------------------------------------------
# Field embeddings GF(q) -> GF(q^k)
# ---------------------------------------------------------------------------

class FieldEmbedding:
    """The canonical-by-search embedding of GF(p^n) into GF(p^(n*k)).

    The generator is sent to the smallest root of the defining polynomial in
    the big field; preimages are computed by solving a GF(p)-linear system
    over the power-basis images.
    """

    def __init__(self, small: FqField, big: FqField, rng=None):
        self.small = small
        self.big = big
        if small == big:
            self.gen_image = big.gen()
        else:
            lifted = Poly(big, [big.from_int(c) for c in small.modulus])
            roots = sorted(
                (-f.coeff(0) for f, _ in poly_factor_fq(lifted, rng) if f.degree == 1),
                key=lambda r: r.sort_key(),
            )
            self.gen_image = roots[0]
        prime = fq_make(small.p, 1)
        powers = [big.one]
        for _ in range(small.n - 1):
            powers.append(powers[-1] * self.gen_image)
        self._powers = powers
        cols = [[prime.from_int(c) for c in pw.coords] for pw in powers]
        self._solve_matrix = Matrix(prime, list(zip(*cols)))
        self._prime = prime

    def map(self, a):
        acc = self.big.zero
        for c, pw in zip(a.coords, self._powers):
            if c:
                acc = acc + self.big.from_int(c) * pw
        return acc

    def preimage(self, b):
        """The element of the small field mapping to b, or None."""
        if self.small == self.big:
            return b
        target = [self._prime.from_int(c) for c in b.coords]
        x = solve(self._solve_matrix, target)
        if x is None:
            return None
        return self.small.elem([c.coords[0] for c in x])


# ---------------------------------------------------------------------------
# Y-polynomials over GF(q)[t] and over series in u with GF(q^k) coefficients:
# Poly over the ring below, the series truncated mod u^k after each ring
# operation (truncation is a ring homomorphism, so the order of the two does
# not matter)
# ---------------------------------------------------------------------------

class _PolyRing:
    """GF(q)[t] (or GF(q^k)[u]) as a coefficient ring: the zero, one and
    from_int that Poly asks of its field."""

    __slots__ = ("base", "zero", "one")

    def __init__(self, base: FqField):
        self.base = base
        self.zero = Poly.zero(base)
        self.one = Poly.one(base)

    def from_int(self, k: int) -> Poly:
        return Poly.const(self.base, self.base.from_int(k))

    def __eq__(self, other):
        return isinstance(other, _PolyRing) and self.base == other.base


def _trunc(f: Poly, prec: int) -> Poly:
    """A Y-polynomial with every coefficient taken mod u^prec."""
    return f.map_coeffs(lambda c: c._truncate(prec))


def _ser_inv(c: Poly, prec: int) -> Poly:
    """Newton inverse of a series with invertible constant term."""
    field = c.field
    inv = Poly.const(field, c.coeff(0).inv())
    k = 1
    two = Poly.const(field, field.from_int(2))
    while k < prec:
        k = min(2 * k, prec)
        inv = (inv * (two - c._truncate(k) * inv))._truncate(k)
    return inv


def _hensel_pair(f, G, H, s, t, prec):
    """Lift f = G*H from precision 1 to the requested precision.

    Input: f monic in Y with series coefficients; G, H monic with constant
    coefficients; s*H + t*G = 1 over the residue field.  Returns (G, H),
    both exactly monic in Y, with f = G*H modulo u^prec.
    """
    one = Poly.one(f.field)
    cur = 1
    while cur < prec:
        nxt = min(2 * cur, prec)
        f_nxt = _trunc(f, nxt)
        e = _trunc(f_nxt - G * H, nxt)
        if e:
            G = G + _trunc(_trunc(s * e, nxt) % G, nxt)
            H, rem = (_trunc(x, nxt) for x in f_nxt.divmod(G))
            if rem:
                raise AssertionError("Hensel step lost divisibility")
        # refresh the Bezout pair to the new precision
        b = _trunc(s * H + t * G, nxt) - one
        if b:
            c, d = (_trunc(x, nxt) for x in _trunc(s * b, nxt).divmod(G))
            s = s - d
            t = _trunc(t - t * b - c * H, nxt)
        cur = nxt
    return G, H


def _hensel_list(f, parts, prec):
    """Lift a pairwise-coprime factorisation f = prod(parts) mod u, given as
    monic polynomials over the residue field, to precision prec (factor-tree
    multifactor lifting)."""
    if len(parts) == 1:
        return [_trunc(f, prec)]
    mid = len(parts) // 2
    g0 = parts[0]
    for pp in parts[1:mid]:
        g0 = g0 * pp
    h0 = parts[mid]
    for pp in parts[mid + 1:]:
        h0 = h0 * pp
    _, u, v = poly_xgcd(h0, g0)  # u*h0 + v*g0 = 1
    ring = f.field
    G, H = _hensel_pair(
        f, *(a.map_coeffs(lambda c: Poly.const(ring.base, c), ring)
             for a in (g0, h0, u, v)), prec)
    return _hensel_list(G, parts[:mid], prec) + _hensel_list(H, parts[mid:], prec)


# ---------------------------------------------------------------------------
# The squarefree separable case
# ---------------------------------------------------------------------------

def _clear_denominators(s_poly: Poly) -> Poly:
    """Monic S over GF(q)(t)  ->  the primitive F in GF(q)[t][Y]
    proportional to S."""
    _, cleared = common_denominator(s_poly.coeffs)
    content = Poly.zero(s_poly.field.base)
    for c in cleared:
        if c:
            content = poly_gcd(content, c) if content else c.monic()
    if content.degree > 0:
        cleared = [c.divmod(content)[0] if c else c for c in cleared]
    return Poly(_PolyRing(s_poly.field.base), cleared)


def _shift_series(c: Poly, t0, emb: FieldEmbedding) -> Poly:
    """c(t0 + u) as a polynomial in u over the big field (Horner)."""
    big = emb.big
    shift = Poly(big, [t0, big.one])  # t0 + u
    acc = Poly.zero(big)
    for coeff in reversed(c.coeffs):
        acc = acc * shift + Poly.const(big, emb.map(coeff))
    return acc


def _unshift_to_t(c: Poly, t0) -> Poly:
    """c(u) with u = t - t0, returned as a polynomial in t (Horner)."""
    big = c.field
    shift = Poly(big, [-t0, big.one])  # t - t0
    acc = Poly.zero(big)
    for coeff in reversed(c.coeffs):
        acc = acc * shift + Poly.const(big, coeff)
    return acc


def _spec_fields(base: FqField, rng):
    """Evaluation fields GF(q^k), k = 1..4, with their embeddings."""
    yield FieldEmbedding(base, base, rng)
    for k in (2, 3, 4):
        big = fq_make(base.p, base.n * k)
        yield FieldEmbedding(base, big, rng)


def _factor_squarefree_separable(s_poly: Poly, rng) -> list[Poly]:
    """Monic irreducible factors of a monic squarefree separable polynomial
    over GF(q)(t)."""
    ratfield = s_poly.field
    base = ratfield.base
    if s_poly.degree == 1:
        return [s_poly]
    F = _clear_denominators(s_poly)
    deg_t = max(c.degree for c in F.coeffs)
    if deg_t == 0:
        # constant coefficients: factor directly over GF(q)
        fq_poly = Poly(base, [c.coeff(0) for c in F.coeffs])
        return [
            f.map_coeffs(ratfield.from_base, ratfield)
            for f, _ in poly_factor_fq(fq_poly, rng)
        ]
    prec = 2 * deg_t + 1
    for emb in _spec_fields(base, rng):
        big = emb.big
        F_big = F.map_coeffs(lambda c: c.map_coeffs(emb.map, big), _PolyRing(big))
        for t0 in big.all_elements():
            if not F_big.lc.eval(t0):
                continue
            spec = F_big.map_coeffs(lambda c: c.eval(t0), big)
            if poly_gcd(spec, spec.derivative()).degree != 0:
                continue
            return _lift_and_recombine(s_poly, F, t0, emb, prec, rng)
    raise NoGoodSpecialization(
        "no squarefree degree-preserving evaluation point up to GF(q^4)"
    )


def _lift_and_recombine(s_poly, F, t0, emb, prec, rng):
    big = emb.big
    # series picture around t0
    F_u = F.map_coeffs(lambda c: _shift_series(c, t0, emb), _PolyRing(big))
    f_mon = _trunc(F_u.scale(_ser_inv(F_u.lc, prec)), prec)
    spec = Poly(big, [c.coeff(0) for c in f_mon.coeffs])
    parts = [f for f, _ in poly_factor_fq(spec, rng)]
    if len(parts) == 1:
        return [s_poly]
    lifted = _hensel_list(f_mon, parts, prec)

    found = []
    remaining = s_poly
    indices = list(range(len(lifted)))
    while indices:
        # the leading Y-coefficient of the cleared remaining polynomial, as a
        # series in u: a true factor times it lands in GF(q)[t] within
        # precision
        den_cur, _ = common_denominator(remaining.coeffs)
        lead = _shift_series(den_cur, t0, emb)._truncate(prec)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(indices, size)
            for size in range(1, len(indices) // 2 + 1))
        for subset in subsets:
            cand = _candidate_factor(
                remaining, lead, lifted, subset, t0, emb, prec)
            if cand is not None:
                break
        else:
            break
        factor, remaining = cand
        found.append(factor)
        indices = [i for i in indices if i not in subset]
    if remaining.degree > 0:
        found.append(remaining)
    return sorted(found, key=lambda f: f.sort_key())


def _candidate_factor(remaining, lead, lifted, subset, t0, emb, prec):
    """Try one subset of local factors, scaled by the series ``lead`` of
    remaining's common denominator; on success return (monic factor over
    GF(q)(t), quotient)."""
    ratfield = remaining.field
    prod = Poly.const(lifted[0].field, lead)
    for i in subset:
        prod = _trunc(prod * lifted[i], prec)
    # back to the t variable, then down to GF(q)
    coeffs_t = []
    for c in prod.coeffs:
        c_t = _unshift_to_t(c, t0)
        down = []
        for e in c_t.coeffs:
            small = emb.preimage(e)
            if small is None:
                return None
            down.append(small)
        coeffs_t.append(Poly(ratfield.base, down))
    lc = coeffs_t[-1]
    monic = Poly(ratfield, [
        RatFunc.make(ratfield, c, lc) if c else ratfield.zero for c in coeffs_t
    ])
    quotient, rem = remaining.divmod(monic)
    if rem:
        return None
    return monic, quotient


# ---------------------------------------------------------------------------
# Multiplicity assembly (characteristic-p-safe squarefree reduction)
# ---------------------------------------------------------------------------

def factor_monic_in_y(q_poly: Poly, rng: random.Random | None = None):
    """Factor a monic polynomial over GF(q)(t) into monic irreducibles.

    Returns a deterministically ordered list of (factor, multiplicity) pairs.
    Inseparable irreducible factors (with vanishing Y-derivative) are
    returned as such; downstream separability hypotheses are checked by the
    caller.  The squarefree descent is ``fieldkit.squarefree_descent``; a
    coefficient's p-th root exists only when it lies in GF(q)(t^p).
    """
    if not q_poly or not q_poly.is_monic():
        raise NotMonic("factorisation requires a monic polynomial")
    if rng is None:
        rng = random.Random(0)
    factors = squarefree_descent(
        q_poly, q_poly.field.base.p,
        lambda s: _factor_squarefree_separable(s, rng), RatFunc.pth_root)
    return sorted(factors.items(), key=lambda kv: kv[0].sort_key())
