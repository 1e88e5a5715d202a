"""The p-curvature of a differential operator and its Frobenius invariants.

For a monic operator L of order r over GF(q)(t), the p-curvature is the
GF(q)(t)-linear endomorphism of the quotient module D_L given by left
multiplication by D^p.  Its matrix in the power basis 1, D, ..., D^(r-1) is
assembled from the remainders of D^(p+j) modulo L by a fraction-free
recurrence: p + r - 1 steps of O(r) polynomial products over one common
denominator (Bostan-Schost, ISSAC 2009, for the fraction-free idea).  The
result is kept as Psi = W / c, W a matrix over GF(q)[t] and c one
denominator.

The characteristic polynomial and the invariant factors of this map have
coefficients in the constant subfield GF(q)(t^p) (the individual matrix
entries generally do not; only a suitable basis makes the whole matrix
constant).  Both are computed over GF(q)(t) and then re-expressed over
GF(q)(s) with s = t^p; a failure of that re-expression indicates a bug and
raises ConstantFieldViolation.  The characteristic polynomial comes from
the numerators W by Berkowitz, with r + 1 reductions.  The r^2 entries of
Psi are reduced only when the matrix is read: by the CLI, by
matrix_constants, or by the Smith form, which runs only for an inseparable
characteristic polynomial (a squarefree one is the only invariant factor).

The p-th roots Q_i of the invariant factors (Q_i^p(Y) = P_i(Y^p)) live over
GF(q)(t) and drive the decomposition pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConstantFieldViolation, InseparableFactor, ZeroOrder
from .fieldkit import Poly, RatFunc, RatFuncField, common_denominator, poly_gcd
from .linalg import Matrix, frac_char_poly, invariant_factors
from .ore import OrePoly
from .serialize import ypoly_str
from .yfactor import factor_monic_in_y, is_separable_irreducible


# ---------------------------------------------------------------------------
# Moving between GF(q)(t^p) and its deflated picture GF(q)(s)
# ---------------------------------------------------------------------------

def ratfunc_to_constants(f: RatFunc) -> RatFunc:
    """Rewrite f in GF(q)(t^p) as a rational function of s = t^p
    (coefficients unchanged, exponents divided by p)."""
    d = f.deflate(f.field.base.p)
    if d is None:
        raise ConstantFieldViolation("value does not lie in GF(q)(t^p)")
    return d


def ratfunc_from_constants(f: RatFunc) -> RatFunc:
    """Substitute s = t^p back (exponents multiplied by p)."""
    return f.inflate(f.field.base.p)


def ypoly_to_constants(P: Poly) -> Poly:
    return P.map_coeffs(ratfunc_to_constants)


def ypoly_from_constants(P: Poly) -> Poly:
    return P.map_coeffs(ratfunc_from_constants)


def invariants_pth_root(P: Poly) -> Poly:
    """The p-th root Q over GF(q)(t) of a polynomial P over GF(q)(s), with
    Q^p(Y) = P(Y^p).

    Reading a coefficient C(s) as C(t^p), its p-th root in GF(q)(t) is C(t)
    with every GF(q) coefficient pushed through the inverse Frobenius; such
    roots always exist for genuine invariant factors.
    """
    out = []
    for c in P.coeffs:
        out.append(c.frobenius_inverse_coeffs())
    return Poly(P.field, out)


def ypoly_pth_power(Q: Poly) -> Poly:
    """The inverse map: Q over GF(q)(t) -> P over GF(q)(s) with
    Q^p(Y) = P(Y^p)."""
    return Q.map_coeffs(lambda c: c.frobenius_coeffs())


def central_operator(n_star: Poly, e: int) -> OrePoly:
    """The central operator with the commutative coefficient list of
    n_star^e; for e divisible by p this equals N^(e/p)(D^p) where
    N_*^p(Y) = N(Y^p)."""
    power = n_star ** e
    return OrePoly(n_star.field, power.coeffs)


def central_operator_from_constants(P: Poly) -> OrePoly:
    """P over GF(q)(s) evaluated at the central element: sum C_k(t^p) D^(pk)."""
    field = P.field
    p = field.base.p
    coeffs = []
    for k, c in enumerate(P.coeffs):
        coeffs.extend([field.zero] * (p - 1) if k else [])
        coeffs.append(ratfunc_from_constants(c))
    return OrePoly(field, coeffs)


# ---------------------------------------------------------------------------
# The p-curvature matrix and its invariants
# ---------------------------------------------------------------------------

def _pcurvature_fraction(L: OrePoly):
    """The p-curvature of L as Psi = W / c, with W a matrix over GF(q)[t]
    (returned as its rows) and c = den^(p+r-1): the one place the
    recurrence runs.

    Fraction-free: with den the lcm of the denominators of the coefficients
    a_j of monic L and A_j = den * a_j, the coordinates of D^k mod L are
    carried as polynomials v_j / den^k.  From D * sum c_j D^j =
    sum (c_j' + c_(j-1)) D^j + c_(r-1) D^r and D^r = -sum a_j D^j mod L,

        v_j <- den * (v_j' + v_(j-1)) - k * den' * v_j - v_(r-1) * A_j,

    and column i of W is v (at k = p + i) times den^(r-1-i)."""
    if L.order < 1:
        raise ZeroOrder("p-curvature needs an operator of positive order")
    field = L.field
    base = field.base
    p = base.p
    r = L.order
    den, big_a = common_denominator(L.monic().coeffs[:r])
    dden = den.derivative()
    zero = Poly.zero(base)
    v = [Poly.one(base)] + [zero] * (r - 1)
    cols = []
    for k in range(p + r - 1):
        kd = dden.scale(base.from_int(k))
        top = v[r - 1]
        v = [
            den * (v[j].derivative() + (v[j - 1] if j else zero))
            - kd * v[j] - top * big_a[j]
            for j in range(r)
        ]
        if k + 1 >= p:
            cols.append(v)
    scale = Poly.one(base)
    for i in range(r - 2, -1, -1):
        scale = scale * den
        cols[i] = [vj * scale for vj in cols[i]]
    # den^p is den with Frobenius-mapped coefficients, inflated by t -> t^p
    c = field.from_poly(den).frobenius_coeffs().inflate(p).num * scale
    return list(zip(*cols)), c


def _reduced_matrix(field, rows, c: Poly) -> Matrix:
    """W / c as a Matrix over GF(q)(t), one reduction per entry."""
    return Matrix(field, [[RatFunc.make(field, w, c) for w in row] for row in rows])


def pcurvature_matrix(L: OrePoly) -> Matrix:
    """The matrix of multiplication by D^p on D_L in the power basis:
    column j holds the coordinates of D^(p+j) mod L, each entry reduced
    from W / c."""
    return _reduced_matrix(L.field, *_pcurvature_fraction(L))


def matrix_to_constants(M: Matrix) -> Matrix | None:
    """The matrix re-read over GF(q)(s) when every entry lies in GF(q)(t^p);
    None otherwise (the power basis does not make the matrix constant in
    general)."""
    p = M.field.base.p
    rows = []
    for r in M.rows:
        row = []
        for e in r:
            d = e.deflate(p)
            if d is None:
                return None
            row.append(d)
        rows.append(row)
    return Matrix(M.field, rows)


def _to_constants(polys, what: str) -> list[Poly]:
    """Polynomials over GF(q)(t) derived from the p-curvature, re-read over
    GF(q)(s); ``what`` names them when one escapes GF(q)(t^p)."""
    try:
        return [ypoly_to_constants(P) for P in polys]
    except ConstantFieldViolation:
        raise ConstantFieldViolation(
            "%s of the p-curvature escaped GF(q)(t^p)" % what
        )


def _charpoly(field, rows, c: Poly) -> Poly:
    """chi of Psi = W / c over GF(q)(s): chi(Y) = c^-r det(cY I - W)."""
    return _to_constants([frac_char_poly(field, rows, c)],
                         "characteristic polynomial")[0]


def pcurv_charpoly(L: OrePoly) -> Poly:
    """chi(psi_p^L) as a monic polynomial over GF(q)(s)."""
    return _charpoly(L.field, *_pcurvature_fraction(L))


def frobenius_invariants(L: OrePoly) -> list[Poly]:
    """The nontrivial invariant factors P_1 | ... | P_m of the p-curvature,
    over GF(q)(s); the invariant factors are insensitive to the base-field
    extension from GF(q)(t^p) to GF(q)(t)."""
    return pcurv_data(L).invariants


@dataclass(frozen=True)
class PCurvData:
    """The p-curvature Psi = W / c of L together with its derived
    invariants; Psi's reduced entries are computed only when read.

    field           -- GF(q)(t)
    numerators      -- the rows of W, a matrix over GF(q)[t] whose column i
                       holds the coordinates of D^(p+i) mod L times c
    denominator     -- c = den^(p+r-1), den the lcm of L's denominators
    charpoly        -- monic chi over GF(q)(s), from W and c
    matrix          -- Psi over GF(q)(t), in the power basis of D_L,
                       reduced on first read
    matrix_constants-- over GF(q)(s) when the power-basis matrix happens to
                       be constant, else None
    invariants      -- P_1 | ... | P_m over GF(q)(s), m <= p; the Smith form
                       of matrix runs only for an inseparable chi
    invariant_roots -- Q_1 | ... | Q_m over GF(q)(t), Q_i^p(Y) = P_i(Y^p)
    root_factors    -- separable_factors(Q_m), [(N_*, nu_N(Q_m))]: the
                       irreducible factors of chi's p-th root, factored on
                       first read and kept with the record
    """

    field: RatFuncField
    numerators: list
    denominator: Poly
    charpoly: Poly
    invariants: list
    invariant_roots: list

    @cached_property
    def matrix(self) -> Matrix:
        return _reduced_matrix(self.field, self.numerators, self.denominator)

    @cached_property
    def matrix_constants(self) -> Matrix | None:
        return matrix_to_constants(self.matrix)

    @cached_property
    def root_factors(self):
        return separable_factors(self.invariant_roots[-1])


def pcurv_data(L: OrePoly) -> PCurvData:
    """Assemble and cross-check the full p-curvature record of L: one run
    of the recurrence, chi from its numerators, and the invariants."""
    field = L.field
    rows, c = _pcurvature_fraction(L)
    cp = _charpoly(field, rows, c)
    # A squarefree chi is its own minimal polynomial (the minimal polynomial
    # contains every irreducible factor of chi), hence the only invariant
    # factor; only an inseparable chi, e.g. one with chi' = 0, needs the
    # Smith form, and with it the reduced matrix.
    M = None
    if poly_gcd(cp, cp.derivative()).degree == 0:
        invs = [cp]
    else:
        M = _reduced_matrix(field, rows, c)
        invs = _to_constants(invariant_factors(M), "invariant factors")
    prod = Poly.one(field)
    for P in invs:
        prod = prod * P
    if prod != cp:
        raise ConstantFieldViolation("invariant factors do not multiply to chi")
    for a, b in zip(invs, invs[1:]):
        if b.divmod(a)[1]:
            raise ConstantFieldViolation("invariant factors do not form a chain")
    if len(invs) > field.base.p:
        raise ConstantFieldViolation("more invariant factors than p")
    data = PCurvData(field, rows, c, cp, invs,
                     [invariants_pth_root(P) for P in invs])
    if M is not None:
        # the cached matrix property's slot: a later read reuses this one
        data.__dict__["matrix"] = M
    return data


def separable_factors(root: Poly):
    """Factor a monic polynomial over GF(q)(t) (chi's p-th root, or an entry
    of the root chain) and verify that every irreducible factor is
    separable.  Returns [(N_*, multiplicity)]; raises InseparableFactor
    otherwise."""
    factors = factor_monic_in_y(root)
    for n_star, _ in factors:
        if not is_separable_irreducible(n_star):
            raise InseparableFactor(
                "inseparable irreducible factor in chi: %s" % ypoly_str(n_star)
            )
    return factors


def checked_invariants(L: OrePoly) -> list[Poly]:
    """The Frobenius invariants of L, after checking the separability
    hypothesis on the same p-curvature record (one matrix per operator)."""
    data = pcurv_data(L)
    data.root_factors  # raises InseparableFactor
    return data.invariants


def operators_equivalent(L1: OrePoly, L2: OrePoly) -> bool:
    """Equivalence of quotient modules: equal Frobenius invariant chains.

    Both operators must satisfy the separability hypothesis (checked)."""
    return checked_invariants(L1) == checked_invariants(L2)
