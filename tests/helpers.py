"""Shared generators and independent oracles for the test suite."""

import itertools

from oredecomp.fieldkit import Poly, fq_make
from oredecomp.linalg import rref
from oredecomp.ore import OrePoly


def rand_ratfunc(ratfield, rng, num_deg=2, den_deg=2, nonzero=False):
    while True:
        f = ratfield.random(rng, num_deg, den_deg)
        if f or not nonzero:
            return f


def rand_poly(field, rng, deg):
    return Poly(field, [field.random(rng) for _ in range(deg + 1)])


def rand_operator(ratfield, rng, order, num_deg=2, den_deg=1):
    """A random operator of exact order (monic leading coefficient chance)."""
    coeffs = [rand_ratfunc(ratfield, rng, num_deg, den_deg) for _ in range(order)]
    coeffs.append(rand_ratfunc(ratfield, rng, num_deg, den_deg, nonzero=True))
    return OrePoly(ratfield, coeffs)


def rand_monic_operator(ratfield, rng, order, num_deg=2, den_deg=1):
    coeffs = [rand_ratfunc(ratfield, rng, num_deg, den_deg) for _ in range(order)]
    coeffs.append(ratfield.one)
    return OrePoly(ratfield, coeffs)


def ypoly(ratfield, *coeffs):
    """Build a polynomial in Y from ints / RatFunc values, ascending."""
    out = []
    for c in coeffs:
        out.append(ratfield.from_int(c) if isinstance(c, int) else c)
    return Poly(ratfield, out)


def leibniz_det(rows, field):
    """Determinant by the permutation-sum formula (independent oracle)."""
    n = len(rows)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = field.one if sign > 0 else -field.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def char_poly_by_leibniz(M):
    """det(Y*I - A) computed coefficient-by-coefficient via Leibniz over the
    polynomial ring (oracle for the Berkowitz implementation)."""
    field = M.field
    n = M.nrows
    x = Poly.x(field)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = Poly(field, [-M.rows[i][j]])
            if i == j:
                e = e + x
            row.append(e)
        rows.append(row)

    class _PR:
        zero = Poly.zero(field)
        one = Poly.one(field)

    return leibniz_det(rows, _PR)


def all_small_fields(limit=27):
    """Every GF(p^n) with p^n <= limit."""
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        n = 1
        while p ** n <= limit:
            out.append(fq_make(p, n))
            n += 1
    return out


def pcurvature_matrix_by_steps(L):
    """The p-curvature matrix by applying D one step at a time and reducing
    modulo monic L in GF(q)(t) arithmetic (independent oracle for the
    fraction-free recurrence): column j holds D^(p+j) mod L."""
    from oredecomp.linalg import Matrix
    from oredecomp.ore import _partial_times

    field = L.field
    p = field.base.p
    r = L.order
    Lm = L.monic()
    cur = OrePoly.one(field)
    cols = []
    for k in range(1, p + r):
        cur = _partial_times(cur)
        if cur.order == r:
            cur = cur - Lm.scale(cur.lc)
        if k >= p:
            cols.append([cur.coeff(i) for i in range(r)])
    return Matrix(field, list(zip(*cols)))


def kernel_basis_by_rref(M):
    """kernel_basis read off the reduced row echelon form: the oracle for the
    fraction-free path over GF(q)(t)."""
    field = M.field
    rows, pivots = rref(M)
    basis = []
    for free in range(M.ncols):
        if free in pivots:
            continue
        v = [field.zero] * M.ncols
        v[free] = field.one
        for r, pc in zip(rows, pivots):
            v[pc] = -r[free]
        basis.append(tuple(v))
    return basis
