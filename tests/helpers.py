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


# -- a schoolbook reference for polynomials over GF(q) --------------------------
#
# Plain tuples of FqElem coefficients, constant term first, with no trailing
# zeros.  Products of field elements are computed here from the coordinates
# and inverses by search, so that no kernel of fieldkit is involved.

def ref_fmul(a, b):
    """a * b in GF(p^n): the coordinate convolution, reduced by the monic
    modulus from the top down."""
    F = a.field
    n = F.n
    conv = [0] * (2 * n - 1)
    for i, x in enumerate(a.coords):
        for j, y in enumerate(b.coords):
            conv[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = conv[k]
        for j in range(n + 1):
            conv[k - n + j] -= c * F.modulus[j]
    return F.elem(conv[:n])


def ref_finv(a):
    return next(x for x in a.field.all_elements() if ref_fmul(a, x) == a.field.one)


def ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return ref_trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def ref_neg(a):
    return tuple(-c for c in a)


def ref_sub(a, b):
    return ref_add(a, ref_neg(b))


def ref_scale(a, c):
    return ref_trim(ref_fmul(x, c) for x in a)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [a[0].field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + ref_fmul(x, y)
    return ref_trim(out)


def ref_divmod(a, b):
    inv = ref_finv(b[-1])
    r = list(a)
    q = [b[0].field.zero] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        c = ref_fmul(r[-1], inv)
        k = len(r) - len(b)
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] = r[k + j] - ref_fmul(c, y)
        r = list(ref_trim(r))
    return ref_trim(q), tuple(r)


def ref_monic(a):
    return ref_scale(a, ref_finv(a[-1])) if a else a


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_xgcd(a, b, one):
    """(g, u, v) with u*a + v*b = g monic, by the same Euclid as poly_xgcd."""
    r0, r1, s0, s1, t0, t1 = a, b, (one,), (), (), (one,)
    while r1:
        q, r = ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ref_sub(s0, ref_mul(q, s1))
        t0, t1 = t1, ref_sub(t0, ref_mul(q, t1))
    if r0:
        inv = ref_finv(r0[-1])
        r0, s0, t0 = ref_scale(r0, inv), ref_scale(s0, inv), ref_scale(t0, inv)
    return r0, s0, t0


def ref_derivative(a):
    return ref_trim(ref_fmul(c, c.field.from_int(i)) for i, c in enumerate(a) if i)


def ref_eval(a, x):
    acc = x.field.zero
    for c in reversed(a):
        acc = ref_fmul(acc, x) + c
    return acc


def ref_inflate(a, k):
    out = []
    for i, c in enumerate(a):
        out.extend([c.field.zero] * ((k - 1) if i else 0) + [c])
    return tuple(out)


def ref_deflate(a, k):
    if any(c for i, c in enumerate(a) if i % k):
        return None
    return tuple(a[::k])


def ref_frobenius(a):
    """Every coefficient raised to the p-th power."""
    out = []
    for c in a:
        y = c.field.one
        for _ in range(c.field.p):
            y = ref_fmul(y, c)
        out.append(y)
    return tuple(out)


def ref_repr(a):
    """The printed form of a polynomial in x with these coefficients."""
    parts = []
    for i in range(len(a) - 1, -1, -1):
        if not a[i]:
            continue
        cs = repr(a[i])
        if i == 0:
            parts.append(cs)
        else:
            xs = "x" if i == 1 else "x^%d" % i
            parts.append(xs if cs == "1" else "(%s)*%s" % (cs, xs))
    return " + ".join(parts) if parts else "0"
