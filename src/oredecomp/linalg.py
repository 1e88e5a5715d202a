"""Dense exact linear algebra over an arbitrary coefficient field.

Works uniformly over GF(q), GF(q)(t), GF(q)(s) and algebraic extensions
K = GF(q)(t)[a]: the only requirements on the field object are ``zero``,
``one``, ``from_int`` and elements with exact operator overloads.

Provides reduced row echelon form, kernels (over GF(q)(t) by fraction-free
elimination on polynomial entries), first linear dependencies read off that
same kernel, linear solving, the Berkowitz (division-free) characteristic
polynomial, and invariant factors through the Smith normal form of Y*I - A
over the polynomial ring.  Over GF(q)(t) a matrix may also be given as
polynomial rows over one denominator (frac_char_poly, frac_poly_e0), so that
nothing is reduced before the result.
"""

from __future__ import annotations

from .errors import NotSquare, VerificationFailed
from .fieldkit import Poly, RatFunc, RatFuncField, common_denominator, poly_gcd


class Matrix:
    """An immutable dense matrix over a coefficient field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero
        return Matrix(field, [[z] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        return Matrix(self.field, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        return Matrix(self.field, [
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            cols = list(zip(*other.rows))
            return Matrix(self.field, [
                [_dot(r, c, self.field.zero) for c in cols] for r in self.rows
            ])
        # matrix * vector
        return tuple(_dot(r, other, self.field.zero) for r in self.rows)

    def scale(self, c):
        return Matrix(self.field, [[a * c for a in r] for r in self.rows])

    def is_square(self):
        return self.nrows == self.ncols

    def is_zero(self):
        return not any(any(e for e in r) for r in self.rows)

    def __repr__(self):
        return "Matrix(%d x %d over %r)" % (self.nrows, self.ncols, self.field)


def _dot(r, c, zero):
    acc = zero
    for a, b in zip(r, c):
        if a and b:
            acc = acc + a * b
    return acc


def rref(M: Matrix):
    """Reduced row echelon form; returns (matrix rows as lists, pivot cols)."""
    field = M.field
    rows = [list(r) for r in M.rows]
    pivots = []
    rank = 0
    for col in range(M.ncols):
        pivot_row = None
        for i in range(rank, M.nrows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        piv = rows[rank][col]
        if piv != field.one:
            inv = piv.inv()
            rows[rank] = [e * inv for e in rows[rank]]
        for i in range(M.nrows):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == M.nrows:
            break
    return rows, pivots


def kernel_basis(M: Matrix):
    """A basis of the right kernel of M, in reduced echelon parametrization.

    Each basis vector carries a 1 at one free column and the negated reduced
    entries at the pivot columns; vectors are ordered by their free column.
    Over GF(q)(t) the same vectors come from fraction-free elimination.
    """
    field = M.field
    if isinstance(field, RatFuncField) and M.nrows and M.ncols:
        return _kernel_over_ratfuncs(M)
    rows, pivots = rref(M)
    pivot_set = set(pivots)
    basis = []
    for free in range(M.ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * M.ncols
        v[free] = field.one
        for r, pc in zip(rows, pivots):
            v[pc] = -r[free]
        basis.append(tuple(v))
    return basis


def _kernel_over_ratfuncs(M: Matrix):
    """kernel_basis over GF(q)(t) without rational-function elimination.

    Column j is put over its common denominator d_j, so M = P diag(d)^-1 with
    P over GF(q)[t] and ker M = diag(d) ker P.  Polynomial row operations
    bring P to row echelon form; each pivot is a nonzero entry of least
    degree, and each updated row is divided by the gcd of its entries, which
    keeps degrees small.  The pivot columns are those of the reduced form.
    For each free column f, polynomial back substitution gives z / delta in
    ker P with z_f = delta and zeros at the other free columns; x_j =
    d_j z_j / (d_f z_f) is kernel_basis's vector for f."""
    field = M.field
    dens, cols = zip(*(common_denominator([row[j] for row in M.rows])
                       for j in range(M.ncols)))
    rows = [list(r) for r in zip(*cols)]
    pivots = []
    for col in range(M.ncols):
        rank = len(pivots)
        live = [i for i in range(rank, M.nrows) if rows[i][col]]
        if not live:
            continue
        k = min(live, key=lambda i: rows[i][col].degree)
        rows[rank], rows[k] = rows[k], rows[rank]
        top = rows[rank]
        piv = top[col]
        for i in range(rank + 1, M.nrows):
            c = rows[i][col]
            if not c:
                continue
            g = poly_gcd(piv, c)
            a, b = piv // g, c // g
            new = [a * x - b * y for x, y in zip(rows[i], top)]
            content = Poly.zero(field.base)
            for x in new:
                if x:
                    content = poly_gcd(content, x)
                    if content.degree == 0:
                        break
            rows[i] = [x // content for x in new] if content.degree > 0 else new
        pivots.append(col)
        if len(pivots) == M.nrows:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(M.ncols):
        if free in pivot_set:
            continue
        z = {free: Poly.one(field.base)}
        for row, pc in reversed(list(zip(rows, pivots))):
            acc = Poly.zero(field.base)
            for j, zj in z.items():
                if row[j]:
                    acc = acc + row[j] * zj
            if acc:
                # row[pc] y_pc = -acc / delta: delta takes the monic part
                # of row[pc] / gcd(acc, row[pc]), z_pc the rest
                g = poly_gcd(acc, row[pc])
                m = row[pc] // g
                inv = m.lc.inv()
                if m.degree > 0:
                    m = m.scale(inv)
                    z = {j: zj * m for j, zj in z.items()}
                z[pc] = -(acc // g).scale(inv)
        v = [field.zero] * M.ncols
        den = dens[free] * z[free]
        for j, zj in z.items():
            v[j] = RatFunc.make(field, dens[j] * zj, den)
        basis.append(tuple(v))
    return basis


def solve(M: Matrix, b) -> tuple | None:
    """One solution of M x = b (free variables set to zero), or None."""
    field = M.field
    aug = Matrix(field, [list(r) + [bv] for r, bv in zip(M.rows, b)])
    rows, pivots = rref(aug)
    if M.ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [field.zero] * M.ncols
    for r, pc in zip(rows, pivots):
        x[pc] = r[M.ncols]
    return tuple(x)


def rank(M: Matrix) -> int:
    return len(rref(M)[1])


def first_dependency(field, vectors):
    """The first linear dependency in a list of vectors of one dimension:
    the first vector c of kernel_basis on the matrix whose columns are the
    vectors, so sum c_i v_i = 0 with a 1 at the first vector in the span of
    the earlier ones and zeros after it.  None when the vectors are
    independent; [one] when every vector is empty."""
    if not vectors[0]:
        return [field.one]
    kernel = kernel_basis(Matrix(field, list(zip(*vectors))))
    return list(kernel[0]) if kernel else None


class DependencyFinder:
    """first_dependency with the vectors offered one at a time: an offer
    returns None while the offered vectors stay independent, and the first
    dependent vector's combination (indexed by offer order, with a trailing
    1) otherwise.  A dependent vector does not join the span."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self._basis = []  # (offer index, vector) of the independent vectors
        self._count = 0

    def offer(self, vec):
        vec = tuple(vec)
        index = self._count
        self._count += 1
        combo = first_dependency(self.field, [v for _, v in self._basis] + [vec])
        if combo is None:
            self._basis.append((index, vec))
            return None
        out = [self.field.zero] * index + [self.field.one]
        for (i, _), c in zip(self._basis, combo):
            out[i] = c
        return out


# ---------------------------------------------------------------------------
# Characteristic polynomial (Berkowitz, division-free)
# ---------------------------------------------------------------------------

def _berkowitz(rows, zero, one):
    """Coefficient vector of det(Y*I - A), leading term first.

    Division-free: only ring operations on the entries are used, so the
    entries may come from any commutative ring with the given zero and one."""
    n = len(rows)
    if n == 0:
        return [one]
    C = [one, -rows[0][0]]
    for i in range(1, n):
        R = rows[i][:i]
        S = [rows[k][i] for k in range(i)]
        # first column of the Toeplitz factor:
        # [1, -a_ii, -(R.S), -(R.M.S), -(R.M^2.S), ...]
        q = [one, -rows[i][i]]
        v = S
        for _ in range(i):
            q.append(-_dot(R, v, zero))
            v = [_dot(rows[k][:i], v, zero) for k in range(i)]
        Cn = []
        for j in range(i + 2):
            acc = zero
            for k in range(len(C)):
                if 0 <= j - k < len(q):
                    acc = acc + q[j - k] * C[k]
            Cn.append(acc)
        C = Cn
    return C


def char_poly(M: Matrix) -> Poly:
    """The monic characteristic polynomial det(Y*I - A) of a square matrix.

    Over a rational function field the common denominator of the entries is
    factored out first and the polynomial entries go to frac_char_poly.
    """
    if not M.is_square():
        raise NotSquare("characteristic polynomial of a non-square matrix")
    field = M.field
    n = M.nrows
    if n == 0:
        return Poly.one(field)
    if isinstance(field, RatFuncField):
        den, nums = common_denominator(e for r in M.rows for e in r)
        return frac_char_poly(field, [nums[i:i + n] for i in range(0, n * n, n)], den)
    C = _berkowitz([list(r) for r in M.rows], field.zero, field.one)
    return Poly(field, list(reversed(C)))


def frac_char_poly(field, rows, den: Poly) -> Poly:
    """char_poly of A = rows / den over GF(q)(t), for rows a nonempty square
    matrix over GF(q)[t] and den a nonzero polynomial: the Berkowitz
    recursion runs on the polynomial rows, in GF(q)[t] arithmetic, with one
    reduction per output coefficient."""
    base = field.base
    n = len(rows)
    C = _berkowitz([list(r) for r in rows], Poly.zero(base), Poly.one(base))
    # det(Y I - A) = den^-n det((den Y) I - rows): the Y^k coefficient of
    # the polynomial-entry determinant gets divided by den^(n-k)
    dpow = [Poly.one(base)]
    for _ in range(n):
        dpow.append(dpow[-1] * den)
    # C[n - k] is the coefficient of Z^k in det(Z I - rows), Z = den Y
    return Poly(field, [RatFunc.make(field, C[n - k], dpow[n - k])
                        for k in range(n + 1)])


def frac_poly_e0(P: Poly, rows, den: Poly) -> list:
    """P(A) e_0 for A = rows / den as in frac_char_poly and P over GF(q)(t),
    by Horner on polynomial vectors.  With P = sum (n_k / d) Y^k over one
    denominator d and K = deg P,

        d den^K P(A) e_0 = sum n_k den^(K-k) rows^k e_0,

    accumulated as acc <- rows acc + n_k den^(K-k) e_0: r^2 products per
    step where a matrix Horner takes r^3, and one reduction per
    coordinate."""
    field = P.field
    if not P:
        return [field.zero] * len(rows)
    base = field.base
    zero = Poly.zero(base)
    d, nums = common_denominator(P.coeffs)
    K = P.degree
    dpow = [Poly.one(base)]
    for _ in range(K):
        dpow.append(dpow[-1] * den)
    acc = [nums[K]] + [zero] * (len(rows) - 1)
    for k in range(K - 1, -1, -1):
        acc = [_dot(row, acc, zero) for row in rows]
        if nums[k]:
            acc[0] = acc[0] + nums[k] * dpow[K - k]
    total = d * dpow[K]
    return [RatFunc.make(field, a, total) for a in acc]


def mat_eval_poly(P: Poly, M: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix (Horner)."""
    field = M.field
    acc = Matrix.zero(field, M.nrows, M.ncols)
    for c in reversed(P.coeffs):
        acc = acc * M + Matrix.identity(field, M.nrows).scale(c)
    return acc


# ---------------------------------------------------------------------------
# Invariant factors via the Smith normal form of Y*I - A
# ---------------------------------------------------------------------------

def _pivot_key(entry: Poly, i, j):
    return (entry.degree, entry.sort_key(), i, j)


def invariant_factors(M: Matrix) -> list[Poly]:
    """The nontrivial invariant factors P_1 | P_2 | ... | P_m of a square
    matrix, as monic polynomials over the entry field.

    Computed by Smith normal form reduction of Y*I - A over the polynomial
    ring, with degree-minimal deterministic pivoting; the product equals the
    characteristic polynomial and the last entry is the minimal polynomial.
    """
    if not M.is_square():
        raise NotSquare("invariant factors of a non-square matrix")
    field = M.field
    n = M.nrows
    if n == 0:
        return []
    B = [[Poly(field, [-M.rows[i][j]]) for j in range(n)] for i in range(n)]
    x = Poly.x(field)
    for i in range(n):
        B[i][i] = B[i][i] + x

    for k in range(n):
        while True:
            # deterministic degree-minimal pivot over the trailing block
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if B[i][j]:
                        key = _pivot_key(B[i][j], i, j)
                        if best is None or key < best[0]:
                            best = (key, i, j)
            if best is None:
                break  # trailing block is zero
            _, bi, bj = best
            if bi != k:
                B[bi], B[k] = B[k], B[bi]
            if bj != k:
                for row in B:
                    row[bj], row[k] = row[k], row[bj]
            piv = B[k][k]
            dirty = False
            for i in range(k + 1, n):
                if B[i][k]:
                    q = B[i][k].divmod(piv)[0]
                    if q:
                        B[i] = [a - q * b for a, b in zip(B[i], B[k])]
                    if B[i][k]:
                        dirty = True  # remainder of smaller degree survives
            for j in range(k + 1, n):
                if B[k][j]:
                    q = B[k][j].divmod(piv)[0]
                    if q:
                        for i in range(n):
                            B[i][j] = B[i][j] - q * B[i][k]
                    if B[k][j]:
                        dirty = True
            if dirty:
                continue
            # pivot divides the rest of the block?  If not, pull the bad row
            # up so the next pass absorbs it into the pivot's gcd.
            bad = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if B[i][j] and B[i][j].divmod(piv)[1]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            B[k] = [a + b for a, b in zip(B[k], B[bad])]

    diag = [B[k][k].monic() for k in range(n) if B[k][k]]
    for a, b in zip(diag, diag[1:]):
        if b.divmod(a)[1]:
            raise VerificationFailed("Smith form diagonal is not a divisibility chain")
    return [d for d in diag if d.degree > 0]
