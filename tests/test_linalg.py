import random

import pytest

from oredecomp.algext import ExtElem, make_extension
from oredecomp.errors import NotSquare
from oredecomp.fieldkit import Poly, RatFuncField, fq_make
from oredecomp.linalg import (
    DependencyFinder,
    Matrix,
    char_poly,
    first_dependency,
    invariant_factors,
    kernel_basis,
    mat_eval_poly,
    rank,
    solve,
)

from helpers import char_poly_by_leibniz, kernel_basis_by_rref, rand_ratfunc, ypoly


def _fq_matrix(field, rows):
    return Matrix(field, [[field.from_int(v) for v in r] for r in rows])


def _companion(field, poly):
    n = poly.degree
    z, o = field.zero, field.one
    rows = [[z] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = o
    for i in range(n):
        rows[i][n - 1] = -poly.coeff(i)
    return Matrix(field, rows)


def test_kernel_examples():
    F3 = fq_make(3)
    assert kernel_basis(Matrix.identity(F3, 3)) == []
    z = kernel_basis(Matrix.zero(F3, 2, 2))
    assert z == [(F3.one, F3.zero), (F3.zero, F3.one)]
    M = _fq_matrix(F3, [[1, 1], [1, 1]])
    (v,) = kernel_basis(M)
    # rank-1 oracle: elimination leaves one relation, v proportional to (1,-1)
    assert v[0] == -v[1] and any(v)


def test_kernel_vectors_annihilate_and_rank_nullity():
    rng = random.Random(5)
    F5 = fq_make(5)
    R = RatFuncField(F5)
    for field in (F5, R):
        for _ in range(40):
            nr = rng.randrange(1, 5)
            nc = rng.randrange(1, 5)
            if field is F5:
                M = Matrix(field, [[field.random(rng) for _ in range(nc)]
                                   for _ in range(nr)])
            else:
                M = Matrix(field, [[rand_ratfunc(field, rng, 1, 1)
                                    for _ in range(nc)] for _ in range(nr)])
            basis = kernel_basis(M)
            for v in basis:
                assert all(not e for e in M * v)
            assert rank(M) + len(basis) == nc


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_kernel_over_ratfuncs_matches_rref(p, n):
    # every rank from 0 to full (M = A B with an inner size k), zero rows
    # and columns, 1-6 rows and columns: the fraction-free kernel over
    # GF(q)(t) equals the one read off the reduced echelon form
    rng = random.Random(100 * p + n)
    R = RatFuncField(fq_make(p, n))
    for _ in range(25):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        k = rng.randrange(0, min(nr, nc) + 1)
        if k:
            A = Matrix(R, [[rand_ratfunc(R, rng, 1, 1) for _ in range(k)] for _ in range(nr)])
            B = Matrix(R, [[rand_ratfunc(R, rng, 1, 1) for _ in range(nc)] for _ in range(k)])
            rows = [list(r) for r in (A * B).rows]
        else:
            rows = [[R.zero] * nc for _ in range(nr)]
        if rng.random() < 0.3:
            for r in rows:
                r[rng.randrange(nc)] = R.zero
        M = Matrix(R, rows)
        basis = kernel_basis(M)
        assert basis == kernel_basis_by_rref(M)
        assert len(basis) == nc - rank(M)


def test_solve_consistent_and_inconsistent():
    F7 = fq_make(7)
    M = _fq_matrix(F7, [[1, 2], [3, 4]])
    b = (F7.from_int(5), F7.from_int(6))
    x = solve(M, b)
    assert x is not None and M * x == b
    M2 = _fq_matrix(F7, [[1, 2], [2, 4]])
    assert solve(M2, (F7.from_int(1), F7.from_int(3))) is None


def test_char_poly_examples():
    F5 = fq_make(5)
    I2 = Matrix.identity(F5, 2)
    x = Poly.x(F5)
    assert char_poly(I2) == (x - Poly.one(F5)) ** 2
    rng = random.Random(1)
    f = Poly(F5, [F5.random(rng) for _ in range(4)] + [F5.one])
    assert char_poly(_companion(F5, f)) == f
    A = _fq_matrix(F5, [[0, 0], [1, 1]])
    # hand 2x2 determinant: Y(Y-1) - 0
    assert char_poly(A) == x * x - x


def test_char_poly_matches_leibniz_oracle():
    rng = random.Random(9)
    F3 = fq_make(3)
    R = RatFuncField(F3)
    for field in (F3, R):
        for _ in range(25):
            n = rng.randrange(1, 4)
            if field is F3:
                M = Matrix(field, [[field.random(rng) for _ in range(n)]
                                   for _ in range(n)])
            else:
                M = Matrix(field, [[rand_ratfunc(field, rng, 1, 1)
                                    for _ in range(n)] for _ in range(n)])
            assert char_poly(M) == char_poly_by_leibniz(M)


def test_char_poly_requires_square():
    F3 = fq_make(3)
    with pytest.raises(NotSquare):
        char_poly(Matrix.zero(F3, 2, 3))


def test_invariant_factors_examples():
    F3 = fq_make(3)
    x = Poly.x(F3)
    assert invariant_factors(Matrix.zero(F3, 3, 3)) == [x, x, x]
    rng = random.Random(2)
    f = Poly(F3, [F3.random(rng) for _ in range(3)] + [F3.one])
    assert invariant_factors(_companion(F3, f)) == [f]
    A = _fq_matrix(F3, [[0, 0], [1, 1]])
    # A^2 = A, so the minimal polynomial has degree 2 and there is a single
    # invariant factor
    assert A * A == A
    assert invariant_factors(A) == [x * x - x]


def test_invariant_factors_product_and_chain_random():
    rng = random.Random(17)
    F5 = fq_make(5)
    R = RatFuncField(F5)
    for trial in range(200):
        over_rat = trial % 5 == 4
        field = R if over_rat else F5
        n = rng.randrange(1, 5 if over_rat else 7)
        if over_rat:
            M = Matrix(field, [[rand_ratfunc(field, rng, 1, 1) for _ in range(n)]
                               for _ in range(n)])
        else:
            M = Matrix(field, [[field.random(rng) for _ in range(n)]
                               for _ in range(n)])
        invs = invariant_factors(M)
        prod = Poly.one(field)
        for P in invs:
            assert P.is_monic() and P.degree > 0
            prod = prod * P
        assert prod == char_poly(M)
        for a, b in zip(invs, invs[1:]):
            assert not b.divmod(a)[1]
        # the last invariant factor is the minimal polynomial: it annihilates
        if invs:
            assert mat_eval_poly(invs[-1], M).is_zero()


def test_invariant_factors_similarity_invariant():
    rng = random.Random(23)
    F7 = fq_make(7)
    for _ in range(30):
        n = rng.randrange(1, 5)
        M = Matrix(F7, [[F7.random(rng) for _ in range(n)] for _ in range(n)])
        # random invertible S: unit upper triangular times unit lower triangular
        U = [[F7.one if i == j else (F7.random(rng) if j > i else F7.zero)
              for j in range(n)] for i in range(n)]
        Lo = [[F7.one if i == j else (F7.random(rng) if j < i else F7.zero)
               for j in range(n)] for i in range(n)]
        S = Matrix(F7, U) * Matrix(F7, Lo)
        S_inv_rows = []
        for k in range(n):
            e = tuple(F7.one if i == k else F7.zero for i in range(n))
            S_inv_rows.append(solve(S, e))
        S_inv = Matrix(F7, list(zip(*S_inv_rows)))
        conj = S_inv * M * S
        assert invariant_factors(conj) == invariant_factors(M)


def test_invariant_factors_requires_square():
    F3 = fq_make(3)
    with pytest.raises(NotSquare):
        invariant_factors(Matrix.zero(F3, 2, 3))


# -- first linear dependencies ---------------------------------------------------

def _dependency_case(kind, rng):
    """(field, scalar(), vector()) drawing dimension-4 vectors over GF(7),
    GF(9), GF(5)(t), or K = GF(3)(t)[Y]/(Y^2 - t) flattened to GF(3)(t)
    coordinates (scalars from GF(3)(t), which acts coordinatewise)."""
    if kind in ("GF(7)", "GF(9)"):
        field = fq_make(7) if kind == "GF(7)" else fq_make(3, 2)
        scalar = lambda: field.random(rng)  # noqa: E731
        return field, scalar, lambda: tuple(scalar() for _ in range(4))
    field = RatFuncField(fq_make(5 if kind == "GF(5)(t)" else 3))
    scalar = lambda: rand_ratfunc(field, rng, 2, 1)  # noqa: E731
    if kind == "GF(5)(t)":
        return field, scalar, lambda: tuple(scalar() for _ in range(4))
    ext = make_extension(ypoly(field, -field.t, 0, 1))

    def flattened():
        elems = [ExtElem(ext, [scalar(), scalar()]) for _ in range(2)]
        return tuple(x for e in elems for x in e.coords)

    return field, scalar, flattened


@pytest.mark.parametrize("kind", ["GF(7)", "GF(9)", "GF(5)(t)", "K over GF(3)(t)"])
def test_first_dependency_before_the_last_vector(kind):
    rng = random.Random(77)
    field, scalar, vector = _dependency_case(kind, rng)
    one, z = field.one, field.zero
    for _ in range(8):
        while True:
            u, w, x = vector(), vector(), vector()
            if rank(Matrix(field, list(zip(u, w, x)))) == 3:
                break
        a, b = scalar(), scalar()
        dep = tuple(a * ui + b * wi for ui, wi in zip(u, w))
        vectors = [u, w, dep, x]
        assert first_dependency(field, vectors) == [-a, -b, one, z]
        assert first_dependency(field, [u, w, x]) is None
        finder = DependencyFinder(field, 4)
        assert finder.offer(u) is None and finder.offer(w) is None
        assert finder.offer(dep) == [-a, -b, one]
        # a dependent vector does not join the span; later combinations
        # keep the offer order
        assert finder.offer(x) is None
        ux = tuple(ui + xi for ui, xi in zip(u, x))
        assert finder.offer(ux) == [-one, z, z, -one, one]


def test_first_dependency_in_dimension_zero():
    for field in (fq_make(3), RatFuncField(fq_make(3))):
        one = field.one
        assert first_dependency(field, [()]) == [one]
        assert first_dependency(field, [(), ()]) == [one]
        assert DependencyFinder(field, 0).offer(()) == [one]
        # a zero vector depends on nothing before it
        assert first_dependency(field, [(field.zero,), (one,)]) == [one, field.zero]
        assert DependencyFinder(field, 1).offer((field.zero,)) == [one]
