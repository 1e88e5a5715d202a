import random

import pytest

from oredecomp.algext import ext_arith, ext_derivative, ext_pth_power, make_extension
from oredecomp.errors import DivisionByZero, Inseparable, NotIrreducible
from oredecomp.fieldkit import Poly, RatFuncField, fq_make
from oredecomp.linalg import Matrix, char_poly
from oredecomp.pcurv import ypoly_from_constants, ypoly_pth_power

from helpers import ypoly


def _quad_ext(p=3):
    R = RatFuncField(fq_make(p))
    t = R.t
    return R, t, make_extension(ypoly(R, -t, 0, 1))  # Y^2 - t


def test_make_extension_trivial():
    R = RatFuncField(fq_make(3))
    t = R.t
    E = make_extension(ypoly(R, -t, 1))  # Y - t
    assert E.deg == 1
    assert E.gen == E.from_ratfunc(t)
    assert E.gen_prime == E.one


def test_make_extension_quadratic():
    R, t, E = _quad_ext()
    # implicit differentiation: a' = 1/(2a) = 2a/t over GF(3)
    two = R.from_int(2)
    assert E.gen_prime == E.elem((R.zero, two / t))


def test_make_extension_rejects_inseparable():
    R = RatFuncField(fq_make(3))
    t = R.t
    with pytest.raises(Inseparable):
        make_extension(ypoly(R, -t, 0, 0, 1))  # Y^3 - t


def test_make_extension_optional_irreducibility_check():
    R = RatFuncField(fq_make(3))
    t = R.t
    with pytest.raises(NotIrreducible):
        make_extension(ypoly(R, -(t * t), 0, 1), check_irreducible=True)


def test_arith_examples():
    R, t, E = _quad_ext()
    a = E.gen
    assert ext_arith("mul", a, a) == E.from_ratfunc(t)
    assert ext_arith("mul", E.one + a, E.one - a) == E.from_ratfunc(R.one - t)
    rng = random.Random(4)
    for _ in range(10):
        u = E.random(rng)
        if u:
            assert ext_arith("div", u, u) == E.one
    with pytest.raises(DivisionByZero):
        ext_arith("div", a, E.zero)


def test_modulus_annihilates_generator():
    R, t, E = _quad_ext()
    assert not E._eval_ypoly(E.modulus)
    E5 = make_extension(ypoly(RatFuncField(fq_make(5)), 3, 1, 0, 1))
    assert not E5._eval_ypoly(E5.modulus)


def test_derivative_examples():
    R, t, E = _quad_ext()
    a = E.gen
    # a^2 = t exactly, so its derivative is 1; the chain rule gives
    # 2a * a' = 2a * 2a/t = 4t/t = 1 over GF(3) as a cross-check
    assert ext_derivative(a * a) == E.one
    assert ext_derivative(a) * a * E.from_int(2) == E.from_ratfunc(
        (R.from_int(4) * t) / t
    )
    assert ext_derivative(E.from_int(2)) == E.zero


def test_derivative_is_a_derivation():
    R, t, E = _quad_ext()
    rng = random.Random(11)
    for _ in range(200):
        u = E.random(rng)
        v = E.random(rng)
        assert ext_derivative(u + v) == ext_derivative(u) + ext_derivative(v)
        assert ext_derivative(u * v) == ext_derivative(u) * v + u * ext_derivative(v)
    for _ in range(20):
        u = E.random(rng)
        assert ext_derivative(ext_pth_power(u)) == E.zero


def test_pth_power_examples():
    R, t, E = _quad_ext()
    a = E.gen
    assert ext_pth_power(a) == E.elem((R.zero, t))  # a^3 = t*a
    f = (t + R.one) / t
    assert ext_pth_power(E.from_ratfunc(f)) == E.from_ratfunc(f ** 3)
    rng = random.Random(7)
    for _ in range(50):
        u = E.random(rng)
        v = E.random(rng)
        assert ext_pth_power(u + v) == ext_pth_power(u) + ext_pth_power(v)


def test_min_poly_of_pth_power_of_generator():
    # the matrix of multiplication by a^p on the power basis has
    # characteristic polynomial N(Y) (the p-th power of the defining
    # polynomial, read back over GF(q)(t))
    for p, nstar_coeffs in ((3, (-1, 0, 1)), (5, (3, 1, 0, 1))):
        R = RatFuncField(fq_make(p))
        t = R.t
        coeffs = [R.from_int(c) if isinstance(c, int) else c for c in nstar_coeffs]
        coeffs[0] = coeffs[0] * t if p == 3 else coeffs[0]
        n_star = Poly(R, coeffs)
        E = make_extension(n_star)
        y = ext_pth_power(E.gen)
        cols = []
        for j in range(E.deg):
            basis = E._from_poly(Poly(R, [R.zero] * j + [R.one]))
            img = y * basis
            cols.append(list(img.coords))
        M = Matrix(R, list(zip(*cols)))
        expected = ypoly_from_constants(ypoly_pth_power(n_star))
        assert char_poly(M) == expected


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("deg", [1, 2, 3])
def test_pth_power_is_the_p_fold_product(p, n, deg):
    # Y^deg + tY + t is Eisenstein at t, and separable; over GF(q) with n >= 2
    # the Frobenius moves the constants, so c^p is not c(t^p)
    R = RatFuncField(fq_make(p, n))
    t = R.t
    E = make_extension(Poly(R, [t, t] + [R.zero] * (deg - 2) + [R.one])
                       if deg > 1 else ypoly(R, t, 1))
    assert E._gen_pth_powers is None  # built on first use, not at construction
    rng = random.Random(100 * p + 10 * n + deg)
    g = R.from_base(R.base.gen())
    for u in [E.gen, E.from_ratfunc(g), E.zero] + [E.random(rng) for _ in range(4)]:
        product = E.one
        for _ in range(p):
            product = product * u
        assert ext_pth_power(u) == product
