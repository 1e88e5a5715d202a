import random

import pytest

from oredecomp.errors import DivisionByZero, NotCentral, NotDivisible
from oredecomp.fieldkit import RatFuncField, fq_make
from oredecomp.ore import (
    OrePoly,
    apply_to,
    exact_right_quotient_central,
    gcrd,
    lclm,
    operator_degree,
    ore_divrem_right,
    ore_mul,
    ore_pow,
    ore_rem,
    shift_partial,
)

from helpers import rand_operator, rand_ratfunc


def _setup(p=3, n=1):
    field = fq_make(p, n)
    R = RatFuncField(field)
    return R, R.t, OrePoly.partial(R), OrePoly.one(R)


def test_mul_commutation_rule():
    R, t, D, one = _setup()
    T = OrePoly.const(R, t)
    assert ore_mul(D, T) == OrePoly(R, [R.one, t])  # t*D + 1
    # D*t - t*D = 1
    assert ore_mul(D, T) - ore_mul(T, D) == one


def test_mul_examples():
    R, t, D, one = _setup()
    A = OrePoly(R, [R.one / t, R.one])
    B = OrePoly(R, [-(R.one / t), R.one])
    assert ore_mul(A, B) == ore_pow(D, 2)
    L = rand_operator(R, random.Random(0), 3)
    assert ore_mul(L, one) == L
    assert ore_mul(A, B).order == A.order + B.order


def test_mul_associative_random():
    R, t, D, one = _setup(5)
    rng = random.Random(4)
    for _ in range(200):
        A = rand_operator(R, rng, rng.randrange(0, 3), 1, 1)
        B = rand_operator(R, rng, rng.randrange(0, 3), 1, 1)
        C = rand_operator(R, rng, rng.randrange(0, 3), 1, 1)
        assert ore_mul(ore_mul(A, B), C) == ore_mul(A, ore_mul(B, C))


def test_divrem_examples():
    R, t, D, one = _setup()
    Q, rem = ore_divrem_right(ore_pow(D, 2), D - one)
    assert Q == D + one and rem == one
    Q, rem = ore_divrem_right(OrePoly(R, [R.one, t]), D)
    assert Q == OrePoly.const(R, t) and rem == one
    A = OrePoly(R, [R.one])
    Q, rem = ore_divrem_right(A, ore_pow(D, 2))
    assert not Q and rem == A
    with pytest.raises(DivisionByZero):
        ore_divrem_right(D, OrePoly.zero(R))


def test_divrem_invariant_random():
    R, t, D, one = _setup(5)
    rng = random.Random(8)
    for _ in range(80):
        A = rand_operator(R, rng, rng.randrange(0, 4), 1, 1)
        B = rand_operator(R, rng, rng.randrange(1, 4), 1, 1)
        Q, rem = ore_divrem_right(A, B)
        assert ore_mul(Q, B) + rem == A
        assert rem.order < B.order


def test_gcrd_examples():
    R, t, D, one = _setup()
    assert gcrd(ore_mul(D, D - one), D - one) == D - one
    B = OrePoly(R, [-(R.one / t), R.one])
    # oracle: D^2 = (D + 1/t)(D - 1/t), checked by ore_mul
    assert ore_mul(OrePoly(R, [R.one / t, R.one]), B) == ore_pow(D, 2)
    assert gcrd(ore_pow(D, 2), B) == B
    assert gcrd(D, D - one) == one


def test_gcrd_divides_and_common_factor_bound():
    R, t, D, one = _setup(5)
    rng = random.Random(12)
    for _ in range(40):
        A = rand_operator(R, rng, rng.randrange(1, 3), 1, 1)
        B = rand_operator(R, rng, rng.randrange(1, 3), 1, 1)
        G = gcrd(A, B)
        assert not ore_rem(A, G) and not ore_rem(B, G)
        C = rand_operator(R, rng, rng.randrange(1, 3), 1, 1)
        G2 = gcrd(ore_mul(A, C), ore_mul(B, C))
        assert G2.order >= C.order


def test_lclm_examples():
    R, t, D, one = _setup()
    L = lclm([D, D - one])
    assert L == ore_pow(D, 2) - D
    assert not ore_rem(L, D) and not ore_rem(L, D - one)
    L3 = lclm([OrePoly(R, [R.one, t]), OrePoly(R, [R.from_int(2), t]),
               OrePoly(R, [R.zero, t])])
    # oracle: each t*D + i right-divides D^3 and the order count forces D^3
    assert L3 == ore_pow(D, 3)
    for i in range(3):
        assert not ore_rem(ore_pow(D, 3), OrePoly(R, [R.from_int(i), t]))
    A = rand_operator(R, random.Random(1), 2)
    assert lclm([A, A]) == A.monic()


def test_lclm_with_a_unit_is_the_other_ideal():
    R, t, D, one = _setup(5)
    A = rand_operator(R, random.Random(7), 2)
    unit = OrePoly.const(R, t + R.one)
    assert lclm([A, unit]) == lclm([unit, A]) == A.monic()
    assert lclm([unit, A, OrePoly.const(R, R.from_int(3))]) == A.monic()


def test_lclm_of_units_is_one():
    R, t, D, one = _setup()
    assert lclm([OrePoly.const(R, t)]) == one
    assert lclm([OrePoly.const(R, t), OrePoly.const(R, R.from_int(2) / t)]) == one


def test_lclm_rejects_mixed_fields():
    from oredecomp.errors import FieldMismatch

    R3, t3, D3, one3 = _setup(3)
    R9 = RatFuncField(fq_make(3, 2))
    with pytest.raises(FieldMismatch):
        lclm([D3, OrePoly.partial(R9)])
    with pytest.raises(FieldMismatch):
        lclm([D3, one3, OrePoly.const(R9, R9.one)])


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (2, 2)])
def test_lclm_of_many_equals_nested_lclm(p, n):
    R, t, D, one = _setup(p, n)
    rng = random.Random(30 + p)
    for _ in range(6):
        ops = [rand_operator(R, rng, rng.randrange(1, 3), 1, 1)
               for _ in range(rng.randrange(3, 5))]
        L = lclm(ops)
        nested = ops[0]
        for op in ops[1:]:
            nested = lclm([nested, op])
        assert L == nested == lclm([ops[0], lclm(ops[1:])])
        assert L.is_monic()
        for op in ops:
            assert not ore_rem(L, op)


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (2, 2)])
def test_lclm_of_operands_sharing_a_right_factor(p, n):
    # LCLM(A C, B C) = LCLM(A, B) C: the first dependency comes before the
    # last image of 1, D, ..., D^(ord AC + ord BC)
    R, t, D, one = _setup(p, n)
    rng = random.Random(90 + p)
    for _ in range(4):
        A, B, C = (rand_operator(R, rng, rng.randrange(1, 3), 1, 1).monic()
                   for _ in range(3))
        L = lclm([A * C, B * C])
        assert L.order < (A * C).order + (B * C).order
        assert L == lclm([A, B]) * C
        assert L == lclm([lclm([A * C]), B * C]) == lclm([A * C, B * C, C])


def test_order_identity_random():
    R, t, D, one = _setup(5)
    rng = random.Random(21)
    for _ in range(60):
        A = rand_operator(R, rng, rng.randrange(1, 4), 1, 1)
        B = rand_operator(R, rng, rng.randrange(1, 4), 1, 1)
        L = lclm([A, B])
        G = gcrd(A, B)
        assert L.order + G.order == A.order + B.order
        assert not ore_rem(L, A) and not ore_rem(L, B)


def test_shift_partial_examples():
    R, t, D, one = _setup()
    g = R.one / t
    assert shift_partial(D, g) == D + OrePoly.const(R, g)
    assert shift_partial(OrePoly(R, [R.zero, t]), g) == OrePoly(R, [R.one, t])
    A = rand_operator(R, random.Random(5), 3)
    assert shift_partial(shift_partial(A, g), -g) == A


def test_shift_partial_is_ring_homomorphism():
    R, t, D, one = _setup(5)
    rng = random.Random(6)
    for _ in range(30):
        A = rand_operator(R, rng, rng.randrange(0, 3), 1, 1)
        B = rand_operator(R, rng, rng.randrange(0, 3), 1, 1)
        g = rand_ratfunc(R, rng, 1, 1)
        assert shift_partial(ore_mul(A, B), g) == \
            ore_mul(shift_partial(A, g), shift_partial(B, g))


def test_pow_examples():
    R, t, D, one = _setup()
    # Artin-Schreier-type identity with f = t: f'' = 0, so the cube collapses
    assert ore_pow(OrePoly(R, [-t, R.one]), 3) == ore_pow(D, 3) - OrePoly.const(R, t ** 3)
    A = rand_operator(R, random.Random(2), 2)
    assert ore_pow(A, 0) == one
    tD = OrePoly(R, [R.zero, t])
    assert ore_pow(tD, 2) == OrePoly(R, [R.zero, t, t * t])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_jacobson_identity_random(p):
    field = fq_make(p)
    R = RatFuncField(field)
    D = OrePoly.partial(R)
    rng = random.Random(p)
    for _ in range(25):
        f = rand_ratfunc(R, rng, 2, 2)
        lhs = ore_pow(D - OrePoly.const(R, f), p)
        fd = f
        for _ in range(p - 1):
            fd = fd.derivative()
        rhs = ore_pow(D, p) - OrePoly.const(R, fd + f ** p)
        assert lhs == rhs


def test_apply_examples():
    R, t, D, one = _setup()
    assert apply_to(OrePoly(R, [R.one, t]), R.one / t) == R.zero
    rng = random.Random(3)
    f = rand_ratfunc(R, rng, 2, 2)
    assert apply_to(ore_pow(D, 3), f) == R.zero  # p-th derivative vanishes
    A = rand_operator(R, rng, 2)
    assert apply_to(A, R.zero) == R.zero


def test_apply_composition():
    R, t, D, one = _setup(5)
    rng = random.Random(10)
    for _ in range(25):
        A = rand_operator(R, rng, rng.randrange(0, 3), 1, 1)
        B = rand_operator(R, rng, rng.randrange(0, 3), 1, 1)
        f = rand_ratfunc(R, rng, 1, 1)
        assert apply_to(ore_mul(A, B), f) == apply_to(A, apply_to(B, f))


def test_operator_degree_examples():
    R, t, D, one = _setup()
    assert operator_degree(ore_pow(D, 2) - D) == 0
    assert operator_degree(D + OrePoly.const(R, R.one / t)) == 1
    A = OrePoly(R, [R.from_int(3), (t * t + R.one) / t])
    assert operator_degree(A) == 2


def test_exact_right_quotient_central():
    R, t, D, one = _setup()
    C = ore_pow(D, 3)
    assert exact_right_quotient_central(ore_mul(D - one, C), C) == D - one
    assert exact_right_quotient_central(C, C) == one
    with pytest.raises(NotDivisible):
        exact_right_quotient_central(ore_pow(D, 2), C)
    with pytest.raises(NotCentral):
        exact_right_quotient_central(ore_pow(D, 2), D)
    with pytest.raises(NotCentral):
        # coefficient not a p-th power
        exact_right_quotient_central(C, ore_pow(D, 3) - OrePoly.const(R, t))


def test_error_paths():
    from oredecomp.errors import BothZero, FieldMismatch, ZeroOperator
    from oredecomp.fieldkit import RatFuncField as _RF, fq_make as _fq

    R3, t3, D3, one3 = _setup(3)
    R5 = _RF(_fq(5))
    with pytest.raises(FieldMismatch):
        ore_mul(D3, OrePoly.partial(R5))
    with pytest.raises(BothZero):
        gcrd(OrePoly.zero(R3), OrePoly.zero(R3))
    assert gcrd(OrePoly.zero(R3), D3) == D3
    with pytest.raises(ZeroOperator):
        lclm([D3, OrePoly.zero(R3)])
    with pytest.raises(ZeroOperator):
        lclm([])


# -- the coefficient container shared with fieldkit.Poly -----------------------

def test_container_contract():
    from oredecomp.errors import FieldMismatch, ZeroOperator, ZeroPolynomial
    from oredecomp.fieldkit import Poly

    R, t, D, one = _setup(3)
    R5 = RatFuncField(fq_make(5))
    coeffs = (t, R.one)
    op, poly = OrePoly(R, coeffs), Poly(R, coeffs)
    assert op != poly and poly != op
    assert hash(op) == hash(poly)
    assert not isinstance(op, Poly) and not isinstance(poly, OrePoly)
    for cls in (OrePoly, Poly):
        for made in (cls.zero(R), cls.one(R), cls.const(R, t)):
            assert type(made) is cls
    assert type(-op) is OrePoly and type(op.scale(t)) is OrePoly
    assert type(op.map_coeffs(lambda c: c * t)) is OrePoly
    with pytest.raises(ZeroOperator) as err:
        OrePoly.zero(R).lc
    assert str(err.value) == "zero operator has no leading coefficient"
    with pytest.raises(ZeroPolynomial) as err:
        Poly.zero(R).lc
    assert str(err.value) == "zero polynomial has no leading coefficient"
    with pytest.raises(FieldMismatch):
        D - OrePoly.partial(R5)
    with pytest.raises(FieldMismatch):
        D + OrePoly.partial(R5)


def test_repr_is_unchanged():
    from oredecomp.fieldkit import Poly

    F9 = fq_make(3, 2)
    R9 = RatFuncField(F9)
    g, t = R9.from_base(F9.gen()), R9.t
    R5 = RatFuncField(fq_make(5))
    ops = [
        OrePoly.zero(R9),
        OrePoly(R9, (t, (g * t + R9.one) / (t + R9.from_int(2)), R9.one)),
        OrePoly(R5, (R5.from_int(3), R5.zero, R5.one, R5.t * R5.t)),
    ]
    polys = [
        Poly.zero(F9),
        Poly(F9, (F9.gen(), F9.zero, F9.one, F9.from_int(2))),
        Poly(R5, (R5.one / R5.t, R5.from_int(4), R5.one)),
    ]
    assert [repr(x) for x in ops] == [
        "0", "D^2 + (((g)*t + 1)/(t + 2))*D + t", "(t^2)*D^3 + D^2 + 3"]
    assert [repr(x) for x in polys] == ["0", "(2)*x^3 + x^2 + g", "x^2 + (4)*x + (1)/(t)"]
