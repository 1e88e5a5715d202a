import itertools
import random

import pytest

from oredecomp import fieldkit
from oredecomp.errors import DivisionByZero, NotPrime, ReducibleModulus
from oredecomp.fieldkit import (
    Poly,
    RatFunc,
    RatFuncField,
    common_denominator,
    fq_frobenius_inverse,
    fq_inv,
    fq_make,
    poly_factor_fq,
    poly_gcd,
    poly_lcm,
    poly_xgcd,
    ratfunc_derivative,
    ratfunc_pth_root,
)

from helpers import (
    all_small_fields,
    rand_poly,
    rand_ratfunc,
    ref_add,
    ref_deflate,
    ref_derivative,
    ref_divmod,
    ref_eval,
    ref_frobenius,
    ref_gcd,
    ref_inflate,
    ref_monic,
    ref_mul,
    ref_neg,
    ref_repr,
    ref_scale,
    ref_sub,
    ref_trim,
    ref_xgcd,
)


def test_fq_make_prime_field():
    F5 = fq_make(5, 1)
    assert F5.q == 5 and F5.modulus == (0, 1)


def test_fq_make_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        fq_make(4, 1)


def test_fq_make_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        fq_make(3, 2, [0, 0, 1])  # Y^2 has the root 0


def test_fq_make_default_modulus_is_smallest_irreducible():
    # oracle: exhaustive search over the 9 monic quadratics over GF(3),
    # rejecting those with a root, ordered constant term first
    best = None
    for c1 in range(3):
        for c0 in range(3):
            if any((r * r + c1 * r + c0) % 3 == 0 for r in range(3)):
                continue
            key = (c0 + 3 * c1)
            if best is None or key < best[0]:
                best = (key, (c0, c1, 1))
    F9 = fq_make(3, 2)
    assert F9.modulus == best[1]


def _monic_candidates(p, n):
    # every monic polynomial of degree n over GF(p), constant term first, in
    # the order of c_0 + c_1*p + ... + c_(n-1)*p^(n-1)
    for v in range(p ** n):
        yield [v // p ** i % p for i in range(n)] + [1]


def _divides(d, f, p):
    # trial division of f by the monic d over GF(p), on int lists
    r = list(f)
    while len(r) >= len(d):
        c = r[-1]
        k = len(r) - len(d)
        for j, y in enumerate(d):
            r[k + j] = (r[k + j] - c * y) % p
        r.pop()
    return not any(r)


def _irreducible_by_trial_division(f, p):
    n = len(f) - 1
    return not any(_divides(d, f, p)
                   for k in range(1, n // 2 + 1) for d in _monic_candidates(p, k))


def test_fq_make_accepts_exactly_the_irreducible_moduli():
    # all 930 monic candidates of degree 1..4 over GF(2), GF(3) and GF(5)
    seen = 0
    for p in (2, 3, 5):
        for n in range(1, 5):
            for cand in _monic_candidates(p, n):
                seen += 1
                if _irreducible_by_trial_division(cand, p):
                    assert fq_make(p, n, cand).modulus == tuple(cand)
                else:
                    with pytest.raises(ReducibleModulus):
                        fq_make(p, n, cand)
    assert seen == 930


def test_fq_make_default_modulus_is_the_first_irreducible():
    fields = ([(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)]
              + [(5, n) for n in range(1, 4)] + [(7, 2)])
    for p, n in fields:
        first = next(c for c in _monic_candidates(p, n)
                     if _irreducible_by_trial_division(c, p))
        assert fq_make(p, n).modulus == tuple(first), (p, n)


def test_fq_inv_examples():
    F5 = fq_make(5)
    assert fq_inv(F5.from_int(2)) == F5.from_int(3)
    assert fq_inv(F5.one) == F5.one
    F9 = fq_make(3, 2)
    g = F9.gen()
    # group-order oracle: g * g^7 = g^8 = 1
    assert g * g ** 7 == F9.one
    assert fq_inv(g) == g ** 7
    with pytest.raises(DivisionByZero):
        fq_inv(F5.zero)


def test_frobenius_inverse_examples():
    F5 = fq_make(5)
    for a in F5.all_elements():
        assert fq_frobenius_inverse(a) == a
    F9 = fq_make(3, 2)
    g = F9.gen()
    assert fq_frobenius_inverse(F9.zero) == F9.zero
    assert (g ** 3) ** 3 == g  # oracle for the value below
    assert fq_frobenius_inverse(g) == g ** 3


def test_frobenius_inverse_is_a_pth_root_exhaustively():
    for field in all_small_fields(27):
        for a in field.all_elements():
            assert fq_frobenius_inverse(a) ** field.p == a


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_field_axioms_random(p, n):
    field = fq_make(p, n)
    rng = random.Random(p * 100 + n)
    for _ in range(500):
        a = field.random(rng)
        b = field.random(rng)
        c = field.random(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * fq_inv(a) == field.one


def test_poly_factor_examples():
    F3 = fq_make(3)
    one, zero = F3.one, F3.zero
    t2m1 = Poly(F3, [-one, zero, one])  # t^2 - 1
    assert poly_factor_fq(t2m1) == [
        (Poly(F3, [F3.from_int(1), one]), 1),   # t + 1
        (Poly(F3, [F3.from_int(2), one]), 1),   # t + 2 = t - 1
    ]
    t2p1 = Poly(F3, [one, zero, one])
    # oracle: no root among {0, 1, 2}
    assert all(t2p1.eval(F3.from_int(r)) for r in range(3))
    assert poly_factor_fq(t2p1) == [(t2p1, 1)]
    t3p1 = Poly(F3, [one, zero, zero, one])
    assert poly_factor_fq(t3p1) == [(Poly(F3, [one, one]), 3)]


def test_poly_factor_remultiplies_and_factors_check_irreducible():
    rng = random.Random(7)
    for field in (fq_make(2), fq_make(3), fq_make(5), fq_make(2, 2), fq_make(3, 2)):
        for _ in range(25):
            f = rand_poly(field, rng, rng.randrange(1, 7))
            if not f:
                continue
            factors = poly_factor_fq(f, random.Random(11))
            prod = Poly.one(field).scale(f.lc)
            for irr, mult in factors:
                assert irr.is_monic()
                prod = prod * irr ** mult
                # trial-division irreducibility for small degrees
                if irr.degree <= 6:
                    for d in range(1, irr.degree // 2 + 1):
                        for cand in _all_monic(field, d):
                            assert irr.divmod(cand)[1], (irr, cand)
            assert prod == f


def _all_monic(field, deg):
    def rec(i):
        if i == deg:
            yield [field.one]
            return
        for rest in rec(i + 1):
            for c in field.all_elements():
                yield [c] + rest
    for coeffs in rec(0):
        yield Poly(field, coeffs)


def test_ratfunc_derivative_examples():
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    assert ratfunc_derivative(R.one / t) == -(R.one / t ** 2)
    assert ratfunc_derivative(t ** 3) == R.zero
    f = (t ** 2 + R.one) / t
    # quotient-rule oracle: (2t * t - (t^2+1)) / t^2 = (t^2 - 1)/t^2
    assert ratfunc_derivative(f) == (t ** 2 - R.one) / t ** 2


def test_ratfunc_pth_root_examples():
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    assert ratfunc_pth_root(t ** 3 + R.one) == t + R.one
    assert (t + R.one) ** 3 == t ** 3 + R.one
    assert ratfunc_pth_root(R.one) == R.one
    assert ratfunc_pth_root(t) is None


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_ratfunc_pth_root_and_derivative_of_pth_powers(p, n):
    field = fq_make(p, n)
    R = RatFuncField(field)
    rng = random.Random(p + n)
    for _ in range(30):
        f = rand_ratfunc(R, rng)
        fp = f ** p
        assert ratfunc_derivative(fp) == R.zero
        assert ratfunc_pth_root(fp) == f


def test_derivation_leibniz_rule():
    F5 = fq_make(5)
    R = RatFuncField(F5)
    rng = random.Random(3)
    for _ in range(60):
        f = rand_ratfunc(R, rng)
        g = rand_ratfunc(R, rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_ratfunc_canonical_form():
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    f = (t ** 2 - R.one) / (t - R.one)
    assert f == t + R.one and f.den.degree == 0
    g = (t + R.one) / (R.from_int(2) * t)
    assert g.den.is_monic()
    assert poly_gcd(g.num, g.den).degree == 0


def test_tp_components_reassemble():
    for p, n in ((2, 1), (3, 1), (5, 1), (3, 2)):
        field = fq_make(p, n)
        R = RatFuncField(field)
        rng = random.Random(p * 10 + n)
        for _ in range(20):
            f = rand_ratfunc(R, rng, 3, 3)
            comps = f.tp_components()
            assert len(comps) == p
            acc = R.zero
            t = R.t
            for u, c in enumerate(comps):
                acc = acc + c.inflate(p) * t ** u
            assert acc == f


def test_poly_factor_rejects_zero():
    from oredecomp.errors import ZeroPolynomial

    F3 = fq_make(3)
    with pytest.raises(ZeroPolynomial):
        poly_factor_fq(Poly.zero(F3))


@pytest.mark.parametrize("p,n", [(2, 1), (17, 1), (2, 2), (3, 2)])
def test_frobenius_is_the_pth_power(p, n):
    F = fq_make(p, n)
    for a in F.all_elements():
        assert a.frobenius() == a ** p


def _kronecker_length_pairs(rng):
    cut = fieldkit._KRONECKER_CUTOFF
    pairs = [(1, 1), (1, 300), (300, 1), (2, 300), (300, 300), (150, 7)]
    # degree products just below, at and just above the cutoff
    for da in (1, 2, 3, 4):
        for prod in (cut - 1, cut, cut + 1):
            if prod % da == 0:
                pairs.append((da + 1, prod // da + 1))
    pairs.extend((rng.randrange(1, 301), rng.randrange(1, 301)) for _ in range(12))
    return pairs


def _rand_coeffs(rng, p, length, style):
    if style == "max":
        out = [p - 1] * length  # largest unreduced slot values
    else:
        out = [rng.randrange(p) for _ in range(length)]
        if style == "zero runs" and length > 4:
            i = rng.randrange(length - 2)
            j = rng.randrange(i + 1, length)
            out[i:j] = [0] * (j - i)
    out[-1] = out[-1] or 1
    return out


@pytest.mark.parametrize("p", [2, 3, 17, 101])
def test_kronecker_product_matches_schoolbook(p):
    rng = random.Random(p)
    for la, lb in _kronecker_length_pairs(rng):
        for style in ("random", "zero runs", "max"):
            a = _rand_coeffs(rng, p, la, style)
            b = _rand_coeffs(rng, p, lb, style)
            expected = fieldkit._gfp_mul_schoolbook(a, b, p)
            assert fieldkit._gfp_mul_kronecker(a, b, p) == expected
            assert fieldkit._gfp_mul(a, b, p) == expected


def test_kronecker_falls_back_beyond_eight_byte_slots():
    p = 2 ** 31 - 1
    rng = random.Random(31)
    a = [rng.randrange(p) for _ in range(40)] + [p - 1]
    b = [p - 1] * 40
    assert fieldkit._gfp_mul_kronecker(a, b, p) == fieldkit._gfp_mul_schoolbook(a, b, p)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_kronecker_product_over_extension_fields(p, n):
    F = fq_make(p, n)
    rng = random.Random(p * n)
    for la, lb in ((5, 5), (2, 40), (30, 17), (60, 60)):
        a = rand_poly(F, rng, la - 1)
        b = rand_poly(F, rng, lb - 1)
        # the generic schoolbook product, coefficient by coefficient
        out = [F.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                out[i + j] = out[i + j] + x * y
        assert a * b == Poly(F, out)


def _nonprime_elem(field):
    """g over GF(p^n), n >= 2; 1 over a prime field."""
    return field.gen() if field.n > 1 else field.one


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2), (17, 1)])
def test_common_denominator(p, n):
    F = fq_make(p, n)
    R = RatFuncField(F)
    t, one = R.t, R.one
    g = R.from_base(_nonprime_elem(F))
    rng = random.Random(100 * p + n)
    shared = [one / (t * (t + one)), (t + g) / (t * t), R.zero, t * t + one,
              g / (t + one) ** 3, R.zero]
    polys = [t * t + g, R.zero, g, t]
    randoms = [rand_ratfunc(R, rng, 2, 2) for _ in range(8)]
    for values in (shared, polys, randoms, [R.zero]):
        den, nums = common_denominator(values)
        lcm = Poly.one(F)
        for c in values:
            lcm = poly_lcm(lcm, c.den)
        assert den.is_monic() and den == lcm
        assert len(nums) == len(values)
        for c, num in zip(values, nums):
            assert RatFunc.make(R, num, den) == c
            assert bool(num) == bool(c)
    assert common_denominator(polys)[0] == Poly.one(F)
    den, _ = common_denominator(shared)
    assert den == Poly(F, [F.zero, F.zero, F.one]) * Poly(F, [F.one, F.one]) ** 3


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_poly_factor_deep_descent(p, n):
    """Multiplicities p + 1, p^2 and p^2 + 1: the p^2 factor is reached only
    through two nested p-th-root descents, the others by trial division."""
    F = fq_make(p, n)
    g = _nonprime_elem(F)
    a = Poly(F, [-g, F.one])                # t - g
    c = Poly(F, [-(g + F.one), F.one])      # t - (g + 1)
    # an irreducible quadratic (no root), with a t-coefficient outside GF(p)
    # when n > 1 so that the descent needs a nontrivial coefficient root
    b = next(q for c1 in F.all_elements() for c0 in F.all_elements()
             for q in [Poly(F, [c0, c1, F.one])]
             if (n == 1 or c1.frobenius() != c1)
             and all(q.eval(x) for x in F.all_elements()))
    assert a != c
    expected = {a: p + 1, b: p * p, c: p * p + 1}
    f = Poly.one(F)
    for h, m in expected.items():
        f = f * h ** m
    f = f.scale(g)
    factors = poly_factor_fq(f)
    prod = Poly.one(F).scale(f.lc)
    for irr, m in factors:
        prod = prod * irr ** m
    assert prod == f
    assert dict(factors) == expected


# -- the int-coordinate kernels against the FqElem schoolbook reference ---------

def _reference_operands(F, rng):
    """Zero, constants, and polynomials of degree 1 to 13 (products of
    degrees straddle the Kronecker cutoff), half of them with a leading
    coefficient in GF(p), whose top coordinate is 0 when n > 1, and one with
    every coefficient in GF(p)."""
    prime = [F.from_int(k) for k in range(1, F.p)]
    ops = [(), (F.one,), (F.from_int(-1),), (F.random(rng) or F.one,)]
    for deg in (1, 2, 3, 4, 5, 8, 13):
        for lc in (F.random(rng) or F.one, rng.choice(prime)):
            ops.append(tuple(F.random(rng) for _ in range(deg)) + (lc,))
    ops.append(tuple(rng.choice(prime) for _ in range(6)))
    return ops


def _assert_matches(P, ref):
    F = P.field
    assert P.coeffs == ref
    assert P == Poly(F, ref) and hash(P) == hash(ref)
    assert P.sort_key() == (len(ref), tuple(c.coords for c in ref))
    assert repr(P) == ref_repr(ref)
    assert P.degree == len(ref) - 1 and bool(P) == bool(ref)
    assert [P.coeff(i) for i in range(-1, len(ref) + 1)] == [F.zero, *ref, F.zero]
    if ref:
        assert P.lc == ref[-1] and P.is_monic() == (ref[-1] == F.one)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (17, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_kernels_match_the_schoolbook_reference(p, n):
    F = fq_make(p, n)
    R = RatFuncField(F)
    rng = random.Random(100 * p + n)
    ops = _reference_operands(F, rng)
    polys = [Poly(F, a) for a in ops]
    scalars = [F.zero, F.one, F.from_int(p - 1), F.random(rng)]
    for a, A in zip(ops, polys):
        _assert_matches(A, a)
        _assert_matches(-A, ref_neg(a))
        _assert_matches(A.monic(), ref_monic(a))
        _assert_matches(A.derivative(), ref_derivative(a))
        # mod x^k for k below, at and above the length; coefficients in GF(p)
        # (top coordinate 0 when n > 1) end some of the slices
        for k in {0, 1, len(a) // 2, len(a) - 1, len(a), len(a) + 1} - {-1}:
            _assert_matches(A._truncate(k), ref_trim(a[:k]))
        for c in scalars:
            _assert_matches(A.scale(c), ref_scale(a, c))
            assert A.eval(c) == ref_eval(a, c)
        for k in (2, p):
            _assert_matches(A.inflate(k), ref_inflate(a, k))
            _assert_matches(A.inflate(k).deflate(k), a)
            d = A.deflate(k)
            assert (d is None) == (ref_deflate(a, k) is None)
            if d is not None:
                _assert_matches(d, ref_deflate(a, k))
    straddle = set()
    for (a, A), (b, B) in itertools.product(zip(ops, polys), repeat=2):
        _assert_matches(A + B, ref_add(a, b))
        _assert_matches(A - B, ref_sub(a, b))
        _assert_matches(A * B, ref_mul(a, b))
        if a and b:
            straddle.add(A.degree * B.degree >= fieldkit._KRONECKER_CUTOFF)
        _assert_matches(poly_gcd(A, B), ref_gcd(a, b))
        for got, want in zip(poly_xgcd(A, B), ref_xgcd(a, b, F.one)):
            _assert_matches(got, want)
        if not b:
            continue
        q, r = ref_divmod(a, b)
        Q, Rm = A.divmod(B)
        _assert_matches(Q, q)
        _assert_matches(Rm, r)
        _assert_matches(A // B, q)
        _assert_matches(A % B, r)
        if a:
            # the Frobenius maps and the p-th root of a reduced fraction
            f = RatFunc.make(R, A, B)
            num, den = f.num.coeffs, f.den.coeffs
            _assert_matches(f.frobenius_coeffs().num, ref_frobenius(num))
            _assert_matches(f.frobenius_coeffs().den, ref_frobenius(den))
            g = RatFunc(R, Poly(F, ref_inflate(ref_frobenius(num), p)),
                        Poly(F, ref_inflate(ref_frobenius(den), p)))
            assert g == f ** p and g.pth_root() == f
            assert f.frobenius_coeffs().frobenius_inverse_coeffs() == f
            assert (f.pth_root() is None) == (ref_deflate(num, p) is None
                                              or ref_deflate(den, p) is None)
    assert straddle == {False, True}
