import itertools
import random

import pytest

from oredecomp.errors import NotMonic
from oredecomp.fieldkit import Poly, RatFunc, RatFuncField, fq_make
from oredecomp.yfactor import factor_monic_in_y, is_separable_irreducible

from helpers import rand_ratfunc, ypoly


def _setup(p=3, n=1):
    field = fq_make(p, n)
    return RatFuncField(field)


def test_separability_examples():
    R = _setup()
    t = R.t
    assert not is_separable_irreducible(ypoly(R, -t, 0, 0, 1))  # Y^3 - t
    assert is_separable_irreducible(ypoly(R, -t, 0, 1))          # Y^2 - t
    assert is_separable_irreducible(ypoly(R, -t, 1))             # Y - t


def test_factor_examples():
    R = _setup()
    t = R.t
    f = factor_monic_in_y(ypoly(R, -(t * t), 0, 1))  # Y^2 - t^2
    assert f == sorted([(ypoly(R, -t, 1), 1), (ypoly(R, t, 1), 1)],
                       key=lambda kv: kv[0].sort_key())
    # Y^2 - t: a root would force 2 deg(num) - 2 deg(den) = 1, impossible
    q = ypoly(R, -t, 0, 1)
    assert factor_monic_in_y(q) == [(q, 1)]
    assert factor_monic_in_y(ypoly(R, 0, 0, 1)) == [(ypoly(R, 0, 1), 2)]


def test_factor_rejects_nonmonic():
    R = _setup()
    t = R.t
    with pytest.raises(NotMonic):
        factor_monic_in_y(Poly(R, [R.one, t]))


def test_factor_inseparable_pth_powers():
    R = _setup()
    t = R.t
    # Y^3 - t is irreducible and inseparable over GF(3)(t)
    q = ypoly(R, -t, 0, 0, 1)
    assert factor_monic_in_y(q) == [(q, 1)]
    # (Y - t)^3 = Y^3 - t^3 recovers the root through coefficient p-th roots
    q2 = ypoly(R, -(t ** 3), 0, 0, 1)
    assert factor_monic_in_y(q2) == [(ypoly(R, -t, 1), 3)]
    # mixed: (Y^3 - t) * (Y - 1)
    q3 = ypoly(R, -t, 0, 0, 1) * ypoly(R, -1, 1)
    assert dict(factor_monic_in_y(q3)) == {
        ypoly(R, -t, 0, 0, 1): 1,
        ypoly(R, -1, 1): 1,
    }


def _rand_monic_ypoly(R, rng, deg_y, deg_t):
    coeffs = [rand_ratfunc(R, rng, deg_t, 0) for _ in range(deg_y)]
    coeffs.append(R.one)
    return Poly(R, coeffs)


def _rand_irreducibles(R, rng, count, deg_y=3, deg_t=3):
    """Random monic irreducibles harvested from factoring random polynomials;
    the oracle below is re-multiplication, which is independent of the
    factoring code."""
    out = []
    while len(out) < count:
        q = _rand_monic_ypoly(R, rng, rng.randrange(1, deg_y + 1), deg_t)
        for irr, _ in factor_monic_in_y(q):
            out.append(irr)
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (2, 1), (3, 2)])
def test_factor_remultiplies_random_products(p, n):
    R = _setup(p, n)
    rng = random.Random(p * 7 + n)
    deg_t = 3 if n == 1 else 2
    irreducibles = _rand_irreducibles(R, rng, 12, deg_t=deg_t)
    for _ in range(25):
        picks = rng.sample(irreducibles, k=min(rng.randrange(1, 4), len(irreducibles)))
        mults = [rng.randrange(1, 3) for _ in picks]
        q = Poly.one(R)
        for irr, m in zip(picks, mults):
            q = q * irr ** m
        factors = factor_monic_in_y(q)
        prod = Poly.one(R)
        for irr, m in factors:
            assert irr.is_monic()
            prod = prod * irr ** m
        assert prod == q


def test_factor_of_product_is_multiset_union():
    R = _setup(3)
    rng = random.Random(31)
    for _ in range(20):
        q1 = _rand_monic_ypoly(R, rng, rng.randrange(1, 3), 2)
        q2 = _rand_monic_ypoly(R, rng, rng.randrange(1, 3), 2)
        f1 = dict(factor_monic_in_y(q1))
        f2 = dict(factor_monic_in_y(q2))
        union = dict(f1)
        for k, v in f2.items():
            union[k] = union.get(k, 0) + v
        assert dict(factor_monic_in_y(q1 * q2)) == union


def test_no_small_rational_roots_in_degree2_factors():
    # exhaustive root check over a tiny field: no returned irreducible of
    # degree >= 2 may have a root with small numerator/denominator degrees
    R = _setup(2)
    t = R.t
    rng = random.Random(13)
    field = R.base
    cands = []
    polys2 = [Poly(field, list(c)) for c in
              itertools.product(*[list(field.all_elements())] * 3)]
    polys2 = [p for p in polys2 if p]
    for num in polys2:
        for den in polys2:
            if den and den.is_monic():
                cands.append(RatFunc.make(R, num, den))
    for _ in range(6):
        q = _rand_monic_ypoly(R, rng, 2, 2)
        for irr, _ in factor_monic_in_y(q):
            if irr.degree < 2 or irr.degree > 2:
                continue
            for c in cands:
                assert irr.eval(c), (irr, c)


def test_factor_constant_coefficient_polynomials():
    R = _setup(3)
    # Y^2 - Y factors over the constants
    q = ypoly(R, 0, -1, 1)
    assert factor_monic_in_y(q) == [(ypoly(R, 0, 1), 1), (ypoly(R, -1, 1), 1)]


def test_factor_needs_extension_specialization():
    # over GF(2)(t) there are few evaluation points; exercise the extension
    # path with a polynomial whose discriminant kills both of them
    R = _setup(2)
    t = R.t
    q = ypoly(R, t * t + t, 1) * ypoly(R, t * t + t + R.one, 1)
    assert dict(factor_monic_in_y(q)) == {
        ypoly(R, t * t + t, 1): 1,
        ypoly(R, t * t + t + R.one, 1): 1,
    }


def test_no_good_specialization_is_reported(monkeypatch):
    import oredecomp.yfactor as yf
    from oredecomp.errors import NoGoodSpecialization

    R = _setup(3)
    t = R.t
    monkeypatch.setattr(yf, "_spec_fields", lambda base, rng: iter(()))
    with pytest.raises(NoGoodSpecialization):
        factor_monic_in_y(ypoly(R, -t, 0, 1))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_factor_deep_descent(p, n):
    """Multiplicities p + 1, p^2 and p^2 + 1 and an inseparable factor with
    multiplicity p: the p^2 and the inseparable factor are reached through
    two nested descents; Y^p - t appears where the coefficient p-th root of
    Y - t fails."""
    R = _setup(p, n)
    t, one = R.t, R.one
    g = R.from_base(R.base.gen() if n > 1 else R.base.one)
    A = ypoly(R, -(g * t), 1)
    # Y^2 + Y + t (p = 2) and Y^2 - t (p odd) are irreducible and separable
    B = ypoly(R, t, 1, 1) if p == 2 else ypoly(R, -t, 0, 1)
    C = ypoly(R, -((t + g) / (t + one)), 1)
    E = Poly(R, [-t] + [R.zero] * (p - 1) + [one])  # Y^p - t, inseparable
    expected = {A: p + 1, B: p * p, C: p * p + 1, E: p}
    q = Poly.one(R)
    for h, m in expected.items():
        q = q * h ** m
    factors = factor_monic_in_y(q)
    prod = Poly.one(R)
    for irr, m in factors:
        assert irr.is_monic()
        prod = prod * irr ** m
    assert prod == q
    assert dict(factors) == expected
    assert not is_separable_irreducible(E) and is_separable_irreducible(B)


# Factorisations recorded as printed text, one case per path of the
# specialise / lift / recombine pipeline; the comment names the path.
_PINNED_FACTORISATIONS = [
    # GF(2) has no good point: specialised into GF(4), pulled back by preimage
    (2, 1, "(Y^2 + t*Y + 1)*(Y^2 + Y + t)*(Y + t^2 + 1)",
     [("Y + t^2+1", 1), ("Y^2 + (t)*Y + 1", 1), ("Y^2 + Y + t", 1)]),
    # descent through Y^2 + t (inseparable), then specialised into GF(4)
    (2, 1, "(Y^2 + t)*(Y + t)^2*(Y^2 + Y + t)",
     [("Y + t", 2), ("Y^2 + t", 1), ("Y^2 + Y + t", 1)]),
    # four local factors over GF(9), two of them one global quadratic
    (3, 1, "(Y^2 - t)*(Y^2 - t - 1)*(Y - t^2)",
     [("Y + 2*t^2", 1), ("Y^2 + 2*t", 1), ("Y^2 + 2*t+2", 1)]),
    # cleared leading coefficient t: the point t0 = 0 is skipped
    (3, 1, "(t*Y^2 - t - 1)*(Y - t^2)",
     [("Y + 2*t^2", 1), ("Y^2 + (2*t+2)/(t)", 1)]),
    # multiplicities p and 2, and the inseparable Y^3 - t
    (3, 1, "(Y^3 - t)*(Y - t)^3*(Y^2 - t)^2",
     [("Y + 2*t", 3), ("Y^2 + 2*t", 2), ("Y^3 + 2*t", 1)]),
    # Y + t^4 and Y + t meet at every point of GF(4): specialised into GF(16)
    (2, 2, "(Y + t^4)*(Y + t)*(Y^2 + t*Y + g)",
     [("Y + t", 1), ("Y + t^4", 1), ("Y^2 + (t)*Y + g", 1)]),
    # cleared leading coefficient t over GF(4): t0 = 0 is skipped
    (2, 2, "(t*Y^2 + Y + g)*(Y^2 + t)",
     [("Y^2 + (1)/(t)*Y + (g)/(t)", 1), ("Y^2 + t", 1)]),
    # the descent alone: every factor is found by coefficient p-th roots
    (2, 2, "(Y^2 + g*t)^2*(Y + g*t)^3",
     [("Y + g*t", 3), ("Y^2 + g*t", 2)]),
    (3, 2, "(Y^2 - g*t)*(Y^2 - t - 1)*(Y - g)",
     [("Y + (2*g)", 1), ("Y^2 + (2*g)*t", 1), ("Y^2 + 2*t+2", 1)]),
    (3, 2, "(Y^3 - g*t)*(Y - g*t)^3*(Y^3 - t^3*Y - 1)",
     [("Y + (2*g)*t", 3), ("Y^3 + (2*t^3)*Y + 2", 1), ("Y^3 + (2*g)*t", 1)]),
    # t0 = 0 skipped; five local factors, a pair of them recombined
    (17, 1, "(t*Y^2 - t - 3)*(Y^2 - t - 1)*(Y - 5*t)",
     [("Y + 12*t", 1), ("Y^2 + (16*t+14)/(t)", 1), ("Y^2 + 16*t+16", 1)]),
    # four local factors, recombined as a pair
    (17, 1, "(Y^3 - t)*(Y^3 - t - 1)",
     [("Y^3 + 16*t", 1), ("Y^3 + 16*t+16", 1)]),
    (17, 1, "(Y^17 - t)*(Y^2 - t)^17*(Y - 3)",
     [("Y + 14", 1), ("Y^2 + 16*t", 17), ("Y^17 + 16*t", 1)]),
]


def test_pinned_factorisations(monkeypatch):
    import oredecomp.yfactor as yf
    from oredecomp.cli import parse_ypoly
    from oredecomp.serialize import ypoly_str

    pulled_back = []
    preimage = yf.FieldEmbedding.preimage

    def spy(emb, b):
        pulled_back.append(emb.small != emb.big)
        return preimage(emb, b)

    monkeypatch.setattr(yf.FieldEmbedding, "preimage", spy)
    for p, n, text, expected in _PINNED_FACTORISATIONS:
        q = parse_ypoly(text, fq_make(p, n)).monic()
        got = [(ypoly_str(f), m) for f, m in factor_monic_in_y(q)]
        assert got == expected, (p, n, text)
    assert any(pulled_back)
