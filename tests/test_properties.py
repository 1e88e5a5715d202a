"""Property tests (hypothesis, derandomized): parse/serialize round trips,
the ring laws of GF(q)[t] on both sides of the Kronecker cutoff, the Ore
commutation and right-division identities, the companion connection
against multiply-then-divide, the primary blocks read from the p-curvature
record against the GCRD with the central operator, and the soundness of
lclm_decompose."""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oredecomp.algext import make_extension
from oredecomp.cli import operator_str, parse_operator, parse_ypoly, ypoly_str
from oredecomp.decomp import _block, check_hypothesis, lclm_decompose, propagate
from oredecomp.errors import InseparableFactor
from oredecomp.fieldkit import _KRONECKER_CUTOFF, Poly, RatFuncField, fq_make
from oredecomp.ore import (
    OrePoly,
    _partial_times,
    gcrd,
    lclm,
    mul_mod,
    ore_divrem_right,
    ore_mul,
    ore_rem,
    times_d_mod,
)
from oredecomp.pcurv import central_operator, pcurv_data

# GF(2), GF(3), GF(4), GF(9), GF(17)
FIELDS = {pn: fq_make(*pn) for pn in [(2, 1), (3, 1), (2, 2), (3, 2), (17, 1)]}
RATFIELDS = {pn: RatFuncField(F) for pn, F in FIELDS.items()}
EXTENSIONS = [(2, 2), (3, 2)]

SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)

field_keys = st.sampled_from(sorted(FIELDS))


def fq_elems(F):
    return st.lists(st.integers(0, F.p - 1), min_size=F.n, max_size=F.n).map(F.elem)


def polys(F, max_deg):
    return st.lists(fq_elems(F), max_size=max_deg + 1).map(lambda cs: Poly(F, cs))


def ratfuncs(R, max_deg=2):
    nonzero = polys(R.base, max_deg).filter(bool)
    return st.tuples(polys(R.base, max_deg), nonzero).map(lambda nd: R.elem(*nd))


def operators(R, max_order=3, max_deg=2):
    return st.lists(ratfuncs(R, max_deg), max_size=max_order + 1).map(
        lambda cs: OrePoly(R, cs))


# -- parse o serialize -----------------------------------------------------------

@SETTINGS
@given(st.data(), field_keys)
def test_operator_round_trip(data, key):
    L = data.draw(operators(RATFIELDS[key]))
    assert parse_operator(operator_str(L), FIELDS[key]) == L


@SETTINGS
@given(st.data(), field_keys)
def test_ypoly_round_trip(data, key):
    R = RATFIELDS[key]
    P = data.draw(st.lists(ratfuncs(R), max_size=4).map(lambda cs: Poly(R, cs)))
    assert parse_ypoly(ypoly_str(P), FIELDS[key]) == P


# -- GF(p)[t] and GF(p^n)[t] ------------------------------------------------------

def _convolution(a, b):
    """Schoolbook product on field elements, independent of Poly.__mul__."""
    F = a.field
    out = [F.zero] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(F, out)


@SETTINGS
@given(st.data(), field_keys)
def test_poly_ring_laws(data, key):
    # degrees up to 9: degree products from 0 to 81 straddle the cutoff
    F = FIELDS[key]
    a, b, c = (data.draw(polys(F, 9)) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a == _convolution(a, b)
    if b:
        q, r = a.divmod(b)
        assert a == q * b + r and r.degree < b.degree


@SETTINGS
@given(st.data(), st.sampled_from(EXTENSIONS), st.booleans())
def test_extension_products_on_both_sides_of_the_cutoff(data, key, above):
    F = FIELDS[key]
    low = 5 if above else 1
    deg = st.integers(low, 8 if above else 3)
    a = Poly(F, [data.draw(fq_elems(F)) for _ in range(data.draw(deg))] + [F.one])
    b = Poly(F, [data.draw(fq_elems(F)) for _ in range(data.draw(deg))] + [F.one])
    assert (a.degree * b.degree >= _KRONECKER_CUTOFF) == above
    assert a * b == _convolution(a, b)
    assert (a * b).divmod(b) == (a, Poly.zero(F))


# -- the Ore ring ----------------------------------------------------------------

@SETTINGS
@given(st.data(), field_keys)
def test_commutation_rule(data, key):
    R = RATFIELDS[key]
    f = data.draw(ratfuncs(R))
    D = OrePoly.partial(R)
    F = OrePoly.const(R, f)
    # D*f = f*D + f'
    assert ore_mul(D, F) == ore_mul(F, D) + OrePoly.const(R, f.derivative())


@SETTINGS
@given(st.data(), field_keys)
def test_right_division_identity(data, key):
    R = RATFIELDS[key]
    A = data.draw(operators(R, 4, 1))
    B = data.draw(operators(R, 2, 1).filter(bool))
    Q, Rem = ore_divrem_right(A, B)
    assert ore_mul(Q, B) + Rem == A
    assert Rem.order < B.order


# -- the companion connection ------------------------------------------------------

# GF(2)(t), GF(4)(t), GF(9)(t), GF(17)(t), and K = GF(3)(t)[Y]/(Y^2 - t)
_R3 = RATFIELDS[(3, 1)]
COEFF_FIELDS = [RATFIELDS[pn] for pn in [(2, 1), (2, 2), (3, 2), (17, 1)]]
COEFF_FIELDS.append(make_extension(Poly(_R3, [-_R3.t, _R3.zero, _R3.one])))
coeff_fields = st.sampled_from(range(len(COEFF_FIELDS)))


def nonzero_ratfuncs(R, max_deg=1):
    F = R.base
    units = [u for u in map(F.elem, itertools.product(range(F.p), repeat=F.n)) if u]
    nonzero = st.tuples(st.lists(fq_elems(F), max_size=max_deg),
                        st.sampled_from(units)).map(lambda cl: Poly(F, cl[0] + [cl[1]]))
    return st.tuples(nonzero, nonzero).map(lambda nd: R.elem(*nd))


def coeffs(K, nonzero=False):
    """Elements of GF(q)(t) or of a degree-2 extension of it."""
    if isinstance(K, RatFuncField):
        return nonzero_ratfuncs(K) if nonzero else ratfuncs(K, 1)
    R = K.ratfield
    if nonzero:  # a nonzero coordinate in either place
        return st.tuples(nonzero_ratfuncs(R), ratfuncs(R, 1), st.booleans()).map(
            lambda xyb: K.elem(xyb[:2] if xyb[2] else (xyb[1], xyb[0])))
    return st.lists(ratfuncs(R, 1), min_size=2, max_size=2).map(K.elem)


def ore_polys(K, max_order):
    return st.lists(coeffs(K), max_size=max_order + 1).map(lambda cs: OrePoly(K, cs))


def nonzero_ore_polys(K, max_order, min_order=0):
    """Operators of order min_order to max_order with a drawn nonzero
    leading coefficient."""
    return st.tuples(st.lists(coeffs(K), min_size=min_order, max_size=max_order),
                     coeffs(K, nonzero=True)).map(lambda tl: OrePoly(K, tl[0] + [tl[1]]))


def moduli(K):
    """Operators of order 1-3, monic or not."""
    return st.tuples(nonzero_ore_polys(K, 3, 1), st.booleans()).map(
        lambda lm: lm[0].monic() if lm[1] else lm[0])


def _coords(V, r):
    return [V.coeff(j) for j in range(r)]


@SETTINGS
@given(st.data(), coeff_fields)
def test_times_d_mod_is_d_times_then_remainder(data, key):
    K = COEFF_FIELDS[key]
    L = data.draw(moduli(K))
    V = data.draw(ore_polys(K, L.order - 1))
    got = times_d_mod(_coords(V, L.order), L.monic().coeffs[:-1], K)
    assert got == _coords(ore_rem(_partial_times(V), L), L.order)


@SETTINGS
@given(st.data(), coeff_fields)
def test_mul_mod_is_product_then_remainder(data, key):
    K = COEFF_FIELDS[key]
    L = data.draw(moduli(K))
    V = data.draw(ore_polys(K, L.order - 1))
    A = data.draw(ore_polys(K, 3))
    got = mul_mod(A, _coords(V, L.order), L)
    assert got == _coords(ore_rem(ore_mul(A, V), L), L.order)


@SETTINGS
@given(st.data(), coeff_fields)
def test_propagate_reads_m_modulo_l(data, key):
    K = COEFF_FIELDS[key]
    L = data.draw(moduli(K))
    M = data.draw(nonzero_ore_polys(K, 2))
    assume(gcrd(M, L).order == 0)
    Q = data.draw(nonzero_ore_polys(K, 1))
    pieces = data.draw(st.lists(nonzero_ore_polys(K, 2), min_size=1, max_size=2))
    assert propagate(L, M, pieces) == propagate(L, M + ore_mul(Q, L), pieces)


# -- decomposition soundness -------------------------------------------------------

@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.data(), st.sampled_from([(2, 1), (2, 2), (3, 2)]))
def test_decomposition_is_sound(data, key):
    # LCLMs of 2-3 first-order pieces over GF(2), GF(4), GF(9), one pair of
    # them equivalent: D - a - u'/u = u^-1 (D - a) u
    R = RATFIELDS[key]
    D = OrePoly.partial(R)
    a = data.draw(ratfuncs(R, 1))
    u = data.draw(polys(R.base, 2))
    assume(u and u.derivative())
    shift = R.elem(u.derivative(), u)
    pieces = [D - OrePoly.const(R, a), D - OrePoly.const(R, a + shift)]
    pieces += [D - OrePoly.const(R, b) for b in data.draw(st.lists(ratfuncs(R, 1), max_size=1))]
    L = lclm(pieces)
    report = lclm_decompose(L, seed=data.draw(st.integers(0, 3)))
    assert report.verified
    assert lclm(report.factors) == L.monic()
    assert sum(f.order for f in report.factors) == L.order
    assert all(not ore_rem(L, f) for f in report.factors)


# -- primary blocks --------------------------------------------------------------

# GF(2), GF(3), GF(4), GF(5), GF(9)
BLOCK_FIELDS = [RATFIELDS[(2, 1)], RATFIELDS[(3, 1)], RATFIELDS[(2, 2)],
                RatFuncField(fq_make(5, 1)), RATFIELDS[(3, 2)]]


def monic_operators(R, order):
    coeff = st.one_of(st.just(R.zero), nonzero_ratfuncs(R))
    return st.lists(coeff, min_size=order, max_size=order).map(
        lambda cs: OrePoly(R, cs + [R.one]))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data(), st.sampled_from(range(len(BLOCK_FIELDS))))
def test_block_matches_gcrd_with_central_operator(data, key):
    # the block read from the record, GCRD(L, N(Psi) e_0), against the GCRD
    # with the order-(p deg N) central operator N(D^p) itself; L of order 2-4
    # is one random operator or a product of several (chi is multiplicative,
    # so products give chi several factors)
    R = BLOCK_FIELDS[key]
    L = OrePoly.one(R)
    total = data.draw(st.integers(2, 4))
    while L.order < total:
        order = data.draw(st.integers(1, total - L.order))
        L = ore_mul(L, data.draw(monic_operators(R, order)))
    try:
        factors = check_hypothesis(L)
    except InseparableFactor:
        assume(False)
    chosen = data.draw(st.sets(st.sampled_from(range(len(factors))), min_size=1))
    part = [(factors[i][0], data.draw(st.integers(1, factors[i][1])))
            for i in sorted(chosen)]
    root = Poly.one(R)
    for n_star, nu in part:
        root = root * n_star ** nu
    assert _block(L, part, pcurv_data(L)) == gcrd(L, central_operator(root, R.base.p))
