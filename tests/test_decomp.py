import random
import sys

import pytest

from oredecomp.algext import make_extension
from oredecomp.asd import central_operator_reducible
from oredecomp.decomp import (
    InvariantRequest,
    check_hypothesis,
    first_decomposition,
    hom_space,
    is_indecomposable,
    lclm_decompose,
    minimal_rational_multiple,
    nice_repr,
    pick_iso,
    propagate,
    verify_decomposition,
)
from oredecomp.errors import (
    CentralIrreducibleFactor,
    EmptyRequest,
    InseparableFactor,
    NotCoprime,
    OrderMismatch,
)
from oredecomp.fieldkit import Poly, RatFuncField, fq_make
from oredecomp.linalg import Matrix, solve
from oredecomp.ore import (
    OrePoly,
    gcrd,
    lclm,
    ore_pow,
    ore_rem,
)
from oredecomp.pcurv import (
    central_operator,
    frobenius_invariants,
    pcurv_charpoly,
    ypoly_pth_power,
)

from helpers import rand_ratfunc, ypoly


def _setup(p=3, n=1):
    R = RatFuncField(fq_make(p, n))
    return R, R.t, OrePoly.partial(R), OrePoly.one(R)


# -- hypothesis and first decomposition --------------------------------------

def test_check_hypothesis_examples():
    R, t, D, one = _setup()
    x = Poly.x(R)
    factors = dict(check_hypothesis(ore_pow(D, 2) - D))
    assert factors == {x: 1, x - Poly.one(R): 1}
    # (D - t)^3 = D^3 - t^3 is central with chi-root (Y - t)^3: passes
    factors = dict(check_hypothesis(ore_pow(D - OrePoly.const(R, t), 3)))
    assert factors == {ypoly(R, -t, 1): 3}
    # D^3 - t has chi = Y^3 - t^3, which is irreducible over GF(3)(t^3)
    # (t is not a cube there) with vanishing Y-derivative: the separability
    # hypothesis genuinely fails and the chi-root Y^3 - t is inseparable
    with pytest.raises(InseparableFactor):
        check_hypothesis(ore_pow(D, 3) - OrePoly.const(R, t))
    with pytest.raises(InseparableFactor):
        check_hypothesis(central_operator(ypoly(R, -t, 0, 0, 1), 3))


def test_first_decomposition_examples():
    R, t, D, one = _setup()
    x = Poly.x(R)
    parts = first_decomposition(ore_pow(D, 2) - D)
    as_dict = {n_star: (li, nu) for li, n_star, nu in parts}
    assert as_dict[x][0] == D and as_dict[x][1] == 1
    assert as_dict[x - Poly.one(R)][0] == D - one
    # a single-factor operator stays in one block
    L = OrePoly(R, [R.zero, R.one, t])  # t D^2 + D
    parts = first_decomposition(L)
    assert len(parts) == 1 and parts[0][0] == L.monic()
    parts = first_decomposition(ore_pow(D, 3))
    assert len(parts) == 1 and parts[0][0] == ore_pow(D, 3)
    # per-block chi is the corresponding primary part
    for li, n_star, nu in first_decomposition(ore_pow(D, 2) - D):
        assert pcurv_charpoly(li) == ypoly_pth_power(n_star) ** nu


# -- minimal rational multiples ----------------------------------------------

def test_minimal_rational_multiple_trivial_extension():
    R, t, D, one = _setup()
    E = make_extension(ypoly(R, -t, 1))
    f = rand_ratfunc(R, random.Random(3), 1, 1)
    Rop = OrePoly(E, [E.from_ratfunc(-f), E.one])
    assert minimal_rational_multiple(Rop, E) == OrePoly(R, [-f, R.one])
    tD = OrePoly(E, [E.zero, E.from_ratfunc(t)])
    assert minimal_rational_multiple(tD, E) == D


def test_minimal_rational_multiple_quadratic_extension():
    R, t, D, one = _setup()
    n_star = ypoly(R, -t, 0, 1)
    E = make_extension(n_star)
    v = central_operator_reducible(n_star)
    f = v.witness.f
    Rop = OrePoly(E, [-f, E.one])
    L = minimal_rational_multiple(Rop, E)
    assert L.order == 2 and L.is_monic()
    lifted = L.map_coeffs(E.from_ratfunc, E)
    assert not ore_rem(lifted, Rop)


# -- nice_repr ----------------------------------------------------------------

def test_nice_repr_single_y():
    R, t, D, one = _setup()
    rep = nice_repr([ypoly(R, 0, 1)])
    assert rep.l_star == D + OrePoly.const(R, R.one / t)
    assert rep.pieces == (rep.l_star,)
    # chi check: (-1/t)^(p-1 derivative) + (-1/t)^p cancels
    assert frobenius_invariants(rep.l_star) == [Poly.x(R)]


def test_nice_repr_y_minus_t():
    R, t, D, one = _setup()
    rep = nice_repr([ypoly(R, -t, 1)])
    expected = D + OrePoly.const(R, R.one / t - t)
    assert rep.l_star == expected
    assert frobenius_invariants(rep.l_star) == [ypoly(R, -t, 1).map_coeffs(
        lambda c: c.frobenius_coeffs())]


def test_nice_repr_repeated_invariant():
    R, t, D, one = _setup()
    y = ypoly(R, 0, 1)
    rep = nice_repr([y, y])
    assert rep.pieces == (
        D + OrePoly.const(R, R.one / t),
        D + OrePoly.const(R, R.from_int(2) / t),
    )
    assert frobenius_invariants(rep.l_star) == [Poly.x(R), Poly.x(R)]


def test_nice_repr_validation():
    R, t, D, one = _setup()
    with pytest.raises(EmptyRequest):
        nice_repr([])
    with pytest.raises(EmptyRequest):
        nice_repr([Poly.one(R)])
    with pytest.raises(EmptyRequest):
        nice_repr([ypoly(R, 0, 1)] * 4)  # longer than p
    with pytest.raises(EmptyRequest):
        nice_repr([ypoly(R, -t, 1), ypoly(R, 1, 1)])  # not a chain
    with pytest.raises(InseparableFactor):
        nice_repr([ypoly(R, -t, 0, 0, 1)])
    with pytest.raises(CentralIrreducibleFactor):
        nice_repr([Poly(R, [-(R.one / t), R.one])])


def test_nice_repr_roundtrip_small():
    R, t, D, one = _setup()
    rng = random.Random(33)
    chains = [
        [ypoly(R, 0, 1) * ypoly(R, -1, 1)],
        [ypoly(R, -t, 1)],
        [ypoly(R, 0, 1), ypoly(R, 0, 1) * ypoly(R, -1, 1)],
        [ypoly(R, 0, 2, 1)],
    ]
    for chain in chains:
        rep = nice_repr(chain)
        expected = [ypoly_pth_power(q) for q in chain]
        assert frobenius_invariants(rep.l_star) == expected
        flags = verify_decomposition(rep.l_star, rep.pieces)
        assert flags.all_ok


# -- hom spaces and isomorphism propagation -----------------------------------

def test_hom_space_identity_case():
    R, t, D, one = _setup()
    hb = hom_space(D, D)
    assert hb.basis == (one,)


def test_hom_space_paper_shift_example():
    F5 = fq_make(5)
    R5 = RatFuncField(F5)
    t5 = R5.t
    D5 = OrePoly.partial(R5)
    L2 = OrePoly(R5, [R5.from_int(2) / t5, R5.one])
    hb = hom_space(D5, L2)
    assert hb.basis == (OrePoly.const(R5, t5 ** 2),)


def test_hom_space_contains_identity_for_equal_operators():
    R, t, D, one = _setup()
    L = lclm([D, D - one])
    hb = hom_space(L, L)
    # membership of the constant operator 1 in the GF(q)(t^p)-span: solve a
    # linear system whose columns are the basis operators' coefficient rows
    p, r = 3, L.order
    cols = []
    for b in hb.basis:
        col = []
        for j in range(r):
            col.extend(b.coeff(j).tp_components())
        cols.append(col)
    target = [R.zero] * (p * r)
    target[0] = R.one
    assert solve(Matrix(R, list(zip(*cols))), tuple(target)) is not None


def test_hom_space_order_mismatch():
    R, t, D, one = _setup()
    with pytest.raises(OrderMismatch):
        hom_space(D, ore_pow(D, 2))


def test_pick_iso_and_propagate_identity():
    R, t, D, one = _setup()
    rep = nice_repr([ypoly(R, 0, 1) * ypoly(R, -1, 1)])
    L = rep.l_star
    hb = hom_space(L, L)
    rng = random.Random(0)
    m_op = pick_iso(L, L, hb, rng)
    assert gcrd(m_op, L).order == 0
    # with the identity isomorphism the pieces come back unchanged
    factors = propagate(L, one, rep.pieces)
    assert list(factors) == [piece.monic() for piece in rep.pieces]
    with pytest.raises(NotCoprime):
        propagate(L, rep.pieces[0], rep.pieces)


def test_pipeline_checks_the_iso_witness_once(monkeypatch):
    # lclm([D, D + 1/t]) over GF(5) is one residual block (D + 1/t is
    # equivalent to D): pick_iso's coprimality check is the only
    # gcrd(M, block) call for the witness M it returns
    import oredecomp.decomp as decomp_mod

    R, t, D, one = _setup(5)
    L = lclm([D, D + OrePoly.const(R, R.one / t)])
    calls = []

    def recording(A, B):
        calls.append((A, B))
        return gcrd(A, B)

    monkeypatch.setattr(decomp_mod, "gcrd", recording)
    report = lclm_decompose(L, seed=0)
    assert report.verified and report.iso_witness is not None
    assert sum(A == report.iso_witness for A, _ in calls) == 1


def test_propagate_through_pipeline():
    R, t, D, one = _setup()
    L = ore_pow(D, 2) - D
    rep = nice_repr([ypoly(R, 0, 1) * ypoly(R, -1, 1)])
    hb = hom_space(rep.l_star, L)
    m_op = pick_iso(rep.l_star, L, hb, random.Random(1))
    factors = propagate(L, m_op, rep.pieces)
    assert sum(f.order for f in factors) == L.order
    assert lclm(factors) == L.monic()
    for f in factors:
        assert not ore_rem(L, f)
    # hand oracle: D^2 - D = D(D-1) = (D-1)D exhibits both order-1 factors
    chis = sorted(pcurv_charpoly(f).sort_key() for f in factors)
    assert chis == sorted([Poly.x(R).sort_key(),
                           (Poly.x(R) - Poly.one(R)).sort_key()])


# -- indecomposability ---------------------------------------------------------

def test_is_indecomposable_examples():
    R, t, D, one = _setup()
    assert is_indecomposable(OrePoly(R, [R.zero, R.one, t]))  # t D^2 + D
    assert not is_indecomposable(ore_pow(D, 2) - D)
    assert is_indecomposable(D - OrePoly.const(R, rand_ratfunc(R, random.Random(5), 2, 2)))
    assert not is_indecomposable(one)


def test_is_indecomposable_central_irreducible_power():
    R, t, D, one = _setup()
    n_star = Poly(R, [-(R.one / t), R.one])  # central symbol irreducible
    L = central_operator(n_star, 3)
    assert is_indecomposable(L)
    L2 = central_operator(n_star, 6)
    assert is_indecomposable(L2)


# -- verification --------------------------------------------------------------

def test_verify_decomposition_examples():
    R, t, D, one = _setup()
    L = ore_pow(D, 2) - D
    flags = verify_decomposition(L, [D, D - one])
    assert flags.all_ok
    flags = verify_decomposition(L, [D])
    assert not flags.order_sum_ok and not flags.all_ok
    flags = verify_decomposition(ore_pow(D, 2), [D, D])
    assert not flags.lclm_ok and not flags.all_ok


# -- the full pipeline ----------------------------------------------------------

def test_lclm_decompose_central_branch():
    R, t, D, one = _setup()
    report = lclm_decompose(ore_pow(D, 3), seed=0)
    assert report.verified
    assert lclm(report.factors) == ore_pow(D, 3)
    expected = {D, D + OrePoly.const(R, R.one / t),
                D + OrePoly.const(R, R.from_int(2) / t)}
    assert set(report.factors) == expected


def test_lclm_decompose_two_blocks():
    R, t, D, one = _setup()
    report = lclm_decompose(ore_pow(D, 2) - D, seed=0)
    assert report.verified
    assert len(report.factors) == 2
    assert {f.order for f in report.factors} == {1}


def test_lclm_decompose_indecomposable_stays_whole():
    R, t, D, one = _setup()
    L = OrePoly(R, [R.zero, R.one, t])
    report = lclm_decompose(L, seed=0)
    assert report.verified
    assert report.factors == (L.monic(),)


def test_lclm_decompose_degenerate_orders():
    R, t, D, one = _setup()
    r0 = lclm_decompose(OrePoly.const(R, t), seed=0)
    assert r0.factors == () and r0.verified
    r1 = lclm_decompose(OrePoly(R, [t, t]), seed=0)
    assert r1.factors == (OrePoly(R, [R.one, R.one]),) and r1.verified


def test_lclm_decompose_paper_family():
    F5 = fq_make(5)
    R5 = RatFuncField(F5)
    D5 = OrePoly.partial(R5)
    other = OrePoly(R5, [R5.from_int(2) / R5.t, R5.one])
    L = lclm([D5, other])
    report = lclm_decompose(L, seed=0)
    assert report.verified
    assert len(report.factors) == 2
    x = Poly.x(R5)
    for f in report.factors:
        assert f.order == 1
        assert frobenius_invariants(f) == [x]


def test_lclm_decompose_central_irreducible_factor():
    R, t, D, one = _setup()
    n_star = Poly(R, [-(R.one / t), R.one])
    L = central_operator(n_star, 3)  # D^3 - 1/t^3
    report = lclm_decompose(L, seed=0)
    assert report.verified
    assert report.factors == (L.monic(),)
    # mixed with a decomposable part
    L2 = lclm([L, D])
    report2 = lclm_decompose(L2, seed=0)
    assert report2.verified
    assert sum(f.order for f in report2.factors) == 4
    assert L.monic() in report2.factors


def test_lclm_decompose_nilpotent_jordan_block():
    # (tD)^2 has chi-root Y^2 with a single invariant: indecomposable but
    # not irreducible, and not central
    R, t, D, one = _setup()
    L = ore_pow(OrePoly(R, [R.zero, t]), 2)
    report = lclm_decompose(L, seed=0)
    assert report.verified
    assert report.factors == (L.monic(),)


def test_lclm_decompose_deterministic_under_seed():
    R, t, D, one = _setup()
    L = lclm([D, D - one, D - OrePoly.const(R, R.one / t)])
    r1 = lclm_decompose(L, seed=7)
    r2 = lclm_decompose(L, seed=7)
    assert r1.factors == r2.factors
    assert r1.iso_witness == r2.iso_witness


def test_lclm_decompose_rejects_inseparable():
    R, t, D, one = _setup()
    with pytest.raises(InseparableFactor):
        lclm_decompose(central_operator(ypoly(R, -t, 0, 0, 1), 3), seed=0)


def test_pick_iso_empty_basis_and_equivalence_on_consult():
    from oredecomp.decomp import HomBasis
    from oredecomp.errors import RetryExhausted
    from oredecomp.pcurv import operators_equivalent

    R, t, D, one = _setup()
    with pytest.raises(RetryExhausted):
        pick_iso(D, D, HomBasis(basis=()), random.Random(0))
    # whenever the pipeline consults the hom space, L* and L are equivalent
    L = ore_pow(D, 2) - D
    rep = nice_repr([ypoly(R, 0, 1) * ypoly(R, -1, 1)])
    assert operators_equivalent(rep.l_star, L)


def test_invariant_request_type():
    R, t, D, one = _setup()
    req = InvariantRequest(chain=[ypoly(R, 0, 1), ypoly(R, 0, 1)])
    rep = nice_repr(req)
    assert len(rep.pieces) == 2


def test_lclm_decompose_characteristic_two():
    R, t, D, one = _setup(2)
    rep = lclm_decompose(lclm([D, D - one]), seed=0)
    assert rep.verified and len(rep.factors) == 2
    rep = lclm_decompose(lclm([D, D - OrePoly.const(R, t)]), seed=0)
    assert rep.verified and len(rep.factors) == 2
    rep = lclm_decompose(ore_pow(D, 2), seed=0)
    assert rep.verified
    assert set(rep.factors) == {D, D + OrePoly.const(R, R.one / t)}


def test_lclm_decompose_over_gf9():
    R, t, D, one = _setup(3, 2)
    g = R.from_base(R.base.gen())
    rep = lclm_decompose(lclm([D, D - OrePoly.const(R, g)]), seed=0)
    assert rep.verified and len(rep.factors) == 2


def test_lclm_decompose_repeated_central_power():
    # D^6 = N(D^p)^2 with N = Y: the stripped chain [Y^2 three times] turns
    # into three order-2 indecomposable pieces whose LCLM is D^6 again
    R, t, D, one = _setup(3)
    rep = lclm_decompose(ore_pow(D, 6), seed=0)
    assert rep.verified
    assert [f.order for f in rep.factors] == [2, 2, 2]
    assert lclm(rep.factors) == ore_pow(D, 6)


def test_lclm_decompose_mixed_central_and_split():
    R, t, D, one = _setup(3)
    n_irr = Poly(R, [-(R.one / t), R.one])
    L = lclm([central_operator(n_irr, 3), D, D - one])
    rep = lclm_decompose(L, seed=0)
    assert rep.verified
    assert sorted(f.order for f in rep.factors) == [1, 1, 3]
    assert central_operator(n_irr, 3).monic() in rep.factors


def test_lclm_decompose_mixed_order_invariant_chain():
    # chain [Y, Y^2]: the representative built from it has one order-1 and
    # one order-2 factor, and decomposing it recovers exactly that shape
    R, t, D, one = _setup(3)
    y = ypoly(R, 0, 1)
    rep = nice_repr([y, y * y])
    assert sorted(p.order for p in rep.pieces) == [1, 2]
    out = lclm_decompose(rep.l_star, seed=0)
    assert out.verified
    assert sorted(f.order for f in out.factors) == [1, 2]
    invs = sorted(
        tuple(P.sort_key() for P in frobenius_invariants(f))
        for f in out.factors
    )
    x = Poly.x(R)
    assert invs == sorted([(x.sort_key(),), ((x * x).sort_key(),)])


def test_nilpotent_block_below_characteristic():
    # (tD)^n is indecomposable for n < p as well
    from oredecomp.fieldkit import fq_make as _fq
    from oredecomp.fieldkit import RatFuncField as _RF

    R5 = _RF(_fq(5))
    L = ore_pow(OrePoly(R5, [R5.zero, R5.t]), 2)
    assert is_indecomposable(L)
    out = lclm_decompose(L, seed=0)
    assert out.verified and out.factors == (L.monic(),)


def test_char_two_central_square():
    # (D+1)^2 = D^2 + 1 is central over GF(2)(t) and splits into two
    # equivalent order-1 factors through the m = p branch
    R, t, D, one = _setup(2)
    L = ore_pow(D + one, 2)
    assert L == ore_pow(D, 2) + one
    out = lclm_decompose(L, seed=0)
    assert out.verified
    assert [f.order for f in out.factors] == [1, 1]
    assert lclm(out.factors) == L


def test_decompose_over_gf4():
    R, t, D, one = _setup(2, 2)
    g = R.from_base(R.base.gen())
    L = lclm([D - OrePoly.const(R, g), D - OrePoly.const(R, g * g)])
    out = lclm_decompose(L, seed=0)
    assert out.verified and len(out.factors) == 2


# -- the cyclic shortcut ---------------------------------------------------------

def test_lclm_decompose_cyclic_skips_isomorphism(monkeypatch):
    # four inequivalent first-order pieces over GF(5): chi's root is
    # squarefree, the p-curvature cyclic, and the primary decomposition is the
    # answer, read off without L*, the ASD solve or the hom space
    import oredecomp.decomp as decomp_mod

    R, t, D, one = _setup(5)
    L = lclm([D, D - one, D - OrePoly.const(R, R.from_int(2)),
              D - OrePoly.const(R, t)])
    expected = {li for li, _, _ in first_decomposition(L)}

    def forbidden(*args, **kwargs):
        raise AssertionError("the cyclic case must not reach this stage")

    monkeypatch.setattr(decomp_mod, "hom_space", forbidden)
    monkeypatch.setattr(decomp_mod, "central_operator_reducible", forbidden)
    report = lclm_decompose(L, seed=0)
    assert report.verified and report.iso_witness is None
    assert len(report.invariants) == 1
    assert set(report.factors) == expected and len(report.factors) == 4
    assert {lab.shift for lab in report.labels} == {1}


def test_lclm_decompose_non_cyclic_keeps_isomorphism():
    # D and D + 1/t are equivalent: the chain [Y, Y] is not cyclic, and the
    # decomposition goes through an isomorphism with a representative
    R, t, D, one = _setup(5)
    L = lclm([D, D + OrePoly.const(R, R.one / t)])
    report = lclm_decompose(L, seed=0)
    assert report.verified and len(report.invariants) == 2
    assert report.iso_witness is not None
    assert sorted(f.order for f in report.factors) == [1, 1]


@pytest.mark.parametrize("p,n", [(2, 2), (5, 1), (3, 2)])
def test_lclm_decompose_cyclic_matches_first_decomposition(p, n):
    R, t, D, one = _setup(p, n)
    rng = random.Random(100 * p + n)
    for _ in range(4):
        a = rand_ratfunc(R, rng, 1, 1)
        b = rand_ratfunc(R, rng, 1, 1)
        L = lclm([D - OrePoly.const(R, a), D - OrePoly.const(R, b)])
        report = lclm_decompose(L, seed=0)
        assert report.verified
        assert lclm(report.factors) == L.monic()
        # inequivalent pieces (distinct chi-roots) for these seeds: cyclic
        assert len(report.invariants) == 1 and report.iso_witness is None
        expected = {li for li, _, _ in first_decomposition(L)}
        assert set(report.factors) == expected and len(expected) == 2


# -- shared verdicts and the multiplicity criterion -------------------------------

def _count_asd(monkeypatch):
    import oredecomp.decomp as decomp_mod

    seen = []

    def counting(n_star):
        seen.append(n_star)
        return central_operator_reducible(n_star)

    monkeypatch.setattr(decomp_mod, "central_operator_reducible", counting)
    return seen


def test_lclm_decompose_solves_each_asd_once(monkeypatch):
    # D^3 - c(t^3) with c = 1 + 1/(t - 1) over GF(3): the central symbol is
    # irreducible (no Artin-Schreier solution); stripping solves the ASD and
    # verification reads the same verdict
    R, t, D, one = _setup(3)
    c = (R.one + R.one / (t - R.one)).inflate(3)
    L = ore_pow(D, 3) - OrePoly.const(R, c)
    seen = _count_asd(monkeypatch)
    report = lclm_decompose(L, seed=0)
    assert report.verified and report.factors == (L.monic(),)
    assert len(seen) == len(set(seen)) == 1


def test_standalone_checks_keep_their_results(monkeypatch):
    R, t, D, one = _setup(3)
    n_irr = Poly(R, [-(R.one / t), R.one])
    central = central_operator(n_irr, 3)
    seen = _count_asd(monkeypatch)
    assert is_indecomposable(central)
    assert not is_indecomposable(ore_pow(D, 3))  # reducible symbol, 3 invariants
    assert is_indecomposable(OrePoly(R, [R.zero, R.one, t]))  # t D^2 + D
    flags = verify_decomposition(lclm([central, D]), [central.monic(), D])
    assert flags.all_ok
    flags = verify_decomposition(ore_pow(D, 3), [ore_pow(D, 3)])
    assert flags.lclm_ok and flags.divides_ok == (True,)
    assert flags.indecomposable_ok == (False,)
    # every standalone call starts from a fresh verdict store
    assert seen == [n_irr, Poly.x(R), n_irr, Poly.x(R)]


def test_verify_decomposition_reads_the_given_store(monkeypatch):
    import oredecomp.decomp as decomp_mod

    R, t, D, one = _setup(3)
    n_irr = Poly(R, [-(R.one / t), R.one])
    central = central_operator(n_irr, 3)
    store = {n_irr: central_operator_reducible(n_irr)}

    def forbidden(*args, **kwargs):
        raise AssertionError("the verdict is in the store")

    monkeypatch.setattr(decomp_mod, "central_operator_reducible", forbidden)
    assert verify_decomposition(central, [central], witnesses=store).all_ok


@pytest.mark.parametrize("p,n,expr", [
    # a simple order-2 module over GF(3), chi-root an irreducible quadratic
    (3, 1, "D^2 + (t)/(t+2)*D + t^2+t"),
    # order 3 over GF(9), a single cubic invariant
    (3, 2, "D^3 + ((g+1)*t+1)/(t+1)*D^2 + (2*t+(g+1))*D + (g)/(t+(g+1))"),
    # order 2 over GF(4), chi-root an irreducible quadratic
    (2, 2, "D^2 + (t+1)/(t)*D + (g*t+(g+1))/(t+(g+1))"),
])
def test_multiplicity_prime_to_p_skips_the_asd(monkeypatch, p, n, expr):
    # chi's root is N_*^1: an irreducible central symbol would need a
    # multiplicity divisible by p, so the symbol is reducible and one
    # invariant factor proves indecomposability without the ASD solve
    import oredecomp.decomp as decomp_mod
    from oredecomp.cli import parse_operator

    L = parse_operator(expr, fq_make(p, n))

    def forbidden(*args, **kwargs):
        raise AssertionError("multiplicity 1 decides the symbol")

    monkeypatch.setattr(decomp_mod, "central_operator_reducible", forbidden)
    assert is_indecomposable(L)
    report = lclm_decompose(L, seed=0)
    assert report.verified and report.factors == (L.monic(),)
    assert len(report.invariants) == 1


# -- one record of chi's factorisation per run ---------------------------------

def _count_calls(monkeypatch, module_name, fname):
    """Count calls of oredecomp.<module_name>.<fname> through every oredecomp
    module that holds a binding of it."""
    orig = getattr(sys.modules["oredecomp." + module_name], fname)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if (key == "oredecomp" or key.startswith("oredecomp.")) \
                and getattr(mod, fname, None) is orig:
            monkeypatch.setattr(mod, fname, counting)
    return calls


def test_central_input_factors_chi_root_once(monkeypatch):
    # D^3 - c(t^3), c = 1 + 1/(t - 1) over GF(3), as in the test above: one
    # central factor with an irreducible symbol, equal to the input, so
    # verification reads the run's factorisation instead of redoing it
    R, t, D, one = _setup(3)
    c = (R.one + R.one / (t - R.one)).inflate(3)
    L = ore_pow(D, 3) - OrePoly.const(R, c)
    factored = _count_calls(monkeypatch, "yfactor", "factor_monic_in_y")
    report = lclm_decompose(L, seed=0)
    assert report.verified and report.factors == (L.monic(),)
    assert len(factored) == 1


@pytest.mark.parametrize("j", [1, 2])
def test_central_power_is_indecomposable_without_division(monkeypatch, j):
    # with an irreducible symbol, L is indecomposable exactly when it is
    # N^j(D^p) itself: one comparison, no exact central quotients
    R, t, D, one = _setup(3)
    n_star = Poly(R, [-(R.one / t), R.one])
    divided = _count_calls(monkeypatch, "ore", "exact_right_quotient_central")
    assert is_indecomposable(central_operator(n_star, 3 * j))
    assert divided == []


def test_order_one_input_is_a_cyclic_factor():
    R, t, D, one = _setup(5)
    L = D - OrePoly.const(R, (t + R.one) / t)
    report = lclm_decompose(L, seed=0)
    assert report.verified and report.factors == (L,)
    (label,) = report.labels
    assert (label.n_star, label.nu, label.shift) == (report.invariant_roots[-1], 1, 1)


# -- one pass over primary blocks ----------------------------------------------

def test_cyclic_block_stays_out_of_the_hom_space(monkeypatch):
    # D ~ D + 1/t share N_* = Y in layers 1 and 2; D - 1 is a cyclic block,
    # so only the order-2 residual block meets L*, the hom space and the iso
    R, t, D, one = _setup(5)
    L = lclm([D, D + OrePoly.const(R, R.one / t), D - one])
    homs = _count_calls(monkeypatch, "decomp", "hom_space")
    report = lclm_decompose(L, seed=0)
    assert report.verified
    assert [L_block.order for _, L_block in homs] == [2]
    x = Poly.x(R)
    cyclic = [(f, lab) for f, lab in zip(report.factors, report.labels)
              if lab.n_star != x]
    assert [(f, lab.nu, lab.shift) for f, lab in cyclic] == [(D - one, 1, 2)]


def _irreducible_central(R, t):
    # N_* = Y - 1/t over GF(3): N^1(D^3) has an irreducible central symbol
    return central_operator(Poly(R, [-(R.one / t), R.one]), 3)


def test_central_block_beside_a_cyclic_one_is_not_divided_out(monkeypatch):
    R, t, D, one = _setup(3)
    C = _irreducible_central(R, t)
    divided = _count_calls(monkeypatch, "ore", "exact_right_quotient_central")
    homs = _count_calls(monkeypatch, "decomp", "hom_space")
    report = lclm_decompose(lclm([C, D]), seed=0)
    assert report.verified and report.iso_witness is None
    assert report.factors == (D, C.monic())
    assert divided == [] and homs == []


def test_central_block_beside_a_residual_block_keeps_its_output():
    # a central block beside a residual one: factors and iso witness pinned
    from oredecomp.cli import parse_operator

    R, t, D, one = _setup(3)
    C = _irreducible_central(R, t)
    report = lclm_decompose(lclm([C, D, D + OrePoly.const(R, R.one / t)]), seed=0)
    F3 = R.base
    assert report.verified
    assert report.factors == tuple(parse_operator(e, F3) for e in (
        "D + (2)/(t^2+2*t)", "D + (t)/(t^2+2)", "D^3 + (2)/(t^3)"))
    assert report.iso_witness == parse_operator("(t^2+t+1)*D + 2*t+1", F3)


# -- primary blocks from the p-curvature record --------------------------------

def test_residual_block_factors_chi_root_once(monkeypatch):
    # nice_repr's chain for the residual block is built from factors the run
    # already holds, so chi's root is factored once (PCurvData.root_factors)
    R, t, D, one = _setup(5)
    L = lclm([D, D + OrePoly.const(R, R.one / t), D - one])
    factored = _count_calls(monkeypatch, "yfactor", "factor_monic_in_y")
    report = lclm_decompose(L, seed=0)
    assert report.verified and report.iso_witness is not None
    assert len(factored) == 1


@pytest.mark.parametrize("p,n", [(5, 1), (2, 2)])
def test_blocks_never_divide_an_operator_longer_than_l(monkeypatch, p, n):
    # a block is GCRD(L, W) with W = N(Psi) e_0 of order < ord L, read from
    # the p-curvature record instead of the order-p central operator
    import oredecomp.decomp as decomp_mod

    R, t, D, one = _setup(p, n)
    L = lclm([D - OrePoly.const(R, R.one / t), D - OrePoly.const(R, t)])
    operands = []

    def recording(A, B):
        operands.append((A.order, B.order))
        return gcrd(A, B)

    monkeypatch.setattr(decomp_mod, "gcrd", recording)
    parts = first_decomposition(L)
    assert sorted(li.order for li, _, _ in parts) == [1, 1]
    report = lclm_decompose(L, seed=0)
    assert report.verified and len(report.factors) == 2
    assert operands
    assert all(max(pair) <= L.order and min(pair) < L.order for pair in operands)


def test_a_block_holding_every_factor_evaluates_no_matrix_polynomial(monkeypatch):
    # when a block's part holds every irreducible factor of chi, N(Psi) is a
    # multiple of the minimal polynomial, so W = 0 and the block is monic L
    import oredecomp.decomp as decomp_mod
    from oredecomp.linalg import mat_eval_poly

    calls = []

    def counting(P, M):
        calls.append(P)
        return mat_eval_poly(P, M)

    monkeypatch.setattr(decomp_mod, "mat_eval_poly", counting)
    R3, t3, D3, _ = _setup(3)
    R5, t5, D5, _ = _setup(5)
    airy = ore_pow(D5, 2) - OrePoly.const(R5, t5)  # chi's root Y^2 - t
    single = (_irreducible_central(R3, t3), ore_pow(D3, 3), airy)
    for L in single:
        calls.clear()
        (part,) = first_decomposition(L)
        assert part[0] == L.monic()
        report = lclm_decompose(L, seed=0)
        assert report.verified
        assert calls == []
    assert lclm_decompose(airy, seed=0).factors == (airy,)
    for L in (ore_pow(D3, 2) - D3, ore_pow(D5, 2) - OrePoly.const(R5, t5 * t5)):
        calls.clear()
        parts = first_decomposition(L)
        assert len(parts) == 2 and len(calls) == 2
        calls.clear()
        report = lclm_decompose(L, seed=0)
        assert report.verified and len(report.factors) == 2
        assert len(calls) == 2
