import random

import pytest

from oredecomp.errors import InseparableFactor, ZeroOrder
from oredecomp.fieldkit import Poly, RatFuncField, fq_make, poly_gcd
from oredecomp.linalg import char_poly, frac_poly_e0, invariant_factors, mat_eval_poly
from oredecomp.ore import OrePoly, lclm, ore_mul, ore_pow
from oredecomp.pcurv import (
    central_operator,
    central_operator_from_constants,
    frobenius_invariants,
    invariants_pth_root,
    matrix_to_constants,
    operators_equivalent,
    pcurv_charpoly,
    pcurv_data,
    pcurvature_matrix,
    ratfunc_to_constants,
    ypoly_pth_power,
    ypoly_to_constants,
)

from helpers import (
    pcurvature_matrix_by_steps,
    rand_monic_operator,
    rand_operator,
    rand_ratfunc,
    ypoly,
)


def _setup(p=3, n=1):
    R = RatFuncField(fq_make(p, n))
    return R, R.t, OrePoly.partial(R), OrePoly.one(R)


def _phi(f, p):
    d = f
    for _ in range(p - 1):
        d = d.derivative()
    return d + f ** p


def test_matrix_examples():
    R, t, D, one = _setup()
    assert pcurvature_matrix(D).rows == ((R.zero,),)
    assert pcurvature_matrix(D - one).rows == ((R.one,),)
    L = ore_pow(D, 2) - D
    assert pcurvature_matrix(L).rows == ((R.zero, R.zero), (R.one, R.one))
    with pytest.raises(ZeroOrder):
        pcurvature_matrix(one)


def test_matrix_entries_not_always_constant():
    # the power basis matrix of D^2 - t has entries t and t^2, outside
    # GF(3)(t^3); its characteristic polynomial still lands inside
    R, t, D, one = _setup()
    L = ore_pow(D, 2) - OrePoly.const(R, t)
    M = pcurvature_matrix(L)
    assert matrix_to_constants(M) is None
    pcurv_charpoly(L)  # must not raise


def test_charpoly_examples():
    R, t, D, one = _setup()
    x = Poly.x(R)
    assert pcurv_charpoly(D) == x
    rng = random.Random(14)
    for _ in range(20):
        f = rand_ratfunc(R, rng, 2, 2)
        L = OrePoly(R, [-f, R.one])
        chi = pcurv_charpoly(L)
        # order-1 oracle from the (D - f)^p identity
        expected = _phi(f, 3)
        assert chi.degree == 1
        assert (-chi.coeff(0)).inflate(3) == expected


def test_charpoly_central_monic_formula():
    R, t, D, one = _setup()
    rng = random.Random(15)
    for _ in range(10):
        deg_y = rng.randrange(1, 3)
        n_star = Poly(R, [rand_ratfunc(R, rng, 1, 1) for _ in range(deg_y)] + [R.one])
        L = central_operator(n_star, 3)
        chi = pcurv_charpoly(L)
        assert central_operator_from_constants(chi) == ore_pow(L, 3).monic()


def test_charpoly_multiplicative_random():
    R, t, D, one = _setup()
    rng = random.Random(16)
    for _ in range(30):
        A = rand_monic_operator(R, rng, rng.randrange(1, 3), 1, 1)
        B = rand_monic_operator(R, rng, rng.randrange(1, 3), 1, 1)
        assert pcurv_charpoly(ore_mul(A, B)) == pcurv_charpoly(A) * pcurv_charpoly(B)


def test_invariants_examples():
    R, t, D, one = _setup()
    x = Poly.x(R)
    assert frobenius_invariants(ore_pow(D, 3)) == [x, x, x]
    assert frobenius_invariants(ore_pow(D, 2) - D) == [x * x - x]
    assert frobenius_invariants(OrePoly(R, [R.zero, R.one, t])) == [x * x]


def test_invariants_chain_and_size():
    R, t, D, one = _setup()
    rng = random.Random(17)
    for _ in range(15):
        L = rand_monic_operator(R, rng, rng.randrange(1, 4), 1, 1)
        data = pcurv_data(L)
        assert len(data.invariants) <= 3
        assert sum(P.degree for P in data.invariants) == L.order
        prod = Poly.one(R)
        for P in data.invariants:
            prod = prod * P
        assert prod == data.charpoly
        for Q, P in zip(data.invariant_roots, data.invariants):
            assert ypoly_pth_power(Q) == P


def test_invariants_pth_root_examples():
    R, t, D, one = _setup()
    x = Poly.x(R)
    assert invariants_pth_root(x) == x
    assert invariants_pth_root(x - Poly.const(R, t)) == x - Poly.const(R, t)
    # oracle: (Y - t)^p = Y^p - t^p
    assert (x - Poly.const(R, t)) ** 3 == x ** 3 - Poly.const(R, t ** 3)
    assert invariants_pth_root(x * x - x) == x * x - x
    # coefficients with nontrivial Frobenius: over GF(9), (g s) needs g^(1/3)
    F9 = fq_make(3, 2)
    R9 = RatFuncField(F9)
    g = R9.from_base(F9.gen())
    P = Poly(R9, [g * R9.t, R9.one])  # Y + g*s
    Q = invariants_pth_root(P)
    assert ypoly_pth_power(Q) == P


def test_equivalence_examples():
    F5 = fq_make(5)
    R5 = RatFuncField(F5)
    D5 = OrePoly.partial(R5)
    shifted = OrePoly(R5, [R5.from_int(2) / R5.t, R5.one])  # D + (p-1)/(2t)
    assert operators_equivalent(D5, shifted)
    R, t, D, one = _setup()
    assert not operators_equivalent(D, D - one)
    L = rand_monic_operator(R, random.Random(18), 2, 1, 1)
    assert operators_equivalent(L, L)


def test_equivalence_reads_one_pcurvature_per_operator(monkeypatch, capsys):
    """operators_equivalent and the CLI's equivalent run the p-curvature
    recurrence once per operator: both invariants and the separability
    check read the same record."""
    import oredecomp.pcurv as pcurv
    from oredecomp.cli import run

    calls = []
    original = pcurv._pcurvature_fraction

    def counting(L):
        calls.append(L)
        return original(L)

    monkeypatch.setattr(pcurv, "_pcurvature_fraction", counting)
    R5 = RatFuncField(fq_make(5))
    D5 = OrePoly.partial(R5)
    shifted = OrePoly(R5, [R5.from_int(2) / R5.t, R5.one])
    assert operators_equivalent(D5, shifted)
    assert len(calls) == 2
    del calls[:]
    assert run(["equivalent", "--p", "5", "--expr", "D", "--expr", "D + 2/t"]) == 0
    assert '"equivalent": true' in capsys.readouterr().out
    assert len(calls) == 2


def test_equivalence_requires_separability():
    R, t, D, one = _setup()
    # chi of this operator is the cube of an inseparable irreducible
    L = central_operator(ypoly(R, -t, 0, 0, 1), 3)
    with pytest.raises(InseparableFactor):
        operators_equivalent(L, L)


def _poles_operators(R, order):
    """Monic operators with a pole at t = 0, repeated poles and a pole
    shared between coefficients."""
    t, one = R.t, R.one
    c = [one / (t * t), (t + one) / ((t - one) ** 3), t / (t + R.from_int(2)),
         one / t, (t * t + one) / (t * (t - one) ** 2)]
    shifted = c[1:] + c[:1]
    return [OrePoly(R, c[:order] + [one]), OrePoly(R, shifted[:order] + [one])]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (17, 1)])
def test_matrix_matches_step_by_step_oracle(p, n):
    R = RatFuncField(fq_make(p, n))
    rng = random.Random(100 * p + n)
    for order in (1, 2, 3, 4):
        ops = _poles_operators(R, order)
        ops += [rand_monic_operator(R, rng, order, 1, 1) for _ in range(2)]
        for L in ops:
            assert pcurvature_matrix(L) == pcurvature_matrix_by_steps(L)


def _inseparable_operators(R):
    """Operators of order <= 4 whose chi is inseparable: the central
    D^p - c(t^p), when p <= 4, and LCLM(D - 1, D - 1 - 1/t), whose
    p-curvature is the identity (both factors have p-curvature 1)."""
    t, one = R.t, R.one
    p = R.base.p
    ops = [lclm([OrePoly(R, [-one, one]), OrePoly(R, [-(one + one / t), one])])]
    if p <= 4:
        c = ((t + one) / (t * t + R.from_int(2))).inflate(p)
        ops.append(OrePoly(R, [-c] + [R.zero] * (p - 1) + [one]))
    return ops


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (17, 1)])
def test_record_reads_chi_matrix_and_block_vector_off_the_numerators(p, n):
    """chi from W and c, the lazily reduced matrix and P(Psi) e_0 by vector
    Horner agree with the step-by-step matrix and the matrix Horner."""
    R = RatFuncField(fq_make(p, n))
    rng = random.Random(300 * p + n)
    ops = _inseparable_operators(R)
    for order in (1, 2, 3, 4):
        ops += _poles_operators(R, order)
        ops += [rand_monic_operator(R, rng, order, 1, 1),
                rand_operator(R, rng, order, 1, 1)]
    inseparable = 0
    for L in ops:
        data = pcurv_data(L)
        M = pcurvature_matrix_by_steps(L)
        assert data.charpoly == ypoly_to_constants(char_poly(M))
        inseparable += poly_gcd(data.charpoly, data.charpoly.derivative()).degree > 0
        assert data.matrix == M
        for deg in (0, 1, 2, 3):
            coeffs = [rand_ratfunc(R, rng, 1, 1) for _ in range(deg)]
            P = Poly(R, coeffs + [rand_ratfunc(R, rng, 1, 1, nonzero=True)])
            column = [row[0] for row in mat_eval_poly(P, data.matrix).rows]
            assert frac_poly_e0(P, data.numerators, data.denominator) == column
        assert frac_poly_e0(Poly.zero(R), data.numerators, data.denominator) == [R.zero] * L.order
    assert inseparable >= len(_inseparable_operators(R))


def test_record_runs_the_recurrence_once_and_reduces_only_when_read(monkeypatch):
    import oredecomp.pcurv as pcurv
    from oredecomp.decomp import lclm_decompose

    counts = {"recurrence": 0, "reduced": 0}
    recurrence, reduced = pcurv._pcurvature_fraction, pcurv._reduced_matrix

    def counting_recurrence(L):
        counts["recurrence"] += 1
        return recurrence(L)

    def counting_reduced(field, rows, c):
        counts["reduced"] += 1
        return reduced(field, rows, c)

    monkeypatch.setattr(pcurv, "_pcurvature_fraction", counting_recurrence)
    monkeypatch.setattr(pcurv, "_reduced_matrix", counting_reduced)
    R, t, D, one = _setup()
    # an inseparable chi reads the matrix once, for the Smith form
    central = ore_pow(D, 3) - OrePoly.const(R, (t ** 3 + R.one) / (t ** 3 + R.from_int(2)))
    data = pcurv_data(central)
    assert counts == {"recurrence": 1, "reduced": 1}
    assert data.matrix == pcurvature_matrix_by_steps(central)
    assert data.matrix_constants is not None
    assert counts == {"recurrence": 1, "reduced": 1}
    # a squarefree chi reduces nothing until the matrix is read
    counts.update(recurrence=0, reduced=0)
    L = ore_pow(D, 2) - OrePoly.const(R, t * t)
    data = pcurv_data(L)
    assert len(data.invariants) == 1 and "matrix" not in vars(data)
    assert counts == {"recurrence": 1, "reduced": 0}
    assert data.matrix_constants is None and data.matrix == pcurvature_matrix(L)
    assert counts == {"recurrence": 2, "reduced": 2}
    # the pipeline's blocks come from the numerators
    counts.update(recurrence=0, reduced=0)
    report = lclm_decompose(L, seed=0)
    assert report.verified and len(report.factors) == 2
    assert counts == {"recurrence": 1, "reduced": 0}


def _smith_invariants(L):
    M = pcurvature_matrix(L)
    return [ypoly_to_constants(P) for P in invariant_factors(M)]


def test_separable_chi_skips_the_smith_form(monkeypatch):
    rng = random.Random(41)
    cases = []
    for p, n in ((5, 1), (7, 1), (3, 2), (17, 1)):
        R = RatFuncField(fq_make(p, n))
        for order in (1, 2, 3):
            L = rand_monic_operator(R, rng, order, 1, 1)
            chi = pcurv_charpoly(L)
            if poly_gcd(chi, chi.derivative()).degree == 0:
                cases.append((L, _smith_invariants(L)))
    assert len(cases) >= 10

    def no_smith(M):
        raise AssertionError("Smith form computed for a separable chi")

    monkeypatch.setattr("oredecomp.pcurv.invariant_factors", no_smith)
    for L, expected in cases:
        assert frobenius_invariants(L) == expected
        data = pcurv_data(L)
        assert data.invariants == expected == [data.charpoly]


def test_inseparable_chi_reaches_the_smith_form(monkeypatch):
    R, t, D, one = _setup()
    x = Poly.x(R)
    c = (t ** 3 + R.one) / (t ** 3 + R.from_int(2))
    central = ore_pow(D, 3) - OrePoly.const(R, c)
    root = x - Poly.const(R, ratfunc_to_constants(c))
    calls = []

    def counting(M):
        calls.append(M)
        return invariant_factors(M)

    monkeypatch.setattr("oredecomp.pcurv.invariant_factors", counting)
    for L, expected in ((ore_pow(D, 3), [x, x, x]), (ore_pow(D, 2), [x, x]),
                        (central, [root, root, root])):
        calls.clear()
        assert frobenius_invariants(L) == expected
        assert pcurv_data(L).invariants == expected
        assert len(calls) == 2
