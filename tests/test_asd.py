import itertools
import random

import pytest

from oredecomp.algext import make_extension
from oredecomp.asd import (
    ASDSolution,
    NoSolution,
    asd_pole_bound,
    asd_solve,
    central_operator_reducible,
)
from oredecomp import asd as asd_mod
from oredecomp.errors import Inseparable, RetryExhausted
from oredecomp.fieldkit import Poly, RatFunc, RatFuncField, fq_make
from oredecomp.ore import OrePoly, ore_rem

from helpers import ypoly


def _phi(f, p):
    d = f
    for _ in range(p - 1):
        d = d.derivative()
    return d + f ** p


def _phi_ext(u, p):
    d = u
    for _ in range(p - 1):
        d = d.derivative()
    return d + u.pth_power()


def _trivial_ext(R, a):
    return make_extension(Poly(R, [-a, R.one]))


def test_pole_bound_examples():
    R = RatFuncField(fq_make(3))
    t = R.t
    b1 = asd_pole_bound(_trivial_ext(R, t))
    assert b1.places == () and b1.num_degree_cap >= 1
    b2 = asd_pole_bound(_trivial_ext(R, R.one / t))
    assert [p.coeffs for p in b2.places] == [(R.base.zero, R.base.one)]
    b3 = asd_pole_bound(make_extension(ypoly(R, -t, 0, 1)))
    # a' = 2a/t puts t into the support
    assert any(p == Poly.x(R.base) for p in b3.places)


def test_solve_trivial_targets():
    R = RatFuncField(fq_make(3))
    t = R.t
    E0 = _trivial_ext(R, R.zero)
    s0 = asd_solve(E0)
    assert isinstance(s0, ASDSolution) and not s0.f
    E1 = _trivial_ext(R, R.one)
    s1 = asd_solve(E1)
    assert isinstance(s1, ASDSolution) and s1.f == E1.one
    for p in (3, 5):
        Rp = RatFuncField(fq_make(p))
        Et = _trivial_ext(Rp, Rp.t)
        st = asd_solve(Et)
        assert isinstance(st, ASDSolution)
        assert st.f == Et.from_ratfunc(Rp.t)


def test_inseparable_extensions_cannot_be_built():
    # the separability precondition is enforced at construction time
    R = RatFuncField(fq_make(3))
    t = R.t
    with pytest.raises(Inseparable):
        make_extension(ypoly(R, -t, 0, 0, 1))


def test_phi_is_gfp_linear():
    R = RatFuncField(fq_make(3))
    t = R.t
    E = make_extension(ypoly(R, -t, 0, 1))
    rng = random.Random(9)
    for _ in range(40):
        u = E.random(rng)
        v = E.random(rng)
        assert _phi_ext(u + v, 3) == _phi_ext(u, 3) + _phi_ext(v, 3)
        for c in range(3):
            cu = E.from_int(c) * u
            assert _phi_ext(cu, 3) == E.from_int(c) * _phi_ext(u, 3)


def test_reducibility_dichotomy_examples():
    R = RatFuncField(fq_make(3))
    t = R.t
    v = central_operator_reducible(ypoly(R, -t, 1))
    assert v.reducible
    assert v.witness.f == v.witness.f.field.from_ratfunc(t)
    v2 = central_operator_reducible(Poly(R, [-(R.one / t), R.one]))
    assert not v2.reducible
    R27 = RatFuncField(fq_make(3, 3))
    t27 = R27.t
    v3 = central_operator_reducible(Poly(R27, [-(R27.one / t27), R27.one]))
    assert v3.reducible
    # trace oracle: c^3 - c = 1 must be solvable in GF(27)
    F27 = fq_make(3, 3)
    assert any(c ** 3 - c == F27.one for c in F27.all_elements())


def test_witness_satisfies_equation_and_divisibility():
    R = RatFuncField(fq_make(3))
    t = R.t
    for n_star in (ypoly(R, -t, 1), ypoly(R, -t, 0, 1),
                   Poly(R, [(t + R.one) / t, R.one])):
        v = central_operator_reducible(n_star)
        if not v.reducible:
            continue
        E = v.witness.f.field
        f = v.witness.f
        y = E.gen.pth_power()
        assert _phi_ext(f, 3) == y
        dp = OrePoly(E, [-y, E.zero, E.zero, E.one])
        assert not ore_rem(dp, OrePoly(E, [-f, E.one]))


def test_no_solution_matches_bounded_brute_force():
    # degree-1 extensions over GF(3) with small data: whenever a bounded
    # brute-force search finds a solution, the solver must too, and a
    # NoSolution verdict must mean the brute force finds nothing
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    rng = random.Random(20)
    t_poly = Poly.x(F3)
    brute_shapes = []
    for k in range(0, 3):
        den = Poly(F3, [F3.zero] * k + [F3.one])
        brute_shapes.append(den)
    num_choices = list(itertools.product(*[range(3)] * 4))

    def brute_force(a):
        target = a ** 3
        for den in brute_shapes:
            for coeffs in num_choices:
                num = Poly(F3, [F3.from_int(c) for c in coeffs])
                if not num and den.degree == 0:
                    f = R.zero
                else:
                    if not num:
                        continue
                    f = RatFunc.make(R, num, den)
                if _phi(f, 3) == target:
                    return f
        return None

    checked_mismatch = 0
    for den_exp in (0, 1, 2):
        for num_coeffs in itertools.product(*[range(3)] * 3):
            num = Poly(F3, [F3.from_int(c) for c in num_coeffs])
            if not num:
                continue
            den = Poly(F3, [F3.zero] * den_exp + [F3.one])
            a = RatFunc.make(R, num, den)
            result = asd_solve(_trivial_ext(R, a))
            brute = brute_force(a)
            if isinstance(result, NoSolution):
                assert brute is None, (a, brute)
                checked_mismatch += 1
            else:
                f = result.f.coords[0]
                assert _phi(f, 3) == a ** 3
            # the residue decision: a certified "irreducible" has no
            # brute-force witness, a "reducible" carries a checked one
            verdict = central_operator_reducible(Poly(R, [-a, R.one]))
            assert verdict.certified
            assert verdict.reducible == isinstance(result, ASDSolution), a
            if verdict.reducible:
                assert _phi(verdict.witness.f.coords[0], 3) == a ** 3
            else:
                assert brute is None and verdict.witness is None
    assert checked_mismatch > 0  # the negative branch was exercised


def test_no_solution_example_reports_bound():
    R = RatFuncField(fq_make(3))
    t = R.t
    result = asd_solve(_trivial_ext(R, R.one / t))
    assert isinstance(result, NoSolution)
    assert result.bound_used.num_degree_cap >= 16 * 6  # four doublings


# -- the residue decision for degree-1 symbols ----------------------------------

def _agreement_cases(p, n):
    # derandomized a = num/den with simple and double poles, and a place of
    # degree 2 (t^2 + t + 1, t^2 + 1, t^2 + t + g over GF(2), GF(3), GF(4))
    F = fq_make(p, n)
    R = RatFuncField(F)
    x, one = Poly.x(F), Poly.one(F)
    place2 = {(2, 1): x * x + x + one, (3, 1): x * x + one,
              (2, 2): x * x + x + Poly.const(F, F.gen())}[(p, n)]
    dens = [x * x, x * (x + one), place2, x * x * (x + one)]
    rng = random.Random(31 * p + n)
    cases = []
    for den in dens:
        num = Poly(F, [F.random(rng) for _ in range(den.degree + 1)])
        if num:
            cases.append(RatFunc.make(R, num, den))
    return R, cases


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_residue_decision_agrees_with_the_ansatz(p, n):
    R, cases = _agreement_cases(p, n)
    verdicts = set()
    for a in cases:
        n_star = Poly(R, [-a, R.one])
        verdict = central_operator_reducible(n_star)
        solved = asd_solve(make_extension(n_star))
        assert verdict.certified
        assert verdict.reducible == isinstance(solved, ASDSolution), a
        verdicts.add(verdict.reducible)
    assert verdicts == {True, False}


def test_residues_divide_by_the_other_poles():
    # the 1/t coefficient of a's partial fraction at t is taken after
    # dividing by den / t^k modulo t^k; these symbols are reducible
    F3 = fq_make(3)
    R3 = RatFuncField(F3)
    t, one = R3.t, R3.one
    F4 = fq_make(2, 2)
    R4 = RatFuncField(F4)
    s, g = R4.t, R4.from_base(F4.gen())
    for a in ((t + t + one) / (t * t * (t + one) ** 2),
              (s * s + g * s + g) / (s * s * (s + R4.one))):
        verdict = central_operator_reducible(Poly(a.field, [-a, a.field.one]))
        assert verdict.reducible and verdict.certified
        f = verdict.witness.f
        assert _phi_ext(f, a.field.base.p) == f.field.gen.pth_power()


def test_irreducible_degree_one_symbol_runs_no_ansatz(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the ansatz ran on an irreducible degree-1 symbol")

    monkeypatch.setattr(asd_mod, "_try_bound", forbidden)
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    # 1/t, and a central-workload c = alpha + rho/(t - t0)
    c = R.from_int(2) + R.from_int(2) / (t - R.one)
    for a in (R.one / t, c):
        verdict = central_operator_reducible(Poly(R, [-a, R.one]))
        assert not verdict.reducible and verdict.certified
        assert verdict.witness is None and verdict.bound_used is None


def test_reducible_degree_one_symbol_without_witness_raises(monkeypatch):
    monkeypatch.setattr(asd_mod, "asd_solve", lambda ext: NoSolution(bound_used=None))
    R = RatFuncField(fq_make(3))
    with pytest.raises(RetryExhausted):
        central_operator_reducible(ypoly(R, -R.t, 1))


def test_residue_trace_over_gf27_is_zero():
    # Res_0(dt/t) = 1, and Tr_{GF(27)/GF(3)}(1) = 3 = 0
    R = RatFuncField(fq_make(3, 3))
    verdict = central_operator_reducible(Poly(R, [-(R.one / R.t), R.one]))
    assert verdict.reducible and verdict.certified
    f = verdict.witness.f
    assert _phi_ext(f, 3) == f.field.gen.pth_power()


def _quadratic_reproducers():
    # symbols whose witness needs a pole outside asd_pole_bound's support
    R3 = RatFuncField(fq_make(3))
    t, one = R3.t, R3.one
    yield Poly(R3, [(t ** 3 + one) / (t + R3.from_int(2)), one, one])
    F4 = fq_make(2, 2)
    R4 = RatFuncField(F4)
    t, one, g = R4.t, R4.one, R4.from_base(F4.gen())
    yield Poly(R4, [(g * t * t + (g + one) * t + (g + one)) / (t * t + (g + one) * t),
                    one, one])


def test_degree_two_ansatz_verdicts_are_uncertified(monkeypatch):
    # Y^2 + Y + 1/t over GF(2): the ansatz finds no witness (0.5 s)
    R2 = RatFuncField(fq_make(2))
    verdict = central_operator_reducible(Poly(R2, [R2.one / R2.t, R2.one, R2.one]))
    assert not verdict.reducible and verdict.certified is False
    assert verdict.bound_used is not None
    # Y^2 - t over GF(3) has a witness, which certifies "reducible"
    R3 = RatFuncField(fq_make(3))
    verdict = central_operator_reducible(Poly(R3, [-R3.t, R3.zero, R3.one]))
    assert verdict.reducible and verdict.certified
    # the reproducers' full ansatz takes 20-35 s; with no bounded solution
    # their "irreducible" is flagged uncertified
    monkeypatch.setattr(asd_mod, "_try_bound", lambda ext, target, bound: None)
    for n_star in _quadratic_reproducers():
        verdict = central_operator_reducible(n_star)
        assert not verdict.reducible and verdict.certified is False
