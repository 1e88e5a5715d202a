"""The differential Artin-Schreier equation f^(p-1) + f^p = a^p in a
separable extension K = GF(q)(t)[a], and the reducibility test for the
central operator attached to the extension's defining polynomial.

For a degree-1 N = Y - a the test is a decision: the symbol is reducible
iff Tr_{k(P)/GF(p)} Res_P(a dt) vanishes at every place P (Schmid's formula
and the Hasse principle; by the residue theorem the finite poles of a
suffice), and the residues come from partial fractions.  A solution f then
exists, and the ansatz below only finds it.

The map phi(f) = f^(p-1) + f^p is GF(p)-linear (both the iterated derivative
and the Frobenius are), so solutions are found by a bounded-ansatz linear
solve over GF(p): the unknown is written over monomials
(GF(q)-basis element) * t^e / D * a^j with the denominator D and the degree
cap supplied by a pole analysis of the extension data.  On failure, the
bounds are doubled up to four times before reporting no solution.

A solution f certifies that (D - f) right-divides D^p - a^p, i.e. that the
central operator attached to the extension is reducible.  For deg N >= 2
the absence of a bounded solution is reported as an uncertified
"irreducible", together with the bound used.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algext import ExtElem, ExtField, make_extension
from .errors import Inseparable, RetryExhausted
from .fieldkit import Poly, RatFunc, common_denominator, fq_make, poly_factor_fq, poly_xgcd
from .linalg import Matrix, solve
from .ore import OrePoly, ore_divrem_right


@dataclass(frozen=True)
class PoleBound:
    """Denominator support with multiplicities, plus a numerator degree cap."""

    places: tuple          # monic irreducible polynomials over GF(q)[t]
    multiplicities: tuple  # one positive int per place
    num_degree_cap: int

    def denominator(self, base) -> Poly:
        d = Poly.one(base)
        for place, m in zip(self.places, self.multiplicities):
            d = d * place ** m
        return d

    def doubled(self) -> "PoleBound":
        return PoleBound(
            self.places,
            tuple(2 * m for m in self.multiplicities),
            2 * self.num_degree_cap,
        )


@dataclass(frozen=True)
class ASDSolution:
    """A verified solution of f^(p-1) + f^p = a^p."""

    f: ExtElem
    bound_used: PoleBound
    residual_checked: bool


@dataclass(frozen=True)
class NoSolution:
    """No solution within the escalated bound (reported, not raised)."""

    bound_used: PoleBound


def _resultant_y(A: Poly, B: Poly):
    """res_Y(A, B) over GF(q)(t) by the subresultant-free Euclidean recurrence."""
    field = A.field
    if not A or not B:
        return field.zero
    res = field.one
    while B.degree > 0:
        _, R = A.divmod(B)
        if not R:
            return field.zero
        res = res * B.lc ** (A.degree - R.degree) * field.from_int(
            (-1) ** (A.degree * B.degree)
        )
        A, B = B, R
    return res * B.coeff(0) ** A.degree


def asd_pole_bound(ext: ExtField) -> PoleBound:
    """The initial ansatz bound for the extension.

    Denominator support: the irreducible factors of the coordinate
    denominators of a, of den(a'), and of the cleared resultant
    res_Y(N, dN/dY), each with initial multiplicity 1; the numerator cap is
    (deg_t of the cleared N + deg_Y N) * p.
    """
    disc = _resultant_y(ext.modulus, ext.modulus.derivative())
    dens = [c.den for c in ext.gen.coords + ext.gen_prime.coords]
    support = {irr for f in dens + [disc.den, disc.num] if f.degree > 0
               for irr, _ in poly_factor_fq(f)}
    # cleared t-degree of N
    den, nums = common_denominator(ext.modulus.coeffs)
    deg_t = max(c.degree for c in (den, *nums))
    places = sorted(support, key=lambda f: f.sort_key())
    return PoleBound(
        places=tuple(places),
        multiplicities=(1,) * len(places),
        num_degree_cap=(deg_t + ext.deg) * ext.ratfield.base.p,
    )


def _phi(u: ExtElem, p: int) -> ExtElem:
    """phi(u) = u^(p-1) + u^p (iterated derivative plus Frobenius)."""
    d = u
    for _ in range(p - 1):
        d = d.derivative()
    return d + u.pth_power()


def _flatten(elems, base):
    """GF(p)-coordinate vectors for a family of extension elements, over a
    common denominator."""
    _, nums = common_denominator(c for e in elems for c in e.coords)
    max_deg = max(0, *(pnum.degree for pnum in nums))
    width = len(elems[0].coords)
    prime = fq_make(base.p, 1)
    vectors = []
    for i in range(0, len(nums), width):
        vec = []
        for pnum in nums[i:i + width]:
            for k in range(max_deg + 1):
                coeff = pnum.coeff(k)
                for coord in coeff.coords:
                    vec.append(prime.from_int(coord))
        vectors.append(tuple(vec))
    return vectors, prime


def asd_solve(ext: ExtField) -> ASDSolution | NoSolution:
    """Solve f^(p-1) + f^p = a^p for f in the extension, by bounded-ansatz
    GF(p)-linear algebra with up to four bound doublings."""
    if not ext.modulus.derivative():
        raise Inseparable("extension defined by an inseparable polynomial")
    target = ext.gen.pth_power()
    bound = asd_pole_bound(ext)
    for attempt in range(5):
        sol = _try_bound(ext, target, bound)
        if sol is not None:
            return ASDSolution(f=sol, bound_used=bound, residual_checked=True)
        if attempt < 4:
            bound = bound.doubled()
    return NoSolution(bound_used=bound)


def _try_bound(ext: ExtField, target: ExtElem, bound: PoleBound):
    ratfield = ext.ratfield
    base = ratfield.base
    p = base.p
    den = bound.denominator(base)
    den_rf = ratfield.from_poly(den)
    gen_powers = [ext.one]
    for _ in range(ext.deg - 1):
        gen_powers.append(gen_powers[-1] * ext.gen)
    # monomials mu = t^e / D * a^j; phi on c*mu needs only mu^(p-1) and mu^p
    monomials = []
    images = []
    fq_basis = []
    g = base.gen()
    acc = base.one
    for _ in range(base.n):
        fq_basis.append(acc)
        acc = acc * g
    t_rf = ratfield.t
    for e in range(bound.num_degree_cap + 1):
        te = (t_rf ** e) / den_rf
        for j in range(ext.deg):
            mu = ext.from_ratfunc(te) * gen_powers[j]
            d = mu
            for _ in range(p - 1):
                d = d.derivative()
            mu_p = mu.pth_power()
            for b in fq_basis:
                brf = ext.from_ratfunc(ratfield.from_base(b))
                bprf = ext.from_ratfunc(ratfield.from_base(b.frobenius()))
                monomials.append(brf * mu)
                images.append(brf * d + bprf * mu_p)
    vectors, prime = _flatten(images + [target], base)
    img_vecs = vectors[:-1]
    tgt = vectors[-1]
    A = Matrix(prime, list(zip(*img_vecs)))
    x = solve(A, tgt)
    if x is None:
        return None
    f = ext.zero
    for lam, mono in zip(x, monomials):
        if lam:
            f = f + ext.from_int(lam.coords[0]) * mono
    # exact residual check
    if _phi(f, p) != target:
        raise AssertionError("linear solve produced a non-solution")
    return f


def _residue_traces_vanish(a: RatFunc) -> bool:
    """Whether Tr_{k(P)/GF(p)} Res_P(a dt) is 0 at every pole P of a.

    At a pole P of order k, a = X/P^k + (terms regular at P) with
    X = num (den/P^k)^(-1) mod P^k.  B = X // P^(k-1) is the numerator of
    its 1/P term, and Tr_{k(P)/GF(q)} Res_P is B's t^(deg P - 1)
    coefficient; a term B_j/P^j with j >= 2 has residue trace 0."""
    for place, k in poly_factor_fq(a.den):
        pk = place ** k
        _, inv, _ = poly_xgcd(a.den // pk, pk)
        res = ((a.num * inv) % pk // place ** (k - 1)).coeff(place.degree - 1)
        tr = res
        for _ in range(res.field.n - 1):
            res = res.frobenius()
            tr = tr + res
        if tr:
            return False
    return True


@dataclass(frozen=True)
class ReducibilityVerdict:
    reducible: bool
    witness: ASDSolution | None
    bound_used: PoleBound | None  # None when no ansatz ran
    certified: bool


def central_operator_reducible(n_star: Poly) -> ReducibilityVerdict:
    """Decide whether the central operator attached to a monic irreducible
    separable N over GF(q)(t) is reducible; the witness f satisfies
    (D - f) | (D^p - a^p) in K<D>.

    A degree-1 N is decided by its residue traces, with no ansatz when they
    show it irreducible; when they show it reducible and the ansatz finds no
    witness, RetryExhausted is raised.  For deg N >= 2 an ansatz without a
    solution gives an uncertified "irreducible".  A "reducible" verdict
    always carries a checked witness and is certified."""
    if n_star.degree == 1 and not _residue_traces_vanish(-n_star.coeff(0)):
        return ReducibilityVerdict(False, None, None, certified=True)
    ext = make_extension(n_star)
    result = asd_solve(ext)
    if isinstance(result, NoSolution):
        if n_star.degree == 1:
            raise RetryExhausted("no Artin-Schreier witness within the ansatz "
                                 "bound for a reducible degree-1 symbol")
        return ReducibilityVerdict(False, None, result.bound_used, certified=False)
    p = ext.ratfield.base.p
    y = ext.gen.pth_power()
    dp_minus_y = OrePoly(ext, [-y] + [ext.zero] * (p - 1) + [ext.one])
    d_minus_f = OrePoly(ext, [-result.f, ext.one])
    _, rem = ore_divrem_right(dp_minus_y, d_minus_f)
    if rem:
        raise AssertionError("Artin-Schreier witness fails the divisibility check")
    return ReducibilityVerdict(True, result, result.bound_used, certified=True)
