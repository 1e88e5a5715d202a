"""Separable algebraic extensions K = GF(q)(t)[a]/(N(a)) as differential
fields.

N is a monic irreducible polynomial over GF(q)(t) with dN/dY != 0; the
derivation d/dt extends uniquely to K by implicit differentiation of the
defining relation:  a' = -(dN/dt)(a) / (dN/dY)(a).

Elements are coordinate vectors in the power basis 1, a, ..., a^(deg-1).
Degree-1 extensions run through the same code path, with a equal to a
rational function.

The p-th power is taken by Frobenius: (sum_j c_j a^j)^p = sum_j c_j^p (a^p)^j,
where c_j^p is the coefficient map c -> c^p on GF(q) followed by t -> t^p, and
the powers (a^p)^j are built once per field, on first use.
"""

from __future__ import annotations

from .errors import DivisionByZero, Inseparable, NotIrreducible
from .fieldkit import Poly, RatFunc, RatFuncField, binary_power, poly_xgcd
from .yfactor import factor_monic_in_y


class ExtElem:
    """An element of K = GF(q)(t)[a], as coordinates in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, ExtElem)
            and self.coords == other.coords
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.coords)

    def _poly(self) -> Poly:
        return Poly(self.field.ratfield, self.coords)

    def __add__(self, other):
        return ExtElem(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return ExtElem(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return ExtElem(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        f = self.field
        if f.deg == 1:
            return ExtElem(f, (self.coords[0] * other.coords[0],))
        prod = self._poly() * other._poly()
        rem = prod.divmod(f.modulus)[1]
        return f._from_poly(rem)

    def inv(self):
        f = self.field
        if not self:
            raise DivisionByZero("inverse of zero in %r" % f)
        if f.deg == 1:
            return ExtElem(f, (self.coords[0].inv(),))
        g, u, _ = poly_xgcd(self._poly(), f.modulus)
        if g.degree != 0:
            raise NotIrreducible("zero divisor found; the modulus is reducible")
        return f._from_poly(u.scale(g.coeff(0).inv()))

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return binary_power(self, e, self.field.one)

    def derivative(self) -> "ExtElem":
        """The extension of d/dt: coordinatewise derivative plus the
        chain-rule contribution through a'."""
        f = self.field
        coordwise = ExtElem(f, [c.derivative() for c in self.coords])
        # (sum_j j c_j a^(j-1)) * a'
        dcoords = [
            self.coords[j] * f.ratfield.from_int(j) for j in range(1, f.deg)
        ]
        if not dcoords:
            return coordwise
        chain = f._from_poly(Poly(f.ratfield, dcoords)) * f.gen_prime
        return coordwise + chain

    def pth_power(self) -> "ExtElem":
        """u^p = sum_j c_j^p (a^p)^j.  The Frobenius of a coordinate c is a
        coefficient map (c -> c^p on GF(q), t -> t^p): no product, no gcd."""
        f = self.field
        p = f.ratfield.base.p
        frob = [c.frobenius_coeffs().inflate(p) if c else c for c in self.coords]
        out = [frob[0]] + [f.ratfield.zero] * (f.deg - 1)
        for cp, w in zip(frob[1:], f.gen_pth_powers()[1:]):
            if cp:
                out = [x + cp * y if y else x for x, y in zip(out, w.coords)]
        return ExtElem(f, out)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __repr__(self):
        parts = []
        for j in range(self.field.deg - 1, -1, -1):
            c = self.coords[j]
            if not c:
                continue
            if j == 0:
                parts.append(repr(c))
            else:
                a = "a" if j == 1 else "a^%d" % j
                parts.append("(%s)*%s" % (repr(c), a))
        return " + ".join(parts) if parts else "0"


class ExtField:
    """Descriptor of K = GF(q)(t)[a]/(N(a)) as a differential field."""

    __slots__ = ("ratfield", "modulus", "deg", "zero", "one", "gen", "gen_prime",
                 "_gen_pth_powers")

    def __init__(self, modulus: Poly):
        ratfield = modulus.field
        if not isinstance(ratfield, RatFuncField):
            raise TypeError("extension modulus must live over GF(q)(t)")
        if not modulus.is_monic() or modulus.degree < 1:
            raise NotIrreducible("extension modulus must be monic of degree >= 1")
        n_y = modulus.derivative()
        if not n_y:
            raise Inseparable("defining polynomial has vanishing dN/dY")
        self.ratfield = ratfield
        self.modulus = modulus
        self.deg = modulus.degree
        d = self.deg
        self.zero = ExtElem(self, (ratfield.zero,) * d)
        self.one = ExtElem(self, (ratfield.one,) + (ratfield.zero,) * (d - 1))
        if d == 1:
            self.gen = ExtElem(self, (-modulus.coeff(0),))
        else:
            self.gen = ExtElem(
                self,
                (ratfield.zero, ratfield.one) + (ratfield.zero,) * (d - 2),
            )
        # implicit differentiation of N(a) = 0
        n_t = modulus.map_coeffs(lambda c: c.derivative())
        self.gen_prime = -self._eval_ypoly(n_t) / self._eval_ypoly(n_y)
        self._gen_pth_powers = None

    def gen_pth_powers(self) -> tuple:
        """(a^p)^j for 0 <= j < deg, built on first use."""
        if self._gen_pth_powers is None:
            powers = [self.one]
            if self.deg > 1:
                a_p = self.gen ** self.ratfield.base.p
                for _ in range(self.deg - 1):
                    powers.append(powers[-1] * a_p)
            self._gen_pth_powers = tuple(powers)
        return self._gen_pth_powers

    def _from_poly(self, p: Poly) -> ExtElem:
        coords = list(p.coeffs) + [self.ratfield.zero] * (self.deg - len(p.coeffs))
        return ExtElem(self, coords)

    def _eval_ypoly(self, p: Poly) -> ExtElem:
        """Evaluate a polynomial over GF(q)(t) at the generator a."""
        return self._from_poly(p.divmod(self.modulus)[1])

    def from_ratfunc(self, f: RatFunc) -> ExtElem:
        return ExtElem(self, (f,) + (self.ratfield.zero,) * (self.deg - 1))

    def from_int(self, k: int) -> ExtElem:
        return self.from_ratfunc(self.ratfield.from_int(k))

    def elem(self, coords) -> ExtElem:
        coords = tuple(coords)
        if len(coords) != self.deg:
            raise ValueError("expected %d coordinates" % self.deg)
        return ExtElem(self, coords)

    def derivative(self, u: ExtElem) -> ExtElem:
        return u.derivative()

    def random(self, rng, num_deg=1, den_deg=1) -> ExtElem:
        return ExtElem(self, tuple(
            self.ratfield.random(rng, num_deg, den_deg) for _ in range(self.deg)
        ))

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and self.modulus == other.modulus
            and self.ratfield == other.ratfield
        )

    def __hash__(self):
        return hash(("ExtField", self.modulus))

    def __repr__(self):
        return "%r[a]/(deg %d)" % (self.ratfield, self.deg)


def make_extension(n_star: Poly, check_irreducible: bool = False) -> ExtField:
    """Build the differential extension defined by a monic irreducible
    separable polynomial over GF(q)(t).

    Irreducibility is the caller's contract; pass ``check_irreducible=True``
    to verify it by factorisation.
    """
    if check_irreducible:
        factors = factor_monic_in_y(n_star)
        if len(factors) != 1 or factors[0][1] != 1:
            raise NotIrreducible("defining polynomial is reducible")
    return ExtField(n_star)


def ext_arith(op: str, u: ExtElem, v: ExtElem) -> ExtElem:
    """Named arithmetic entry point: op in {'add', 'sub', 'mul', 'div'}."""
    if op == "add":
        return u + v
    if op == "sub":
        return u - v
    if op == "mul":
        return u * v
    if op == "div":
        return u / v
    raise ValueError("unknown operation %r" % op)


def ext_derivative(u: ExtElem) -> ExtElem:
    return u.derivative()


def ext_pth_power(u: ExtElem) -> ExtElem:
    return u.pth_power()
