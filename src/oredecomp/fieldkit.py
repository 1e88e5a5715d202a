"""Exact arithmetic in characteristic p: finite fields GF(p^n), dense
univariate polynomials over them, and the rational function field GF(p^n)(t)
with the derivation d/dt.

Representation conventions used throughout the package:

* GF(p) residues are plain ints in ``range(p)``.
* An element of F_q = GF(p^n) is a length-n coordinate tuple in the power
  basis 1, g, ..., g^(n-1) of the generator g (the class of Y modulo the
  field's defining polynomial, which distinct-degree factorisation over
  GF(p) checks to be irreducible).
* Polynomials are dense coefficient tuples, constant term first, with no
  trailing zeros; the zero polynomial is the empty tuple.  That container
  (``CoeffSeq``) is also the one of the operators in ``ore.OrePoly``.
* Rational functions are fully reduced fractions with a monic denominator;
  zero is 0/1.

All values are immutable and hashable, all operations are pure functions,
and every randomized routine takes its RNG state as an explicit argument.
"""

from __future__ import annotations

import random
import sys
from array import array

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    NotPrime,
    ReducibleModulus,
    ZeroPolynomial,
)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def binary_power(x, e: int, one):
    """x^e for e >= 0 by left-to-right square and multiply: each bit of e
    after the leading one costs a squaring, and each set bit one product
    x * result (x on the left: an Ore product costs in proportion to its left
    factor's order).  ``one`` is only returned for e = 0, never multiplied."""
    if e < 0:
        raise ValueError("negative exponent %d" % e)
    if e == 0:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = result * result
        if bit == "1":
            result = x * result
    return result


# ---------------------------------------------------------------------------
# GF(p)[x] on plain int lists (internal helpers: modulus handling and the
# GF(p) fast paths of Poly)
# ---------------------------------------------------------------------------

def _gfp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _gfp_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _gfp_trim(out)


def _gfp_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return _gfp_trim(out)


def _gfp_mul(a, b, p):
    if not a or not b:
        return []
    if (len(a) - 1) * (len(b) - 1) < _KRONECKER_CUTOFF:
        return _gfp_trim(_gfp_mul_schoolbook(a, b, p))
    return _gfp_trim(_gfp_mul_kronecker(a, b, p))


# Schoolbook while deg a * deg b is below this, Kronecker substitution from
# it on.  Measured break-even of the two kernels on GF(3), GF(17) and
# GF(101) operands (CPython 3.11, x86-64): degrees 4 x 4, 2 x 8 and 1 x 16;
# a constant operand is a scaling, where schoolbook wins up to degree ~200.
# At 2 x 300 coefficients Kronecker is about twice as fast, at 40 x 40 ten
# times.
_KRONECKER_CUTOFF = 16

# array typecode per slot width in bytes (1, 2, 4, 8)
_SLOT_TYPECODES = {array(tc).itemsize: tc for tc in "QLIHB"}


def _gfp_mul_schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _gfp_mul_kronecker(a, b, p):
    """The product of two nonempty GF(p) coefficient lists by Kronecker
    substitution: each list is packed into one integer with a fixed-width
    slot per coefficient (wide enough for any unreduced product coefficient,
    at most min(len) * (p-1)^2), the integers are multiplied once, and the
    slots are read back and reduced mod p.  Falls back to schoolbook when a
    slot would need more than 8 bytes."""
    bits = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
    width = 1
    while 8 * width < bits:
        width *= 2
    if width > 8:
        return _gfp_mul_schoolbook(a, b, p)
    code = _SLOT_TYPECODES[width]
    order = sys.byteorder
    x = int.from_bytes(array(code, a).tobytes(), order)
    y = int.from_bytes(array(code, b).tobytes(), order)
    n = len(a) + len(b) - 1
    return [v % p for v in array(code, (x * y).to_bytes(n * width, order))]


def _gfq_mul_kronecker(field, a, b):
    """The product of two nonempty coefficient sequences over GF(p^n) by
    the same substitution: coefficient i of a fills slots i*(2n-1) ..
    i*(2n-1) + n-1 with its coordinates, so every product of coordinate
    polynomials lands in its own block of 2n - 1 slots, which is then
    reduced modulo the defining polynomial."""
    n = field.n
    m = 2 * n - 1
    pad = (0,) * (n - 1)
    fa = [x for c in a for x in c.coords + pad]
    fb = [x for c in b for x in c.coords + pad]
    slots = _gfp_mul_kronecker(fa, fb, field.p)
    reduce = field._reduce
    return [reduce(slots[k:k + m])
            for k in range(0, (len(a) + len(b) - 1) * m, m)]


def _gfp_divmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lb = pow(b[-1], -1, p)
    while len(r) >= len(b):
        c = (r[-1] * inv_lb) % p
        k = len(r) - len(b)
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] = (r[k + j] - c * y) % p
        _gfp_trim(r)
    return _gfp_trim(q), r


def _gfp_rem(a, b, p):
    """Remainder only, without building the quotient."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(r) > db:
        if r[-1]:
            c = (r[-1] * inv) % p
            off = len(r) - 1 - db
            for j in range(db):
                r[off + j] = (r[off + j] - c * b[j]) % p
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _gfp_gcd(a, b, p):
    a, b = _gfp_trim(list(a)), _gfp_trim(list(b))
    while b:
        a, b = b, _gfp_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


# ---------------------------------------------------------------------------
# The field F_q = GF(p^n)
# ---------------------------------------------------------------------------

class FqElem:
    """An element of GF(p^n), as coordinates in the power basis of g."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.coords == other.coords
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other):
        f = self.field
        p = f.p
        return f._make(tuple((x + y) % p for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other):
        f = self.field
        p = f.p
        return f._make(tuple((x - y) % p for x, y in zip(self.coords, other.coords)))

    def __neg__(self):
        f = self.field
        p = f.p
        return f._make(tuple((-x) % p for x in self.coords))

    def __mul__(self, other):
        f = self.field
        n = f.n
        if n == 1:
            return f._make(((self.coords[0] * other.coords[0]) % f.p,))
        a, b = self.coords, other.coords
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return f._reduce(conv)

    def inv(self):
        f = self.field
        if not self:
            raise DivisionByZero("inverse of zero in GF(%d^%d)" % (f.p, f.n))
        if f.n == 1:
            return f._make((pow(self.coords[0], -1, f.p),))
        # extended Euclid of the coordinate polynomial against the modulus
        r0, r1 = f._modlist, _gfp_trim(list(self.coords))
        s0, s1 = [], [1]
        while r1:
            q, r = _gfp_divmod(r0, r1, f.p)
            r0, r1 = r1, r
            s0, s1 = s1, _gfp_sub(s0, _gfp_mul(q, s1, f.p), f.p)
        inv_lc = pow(r0[-1], -1, f.p)
        s0 = [(c * inv_lc) % f.p for c in s0]
        s0 = _gfp_divmod(s0, f._modlist, f.p)[1]
        return f._make(tuple(s0) + (0,) * (f.n - len(s0)))

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return binary_power(self, e, self.field.one)

    def frobenius(self):
        """a -> a^p (the identity on GF(p))."""
        if self.field.n == 1:
            return self
        return self ** self.field.p

    def frobenius_inverse(self):
        """The unique b with b^p = a, computed as a^(q/p)."""
        b = self
        for _ in range(self.field.n - 1):
            b = b.frobenius()
        return b

    def sort_key(self):
        return self.coords

    def __repr__(self):
        f = self.field
        if f.n == 1:
            return "%d" % self.coords[0]
        terms = []
        for i in range(f.n - 1, -1, -1):
            c = self.coords[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("g" if c == 1 else "%d*g" % c)
            else:
                terms.append("g^%d" % i if c == 1 else "%d*g^%d" % (c, i))
        return "+".join(terms) if terms else "0"


class FqField:
    """A description of GF(p^n): characteristic, degree and defining polynomial.

    The defining polynomial (``modulus``) is monic of degree n over GF(p),
    stored constant term first.  For n = 1 the placeholder Y - 0 is used.
    """

    __slots__ = ("p", "n", "q", "modulus", "_modlist", "_red_rows", "zero",
                 "one", "_cache")

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(modulus)
        self._modlist = _gfp_trim(list(modulus))
        # reduction table: coordinates of Y^(n+k) modulo the modulus
        rows = []
        for k in range(n - 1):
            rem = _gfp_divmod([0] * (n + k) + [1], self._modlist, p)[1]
            rows.append(tuple(rem) + (0,) * (n - len(rem)))
        self._red_rows = tuple(rows)
        if n == 1 and p <= 4096:
            self._cache = tuple(FqElem(self, (v,)) for v in range(p))
        else:
            self._cache = None
        self.zero = self._make((0,) * n)
        self.one = self._make((1,) + (0,) * (n - 1))

    def _make(self, coords):
        if self._cache is not None:
            return self._cache[coords[0]]
        return FqElem(self, coords)

    def _reduce(self, conv):
        """The element with coordinate polynomial conv (2n - 1 unreduced
        integers) modulo the defining polynomial."""
        n = self.n
        out = conv[:n]
        for k, row in enumerate(self._red_rows):
            c = conv[n + k]
            if c:
                for i, rv in enumerate(row):
                    if rv:
                        out[i] += c * rv
        p = self.p
        return self._make(tuple(v % p for v in out))

    def elem(self, coords) -> FqElem:
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != self.n:
            raise DegreeMismatch(
                "expected %d coordinates, got %d" % (self.n, len(coords))
            )
        return self._make(coords)

    def from_int(self, k: int) -> FqElem:
        return self._make((k % self.p,) + (0,) * (self.n - 1))

    def gen(self) -> FqElem:
        """The power-basis generator g (the class of Y)."""
        if self.n == 1:
            # class of Y modulo the degree-1 modulus Y + c0
            return self._make(((-self.modulus[0]) % self.p,))
        return self._make((0, 1) + (0,) * (self.n - 2))

    def all_elements(self):
        """All q elements, in deterministic base-p counting order."""
        def rec(i):
            if i == self.n:
                yield ()
                return
            for rest in rec(i + 1):
                for c in range(self.p):
                    yield (c,) + rest
        for coords in rec(0):
            yield self._make(coords)

    def random(self, rng: random.Random) -> FqElem:
        return self._make(tuple(rng.randrange(self.p) for _ in range(self.n)))

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return "GF(%d)" % self.q if self.n == 1 else "GF(%d^%d)" % (self.p, self.n)


def fq_make(p: int, n: int = 1, modulus=None) -> FqField:
    """Construct GF(p^n), validating or searching for a defining polynomial.

    A modulus is accepted when it is monic of degree n and irreducible over
    GF(p), that is, when its distinct-degree factorisation finds no factor
    of degree <= n/2.  When ``modulus`` is omitted, the first irreducible is
    selected by exhaustive search, counting c_0 + c_1*p + ... + c_(n-1)*p^(n-1)
    upwards (c_0 the constant term); for n = 1 that is Y.
    """
    if not is_prime(p):
        raise NotPrime("%d is not prime" % p)
    if n < 1:
        raise DegreeMismatch("extension degree must be >= 1")
    if modulus is not None:
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise DegreeMismatch("modulus must be monic of degree %d" % n)
        candidates = [modulus]
    else:
        candidates = ([v // p ** i % p for i in range(n)] + [1]
                      for v in range(p ** n))
    gfp = FqField(p, 1, (0, 1))
    for cand in candidates:
        f = Poly(gfp, [gfp._make((c,)) for c in cand])
        if _ddf(f) == [(f, n)]:
            return FqField(p, n, cand)
    raise ReducibleModulus("modulus is reducible over GF(%d)" % p)


def fq_inv(a: FqElem) -> FqElem:
    return a.inv()


def fq_frobenius_inverse(a: FqElem) -> FqElem:
    return a.frobenius_inverse()


# ---------------------------------------------------------------------------
# Dense univariate polynomials over an arbitrary coefficient field
# ---------------------------------------------------------------------------

class CoeffSeq:
    """A trimmed tuple of coefficients, coefficient i standing at the i-th
    power of the variable ``var``: the container, sum, difference, scaling
    and printing shared by Poly and ore.OrePoly.  Products and divisions
    belong to the subclass's ring.  ``noun`` and ``ZeroError`` name the zero
    element in errors."""

    __slots__ = ("field", "coeffs")

    var = "x"
    noun = "polynomial"
    ZeroError = ZeroPolynomial

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @property
    def lc(self):
        if not self.coeffs:
            raise self.ZeroError("zero %s has no leading coefficient" % self.noun)
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            other.__class__ is self.__class__
            and self.coeffs == other.coeffs
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self.__class__(self.field, out)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        out = [z] * n
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] - c
        return self.__class__(self.field, out)

    def __neg__(self):
        return self.__class__(self.field, [-c for c in self.coeffs])

    def scale(self, c):
        """The product with the coefficient c (on the left of an operator)."""
        if not c:
            return self.__class__(self.field, ())
        return self.__class__(self.field, [a * c for a in self.coeffs])

    def monic(self):
        if not self:
            return self
        lc = self.lc
        if lc == self.field.one:
            return self
        return self.scale(lc.inv())

    def map_coeffs(self, func, field=None):
        return self.__class__(field if field is not None else self.field,
                              [func(c) for c in self.coeffs])

    def sort_key(self):
        return (len(self.coeffs), tuple(c.sort_key() for c in self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = repr(c)
            if i == 0:
                parts.append(cs)
            else:
                xs = self.var if i == 1 else "%s^%d" % (self.var, i)
                parts.append(xs if cs == "1" else "(%s)*%s" % (cs, xs))
        return " + ".join(parts)


class Poly(CoeffSeq):
    """A dense univariate polynomial over a coefficient field.

    The coefficient field can be GF(p^n), GF(p^n)(t), or any object exposing
    ``zero``, ``one``, ``from_int`` and elements with ring operator overloads.
    The same class therefore serves GF(q)[t], GF(q)(t)[Y] and the polynomial
    matrices used in normal-form computations.
    """

    __slots__ = ("_icache",)

    def __init__(self, field, coeffs):
        # CoeffSeq.__init__ inlined: a Poly is built on every ring operation
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)
        self._icache = None

    # -- construction helpers

    @staticmethod
    def x(field):
        return Poly(field, (field.zero, field.one))

    # -- structure

    @property
    def degree(self):
        return len(self.coeffs) - 1

    # -- ring operations

    def _ints(self):
        # fast-path carrier for GF(p) coefficients, computed once
        cached = self._icache
        if cached is not None:
            return cached if cached is not False else None
        f = self.field
        if isinstance(f, FqField) and f.n == 1:
            out = [c.coords[0] for c in self.coeffs]
            self._icache = out
            return out
        self._icache = False
        return None

    def __add__(self, other):
        ia = self._ints()
        if ia is None:
            return CoeffSeq.__add__(self, other)
        mk = self.field._make
        return Poly(self.field, [mk((v,)) for v in
                                 _gfp_add(ia, other._ints(), self.field.p)])

    def __sub__(self, other):
        ia = self._ints()
        if ia is None:
            return CoeffSeq.__sub__(self, other)
        mk = self.field._make
        return Poly(self.field, [mk((v,)) for v in
                                 _gfp_sub(ia, other._ints(), self.field.p)])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Poly(self.field, ())
        ia = self._ints()
        if ia is not None:
            mk = self.field._make
            return Poly(self.field, [mk((v,)) for v in
                                     _gfp_mul(ia, other._ints(), self.field.p)])
        if (isinstance(self.field, FqField) and (len(self.coeffs) - 1)
                * (len(other.coeffs) - 1) >= _KRONECKER_CUTOFF):
            return Poly(self.field, _gfq_mul_kronecker(
                self.field, self.coeffs, other.coeffs))
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + x * y
        return Poly(self.field, out)

    def __pow__(self, e):
        return binary_power(self, e, Poly.one(self.field))

    def divmod(self, other):
        if not other:
            raise DivisionByZero("polynomial division by zero")
        ia = self._ints()
        if ia is not None:
            ib = other._ints()
            p = self.field.p
            q, r = _gfp_divmod(ia, ib, p)
            mk = self.field._make
            return (
                Poly(self.field, [mk((v,)) for v in q]),
                Poly(self.field, [mk((v,)) for v in r]),
            )
        inv_lb = other.lc.inv()
        r = list(self.coeffs)
        db = other.degree
        q = [self.field.zero] * max(len(r) - db, 0)
        while len(r) > db:
            c = r[-1] * inv_lb
            k = len(r) - db - 1
            if c:
                q[k] = c
                for j, y in enumerate(other.coeffs):
                    r[k + j] = r[k + j] - c * y
            r.pop()
            while r and not r[-1]:
                r.pop()
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self):
        """Formal derivative with respect to the polynomial variable."""
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * f.from_int(i))
        return Poly(f, out)

    def eval(self, x):
        """Horner evaluation at an element of the coefficient field."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def inflate(self, k):
        """Substitute x -> x^k."""
        if k == 1 or not self:
            return self
        z = self.field.zero
        out = []
        for i, c in enumerate(self.coeffs):
            if i:
                out.extend([z] * (k - 1))
            out.append(c)
        return Poly(self.field, out)

    def deflate(self, k):
        """Substitute x^k -> x when every exponent is divisible by k, keeping
        coefficients unchanged; None otherwise."""
        if k == 1:
            return self
        out = []
        for i, c in enumerate(self.coeffs):
            if i % k == 0:
                out.append(c)
            elif c:
                return None
        return Poly(self.field, out)



def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the coefficient field."""
    ia, ib = a._ints(), b._ints()
    if ia is not None and ib is not None:
        g = _gfp_gcd(ia, ib, a.field.p)
        mk = a.field._make
        return Poly(a.field, [mk((v,)) for v in g])
    while b:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def poly_xgcd(a: Poly, b: Poly):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while r1:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0:
        inv = r0.lc.inv()
        r0, s0, t0 = r0.scale(inv), s0.scale(inv), t0.scale(inv)
    return r0, s0, t0


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return Poly.zero(a.field)
    g = poly_gcd(a, b)
    return ((a * b).divmod(g)[0]).monic()


def common_denominator(values):
    """A nonempty family of rational functions over one common denominator:
    returns (den, nums) with den the monic lcm of the denominators and
    nums[i] = values[i].num * (den // values[i].den), so that
    values[i] = nums[i] / den; a zero value gives a zero numerator."""
    values = list(values)
    den = Poly.one(values[0].field.base)
    for d in {c.den for c in values if c.den.degree > 0}:  # any order: one monic lcm
        den = poly_lcm(den, d)
    cofactors = {d: den // d for d in {c.den for c in values}}
    return den, [c.num * cofactors[c.den] for c in values]


# ---------------------------------------------------------------------------
# Factorisation over GF(q)[t]
# ---------------------------------------------------------------------------

def _ddf(f: Poly):
    """Distinct-degree factorisation of a monic squarefree f; yields
    (product-of-irreducibles-of-degree-d, d).  For any monic f of degree
    n >= 1 the result is [(f, n)] exactly when f is irreducible: a reducible
    f has a factor of degree <= n/2, which the step of that degree finds."""
    field = f.field
    q = field.q
    x = Poly.x(field)
    h = x
    d = 0
    out = []
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f, f.degree))
            break
        h = _poly_pow_mod(h, q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f.divmod(g)[0]
            h = h.divmod(f)[1]
    return out


def _poly_pow_mod(a: Poly, e: int, m: Poly) -> Poly:
    result = Poly.one(a.field)
    base = a.divmod(m)[1]
    while e:
        if e & 1:
            result = (result * base).divmod(m)[1]
        base = (base * base).divmod(m)[1]
        e >>= 1
    return result


def _edf(f: Poly, d: int, rng) -> list[Poly]:
    """Equal-degree splitting (Cantor-Zassenhaus) of a monic squarefree f
    whose irreducible factors all have degree d."""
    field = f.field
    if f.degree == d:
        return [f]
    while True:
        h = Poly(field, [field.random(rng) for _ in range(f.degree)])
        if not h or h.degree == 0:
            continue
        g = poly_gcd(h, f)
        if 0 < g.degree < f.degree:
            break
        if field.p == 2:
            # absolute trace to GF(2)
            w = Poly.zero(field)
            s = h.divmod(f)[1]
            for _ in range(d * field.n):
                w = w + s
                s = (s * s).divmod(f)[1]
        else:
            e = (field.q ** d - 1) // 2
            w = _poly_pow_mod(h, e, f) - Poly.one(field)
        g = poly_gcd(w, f)
        if 0 < g.degree < f.degree:
            break
    return sorted(
        _edf(g, d, rng) + _edf(f.divmod(g)[0], d, rng),
        key=lambda h: h.sort_key(),
    )


def _factor_squarefree_fq(f: Poly, rng) -> list[Poly]:
    """Irreducible factors of a monic squarefree polynomial over GF(q)."""
    out = []
    for part, d in _ddf(f):
        out.extend(_edf(part, d, rng))
    return sorted(out, key=lambda h: h.sort_key())


def squarefree_descent(g: Poly, p: int, factor_squarefree, coeff_pth_root):
    """The monic irreducible factors of a monic polynomial g over a field of
    characteristic p, as a dict {factor: multiplicity}.

    The factors whose multiplicity is prime to p are those of the separable
    part g / gcd(g, g'); their multiplicities are counted by trial division,
    and what is left is descended into.  When g' = 0, g(Y) = inner(Y^p):
    an irreducible factor h of inner gives its coefficientwise p-th root
    with p times h's multiplicity, or, when some coefficient of h has no
    p-th root, the inseparable irreducible h(Y^p).

    ``factor_squarefree(s)`` returns the monic irreducible factors of a
    monic squarefree s; ``coeff_pth_root(c)`` returns c^(1/p), or None when
    c is not a p-th power."""
    out: dict[Poly, int] = {}
    if g.degree < 1:
        return out
    gp = g.derivative()
    if not gp:
        inner = squarefree_descent(g.deflate(p), p, factor_squarefree,
                                   coeff_pth_root)
        for h, m in inner.items():
            roots = [coeff_pth_root(c) for c in h.coeffs]
            if any(r is None for r in roots):
                key = h.inflate(p)
            else:
                key, m = Poly(h.field, roots), m * p
            out[key] = out.get(key, 0) + m
        return out
    d = poly_gcd(g, gp)
    if d.degree == 0:
        return dict.fromkeys(factor_squarefree(g), 1)
    rem = g
    for irr in factor_squarefree(g.divmod(d)[0]):
        m = 0
        while True:
            quo, r = rem.divmod(irr)
            if r:
                break
            rem, m = quo, m + 1
        out[irr] = m
    out.update(squarefree_descent(rem, p, factor_squarefree, coeff_pth_root))
    return out


def poly_factor_fq(f: Poly, rng: random.Random | None = None):
    """Factor a nonzero polynomial over GF(p^n).

    Returns a deterministically ordered list of (monic irreducible,
    multiplicity) pairs whose product, scaled by the leading coefficient of
    the input, reproduces f.  The squarefree descent is
    ``squarefree_descent``; every coefficient over GF(p^n) has a p-th root.
    """
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if rng is None:
        rng = random.Random(0)
    factors = squarefree_descent(
        f.monic(), f.field.p, lambda s: _factor_squarefree_fq(s, rng),
        FqElem.frobenius_inverse)
    return sorted(factors.items(), key=lambda kv: kv[0].sort_key())


# ---------------------------------------------------------------------------
# Rational functions GF(q)(t)
# ---------------------------------------------------------------------------

class RatFunc:
    """A reduced fraction of polynomials over GF(q), with monic denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        # trusted constructor: use RatFunc.make for reduction
        self.field = field
        self.num = num
        self.den = den

    @staticmethod
    def make(field, num: Poly, den: Poly) -> "RatFunc":
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            return field.zero
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lc = den.lc
        if lc != field.base.one:
            inv = lc.inv()
            num = num.scale(inv)
            den = den.scale(inv)
        return RatFunc(field, num, den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        f = self.field
        if not self.num:
            return other
        if not other.num:
            return self
        d1, d2 = self.den, other.den
        g = poly_gcd(d1, d2)
        if g.degree == 0:
            # coprime denominators: the sum is already reduced
            num = self.num * d2 + other.num * d1
            if not num:
                return f.zero
            return RatFunc(f, num, d1 * d2)
        d1r = d1.divmod(g)[0]
        d2r = d2.divmod(g)[0]
        num = self.num * d2r + other.num * d1r
        if not num:
            return f.zero
        h = poly_gcd(num, g)
        if h.degree > 0:
            num = num.divmod(h)[0]
            g = g.divmod(h)[0]
        return RatFunc(f, num, d1r * d2r * g)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self.num:
            return self
        return RatFunc(self.field, -self.num, self.den)

    def __mul__(self, other):
        f = self.field
        if not self.num or not other.num:
            return f.zero
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.degree == 0 else self.num.divmod(g1)[0]
        d2 = other.den if g1.degree == 0 else other.den.divmod(g1)[0]
        n2 = other.num if g2.degree == 0 else other.num.divmod(g2)[0]
        d1 = self.den if g2.degree == 0 else self.den.divmod(g2)[0]
        return RatFunc(f, n1 * n2, d1 * d2)

    def inv(self):
        if not self.num:
            raise DivisionByZero("inverse of the zero rational function")
        f = self.field
        num, den = self.den, self.num
        lc = den.lc
        if lc != f.base.one:
            i = lc.inv()
            num, den = num.scale(i), den.scale(i)
        return RatFunc(f, num, den)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return binary_power(self, e, self.field.one)

    def derivative(self) -> "RatFunc":
        """d/dt by the quotient rule, fully reduced."""
        n, d = self.num, self.den
        if d.degree == 0:
            return RatFunc.make(self.field, n.derivative(), d)
        return RatFunc.make(self.field, n.derivative() * d - n * d.derivative(), d * d)

    def pth_root(self) -> "RatFunc | None":
        """The p-th root when this is a p-th power, else None."""
        d = self.deflate(self.field.base.p)
        return None if d is None else d.frobenius_inverse_coeffs()

    def deflate(self, k) -> "RatFunc | None":
        """Substitute t^k -> t (coefficients unchanged) when this lies in
        GF(q)(t^k); None otherwise."""
        rn = self.num.deflate(k)
        if rn is None:
            return None
        rd = self.den.deflate(k)
        if rd is None:
            return None
        return RatFunc(self.field, rn, rd)

    def inflate(self, k) -> "RatFunc":
        """Substitute t -> t^k (coefficients unchanged)."""
        return RatFunc(self.field, self.num.inflate(k), self.den.inflate(k))

    def frobenius_coeffs(self) -> "RatFunc":
        """Apply c -> c^p to every GF(q) coefficient."""
        return RatFunc(
            self.field,
            self.num.map_coeffs(lambda c: c.frobenius()),
            self.den.map_coeffs(lambda c: c.frobenius()),
        )

    def frobenius_inverse_coeffs(self) -> "RatFunc":
        """Apply c -> c^(1/p) to every GF(q) coefficient."""
        return RatFunc(
            self.field,
            self.num.map_coeffs(lambda c: c.frobenius_inverse()),
            self.den.map_coeffs(lambda c: c.frobenius_inverse()),
        )

    def tp_components(self) -> "list[RatFunc]":
        """The decomposition f = sum_u t^u * g_u(t^p) for 0 <= u < p.

        Returns the list [g_0, ..., g_(p-1)] as rational functions in the
        deflated variable (s = t^p).
        """
        f = self.field
        p = f.base.p
        big_num = self.num * self.den ** (p - 1)
        big_den = self.den.map_coeffs(lambda c: c.frobenius()).inflate(p)
        # big_den as a polynomial in s: undo the inflation
        den_s = big_den.deflate(p)
        out = []
        for u in range(p):
            cs = [big_num.coeff(p * i + u) for i in range(big_num.degree // p + 1)]
            num_u = Poly(f.base, cs)
            if not num_u:
                out.append(f.zero)
            else:
                out.append(RatFunc.make(f, num_u, den_s))
        return out

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    def __repr__(self):
        if self.den.degree == 0:
            return repr(self.num).replace("x", "t")
        return "(%s)/(%s)" % (
            repr(self.num).replace("x", "t"),
            repr(self.den).replace("x", "t"),
        )


class RatFuncField:
    """The rational function field GF(q)(t) with the derivation d/dt.

    The same class also carries values read in the constant subfield, with
    s = t^p as the variable: the representation is identical, only the
    surrounding code's interpretation (and printing) differs.
    """

    __slots__ = ("base", "zero", "one", "t")

    def __init__(self, base: FqField):
        self.base = base
        self.zero = RatFunc(self, Poly.zero(base), Poly.one(base))
        self.one = RatFunc(self, Poly.one(base), Poly.one(base))
        self.t = RatFunc(self, Poly.x(base), Poly.one(base))

    def from_poly(self, num: Poly) -> RatFunc:
        if not num:
            return self.zero
        return RatFunc(self, num, Poly.one(self.base))

    def from_int(self, k: int) -> RatFunc:
        return self.from_poly(Poly.const(self.base, self.base.from_int(k)))

    def from_base(self, c: FqElem) -> RatFunc:
        if not c:
            return self.zero
        return RatFunc(self, Poly.const(self.base, c), Poly.one(self.base))

    def elem(self, num: Poly, den: Poly) -> RatFunc:
        return RatFunc.make(self, num, den)

    def derivative(self, f: RatFunc) -> RatFunc:
        return f.derivative()

    def random(self, rng: random.Random, num_deg=2, den_deg=2) -> RatFunc:
        num = Poly(self.base, [self.base.random(rng) for _ in range(num_deg + 1)])
        den = Poly.zero(self.base)
        while not den:
            den = Poly(self.base, [self.base.random(rng) for _ in range(den_deg + 1)])
        return RatFunc.make(self, num, den)

    def __eq__(self, other):
        return isinstance(other, RatFuncField) and self.base == other.base

    def __hash__(self):
        return hash(("RatFuncField", self.base))

    def __repr__(self):
        return "%r(t)" % self.base


def ratfunc_derivative(f: RatFunc) -> RatFunc:
    return f.derivative()


def ratfunc_pth_root(f: RatFunc) -> RatFunc | None:
    """The p-th root of f in GF(q)(t) when f is a p-th power, else None.

    Since GF(q) is perfect, being a p-th power is the same as lying in the
    constant subfield GF(q)(t^p).
    """
    return f.pth_root()
