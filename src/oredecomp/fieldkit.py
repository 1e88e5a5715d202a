"""Exact arithmetic in characteristic p: finite fields GF(p^n), dense
univariate polynomials over them, and the rational function field GF(p^n)(t)
with the derivation d/dt.

Representation conventions used throughout the package:

* GF(p) residues are plain ints in ``range(p)``.
* An element of F_q = GF(p^n) is a length-n coordinate tuple in the power
  basis 1, g, ..., g^(n-1) of the generator g (the class of Y modulo the
  field's defining polynomial, which distinct-degree factorisation over
  GF(p) checks to be irreducible); an ``FqElem`` wraps one.
* A polynomial over GF(q) is one flat tuple of ints: the n coordinates of
  each coefficient in turn, constant term first.  One int kernel serves each
  ring operation; ``FqElem`` coefficients are built only where read.
* Polynomials over other fields (GF(q)(t)[Y], K[Y]) are dense coefficient
  tuples, constant term first, with no trailing zeros.  That container
  (``CoeffSeq``) is also the one of the operators in ``ore.OrePoly``.
* Rational functions are fully reduced fractions with a monic denominator;
  zero is 0/1.

All values are immutable and hashable, all operations are pure functions,
and every randomized routine takes its RNG state as an explicit argument.
"""

from __future__ import annotations

import itertools
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
# Polynomial kernels on int coordinates: over GF(p^n), coefficient i fills
# slots [i*n, (i+1)*n) of a flat list.  The top coefficient is nonzero but its
# top coordinate may be 0, so trimming drops zeros and pads to a whole block.
# ---------------------------------------------------------------------------

def _gfp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fq_trim(c, n):
    _gfp_trim(c)
    c.extend([0] * (-len(c) % n))
    return c


def _gfp_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
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


def _gfp_divmod(a, b, p, want_q=True):
    """(q, r) with a = q*b + r and deg r < deg b over GF(p); q is None
    unless ``want_q``.  b is nonzero."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * max(len(r) - db, 0) if want_q else None
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db] * inv % p
        if c:
            if want_q:
                q[k] = c
            for j in range(db):
                r[k + j] = (r[k + j] - c * b[j]) % p
    del r[db:]
    return q and _gfp_trim(q), _gfp_trim(r)


def _fq_mul(field, a, b):
    """The product of two flat coordinate lists over GF(p^n).  Coefficients
    are padded with n - 1 zero slots, so that each product of coordinate
    polynomials lands in its own block of 2n - 1 slots of one GF(p) product;
    the blocks are reduced by the table of Y^(n+k) mod the modulus."""
    n, p = field.n, field.p
    if n == 1:  # the block layout costs 5-10x here (degrees 2 x 2 to 24 x 24)
        return _gfp_mul(a, b, p)
    if not a or not b:
        return []
    m = 2 * n - 1
    pad = [0] * (n - 1)
    fa = [x for i in range(0, len(a), n) for x in [*a[i:i + n], *pad]]
    fb = [x for i in range(0, len(b), n) for x in [*b[i:i + n], *pad]]
    slots = _gfp_mul(fa, fb, p)
    slots.extend([0] * (-len(slots) % m))
    out = []
    for k in range(0, len(slots), m):
        blk = slots[k:k + n]
        for c, row in zip(slots[k + n:k + m], field._red_rows):
            if c:
                for i, y in enumerate(row):
                    blk[i] += c * y
        out.extend([x % p for x in blk])
    return out


def _fq_divmod(field, a, b, want_q=True):
    """(q, r) with a = q*b + r and deg r < deg b, on flat coordinate lists;
    q is None unless ``want_q``.  The divisor is made monic by one GF(q)
    inverse and its multiples g^i * b formed once; a step then subtracts
    sum_i c_i * g^i * b for the coordinates c_i of the leading coefficient."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    n, p = field.n, field.p
    if n == 1:  # the block loop costs 1.2-3.5x here (degrees 2 / 1 to 24 / 12)
        return _gfp_divmod(a, b, p, want_q)
    one = field.one.coords
    inv = None if tuple(b[-n:]) == one else field._inv(b[-n:])
    bm = b if inv is None else _fq_mul(field, b, inv)
    db = len(bm) - n
    # g^i is the coordinate vector with its 1 in slot i
    rows = [bm[:db]] + [_fq_mul(field, bm[:db], (0,) * i + one[:n - i])
                        for i in range(1, n)]
    r = list(a)
    q = [0] * max(len(r) - db, 0) if want_q else None
    for off in range(len(r) - n - db, -1, -n):
        top = r[off + db:off + db + n]
        for c, row in zip(top, rows):
            if c:
                for j, y in enumerate(row):
                    r[off + j] = (r[off + j] - c * y) % p
        if want_q:
            q[off:off + n] = top
    del r[db:]
    if want_q and inv is not None:
        q = _fq_mul(field, q, inv)
    return q, _fq_trim(r, n)


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
        return FqElem(f, tuple((x + y) % p for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        p = f.p
        return FqElem(f, tuple((-x) % p for x in self.coords))

    def __mul__(self, other):
        f = self.field
        return FqElem(f, tuple(_fq_mul(f, self.coords, other.coords)) or f.zero.coords)

    def inv(self):
        return FqElem(self.field, tuple(self.field._inv(self.coords)))

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
        return self ** (self.field.q // self.field.p)

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

    __slots__ = ("p", "n", "q", "modulus", "_red_rows", "zero", "one")

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(modulus)
        # reduction table: coordinates of Y^(n+k) modulo the modulus
        rows = []
        for k in range(n - 1):
            rem = _gfp_divmod([0] * (n + k) + [1], self.modulus, p, False)[1]
            rows.append(tuple(rem) + (0,) * (n - len(rem)))
        self._red_rows = tuple(rows)
        self.zero = FqElem(self, (0,) * n)
        self.one = FqElem(self, (1,) + (0,) * (n - 1))

    def _inv(self, coords):
        """The coordinates of the inverse of the element with coordinates
        ``coords``, by extended Euclid against the modulus."""
        p = self.p
        if not any(coords):
            raise DivisionByZero("inverse of zero in GF(%d^%d)" % (p, self.n))
        if self.n == 1:  # 12x faster than the Euclid below (0.37 vs 4.5 us)
            return [pow(coords[0], -1, p)]
        r0, r1 = self.modulus, _gfp_trim(list(coords))
        s0, s1 = [], [1]
        while r1:
            q, r = _gfp_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _gfp_add(s0, _gfp_mul([-c % p for c in q], s1, p), p)
        # s0 * coords = r0, a constant, and deg s0 < n
        inv_lc = pow(r0[-1], -1, p)
        return [(c * inv_lc) % p for c in s0] + [0] * (self.n - len(s0))

    def elem(self, coords) -> FqElem:
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != self.n:
            raise DegreeMismatch(
                "expected %d coordinates, got %d" % (self.n, len(coords))
            )
        return FqElem(self, coords)

    def from_int(self, k: int) -> FqElem:
        return FqElem(self, (k % self.p,) + (0,) * (self.n - 1))

    def gen(self) -> FqElem:
        """The power-basis generator g (the class of Y)."""
        if self.n == 1:
            # class of Y modulo the degree-1 modulus Y + c0
            return FqElem(self, ((-self.modulus[0]) % self.p,))
        return FqElem(self, (0, 1) + (0,) * (self.n - 2))

    def all_elements(self):
        """All q elements, in base-p counting order (coordinate 0 fastest)."""
        for coords in itertools.product(range(self.p), repeat=self.n):
            yield FqElem(self, coords[::-1])

    def random(self, rng: random.Random) -> FqElem:
        return FqElem(self, tuple(rng.randrange(self.p) for _ in range(self.n)))

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
        f = _fqpoly(gfp, cand)
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
        return self + (-other)

    def __neg__(self):
        return self.__class__(self.field, [-c for c in self.coeffs])

    def scale(self, c):
        """The product with the coefficient c (on the left of an operator)."""
        return self.__class__(self.field, [a * c for a in self.coeffs])

    def monic(self):
        if not self or self.is_monic():
            return self
        return self.scale(self.lc.inv())

    def map_coeffs(self, func, field=None):
        return self.__class__(field if field is not None else self.field,
                              [func(c) for c in self.coeffs])

    def sort_key(self):
        return (len(self.coeffs), tuple(c.sort_key() for c in self.coeffs))

    def __repr__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
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
    matrices used in normal-form computations; division by a monic divisor
    takes no inverse, so a coefficient ring such as GF(q)[t] serves too.  Over an ``FqField`` the
    constructor returns a ``_FqPoly``, which holds int coordinates.
    """

    __slots__ = ()

    def __new__(cls, field, coeffs):
        return object.__new__(_FqPoly if isinstance(field, FqField) else cls)

    # -- construction helpers

    @staticmethod
    def x(field):
        return Poly(field, (field.zero, field.one))

    # -- structure

    @property
    def degree(self):
        return len(self.coeffs) - 1

    # -- ring operations

    def __mul__(self, other):
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
        # a monic divisor needs no inverse, so its coefficients may be a ring
        inv_lb = None if other.is_monic() else other.lc.inv()
        r = list(self.coeffs)
        db = other.degree
        q = [self.field.zero] * max(len(r) - db, 0)
        while len(r) > db:
            c = r[-1] if inv_lb is None else r[-1] * inv_lb
            k = len(r) - db - 1
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

    # -- substitutions x -> x^k, on the coefficients as the class holds them

    def _blocks(self):
        return self.coeffs

    def _zero_block(self):
        return self.field.zero

    def _from_blocks(self, blocks):
        return Poly(self.field, blocks)

    def inflate(self, k):
        """Substitute x -> x^k."""
        if k == 1 or not self:
            return self
        blocks = self._blocks()
        out = [self._zero_block()] * ((len(blocks) - 1) * k + 1)
        out[::k] = blocks
        return self._from_blocks(out)

    def deflate(self, k):
        """Substitute x^k -> x when every exponent is divisible by k, keeping
        coefficients unchanged; None otherwise."""
        blocks, z = self._blocks(), self._zero_block()
        if any(c != z for s in range(1, k) for c in blocks[s::k]):
            return None
        return self._section(0, k)

    def _section(self, u, k):
        """The polynomial of the coefficients u, u + k, u + 2k, ..."""
        return self._from_blocks(self._blocks()[u::k])


def _fqpoly(field, v):
    """The polynomial over ``field`` with the trimmed flat coordinates v."""
    out = object.__new__(_FqPoly)
    out.field = field
    out._v = tuple(v)
    return out


class _FqPoly(Poly):
    """A polynomial over an FqField as the flat int coordinates ``_v`` of the
    kernels above; ``FqElem``s are built only where a caller reads them.  A
    tuple of coordinate tuples hashes as the tuple of those FqElems does."""

    __slots__ = ("_v",)

    def __init__(self, field, coeffs):
        self.field = field
        self._v = tuple(_fq_trim([x for c in coeffs for x in c.coords], field.n))

    def _blocks(self):
        # via a list: a tuple resized from an iterator's length guess is freed
        # to a free list it was not taken from, which then fills (peak RSS)
        return tuple(list(zip(*[iter(self._v)] * self.field.n)))

    def _zero_block(self):
        return self.field.zero.coords

    def _from_blocks(self, blocks):
        return _fqpoly(self.field, _fq_trim([x for c in blocks for x in c], self.field.n))

    @property
    def coeffs(self):
        f = self.field
        return tuple([FqElem(f, c) for c in self._blocks()])

    @property
    def degree(self):
        return len(self._v) // self.field.n - 1

    @property
    def lc(self):
        if not self._v:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return FqElem(self.field, self._v[-self.field.n:])

    def coeff(self, i):
        n = self.field.n
        if 0 <= i and (i + 1) * n <= len(self._v):
            return FqElem(self.field, self._v[i * n:(i + 1) * n])
        return self.field.zero

    def is_monic(self):
        return bool(self._v) and self._v[-self.field.n:] == self.field.one.coords

    def __bool__(self):
        return bool(self._v)

    def __eq__(self, other):
        return (other.__class__ is _FqPoly and self._v == other._v
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash(self._blocks())

    def map_coeffs(self, func, field=None):
        return Poly(field if field is not None else self.field,
                    [func(c) for c in self.coeffs])

    def __add__(self, other):
        f = self.field
        return _fqpoly(f, _fq_trim(_gfp_add(self._v, other._v, f.p), f.n))

    def __neg__(self):
        p = self.field.p
        return _fqpoly(self.field, [-x % p for x in self._v])

    def __mul__(self, other):
        return _fqpoly(self.field, _fq_mul(self.field, self._v, other._v))

    def scale(self, c):
        return _fqpoly(self.field, _fq_mul(self.field, self._v, c.coords if c else ()))

    def divmod(self, other):
        q, r = _fq_divmod(self.field, self._v, other._v)
        return _fqpoly(self.field, q), _fqpoly(self.field, r)

    def __mod__(self, other):
        return _fqpoly(self.field, _fq_divmod(self.field, self._v, other._v, False)[1])

    def derivative(self):
        f = self.field
        n, p = f.n, f.p
        return _fqpoly(f, _fq_trim([k // n * x % p for k, x in enumerate(self._v)][n:], n))

    def _truncate(self, k):
        """This polynomial modulo x^k."""
        n = self.field.n
        if len(self._v) <= k * n:
            return self
        return _fqpoly(self.field, _fq_trim(list(self._v[:k * n]), n))

    def _frobenius(self, e):
        """Every coefficient c mapped to c^(p^e), as the GF(p)-linear map
        whose columns are the images (g^(p^e))^i of the power basis."""
        f = self.field
        n, p = f.n, f.p
        if n == 1 or not self._v:  # the identity: c^p = c on GF(p)
            return self
        h = f.gen() ** (p ** e)
        cols = [(h ** i).coords for i in range(n)]
        out = []
        for blk in self._blocks():
            acc = [0] * n
            for x, col in zip(blk, cols):
                for i, y in enumerate(col):
                    acc[i] += x * y
            out.extend(y % p for y in acc)
        return _fqpoly(f, out)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the coefficient field."""
    while b:
        a, b = b, a % b
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
            h = h % f
    return out


def _poly_pow_mod(a: Poly, e: int, m: Poly) -> Poly:
    result = Poly.one(a.field)
    base = a % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
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
            s = h % f
            for _ in range(d * field.n):
                w = w + s
                s = (s * s) % f
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
        return RatFunc._monic_den(field, num, den)

    @staticmethod
    def _monic_den(field, num, den):
        """num/den, both scaled by the inverse of den's leading coefficient."""
        if not den.is_monic():
            inv = den.lc.inv()
            num, den = num.scale(inv), den.scale(inv)
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
        return RatFunc._monic_den(self.field, self.den, self.num)

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
        return RatFunc(self.field, self.num._frobenius(1), self.den._frobenius(1))

    def frobenius_inverse_coeffs(self) -> "RatFunc":
        """Apply c -> c^(1/p) to every GF(q) coefficient."""
        e = self.field.base.n - 1
        return RatFunc(self.field, self.num._frobenius(e), self.den._frobenius(e))

    def tp_components(self) -> "list[RatFunc]":
        """The decomposition f = sum_u t^u * g_u(t^p) for 0 <= u < p.

        Returns the list [g_0, ..., g_(p-1)] as rational functions in the
        deflated variable (s = t^p).
        """
        f = self.field
        p = f.base.p
        big_num = self.num * self.den ** (p - 1)
        # den^p = den^(Frobenius)(t^p), read as a polynomial in s
        den_s = self.den._frobenius(1)
        return [RatFunc.make(f, big_num._section(u, p), den_s) for u in range(p)]

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
        return self.from_poly(Poly.const(self.base, c))

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
