"""The Ore algebra of linear differential operators over a differential
coefficient field.

Operators are polynomials in D = d/dt with coefficients in GF(q)(t) or in a
separable extension K of it; multiplication follows the commutation rule
D*f = f*D + f'.  The coefficient field object must expose ``zero``, ``one``,
``from_int`` and ``derivative`` in addition to element arithmetic.

Provides multiplication, right Euclidean division, GCRD, the companion
connection of D_L = K<D>/K<D>L with LCLM and application to functions built on
it, D -> D + g, powers, the operator degree measure, and central quotients.
"""

from __future__ import annotations

from .errors import (
    BothZero,
    DivisionByZero,
    FieldMismatch,
    NotCentral,
    NotDivisible,
    ZeroOperator,
)
from .fieldkit import RatFuncField, binary_power, common_denominator
from .linalg import DependencyFinder


class OrePoly:
    """A linear differential operator: coefficient i multiplies D^i."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero(field):
        return OrePoly(field, ())

    @staticmethod
    def one(field):
        return OrePoly(field, (field.one,))

    @staticmethod
    def partial(field):
        """The operator D."""
        return OrePoly(field, (field.zero, field.one))

    @staticmethod
    def const(field, c):
        return OrePoly(field, (c,))

    @property
    def order(self):
        """Degree in D; -1 for the zero operator."""
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroOperator("zero operator has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, OrePoly)
            and self.coeffs == other.coeffs
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        out = [z] * n
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] + c
        return OrePoly(self.field, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OrePoly(self.field, [-c for c in self.coeffs])

    def scale(self, c):
        """Left multiplication by an order-0 coefficient."""
        if not c:
            return OrePoly.zero(self.field)
        return OrePoly(self.field, [a * c for a in self.coeffs])

    def __mul__(self, other):
        return ore_mul(self, other)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def monic(self):
        if not self:
            return self
        lc = self.lc
        if lc == self.field.one:
            return self
        return self.scale(lc.inv())

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("operators over different coefficient fields")

    def map_coeffs(self, func, field=None):
        return OrePoly(field if field is not None else self.field,
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
                ds = "D" if i == 1 else "D^%d" % i
                parts.append(ds if cs == "1" else "(%s)*%s" % (cs, ds))
        return " + ".join(parts)


def _partial_times(B: OrePoly) -> OrePoly:
    """D * B, one application of the commutation rule."""
    field = B.field
    z = field.zero
    out = [z] * (len(B.coeffs) + 1)
    for j, c in enumerate(B.coeffs):
        out[j + 1] = out[j + 1] + c
        d = field.derivative(c)
        if d:
            out[j] = out[j] + d
    return OrePoly(field, out)


def ore_mul(A: OrePoly, B: OrePoly) -> OrePoly:
    """The noncommutative product A * B."""
    A._check(B)
    field = A.field
    if not A or not B:
        return OrePoly.zero(field)
    acc = OrePoly.zero(field)
    cur = B
    for i, a in enumerate(A.coeffs):
        if i:
            cur = _partial_times(cur)
        if a:
            acc = acc + cur.scale(a)
    return acc


def ore_divrem_right(A: OrePoly, B: OrePoly):
    """Right Euclidean division: A = Q*B + R with ord R < ord B."""
    if not B:
        raise DivisionByZero("division by the zero operator")
    field = A.field
    A._check(B)
    if not A or A.order < B.order:
        return OrePoly.zero(field), A
    # D^k * B for k = 0 .. ord A - ord B
    shifts = [B]
    for _ in range(A.order - B.order):
        shifts.append(_partial_times(shifts[-1]))
    inv_lb = B.lc.inv()
    r = list(A.coeffs)
    q = [field.zero] * (A.order - B.order + 1)
    db = B.order
    while len(r) - 1 >= db and any(r):
        while r and not r[-1]:
            r.pop()
        if len(r) - 1 < db:
            break
        k = len(r) - 1 - db
        c = r[-1] * inv_lb
        q[k] = c
        for j, y in enumerate(shifts[k].coeffs):
            r[j] = r[j] - c * y
    return OrePoly(field, q), OrePoly(field, r)


def ore_rem(A: OrePoly, B: OrePoly) -> OrePoly:
    return ore_divrem_right(A, B)[1]


def gcrd(A: OrePoly, B: OrePoly) -> OrePoly:
    """The monic greatest common right divisor."""
    if not A and not B:
        raise BothZero("GCRD(0, 0) is undefined")
    while B:
        A, B = B, ore_divrem_right(A, B)[1]
    return A.monic()


def times_d_mod(v, tail, field):
    """D*V mod monic L = D^r + sum a_j D^j in the basis D^j, with ``tail`` =
    (a_0, ..., a_(r-1)): coordinates v_j' + v_(j-1) - v_(r-1) a_j."""
    out = []
    for j, a in enumerate(tail):
        c = field.derivative(v[j]) if v[j] else field.zero
        if j:
            c = c + v[j - 1]
        out.append(c - v[-1] * a)
    return out


def mul_mod(A: OrePoly, v, L: OrePoly):
    """The coordinates sum a_k nabla^k v of A*V mod L, for V = sum v_j D^j of
    order < ord L (trailing zeros of v may be left out)."""
    A._check(L)
    field = L.field
    tail = L.monic().coeffs[:-1]
    acc = [field.zero] * L.order
    cur = list(v) + [field.zero] * (L.order - len(v))
    for k, a in enumerate(A.coeffs):
        if k:
            cur = times_d_mod(cur, tail, field)
        if a:
            acc = [x + a * c for x, c in zip(acc, cur)]
    return acc


def lclm(ops) -> OrePoly:
    """The monic least common left multiple of a nonempty list of nonzero
    operators: the first linear dependency among the images of 1, D, D^2, ...
    in the direct sum of their quotient modules.  A unit's module is zero and
    adds nothing to the sum."""
    ops = list(ops)
    if not ops:
        raise ZeroOperator("LCLM of an empty list")
    if not all(ops):
        raise ZeroOperator("LCLM of a zero operator")
    field = ops[0].field
    for op in ops[1:]:
        ops[0]._check(op)
    tails = [op.monic().coeffs[:-1] for op in ops]
    dim = sum(len(tail) for tail in tails)
    finder = DependencyFinder(field, dim)
    cur = [[field.one if j == 0 else field.zero for j in range(len(tail))]
           for tail in tails]
    for _ in range(dim + 1):
        combo = finder.offer([c for v in cur for c in v])
        if combo is not None:
            return OrePoly(field, combo)
        cur = [times_d_mod(v, tail, field) for v, tail in zip(cur, tails)]
    raise AssertionError("LCLM dependency must appear by order %d" % dim)


def shift_partial(A: OrePoly, g) -> OrePoly:
    """The image of A under the automorphism fixing coefficients and mapping
    D to D + g."""
    field = A.field
    if not A:
        return A
    shifted = OrePoly(field, (g, field.one))
    acc = OrePoly.zero(field)
    power = OrePoly.one(field)
    for i, a in enumerate(A.coeffs):
        if i:
            power = ore_mul(shifted, power)
        if a:
            acc = acc + power.scale(a)
    return acc


def ore_pow(A: OrePoly, k: int) -> OrePoly:
    """The k-th power, by square and multiply."""
    return binary_power(A, k, OrePoly.one(A.field))


def apply_to(A: OrePoly, f):
    """Apply the operator to a coefficient-field element: A*f mod D, since
    K<D>/K<D>D is K itself with the connection d/dt."""
    return mul_mod(A, [f], OrePoly.partial(A.field))[0]


def operator_degree(A: OrePoly) -> int:
    """The degree measure of an operator over GF(q)(t): clear coefficients to
    a common monic denominator D and return max(deg D, max_i deg p_i)."""
    if not A:
        return 0
    if not isinstance(A.field, RatFuncField):
        raise FieldMismatch("operator degree is defined over GF(q)(t)")
    den, nums = common_denominator(A.coeffs)
    return max(c.degree for c in (den, *nums))


def is_central(C: OrePoly) -> bool:
    """True when C lies in GF(q)(t^p)[D^p]: every nonzero coefficient sits at
    an index divisible by p and is itself a p-th power."""
    field = C.field
    p = field.base.p
    for i, c in enumerate(C.coeffs):
        if not c:
            continue
        if i % p != 0:
            return False
        if c.pth_root() is None:
            return False
    return True


def exact_right_quotient_central(L: OrePoly, C: OrePoly) -> OrePoly:
    """The exact quotient L = Q*C of a left multiple of a central operator."""
    if not C:
        raise DivisionByZero("division by the zero operator")
    if not is_central(C):
        raise NotCentral("divisor is not central")
    Q, R = ore_divrem_right(L, C)
    if R:
        raise NotDivisible("operator is not a left multiple of the divisor")
    return Q
