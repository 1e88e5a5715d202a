"""The Ore algebra of linear differential operators over a differential
coefficient field.

Operators are polynomials in D = d/dt with coefficients in GF(q)(t) or in a
separable extension K of it, stored in fieldkit's coefficient container
(``CoeffSeq``, shared with ``Poly``); multiplication follows the commutation
rule D*f = f*D + f'.  The coefficient field object must expose ``zero``,
``one``, ``from_int`` and ``derivative`` in addition to element arithmetic.

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
from .fieldkit import CoeffSeq, RatFuncField, binary_power, common_denominator
from .linalg import first_dependency


class OrePoly(CoeffSeq):
    """A linear differential operator: coefficient i multiplies D^i.  The
    container is fieldkit.CoeffSeq's; sums and differences also check that
    both operands have one coefficient field."""

    __slots__ = ()

    var = "D"
    noun = "operator"
    ZeroError = ZeroOperator

    @staticmethod
    def partial(field):
        """The operator D."""
        return OrePoly(field, (field.zero, field.one))

    @property
    def order(self):
        """Degree in D; -1 for the zero operator."""
        return len(self.coeffs) - 1

    def __add__(self, other):
        self._check(other)
        return CoeffSeq.__add__(self, other)

    def __sub__(self, other):
        self._check(other)
        return CoeffSeq.__sub__(self, other)

    def __mul__(self, other):
        return ore_mul(self, other)

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("operators over different coefficient fields")


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
    operators: the first linear dependency (linalg.first_dependency) among
    the images of 1, D, ..., D^dim in the direct sum of their quotient
    modules, dim the sum of the orders.  A unit's module is zero and adds
    nothing to the sum."""
    ops = list(ops)
    if not ops:
        raise ZeroOperator("LCLM of an empty list")
    if not all(ops):
        raise ZeroOperator("LCLM of a zero operator")
    field = ops[0].field
    for op in ops[1:]:
        ops[0]._check(op)
    tails = [op.monic().coeffs[:-1] for op in ops]
    cur = [[field.one if j == 0 else field.zero for j in range(len(tail))]
           for tail in tails]
    images = [[c for v in cur for c in v]]
    for _ in range(len(images[0])):
        cur = [times_d_mod(v, tail, field) for v, tail in zip(cur, tails)]
        images.append([c for v in cur for c in v])
    return OrePoly(field, first_dependency(field, images))


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
