"""Exception hierarchy shared by all oredecomp modules."""


class OredecompError(Exception):
    """Base class for all domain errors raised by this package."""


# -- field construction and arithmetic ---------------------------------------

class NotPrime(OredecompError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(OredecompError):
    """A defining polynomial for GF(p^n) is reducible over GF(p)."""


class DegreeMismatch(OredecompError):
    """A defining polynomial has the wrong degree."""


class DivisionByZero(OredecompError):
    """Division by the zero element of a field or ring."""


class ZeroPolynomial(OredecompError):
    """The zero polynomial was passed where a nonzero one is required."""


# -- linear algebra -----------------------------------------------------------

class NotSquare(OredecompError):
    """A square matrix is required."""


# -- polynomial factorisation over GF(q)(t) -----------------------------------

class NotMonic(OredecompError):
    """A monic polynomial is required."""


class NoGoodSpecialization(OredecompError):
    """No usable evaluation point was found within the extension-field cap."""


# -- algebraic extensions -----------------------------------------------------

class Inseparable(OredecompError):
    """The defining polynomial has vanishing formal derivative."""


class NotIrreducible(OredecompError):
    """The defining polynomial of an extension is reducible."""


# -- Ore operators ------------------------------------------------------------

class FieldMismatch(OredecompError):
    """Operands live over different coefficient fields."""


class BothZero(OredecompError):
    """GCRD of two zero operators is undefined."""


class ZeroOperator(OredecompError):
    """The zero operator was passed where a nonzero one is required."""


class NotCentral(OredecompError):
    """An operator expected to be central (in GF(q)(t^p)[D^p]) is not."""


class NotDivisible(OredecompError):
    """An exact division has a nonzero remainder."""


# -- p-curvature --------------------------------------------------------------

class ZeroOrder(OredecompError):
    """An operator of positive order is required."""


class ConstantFieldViolation(OredecompError):
    """An internal consistency failure: a quantity proven to lie in the
    constant subfield GF(q)(t^p) does not.  Indicates a bug."""


# -- decomposition pipeline ---------------------------------------------------

class InseparableFactor(OredecompError):
    """The characteristic polynomial of the p-curvature has an inseparable
    irreducible factor; the decomposition method does not apply."""


class CentralIrreducibleFactor(OredecompError):
    """A requested invariant chain contains a factor whose central symbol is
    an irreducible operator; representatives cannot be built from it."""


class EmptyRequest(OredecompError):
    """An invariant-chain request contains no nontrivial entry."""


class OrderMismatch(OredecompError):
    """Two operators expected to have equal order do not."""


class NotCoprime(OredecompError):
    """A GCRD expected to be trivial is not."""


class RetryExhausted(OredecompError):
    """Random sampling failed to find a suitable element within the retry
    budget."""


class VerificationFailed(OredecompError):
    """An internal re-check of a computed decomposition failed."""


# -- expression parsing -------------------------------------------------------

class ExprSyntaxError(OredecompError):
    """A parse error, annotated with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DivisionByOperator(OredecompError):
    """Division by an operator of positive order in an expression."""
