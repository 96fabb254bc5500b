"""Exception types raised by the library.

Everything derives from ConjucyclicError so callers can catch one base
class; the CLI maps the specific types onto distinct exit codes.
"""


class ConjucyclicError(Exception):
    """Base class for all library errors."""


class NotPrimeError(ConjucyclicError):
    """The requested characteristic is not a prime number."""


class FieldTooLargeError(ConjucyclicError):
    """The requested GF(q^2) exceeds the 2^24-element table cap."""


class NoPrimitivePolynomialError(ConjucyclicError):
    """No primitive modulus was found (impossible for valid inputs)."""


class ZeroConstantTermError(ConjucyclicError):
    """Reciprocal of a polynomial with zero constant term is undefined."""


class LengthMismatchError(ConjucyclicError):
    """Vector operands have incompatible lengths."""


class OddLengthError(LengthMismatchError):
    """An even-length vector was required."""


class NotADivisorError(ConjucyclicError):
    """The given polynomial does not divide x^(2n) - 1."""


class WrongCharacteristicError(ConjucyclicError):
    """Operation only defined in characteristic 2."""


class NotDualContainingError(ConjucyclicError):
    """Stabilizer parameters require an alternating dual-containing code."""


class BudgetExceededError(ConjucyclicError):
    """Exhaustive enumeration would exceed the configured budget."""
