"""Exception types shared across the package.

Everything raised on purpose derives from :class:`ValexError`, so callers can
catch one type at the CLI boundary.  Parse failures carry the offending
position to make error messages actionable.
"""


class ValexError(Exception):
    """Base class for all errors raised by valex."""


class ParseError(ValexError, ValueError):
    """Malformed textual input (polynomial, Gauss code, or twist spec)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class InvalidArgument(ValexError, ValueError):
    """A library call was given a value outside its documented domain."""


# -- laurent ---------------------------------------------------------------

class NonUnitNegativePower(ValexError):
    """Negative power requested for a monomial whose coefficient is not a unit."""


class DivisionByZero(ValexError, ZeroDivisionError):
    """Polynomial division by the zero polynomial."""


class NotDivisible(ValexError, ArithmeticError):
    """Exact polynomial division has a nonzero remainder."""


class EvalAtZero(ValexError, ZeroDivisionError):
    """Evaluation hit a negative exponent at a zero base."""


# -- diagram ---------------------------------------------------------------

class PairingError(ValexError):
    """A crossing is not visited exactly once over and once under."""


class SignMismatch(ValexError):
    """The two passages of a crossing carry different signs."""


class UnknownCrossing(ValexError, KeyError):
    """Crossing id not present in the diagram."""


class UnknownArc(ValexError, KeyError):
    """Arc id not present in the diagram."""


class EmptyComponent(ValexError):
    """A component without classical crossings (rejected everywhere)."""


class NotAKnot(ValexError):
    """Knot-only operation applied to a multi-component diagram."""


# -- twist -----------------------------------------------------------------

class NotABaseCase(ValexError):
    """Twist spec does not match any closed-form base family."""


class EmptyBlock(ValexError):
    """Operation requires a nonempty twist block."""


class ShapeMismatch(ValexError):
    """Twist spec does not match the required reduced shape."""


class UnsupportedClasp(ValexError):
    """Clasp variant has no direct diagram generator."""


class InfiniteReduction(ValexError):
    """Recursion engine exceeded its iteration bound (convention bug guard)."""
