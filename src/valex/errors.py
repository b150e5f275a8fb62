"""Exception types shared across the package.

Everything raised on purpose derives from :class:`ValexError`, so callers can
catch one type at the CLI boundary.  There is one class per kind of failure:

* ``ParseError``: text that ``parse_gauss`` or ``parse_spec`` cannot read;
  it carries the offending position.
* ``InvalidArgument``: any other value outside a function's domain.
* ``NotDivisible``, ``UnsupportedClasp`` and ``InfiniteReduction``: failures
  that callers tell apart by type.
"""


class ValexError(Exception):
    """Base class for all errors raised by valex."""


class ParseError(ValexError, ValueError):
    """Malformed textual input (a Gauss code or a twist spec)."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidArgument(ValexError, ValueError):
    """A library call was given a value outside its documented domain."""


class NotDivisible(ValexError, ArithmeticError):
    """Exact polynomial division has a nonzero remainder."""


class UnsupportedClasp(ValexError):
    """Clasp variant has no direct diagram generator."""


class InfiniteReduction(ValexError):
    """Recursion engine exceeded its iteration bound (convention bug guard)."""
