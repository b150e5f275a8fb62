"""Exact bivariate Laurent polynomials over the integers.

Values of every invariant in this package live in Z[u, u^-1, v, v^-1].
Coefficients are arbitrary-precision ints (fraction-free elimination blows
past 64 bits even on small diagrams).  Polynomials are immutable; every
operation returns a new value, so they can be shared freely across threads.

Conventions that matter elsewhere:

* ``normalize`` removes the unit ``+/-(uv)^s`` ambiguity of diagram-level
  invariants: shift so the lowest u-power is zero, then make the term of
  lowest total degree (ties broken by lowest u-degree) positive.
* ``format_poly`` emits terms sorted by (total degree, u-degree) ascending,
  so printed fixtures are stable and re-parseable.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ._backend import divexact_terms, mul_terms
from .errors import (
    DivisionByZero,
    InvalidArgument,
    NonUnitNegativePower,
    NotDivisible,
    ParseError,
)

__all__ = [
    "LaurentPoly",
    "ZERO",
    "ONE",
    "U",
    "V",
    "Normalized",
    "monomial_pow",
    "exact_div",
    "normalize",
    "parse_poly",
    "format_poly",
]


def _term_sort_key(item):
    (i, j), _ = item
    return (i + j, i)


class LaurentPoly:
    """A sparse bivariate Laurent polynomial with int coefficients.

    The term mapping never stores zero coefficients; equality is term-set
    equality.  Arithmetic is available through the usual operators.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in dict(terms).items():
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {c!r} is not an int")
                if not (isinstance(i, int) and isinstance(j, int)):
                    raise TypeError(f"exponent pair {(i, j)!r} is not a pair of ints")
                if c:
                    clean[(int(i), int(j))] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        """Wrap a kernel-produced dict without re-validation."""
        p = cls.__new__(cls)
        p._terms = terms
        return p

    # -- container-ish accessors -------------------------------------------

    def items(self) -> Iterator:
        return iter(self._terms.items())

    def coeff(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self):
        terms = self._terms
        if terms.keys() <= {(0, 0)}:  # a constant hashes as the int it equals
            return hash(terms.get((0, 0), 0))
        return hash(frozenset(terms.items()))

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly._raw({(0, 0): other} if other else {})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + -self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly._raw(mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            # only monomials with unit coefficient can be inverted
            if len(self._terms) == 1:
                ((i, j), c), = self._terms.items()
                return monomial_pow(c, i, j, k)
            raise NonUnitNegativePower(f"cannot raise {self} to power {k}")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure queries ---------------------------------------------------

    def substituted_swap(self) -> "LaurentPoly":
        """p(u, v) -> p(v, u)."""
        return LaurentPoly._raw({(j, i): c for (i, j), c in self._terms.items()})

    def substituted_inverse(self) -> "LaurentPoly":
        """p(u, v) -> p(u^-1, v^-1)."""
        return LaurentPoly._raw({(-i, -j): c for (i, j), c in self._terms.items()})

    def evaluate(self, u0: int, v0: int) -> int:
        """Exact substitution of u0, v0 in {1, -1} for u and v.

        A power of +/-1 depends only on its exponent's parity, so the sum
        stays in ints.  Any other point raises InvalidArgument.
        """
        if u0 not in (1, -1) or v0 not in (1, -1):
            raise InvalidArgument(f"evaluate takes u, v in {{1, -1}}, not ({u0}, {v0})")
        return sum(c * u0 ** (i & 1) * v0 ** (j & 1) for (i, j), c in self._terms.items())


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({(0, 0): 1})
U = LaurentPoly._raw({(1, 0): 1})
V = LaurentPoly._raw({(0, 1): 1})


def monomial_pow(c: int, i: int, j: int, k: int) -> LaurentPoly:
    """(c * u^i * v^j) ** k; k may be negative only when c is a unit."""
    if k < 0 and abs(c) != 1:
        raise NonUnitNegativePower(f"({c}*u^{i}*v^{j})^{k} is not a Laurent polynomial")
    if c == 0:
        if k == 0:
            return ONE
        if k < 0:
            raise NonUnitNegativePower("cannot invert the zero monomial")
        return ZERO
    if k >= 0:
        coeff = c ** k
    else:
        coeff = 1 if c == 1 or k % 2 == 0 else -1
    return LaurentPoly._raw({(i * k, j * k): coeff})


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient q with q*b == a.

    Raises DivisionByZero when b == 0 and NotDivisible when no exact quotient
    exists (the latter signals a violated divisibility law upstream).
    """
    if not b:
        raise DivisionByZero("division by the zero polynomial")
    if not a:
        return ZERO
    q = divexact_terms(a._terms, b._terms)
    if q is None:
        raise NotDivisible(f"({format_poly(b)}) does not divide ({format_poly(a)})")
    return LaurentPoly._raw(q)


class Normalized(NamedTuple):
    """Result of unit normalization: input == sign * (uv)**shift * poly."""

    poly: LaurentPoly
    shift: int
    sign: int


def normalize(a: LaurentPoly) -> Normalized:
    """Remove the +/-(uv)^k unit from a diagram-level invariant.

    ``shift`` is the lowest u-power of the input; after multiplying by
    (uv)^-shift, the term of lowest total degree (ties broken by lowest
    u-degree) is made positive.  The zero polynomial normalizes to itself
    with unit (0, +1).
    """
    if not a:
        return Normalized(ZERO, 0, 1)
    s = min(i for i, _ in a._terms)
    shifted = {(i - s, j - s): c for (i, j), c in a._terms.items()}
    pivot_key = min(shifted, key=lambda k: (k[0] + k[1], k[0]))
    sign = 1 if shifted[pivot_key] > 0 else -1
    if sign < 0:
        shifted = {k: -c for k, c in shifted.items()}
    return Normalized(LaurentPoly._raw(shifted), s, sign)


# -- textual form ------------------------------------------------------------

def format_poly(a: LaurentPoly) -> str:
    """Render with terms sorted by (total degree, u-degree) ascending.

    The output is re-parseable by :func:`parse_poly` (round-trip stable).
    """
    if not a:
        return "0"
    parts = []
    for (i, j), c in sorted(a._terms.items(), key=_term_sort_key):
        mag = abs(c)
        factors = []
        if mag != 1 or (i == 0 and j == 0):
            factors.append(str(mag))
        if i:
            factors.append("u" if i == 1 else f"u^{i}")
        if j:
            factors.append("v" if j == 1 else f"v^{j}")
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    start = pos
    if pos < len(text) and text[pos] in "+-":
        pos += 1
    digits = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == digits:
        raise ParseError("expected an integer", start)
    try:
        return int(text[start:pos]), pos
    except ValueError:  # a digit int() refuses (superscripts), or too many digits
        raise ParseError("unreadable integer: not decimal, or too many digits", start) from None


def parse_poly(text: str) -> LaurentPoly:
    """Parse the term grammar ``c*u^i*v^j`` with +/- separators.

    Every part of a term is optional (coefficient, u-part, v-part) but at
    least one must be present; '*' separators may be omitted; whitespace is
    ignored.  Exponents may be negative, e.g. ``u^-1*v^-1``.
    """
    s = text
    n = len(s)
    pos = 0
    terms: dict = {}

    def skip_ws(p):
        while p < n and s[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty polynomial", pos)
    first = True
    while pos < n:
        sign = 1
        pos = skip_ws(pos)
        if not first or (pos < n and s[pos] in "+-"):
            if pos >= n or s[pos] not in "+-":
                raise ParseError("expected '+' or '-' between terms", pos)
            sign = 1 if s[pos] == "+" else -1
            pos = skip_ws(pos + 1)
        first = False

        coeff = None
        iexp = 0
        jexp = 0
        seen_u = False
        seen_v = False
        while True:
            pos = skip_ws(pos)
            if pos < n and s[pos].isdigit():
                if coeff is not None or seen_u or seen_v:
                    raise ParseError("unexpected number", pos)
                coeff, pos = _parse_int(s, pos)
            elif pos < n and s[pos] in "uv":
                var = s[pos]
                if (var == "u" and seen_u) or (var == "v" and seen_v):
                    raise ParseError(f"repeated variable '{var}'", pos)
                if var == "v":
                    seen_v = True
                else:
                    seen_u = True
                pos += 1
                exp = 1
                if pos < n and s[pos] == "^":
                    exp, pos = _parse_int(s, pos + 1)
                if var == "u":
                    iexp = exp
                else:
                    jexp = exp
            else:
                raise ParseError("expected a coefficient or variable", pos)
            pos = skip_ws(pos)
            if pos < n and s[pos] == "*":
                pos += 1
                continue
            if pos < n and s[pos] in "uv":  # juxtaposition: '*' may be omitted
                continue
            break

        c = sign * (1 if coeff is None else coeff)
        key = (iexp, jexp)
        v = terms.get(key, 0) + c
        if v:
            terms[key] = v
        elif key in terms:
            del terms[key]
        pos = skip_ws(pos)
    return LaurentPoly._raw(terms)
