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
  so printed fixtures are stable.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ._backend import divexact_terms, mul_terms
from .errors import InvalidArgument, NotDivisible

__all__ = [
    "LaurentPoly",
    "ZERO",
    "ONE",
    "U",
    "V",
    "Normalized",
    "exact_div",
    "normalize",
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
                    raise InvalidArgument(f"coefficient {c!r} is not an int")
                if not (isinstance(i, int) and isinstance(j, int)):
                    raise InvalidArgument(f"exponent pair {(i, j)!r} is not a pair of ints")
                if c:
                    clean[(int(i), int(j))] = int(c)
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
                if c in (1, -1):
                    return LaurentPoly._raw({(i * k, j * k): c ** (k & 1)})
            raise InvalidArgument(f"cannot raise {self} to power {k}")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure queries ---------------------------------------------------

    def evaluate(self, u0: int, v0: int) -> int:
        """Exact substitution of u0, v0 in {1, -1} for u and v.

        A power of +/-1 depends only on its exponent's parity: u0^i v0^j is
        -1 exactly when one of its two factors is an odd power of -1, so the
        sum stays in ints.  Any other point raises InvalidArgument.
        """
        if u0 not in (1, -1) or v0 not in (1, -1):
            raise InvalidArgument(f"evaluate takes u, v in {{1, -1}}, not ({u0}, {v0})")
        mu, mv = u0 < 0, v0 < 0  # 1 where the point's coordinate is -1
        return sum(-c if (i & mu) ^ (j & mv) else c for (i, j), c in self._terms.items())


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({(0, 0): 1})
U = LaurentPoly._raw({(1, 0): 1})
V = LaurentPoly._raw({(0, 1): 1})


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient q with q*b == a.

    Raises InvalidArgument when b == 0 and NotDivisible when no exact quotient
    exists (the latter signals a violated divisibility law upstream).
    """
    if not b:
        raise InvalidArgument("division by the zero polynomial")
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
    with unit (0, +1).  The shift keeps the order of the terms by (total
    degree, u-degree), so one loop over the input's exponent pairs finds
    both the shift and that term, whose sign is read on the input; the
    shift and sign are then applied in one pass.
    """
    terms = a._terms
    if not terms:
        return Normalized(ZERO, 0, 1)
    keys = iter(terms)
    low = next(keys)  # the pair of least (i + j, i) so far
    s = low_i = low[0]
    low_total = low_i + low[1]
    for key in keys:
        i, j = key
        if i < s:
            s = i
        total = i + j
        if total < low_total or total == low_total and i < low_i:
            low, low_i, low_total = key, i, total
    sign = 1 if terms[low] > 0 else -1
    return Normalized(
        LaurentPoly._raw({(i - s, j - s): sign * c for (i, j), c in terms.items()}), s, sign)


# -- textual form ------------------------------------------------------------

def format_poly(a: LaurentPoly) -> str:
    """Render with terms sorted by (total degree, u-degree) ascending.

    The output is canonical: equal polynomials print alike.  It reads back
    as a Python expression in u and v once ``^`` is taken as ``**``.
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

