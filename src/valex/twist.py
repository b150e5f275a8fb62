"""Virtual twist knots: generators, closed forms, and the recursion engine.

A twist spec is a block vector (a_1, ..., a_n) plus a clasp tag.  Block i
contributes |a_i| classical half-twist crossings of sign sgn(a_i); blocks are
separated by single virtual crossings, and the clasp closes the twist with
one classical and one virtual crossing.  The clasp tags:

    a   -- the reference clasp (directly generated)
    ^a  -- same as VT_a(S, 0)
    b   -- mirror of VT_a(-S):        p(u,v) -> -p(v,u) on invariants
    ^b  -- mirror of VT_a(-S, 0):     same transform
    ab  -- the independent second family (closed forms + recursion only)
    ba  -- same as VT_a^b(S) with the last block lengthened by one

Generated diagrams carry an explicit arc labeling (odd labels along the
left-to-right strand, even along the return strand, increasing left to
right), which pins the sign of every determinant fixture.  Parity
bookkeeping uses the signed partial sums s(i); only parities enter any
formula and a_i = |a_i| (mod 2), so this agrees with the absolute-value
convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .alexander import KNOT_FACTOR, InvariantReport
from .diagram import Diagram, Passage, mirror_all
from .errors import (
    EmptyBlock,
    InfiniteReduction,
    InvalidArgument,
    NotABaseCase,
    ParseError,
    ShapeMismatch,
    UnsupportedClasp,
)
from .laurent import LaurentPoly, ONE, U, V, ZERO, monomial_pow

__all__ = [
    "CLASPS",
    "TwistSpec",
    "parse_spec",
    "format_spec",
    "ParityContext",
    "parity_context",
    "generate_twist",
    "base_closed_form",
    "base_delta_bar",
    "vtab_closed_form",
    "vtab_delta_bar",
    "smoothed_closed_form",
    "recursion_step",
    "contract",
    "negative_flip",
    "evaluate_recursive",
    "clasp_identity",
    "mirror_invariant",
    "ow_closed_form",
    "spec_report",
    "KNOT_FACTOR",
]

CLASPS = ("a", "^a", "b", "^b", "ab", "ba")

UV = U * V


def _p(x: int) -> int:
    """Parity of |x| (0 or 1)."""
    return abs(x) % 2


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class TwistSpec:
    """Block lengths with signs plus a clasp tag."""

    blocks: tuple
    clasp: str = "a"

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) < 1:
            raise InvalidArgument("a twist spec needs at least one block")
        if self.clasp not in CLASPS:
            raise InvalidArgument(f"unknown clasp {self.clasp!r}; expected one of {CLASPS}")

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def m(self) -> int:
        """Total number of classical twist crossings."""
        return sum(abs(b) for b in self.blocks)

    def __str__(self):
        return format_spec(self)


_SPEC_RE = re.compile(r"\s*VT(?:\[(\^?[ab]{1,2})\])?\s*\(([^)]*)\)\s*$", re.IGNORECASE)


def parse_spec(text: str) -> TwistSpec:
    """Parse ``VT[a](7,4,3,5,9)``; the clasp tag defaults to ``a``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ParseError(f"not a twist spec: {text!r}", 0)
    clasp = (m.group(1) or "a").lower()
    if clasp not in CLASPS:
        raise ParseError(f"unknown clasp tag {clasp!r}", text.index("["))
    body = m.group(2).strip()
    if not body:
        raise ParseError("twist spec needs at least one block", text.index("("))
    try:
        blocks = tuple(int(tok.strip()) for tok in body.split(","))
    except ValueError:
        raise ParseError(f"bad block list {body!r}", text.index("(")) from None
    return TwistSpec(blocks, clasp)


def format_spec(spec: TwistSpec) -> str:
    return f"VT[{spec.clasp}]({','.join(str(b) for b in spec.blocks)})"


# -- parity bookkeeping --------------------------------------------------------

@dataclass(frozen=True)
class ParityContext:
    """The partial sums and parity counts that drive every twist formula."""

    s: tuple       # s[i] = sum_{j<=i} (a_j + 1), s[0] = 0
    delta: int     # sum_j p(a_j) p(s(j))
    eps: tuple     # eps[i-1] = epsilon(i), i = 1..n
    half_sum: int  # sum_i floor(|a_i| / 2)
    m: int         # sum_i |a_i|


def parity_context(spec: TwistSpec) -> ParityContext:
    a = spec.blocks
    n = len(a)
    s = [0]
    for b in a:
        s.append(s[-1] + b + 1)
    delta = sum(_p(a[j]) * _p(s[j + 1]) for j in range(n))
    eps = []
    for i in range(1, n + 1):
        e = _p(s[i - 1]) - 1
        e += sum(_p(a[j]) * _p(s[j + 1]) for j in range(i - 1))
        e += sum(_p(a[j]) * _p(1 + s[j]) for j in range(i - 1, n))
        eps.append(e)
    return ParityContext(
        s=tuple(s),
        delta=delta,
        eps=tuple(eps),
        half_sum=sum(abs(b) // 2 for b in a),
        m=sum(abs(b) for b in a),
    )


# -- diagram generation ----------------------------------------------------------

def generate_twist(spec: TwistSpec) -> Diagram:
    """Emit the twist-knot diagram with the odd/even strand arc labeling.

    Directly generated for clasp ``a``; the ``^a``, ``b`` and ``^b`` variants
    are produced through ``clasp_identity`` (generate its clasp-``a`` spec,
    mirrored when the identity mirrors).  ``ab``/``ba`` have no public diagram
    recipe and raise UnsupportedClasp.

    Layout for clasp ``a``: m twist crossings c_2..c_{m+1} left to right; the
    k-th crossing of block j is "type 1" iff s(j-1)+k-1 is even, and the
    left-to-right (odd-label) strand passes under exactly when type 1 matches
    a positive block sign.  At the clasp crossing c_1 the returning strand
    (x_2 -> x_1) is always on top; the crossing is positive iff s(n) is even.
    This role assignment is the one that reproduces all four closed-form base
    families exactly, sign included.
    """
    if spec.clasp != "a":
        base, transform = clasp_identity(spec)
        if base.clasp != "a":
            raise UnsupportedClasp(f"no diagram generator for clasp {spec.clasp!r}")
        d = generate_twist(base)
        return mirror_all(d) if transform is mirror_invariant else d

    ctx = parity_context(spec)
    m = ctx.m
    n = spec.n
    clasp_positive = _p(ctx.s[n]) == 0

    odd_under = []
    signs = {1: 1 if clasp_positive else -1}
    t = 0
    for j, block in enumerate(spec.blocks, start=1):
        sign = _sgn(block)
        for k in range(1, abs(block) + 1):
            t += 1
            type1 = _p(ctx.s[j - 1] + k - 1) == 0
            odd_under.append(type1 == (sign > 0))
            signs[t + 1] = sign

    passages = []
    for t in range(1, m + 1):  # odd strand, left to right
        passages.append(Passage(t + 1, not odd_under[t - 1]))
    passages.append(Passage(1, False))  # clasp, x_{2m+1} -> x_{2m+2}, under
    for t in range(m, 0, -1):  # even strand, right to left
        passages.append(Passage(t + 1, odd_under[t - 1]))
    passages.append(Passage(1, True))  # clasp, x_2 -> x_1, over

    labels = [2 * t + 1 for t in range(1, m + 1)]
    labels.append(2 * m + 2)
    labels.extend(2 * m + 2 - 2 * k for k in range(1, m + 1))
    labels.append(1)
    return Diagram([passages], signs, labels)


# -- closed-form base families -----------------------------------------------------

def _triangle(m: int, outer: LaurentPoly, inner: LaurentPoly) -> LaurentPoly:
    """sum_{i=0}^{m-1} sum_{j=i}^{m-1} outer^i inner^j."""
    total = ZERO
    for i in range(m):
        for j in range(i, m):
            total = total + outer ** i * inner ** j
    return total


def _square(t: int) -> LaurentPoly:
    """sum_{i=0}^{t} sum_{j=0}^{t} u^i v^j."""
    total = ZERO
    for i in range(t + 1):
        for j in range(t + 1):
            total = total + U ** i * V ** j
    return total


def _classify_base(blocks) -> tuple:
    """(family, m) for the four base shapes; NotABaseCase otherwise."""
    n = len(blocks)
    inner = blocks[1:-1] if n >= 2 else ()
    if any(b == 0 for b in inner):
        raise NotABaseCase(f"interior empty block in {blocks}")
    if any(b != 1 for b in blocks if b != 0):
        raise NotABaseCase(f"{blocks} has blocks outside {{0, 1}}")
    lead = blocks[0] == 0
    trail = blocks[-1] == 0
    m = sum(blocks)
    if n == 1:
        return (2, 0) if lead else (1, 1)
    if lead and trail:
        return (4, m)
    if lead:
        return (2, m)
    if trail:
        return (3, m)
    return (1, m)


def base_closed_form(spec: TwistSpec) -> LaurentPoly:
    """Diagram-level Delta_0 for the four clasp-a base families (not normalized)."""
    if spec.clasp != "a":
        raise NotABaseCase(f"base families are clasp-a specs, got {spec.clasp!r}")
    fam, m = _classify_base(spec.blocks)
    u, v = U, V
    if fam == 1:
        return -ONE + u ** m + v - u ** (m + 1) * v - u ** m * v ** (m + 1) \
            + u ** (m + 1) * v ** (m + 1)
    if fam == 2:
        body = v - u * v - v ** m + u ** m * v ** m + u * v ** (m + 1) \
            - u ** m * v ** (m + 1)
        return -body if m % 2 == 0 else body
    if fam == 3:
        return -u + u ** m + u * v - u ** (m + 1) * v - u ** m * v ** m \
            + u ** (m + 1) * v ** m
    body = ONE - u - v ** m + u ** (m + 1) * v ** m + u * v ** (m + 1) \
        - u ** (m + 1) * v ** (m + 1)
    return -body if m % 2 == 0 else body


def base_delta_bar(spec: TwistSpec) -> LaurentPoly:
    """Delta_0 / ((u-1)(v-1)(uv-1)) for the base families, by the double sums."""
    if spec.clasp != "a":
        raise NotABaseCase(f"base families are clasp-a specs, got {spec.clasp!r}")
    fam, m = _classify_base(spec.blocks)
    if fam == 1:
        return _triangle(m, V, U)
    if fam == 2:
        if m <= 1:
            return ZERO
        body = V * _triangle(m - 1, U, V)
        return body if m % 2 == 0 else -body
    if fam == 3:
        if m <= 1:
            return ZERO
        return U * _triangle(m - 1, V, U)
    if m == 0:
        return ZERO
    body = _triangle(m, U, V)
    return body if m % 2 == 0 else -body


def vtab_closed_form(spec: TwistSpec) -> LaurentPoly:
    """Diagram-level Delta_0 for the clasp-ab base families."""
    return KNOT_FACTOR * vtab_delta_bar(spec)


def vtab_delta_bar(spec: TwistSpec) -> LaurentPoly:
    if spec.clasp != "ab":
        raise NotABaseCase(f"expected clasp 'ab', got {spec.clasp!r}")
    fam, m = _classify_base(spec.blocks)
    if fam == 1:
        if m <= 1:
            return ZERO
        return UV * _square(m - 2)
    if fam == 2:
        if m == 0:
            return ZERO
        body = UV * _square(m - 1)
        return body if m % 2 == 0 else -body
    if fam == 3:
        if m == 0:
            return ZERO
        return UV * _square(m - 1)
    body = _square(m)
    return body if m % 2 == 0 else -body


def smoothed_closed_form(spec: TwistSpec, i: int) -> LaurentPoly:
    """Delta_0 of the link made by smoothing the first crossing of block i.

    The formula (clasp a, figure labeling):
        (-uv)^{sum floor(|a_j|/2)} (-1)^{-p(s(i-1)) + delta + s(n)}
        (uv)^{eps(i)} (u-1)(v-1)
    It is a unit times (u-1)(v-1): smoothing a knot's crossing gives a
    2-component link, never divisible by (uv-1).
    """
    if not 1 <= i <= spec.n:
        raise EmptyBlock(f"block index {i} out of range 1..{spec.n}")
    if spec.blocks[i - 1] == 0:
        raise EmptyBlock(f"block {i} of {spec} is empty")
    ctx = parity_context(spec)
    sign_exp = (-_p(ctx.s[i - 1]) + ctx.delta + ctx.s[spec.n]) % 2
    out = monomial_pow(-1, 1, 1, ctx.half_sum) * monomial_pow(1, 1, 1, ctx.eps[i - 1])
    out = out * ((U - 1) * (V - 1))
    return -out if sign_exp else out


# -- recursion engine ---------------------------------------------------------------

def recursion_step(spec: TwistSpec):
    """One application of the twist recursion.

    Returns (reduced_spec, factor, correction) with
        dbar(spec) = factor * (dbar(reduced) + correction)
    where factor = (-uv)^{sum floor(|a_i|/2)}, the reduced blocks are
    sgn(a_i) * p(a_i), and the correction sums
    +/- floor(|a_i|/2) (-1)^{delta+s(n)} (uv)^{eps(i)} (subtracted for
    negative blocks).  For clasp ``ab`` the correction is identically zero
    (the smoothed links are classical Hopf links).
    """
    ctx = parity_context(spec)
    factor = monomial_pow(-1, 1, 1, ctx.half_sum)
    reduced = TwistSpec(tuple(_sgn(b) * _p(b) for b in spec.blocks), spec.clasp)
    if spec.clasp == "ab":
        return reduced, factor, ZERO
    sign = -1 if (ctx.delta + ctx.s[spec.n]) % 2 else 1
    corr = ZERO
    for i, b in enumerate(spec.blocks, start=1):
        w = _sgn(b) * (abs(b) // 2) * sign
        if w:
            corr = corr + w * monomial_pow(1, 1, 1, ctx.eps[i - 1])
    return reduced, factor, corr


def contract(spec: TwistSpec):
    """Remove interior empty blocks by merging their neighbours.

    Contraction itself is a virtual move (no polynomial change); when a merge
    juxtaposes opposite-sign crossings, each cancelling pair costs one
    Reidemeister-II move, i.e. a factor of -uv.  Returns (spec, factor).
    """
    blocks = list(spec.blocks)
    factor = ONE
    while True:
        idx = next((i for i in range(1, len(blocks) - 1) if blocks[i] == 0), None)
        if idx is None:
            break
        x, y = blocks[idx - 1], blocks[idx + 1]
        if x * y < 0:
            factor = factor * monomial_pow(-1, 1, 1, min(abs(x), abs(y)))
        blocks[idx - 1:idx + 2] = [x + y]
    return TwistSpec(tuple(blocks), spec.clasp), factor


def negative_flip(spec: TwistSpec, i: int):
    """Turn the -1 in block i of a reduced shape into +1.

    Returns (flipped_spec, correction) with
        dbar(spec) = dbar(flipped) + correction,
    the correction depending on which of the four reduced shapes the blocks
    match (no end zeros, leading zero, trailing zero, both); a leading zero
    gives the same correction with or without a trailing one.
    """
    blocks = spec.blocks
    n = len(blocks)
    if not _is_reduced_base_shape(blocks):
        raise ShapeMismatch(f"{spec} is not a reduced shape")
    if not 1 <= i <= n or blocks[i - 1] != -1:
        raise ShapeMismatch(f"block {i} of {spec} is not -1")
    if blocks[0] == 0:
        corr = -((-1) ** n) * monomial_pow(1, 1, 1, i - 2)
    elif blocks[-1] == 0:
        corr = monomial_pow(1, 1, 1, n - i - 1)
    else:
        corr = -monomial_pow(1, 1, 1, n - i)
    flipped = TwistSpec(blocks[: i - 1] + (1,) + blocks[i:], spec.clasp)
    return flipped, corr


def _is_reduced_base_shape(blocks) -> bool:
    if any(b not in (-1, 0, 1) for b in blocks):
        return False
    inner = blocks[1:-1] if len(blocks) >= 2 else ()
    return not any(b == 0 for b in inner)


def evaluate_recursive(spec: TwistSpec) -> LaurentPoly:
    """Diagram-level dbar via the 4-step algorithm (clasps ``a`` and ``ab``).

    Other clasps are rewritten through their clasp identity first; their
    result then carries the symmetry transform and is canonical only after
    normalization.

    Loop: recursion step, contraction, base-shape check; then flip any
    negative singleton blocks and apply the closed forms.  Each full pass
    strictly reduces crossing counts; the iteration cap guards convention
    bugs.
    """
    if spec.clasp not in ("a", "ab"):
        base, transform = clasp_identity(spec)
        return transform(evaluate_recursive(base))

    factor = ONE
    acc = ZERO  # running answer is factor * dbar(current) + acc
    current = spec
    cap = current.m + current.n + 1
    for _ in range(cap):
        if _is_reduced_base_shape(current.blocks):
            break
        reduced, f, corr = recursion_step(current)
        factor = factor * f
        if corr:
            acc = acc + factor * corr
        current, f2 = contract(reduced)
        factor = factor * f2
    else:
        raise InfiniteReduction(f"{spec} did not reduce within {cap} passes")

    for i, b in enumerate(current.blocks, start=1):
        if b == -1:
            current, corr = negative_flip(current, i)
            if spec.clasp == "a" and corr:
                acc = acc + factor * corr
    base = base_delta_bar(current) if spec.clasp == "a" else vtab_delta_bar(current)
    return factor * base + acc


def _identity(p: LaurentPoly) -> LaurentPoly:
    return p


def mirror_invariant(p: LaurentPoly) -> LaurentPoly:
    """Map an invariant to that of the mirror image (every crossing switched).

    p(u, v) -> -p(v, u); like the clasp identities, it holds up to units.
    """
    return -p.substituted_swap()


def clasp_identity(spec: TwistSpec):
    """Rewrite any clasp onto {a, ab}; returns (spec, polynomial transform).

    The ``b``-side clasps mirror every crossing, so their transform is
    ``mirror_invariant``: p(u, v) -> -p(v, u).  It applies verbatim to dbar as
    well since the knot factor (u-1)(v-1)(uv-1) is (up to sign) symmetric
    under the swap.  Mirroring also negates the odd writhe.
    """
    if spec.clasp in ("a", "ab"):
        return spec, _identity
    if spec.clasp == "^a":
        return TwistSpec(spec.blocks + (0,), "a"), _identity
    if spec.clasp == "b":
        return TwistSpec(tuple(-b for b in spec.blocks), "a"), mirror_invariant
    if spec.clasp == "^b":
        return TwistSpec(tuple(-b for b in spec.blocks) + (0,), "a"), mirror_invariant
    # ba: lengthen the final block by a half-twist
    return TwistSpec(spec.blocks[:-1] + (spec.blocks[-1] + 1,), "ab"), _identity


def ow_closed_form(spec: TwistSpec) -> int:
    """Odd writhe of VT_a(a_1..a_n): sum(a_i) + p(sum(a_i)) * (-1)^{s(n)}.

    Clasps ``^a``, ``b`` and ``^b`` are rewritten through ``clasp_identity``;
    mirroring negates the odd writhe.  ``ab``/``ba`` have no closed form and
    raise UnsupportedClasp.
    """
    base, transform = clasp_identity(spec)
    if base.clasp != "a":
        raise UnsupportedClasp(f"no odd-writhe closed form for clasp {spec.clasp!r}")
    total = sum(base.blocks)
    s_n = total + base.n
    ow = total + _p(total) * (1 if s_n % 2 == 0 else -1)
    return -ow if transform is mirror_invariant else ow


def spec_report(spec: TwistSpec) -> InvariantReport:
    """The invariant report of a twist knot, from the recursion and closed forms.

    dbar is ``evaluate_recursive(spec)`` and Delta_0 is KNOT_FACTOR * dbar;
    for ``ab``/``ba``, which have no odd-writhe closed form, the odd writhe
    and the verdict stay None.
    """
    dbar = evaluate_recursive(spec)
    try:
        ow = ow_closed_form(spec)
    except UnsupportedClasp:
        ow = None
    return InvariantReport.of(format_spec(spec), KNOT_FACTOR * dbar, dbar, True, ow)
