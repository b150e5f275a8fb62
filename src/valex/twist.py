"""Virtual twist knots: generators, closed forms, and the recursion engine.

``evaluate_recursive`` (and ``spec_report``, which wraps it) is the
recursion's public entry and the one way to get dbar of a spec, base shapes
included.  It makes one call per spec for every clasp: ``clasp_identity``
rewrites the spec onto clasp ``a`` or ``ab`` once, and the rest runs on the
rewritten blocks in the same call.  Its two steps are private, work on
block tuples and add their corrections into one running dict at the
running unit: the pass ``_step`` (the recursion step and the contraction,
in one walk over the blocks, which carries the paper's parity formulas) and
the finish ``_closed_form``, which holds the base families and the flip
rule, over the sums ``_triangle`` and ``_square``, and writes a mirrored
clasp's answer mirrored.

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

import operator
import re
from itertools import repeat
from typing import NamedTuple

from .alexander import InvariantReport
from .diagram import Diagram, Passage, mirror_all
from .errors import InfiniteReduction, InvalidArgument, ParseError, UnsupportedClasp
from .laurent import LaurentPoly

__all__ = [
    "CLASPS",
    "MAX_SPEC_BLOCKS",
    "MAX_SPEC_CROSSINGS",
    "TwistSpec",
    "parse_spec",
    "generate_twist",
    "evaluate_recursive",
    "clasp_identity",
    "ow_closed_form",
    "spec_report",
]

CLASPS = ("a", "^a", "b", "^b", "ab", "ba")

# parse_spec's caps.  With n blocks dbar can have about n^2 terms, and
# `valex twist` builds one diagram crossing per twist crossing; at the caps
# `valex compute --spec` and `valex twist` each take well under a second
# (README, "Twist specs").
MAX_SPEC_BLOCKS = 400
MAX_SPEC_CROSSINGS = 100_000


# A NamedTuple body may not define __new__, so TwistSpec validates in a subclass.
class _TwistFields(NamedTuple):
    blocks: tuple
    clasp: str


class TwistSpec(_TwistFields):
    """Block lengths with signs plus a clasp tag.

    ``TwistSpec(blocks, clasp)`` checks its input; a spec derived from a
    checked one is built with ``TwistSpec._make``, which skips the checks.
    """

    __slots__ = ()

    def __new__(cls, blocks, clasp: str = "a"):
        try:
            ints = tuple(operator.index(b) for b in blocks)
        except TypeError:
            raise InvalidArgument(f"twist blocks must be integers, got {blocks!r}") from None
        if len(ints) < 1:
            raise InvalidArgument("a twist spec needs at least one block")
        if clasp not in CLASPS:
            raise InvalidArgument(f"unknown clasp {clasp!r}; expected one of {CLASPS}")
        return super().__new__(cls, ints, clasp)

    @property
    def n(self) -> int:
        return len(self.blocks)

    def __str__(self):
        return f"VT[{self.clasp}]({','.join(map(str, self.blocks))})"


_SPEC_RE = re.compile(r"\s*VT(?:\[(\^?[ab]{1,2})\])?\s*\(([^)]*)\)\s*$", re.IGNORECASE)


def parse_spec(text: str) -> TwistSpec:
    """Parse ``VT[a](7,4,3,5,9)``; the clasp tag defaults to ``a``.

    The block list is ASCII: blocks are written in the digits 0-9, as
    ``str(spec)`` prints them, with no ``_`` separator.

    A spec with more than ``MAX_SPEC_BLOCKS`` blocks or more than
    ``MAX_SPEC_CROSSINGS`` twist crossings raises ParseError.  These checks
    cover the constructor's, so the result is built without repeating them.
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise ParseError(f"not a twist spec: {text!r}", 0)
    clasp = (m.group(1) or "a").lower()
    if clasp not in CLASPS:
        raise ParseError(f"unknown clasp tag {clasp!r}", text.index("["))
    raw = m.group(2)
    body = raw.strip()
    if not body:
        raise ParseError("twist spec needs at least one block", text.index("("))
    if not body.isascii() or "_" in body:  # int() reads both, str(spec) prints neither
        bad = next(i for i, c in enumerate(body) if c == "_" or not c.isascii())
        raise ParseError(f"bad character {body[bad]!r} in block list",
                         m.start(2) + raw.index(body) + bad)
    try:
        blocks = tuple(map(int, body.split(",")))  # int() strips the blanks
    except ValueError:
        raise ParseError(f"bad block list {body!r}", text.index("(")) from None
    if len(blocks) > MAX_SPEC_BLOCKS:
        raise ParseError(f"{len(blocks)} blocks exceed the cap of {MAX_SPEC_BLOCKS}",
                         text.index("("))
    crossings = sum(map(abs, blocks))
    if crossings > MAX_SPEC_CROSSINGS:
        raise ParseError(f"{crossings} twist crossings exceed the cap of {MAX_SPEC_CROSSINGS}",
                         text.index("("))
    return TwistSpec._make((blocks, clasp))


# -- parity bookkeeping --------------------------------------------------------

def _parity(a: tuple) -> tuple:
    """The partial sums and parity counts that describe a twist diagram.

    Returns (s, delta, half_sum) for the blocks a_1..a_n, in time linear in
    n: s[i] = sum_{j<=i} (a_j + 1) with s[0] = 0, delta = sum_j p(a_j)
    p(s(j)) and half_sum = sum_i floor(|a_i| / 2).  ``x & y & 1`` is
    p(x) p(y).  The recursion's pass carries the same sums itself (``_step``).
    """
    s = [0]
    delta = 0
    for b in a:
        s.append(s[-1] + b + 1)
        delta += b & s[-1] & 1
    return tuple(s), delta, sum(abs(b) // 2 for b in a)


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
        base, mirrored = clasp_identity(spec)
        if base.clasp != "a":
            raise UnsupportedClasp(f"no diagram generator for clasp {spec.clasp!r}")
        d = generate_twist(base)
        return mirror_all(d) if mirrored else d

    s = _parity(spec.blocks)[0]
    # block j's crossings run over r = s(j-1) .. s(j-1)+|a_j|-1 and are type 1
    # where r is even, so the odd strand passes over where r is odd in a
    # positive block and where r is even in a negative one
    over = [(r & 1) == (b > 0) for start, b in zip(s, spec.blocks)
            for r in range(start, start + abs(b))]
    m = len(over)
    signs = [-1 if s[-1] & 1 else 1]  # c_1, then c_2..c_{m+1} left to right
    for b in spec.blocks:
        signs += [1 if b > 0 else -1] * abs(b)
    # tuple.__new__(Passage, (c, flag)) is Passage(c, flag) without a
    # Python-level call per passage
    new = tuple.__new__
    passages = (*map(new, repeat(Passage), enumerate(over, 2)),  # odd strand, left to right
                Passage(1, False),  # clasp, x_{2m+1} -> x_{2m+2}, under
                *map(new, repeat(Passage),  # even strand, right to left
                     zip(range(m + 1, 1, -1), map(operator.not_, reversed(over)))),
                Passage(1, True))  # clasp, x_2 -> x_1, over
    labels = (*range(3, 2 * m + 2, 2), 2 * m + 2, *range(2 * m, 0, -2), 1)
    # a checked spec gives a valid diagram, so the constructor's checks are skipped
    return Diagram._raw((passages,), dict(enumerate(signs, 1)), labels)


# -- closed-form base families -----------------------------------------------------

def _triangle(m: int, u_outer: bool, c: int, du: int, dv: int) -> dict:
    """c u^du v^dv sum_{i=0}^{m-1} sum_{j=i}^{m-1} outer^i inner^j, as a term dict.

    (outer, inner) is (u, v) when ``u_outer`` and (v, u) otherwise, so the
    exponent pairs (i, j) run over i <= j < m or j <= i < m.
    """
    return {(i + du, j + dv): c for i in range(m)
            for j in (range(i, m) if u_outer else range(i + 1))}


def _square(t: int, c: int, d: int) -> dict:
    """c (uv)^d sum_{i=0}^{t} sum_{j=0}^{t} u^i v^j, as a term dict."""
    return {(i + d, j + d): c for i in range(t + 1) for j in range(t + 1)}


def _closed_form(blocks: tuple, clasp: str, k: int, acc: dict, mirrored: bool) -> dict:
    """R = (-uv)^k dbar(blocks) + sum_e acc[e] (uv)^e as a fresh term dict,
    or the mirror image's -R(v, u) when ``mirrored``.

    ``blocks`` is a reduced base shape of clasp ``a`` or ``ab``: in
    {-1, 0, 1}, with zeros only at the ends.  The end zeros pick the base
    family: 1 (none), 2 (leading; also the shape (0,)), 3 (trailing), 4
    (both), and m is the number of nonzero blocks.  dbar of the shape with
    every -1 turned into +1 is a double sum for clasp ``a`` and a square for
    ``ab``; families 2 and 4 carry the sign (-1)^m.  The unit (-uv)^k adds k
    to both exponents and (-1)^k to the coefficient.

    For clasp ``a``, each -1 adds a flip correction: with the -1 in block i
    of the n blocks turned into +1, dbar(blocks) = dbar(flipped) + c (uv)^e,
    where by the family

        family        e            c
        1             n - i        -1
        2 and 4       i - 2        (-1)^(n+1)
        3             n - i - 1    +1

    A flip keeps n and both end blocks, so all flips of a shape read one
    row.  For clasp ``ab`` a -1 reads as +1.  The flip corrections go into
    ``acc``, which the caller hands over, and ``acc`` is added on the
    diagonal; a term that cancels is dropped.

    The mirror p(u, v) -> -p(v, u) is written in the same pass: the
    triangle's outer and inner variables swap, and with them its shifts
    du and dv, its coefficient is negated and ``acc`` is subtracted.  The
    square and the diagonal are symmetric, so they only change sign.
    """
    n = len(blocks)
    lead = blocks[0] == 0
    trail = blocks[-1] == 0 and n > 1
    m = n - lead - trail
    sign = -1 if k & 1 else 1
    unit = -1 if mirrored else 1  # the mirror's sign on every term
    c = (-sign if m * lead & 1 else sign) * unit
    if clasp == "a":
        outer = lead != mirrored  # True when u is the outer variable
        if lead == trail:  # families 1 and 4
            out = _triangle(m, outer, c, k, k)
        else:  # families 2 and 3, one more power of the inner variable
            out = _triangle(m - 1, outer, c, k + 1 - outer, k + outer)
        if -1 in blocks:  # the flip table's row as e = e0 + step * i and c = f
            if lead:
                e0, step, f = k - 2, 1, (sign if n & 1 else -sign)
            else:
                e0, step, f = k + n - trail, -1, (sign if trail else -sign)
            for i, b in enumerate(blocks, 1):
                if b < 0:
                    e = e0 + step * i
                    acc[e] = acc.get(e, 0) + f
    else:
        # the square's side is m - 2 in family 1, m - 1 in families 2 and 3
        # and m in family 4, which alone starts at (uv)^k rather than (uv)^(k+1)
        out = _square(m - 2 + lead + trail, c, k + 1 - (lead and trail))
    for e, c in acc.items():
        c = out.get((e, e), 0) + unit * c
        if c:
            out[e, e] = c
        else:
            out.pop((e, e), None)
    return out


# -- recursion engine ---------------------------------------------------------------

def _step(blocks: tuple, clasp: str, k: int, acc: dict) -> tuple:
    """One pass of the twist recursion, which keeps the running answer R.

    The pass writes dbar(blocks) = (-uv)^j dbar(out) + sum_e c (uv)^e, so it
    adds each c into ``acc`` as (-1)^k c at e + k (a sum that cancels stays
    as a 0 entry) and returns (out, k + j); see ``evaluate_recursive``.

    The pass reduces each block a_i to sgn(a_i) p(a_i) at a factor of
    (-uv)^{floor(|a_i|/2)} and a correction of sgn(a_i) floor(|a_i|/2)
    (-1)^{delta+s(n)} (uv)^{eps(i)}, where (see ``_parity``)

        epsilon(i) = p(s(i-1)) - 1 + sum_{j<i} p(a_j) p(s(j))
                                   + sum_{j>=i} p(a_j) p(1 + s(j-1));

    the reduced vector is then contracted: each interior empty block is
    removed by merging its neighbours, left to right, so a merge that sums
    to zero merges with the next block.  Contraction is a virtual move, but
    a merge that juxtaposes opposite-sign crossings costs one Reidemeister-II
    move, a factor of -uv.  So j is sum_i floor(|a_i|/2) plus the
    cancellations, and the corrections carry the pass's own factor
    (-uv)^{sum_i floor(|a_i|/2)}.  For clasp ``ab`` there is no correction
    (the smoothed links are classical Hopf links).

    All of it is one walk over the blocks.  It carries p(s(i-1)) as ``s``,
    the prefix sum of epsilon(i) and the suffix sum's terms so far, whose
    total is known only at the end: each correction is kept as epsilon(i)
    minus that total, and the total is added once.  The contracted vector is
    ``out`` plus ``gap``, an empty block after ``out[-1]`` not yet merged.
    A reduced block is 0 or +-1, so an odd block after a gap cancels when
    the block it merges with has the other sign, at a cost of exactly one.
    """
    s = prefix = suffix = half_sum = cancels = 0
    gap = False
    out = []
    pending = []  # (epsilon(i) minus the suffix total, weight) for floor(|a_i|/2) != 0
    for b in blocks:
        h = abs(b) >> 1
        if h:
            half_sum += h
            pending.append((s - 1 + prefix - suffix, h if b > 0 else -h))
        if b & 1:  # p(s(i)) = s, so the prefix term is s and the suffix's 1 - s
            prefix += s
            suffix += s ^ 1
            y = 1 if b > 0 else -1
            if gap:
                x = out.pop()
                if x * y < 0:
                    cancels += 1
                y += x
                if y or not out:
                    out.append(y)
                    gap = False
            else:
                out.append(y)
        else:  # an empty reduced block
            s ^= 1
            if gap:  # x, 0, 0 merges to x
                gap = False
            elif out:  # merged at the next block, or kept at the end
                gap = True
            else:  # a leading zero stays
                out.append(0)
    if gap:
        out.append(0)
    k += half_sum  # the pass's own factor (-uv)^half_sum, which its corrections carry
    if clasp != "ab":
        shift = suffix + k
        sign = -1 if (k + prefix + s) & 1 else 1  # prefix is delta, s is p(s(n))
        for e, w in pending:
            e += shift
            acc[e] = acc.get(e, 0) + sign * w
    return tuple(out), k + cancels


def evaluate_recursive(spec: TwistSpec) -> LaurentPoly:
    """Diagram-level dbar via the 4-step algorithm, in one call for every clasp.

    ``clasp_identity`` rewrites the spec onto clasp ``a`` or ``ab`` once, and
    the rest runs on the rewritten blocks in this call: nothing calls
    ``evaluate_recursive`` again.  The finish writes a mirrored clasp's
    result mirrored, so, like every result, it is canonical only after
    normalization.

    Loop: base-shape check (blocks in {-1, 0, 1}, zeros only at the ends),
    then one pass (``_step``: the recursion step and the contraction).  Each
    pass strictly reduces crossing counts; the iteration cap, computed on
    the rewritten blocks, guards convention bugs.  Every factor is a power
    of -uv and every correction a polynomial in uv, so the running answer
    R = (-uv)^k dbar(blocks) + sum_e acc[e] (uv)^e is carried as the int k
    and one dict.  It starts at dbar (k = 0, ``acc`` empty); each pass and
    the finish ``_closed_form`` (the base families and the flip rule) add
    their corrections into ``acc`` and keep R, and the finish returns it,
    or for a mirrored clasp -R(v, u), with no second dict.
    """
    (blocks, clasp), mirrored = clasp_identity(spec)
    k = 0
    acc = {}
    base_values = {-1, 0, 1}
    cap = sum(map(abs, blocks)) + len(blocks) + 1
    for _ in range(cap):
        if base_values.issuperset(blocks) and 0 not in blocks[1:-1]:
            break
        blocks, k = _step(blocks, clasp, k, acc)
    else:
        raise InfiniteReduction(f"{spec} did not reduce within {cap} passes")

    return LaurentPoly._raw(_closed_form(blocks, clasp, k, acc, mirrored))


def clasp_identity(spec: TwistSpec):
    """Rewrite any clasp onto {a, ab}; returns (spec, mirrored).

    The ``b``-side clasps mirror every crossing (``mirrored`` is True), so
    their invariants come from the base spec's by the mirror map
    p(u, v) -> -p(v, u), which ``evaluate_recursive``'s finish writes as it
    builds dbar; like the other identities it holds up to units.  It
    applies verbatim to dbar as well since the knot factor (u-1)(v-1)(uv-1)
    is (up to sign) symmetric under the swap.  Mirroring also negates the
    odd writhe.
    """
    if spec.clasp in ("a", "ab"):
        return spec, False
    if spec.clasp == "^a":
        return TwistSpec._make((spec.blocks + (0,), "a")), False
    if spec.clasp == "b":
        return TwistSpec._make((tuple(map(operator.neg, spec.blocks)), "a")), True
    if spec.clasp == "^b":
        return TwistSpec._make(((*map(operator.neg, spec.blocks), 0), "a")), True
    # ba: lengthen the final block by a half-twist
    return TwistSpec._make((spec.blocks[:-1] + (spec.blocks[-1] + 1,), "ab")), False


def ow_closed_form(spec: TwistSpec) -> int:
    """Odd writhe of VT_a(a_1..a_n): sum(a_i) + p(sum(a_i)) * (-1)^{s(n)}.

    Clasps ``^a``, ``b`` and ``^b`` are rewritten through ``clasp_identity``;
    mirroring negates the odd writhe.  ``ab``/``ba`` have no closed form and
    raise UnsupportedClasp.
    """
    base, mirrored = clasp_identity(spec)
    if base.clasp != "a":
        raise UnsupportedClasp(f"no odd-writhe closed form for clasp {spec.clasp!r}")
    total = sum(base.blocks)
    s_n = total + base.n
    ow = total + (total & 1) * (1 if s_n % 2 == 0 else -1)
    return -ow if mirrored else ow


def spec_report(spec: TwistSpec) -> InvariantReport:
    """The invariant report of a twist knot, from the recursion and closed forms.

    dbar is ``evaluate_recursive(spec)`` and Delta_0 is KNOT_FACTOR * dbar,
    built when the report's ``delta0`` is first read; for ``ab``/``ba``,
    which have no odd-writhe closed form, the odd writhe and the verdict
    stay None.
    """
    dbar = evaluate_recursive(spec)
    try:
        ow = ow_closed_form(spec)
    except UnsupportedClasp:
        ow = None
    return InvariantReport(str(spec), None, dbar, True, ow)
