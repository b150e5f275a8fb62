import itertools
import random

import pytest

from valex.diagram import Diagram, Passage, _component_arcs
from valex.errors import InvalidArgument
from valex.laurent import LaurentPoly, ONE, U, V, ZERO


def read_poly(text: str) -> LaurentPoly:
    """A polynomial from its printed form, read by Python's parser with ``^`` as ``**``."""
    return ZERO + eval(text.replace("^", "**"), {"__builtins__": {}, "u": U, "v": V})


def make_random_diagram(rng: random.Random, n: int, n_comp: int = 1) -> Diagram:
    """A random valid signed Gauss diagram with n crossings.

    The 2n passages are cut into ``n_comp`` nonempty components, so
    1 <= n_comp <= 2n.
    """
    if not 1 <= n_comp <= 2 * n:
        raise ValueError(f"n_comp must be in 1..{2 * n} (2n) for n = {n}, got {n_comp}")
    toks = [(c, True) for c in range(1, n + 1)] + [(c, False) for c in range(1, n + 1)]
    while True:
        rng.shuffle(toks)
        if n_comp == 1:
            comps = [toks[:]]
        else:
            cuts = sorted(rng.sample(range(1, 2 * n), n_comp - 1))
            comps = [toks[a:b] for a, b in zip([0] + cuts, cuts + [2 * n])]
        if not all(comps):
            continue
        signs = {c: rng.choice([1, -1]) for c in range(1, n + 1)}
        return Diagram(
            [[Passage(c, o) for c, o in comp] for comp in comps], signs
        )


# -- diagram moves -------------------------------------------------------------
#
# The Reidemeister, crossing-change, smoothing and reversal moves that the
# law tests apply to diagrams.  Each returns a new, checked Diagram.

KINK_KINDS = ("Ia", "Ib", "Ic", "Id")

# kind -> (crossing sign, over strand on first passage?); fixed so that the
# determinant factors are uv for Ia/Ib and -1 for Ic/Id
_KINK_TABLE = {
    "Ia": (1, True),
    "Ib": (-1, False),
    "Ic": (-1, True),
    "Id": (1, False),
}


def switch_crossing(d: Diagram, cid: int) -> Diagram:
    """Swap over/under on both passages of ``cid`` and negate its sign."""
    if cid not in d.signs:
        raise InvalidArgument(f"no crossing {cid}")
    comps = [
        [Passage(p.crossing, not p.over) if p.crossing == cid else p for p in comp]
        for comp in d.components
    ]
    signs = dict(d.signs)
    signs[cid] = -signs[cid]
    return Diagram(comps, signs, d.arc_labels)


def mirror_all(d: Diagram) -> Diagram:
    """Switch every classical crossing (the diagram D# of the symmetry laws).

    The reference for the ``b``-side clasps, which ``generate_twist`` writes
    mirrored in its one pass.
    """
    comps = [[Passage(p.crossing, not p.over) for p in comp] for comp in d.components]
    signs = {cid: -s for cid, s in d.signs.items()}
    return Diagram(comps, signs, d.arc_labels)


def reverse_orientation(d: Diagram) -> Diagram:
    """Reverse every component; over/under flags and signs are kept.

    The arcs are numbered afresh in traversal order (the old labels referred
    to the old traversal).
    """
    comps = [tuple(reversed(comp)) for comp in d.components]
    return Diagram(comps, dict(d.signs))


def _insert_after(d: Diagram, inserts: dict, new_signs: dict) -> Diagram:
    """Place ``inserts[t]``, a list of passages, right after traversal position t.

    Each insertion splits the arc leaving t.  That arc keeps its label, shifted
    up by the slots opened below it; the inserted passages leave on the next
    labels in order, and every old label above a split arc moves up to make
    room.  Both Reidemeister insertions use this rule.
    """
    outs = d.arc_labels
    cuts = [(outs[t], len(ps)) for t, ps in inserts.items()]
    comps, labels, t = [], [], 0
    for comp in d.components:
        new = []
        for p in comp:
            label = outs[t] + sum(k for cut, k in cuts if cut < outs[t])
            extra = inserts.get(t, [])
            new += [p, *extra]
            labels += range(label, label + len(extra) + 1)
            t += 1
        comps.append(new)
    return Diagram(comps, {**d.signs, **new_signs}, labels)


def _passage_leaving(outs: tuple, arc) -> int:
    """Traversal position of the passage that leaves on ``arc``."""
    try:
        return outs.index(arc)
    except ValueError:
        raise InvalidArgument(f"no arc {arc}") from None


def add_kink(d: Diagram, arc: int, kind: str) -> Diagram:
    """Insert a Reidemeister-I kink on the given arc.

    The new crossing is visited twice in a row; ``kind`` selects the sign and
    which passage is over (Ia: +/over-first, Ib: -/over-second,
    Ic: -/over-first, Id: +/over-second), so the determinant factors are
    uv, uv, -1, -1 respectively.  The split arc keeps its label; the loop and
    the outgoing half take the next two label slots, which keeps the factor
    exact under the canonical column order.
    """
    if kind not in _KINK_TABLE:
        raise InvalidArgument(f"unknown kink kind {kind!r} (expected one of {KINK_KINDS})")
    sign, over_first = _KINK_TABLE[kind]
    t = _passage_leaving(d.arc_labels, arc)
    new_id = max(d.signs) + 1
    kink = [Passage(new_id, over_first), Passage(new_id, not over_first)]
    return _insert_after(d, {t: kink}, {new_id: sign})


class CrossingFreeLoop(Exception):
    """``smooth_crossing`` would leave a component without classical crossings."""


def smooth_crossing(d: Diagram, cid: int) -> Diagram:
    """Oriented smoothing: delete both passages of ``cid`` and reconnect.

    The strand entering on the over passage continues into the strand that
    exited on the under side (and vice versa), so the component count changes
    by one and the arcs merge pairwise: (in_under, out_over) and
    (in_over, out_under), in positive-crossing terms.

    Labels: x and y are the arcs leaving the passages that are over and
    under in the crossing's positive form.  Every surviving passage keeps
    its out-arc; x and y are dropped, the rest are renumbered 1..2n-2 in
    ascending order, and labels 1 and 2 trade places when x + y is even and
    x < y, or odd and x > y.  This makes the skein identity
    det(L+) - det(L-) = (uv-1) det(L0) exact.  L+ and L- differ only in the
    crossing's B row.  Add columns x and y to the columns of the arcs they
    merge into: the A row, in_under + u*in_over - u*y - x, and B+ - B-,
    -in_over + v*x - v*in_under + y, then lie in columns x and y alone, as
    [[-1, -u], [v, 1]] of determinant uv - 1 (uv - 1 also in the role
    coincidences in_under = out_under and in_over = out_over), and deleting
    those rows and columns leaves L0's matrix.  Laplace expansion along the
    two adjacent rows gives det(L+) - det(L-) = -(-1)^(x+y) * (+-1) *
    (uv-1) * det(L0), with +1 if x < y and -1 otherwise; trading labels 1
    and 2 negates det(L0).
    """
    if cid not in d.signs:
        raise InvalidArgument(f"no crossing {cid}")
    out_of, at = {}, {}  # passage -> its out-arc; over? -> (component, position)
    for ci, (comp, _, outs) in enumerate(_component_arcs(d)):
        for pi, p in enumerate(comp):
            out_of[p] = outs[pi]
            if p.crossing == cid:
                at[p.over] = ci, pi
    (oci, opi), (uci, upi) = at[True], at[False]
    positive = d.signs[cid] > 0
    x, y = out_of.pop(Passage(cid, positive)), out_of.pop(Passage(cid, not positive))

    # new passage structure
    comps = [list(comp) for comp in d.components]
    if oci == uci:
        comp = comps[oci]
        k = len(comp)
        a, b = opi, upi
        outer = [comp[(b + 1 + t) % k] for t in range((a - b - 1) % k)]
        inner = [comp[(a + 1 + t) % k] for t in range((b - a - 1) % k)]
        if not outer or not inner:
            raise CrossingFreeLoop(f"smoothing crossing {cid} creates a crossing-free loop")
        new_comps = comps[:oci] + [outer, inner] + comps[oci + 1:]
    else:
        over_comp, under_comp = comps[oci], comps[uci]
        if len(over_comp) == 1 and len(under_comp) == 1:
            raise CrossingFreeLoop(f"smoothing crossing {cid} creates a crossing-free loop")
        ka, kb = len(over_comp), len(under_comp)
        a, b = opi, upi
        merged = [over_comp[(a + 1 + t) % ka] for t in range(ka - 1)] + [
            under_comp[(b + 1 + t) % kb] for t in range(kb - 1)
        ]
        lo, hi = min(oci, uci), max(oci, uci)
        new_comps = comps[:lo] + [merged] + comps[lo + 1: hi] + comps[hi + 1:]

    signs = {c: s for c, s in d.signs.items() if c != cid}
    keep = sorted(out_of.values())  # every arc but x and y
    if (x + y) % 2 == (x > y):
        keep[0], keep[1] = keep[1], keep[0]
    rank = {a: r for r, a in enumerate(keep, 1)}
    return Diagram(new_comps, signs, [rank[out_of[p]] for comp in new_comps for p in comp])


def add_r2(d: Diagram, over_arc: int, under_arc: int) -> Diagram:
    """Insert an antiparallel Reidemeister-II pair: one strand pokes over another.

    The strand through ``over_arc`` goes over both new crossings (signs -,+
    along it); the strand through ``under_arc`` runs the other way through
    them.  Labels are assigned so that det(result) = (-uv) det(d) exactly.
    """
    if over_arc == under_arc:
        raise InvalidArgument("R2 insertion needs two distinct arcs")
    outs = d.arc_labels
    t_over = _passage_leaving(outs, over_arc)
    t_under = _passage_leaving(outs, under_arc)
    id1 = max(d.signs) + 1  # first along the over strand, negative
    id2 = id1 + 1
    # along each strand the over arc splits into labels (x1, x2, x3) and the
    # under arc into (y1, y2, y3); fronting (x1, y3, x2, y2, x3, y1) has the
    # sign of fronting (over_arc, under_arc): 6 or 9 inversions
    return _insert_after(
        d,
        {t_over: [Passage(id1, True), Passage(id2, True)],
         t_under: [Passage(id2, False), Passage(id1, False)]},
        {id1: -1, id2: 1},
    )


def _chord_matchings(points: list):
    """Every perfect matching of the points, as pairs in order of first point."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k, other in enumerate(rest):
        for tail in _chord_matchings(rest[:k] + rest[k + 1:]):
            yield [(first, other)] + tail


def all_diagrams(n: int, n_comp: int = 1):
    """Every based signed Gauss diagram with n crossings and n_comp components.

    Crossings are numbered by first visit, so a diagram is a chord matching
    of the 2n passages, the over end of each chord, a sign per crossing and
    n_comp - 1 cuts between consecutive passages: (2n-1)!! * 4**n knots
    (4, 48, 960 for n = 1, 2, 3), in a fixed order.
    """
    for cuts in itertools.combinations(range(1, 2 * n), n_comp - 1):
        bounds = list(zip((0,) + cuts, cuts + (2 * n,)))
        for chords in _chord_matchings(list(range(2 * n))):
            for overs in itertools.product((True, False), repeat=n):
                seq = [None] * (2 * n)
                for cid, ((a, b), first_over) in enumerate(zip(chords, overs), 1):
                    seq[a] = Passage(cid, first_over)
                    seq[b] = Passage(cid, not first_over)
                comps = [seq[lo:hi] for lo, hi in bounds]
                for signs in itertools.product((1, -1), repeat=n):
                    yield Diagram(comps, dict(enumerate(signs, 1)))


def genus(d: Diagram) -> int:
    """Genus of the diagram's Carter surface: 0 exactly when the code is classical.

    The surface is the ribbon graph of the code (Kamada-Kamada, "Abstract
    link diagrams and virtual knots", JKTR 2000): a vertex per crossing with
    the counterclockwise half-edge order (out_over, out_under, in_over,
    in_under) if positive and (out_under, out_over, in_under, in_over) if
    negative, and an edge per arc.  With F faces and P connected pieces
    (components joined by crossings), V - E + F = n - 2n + F = 2P - 2g.
    """
    turn = {}  # half-edge (crossing, over, outgoing) -> next one counterclockwise
    for cid, sign in d.signs.items():
        order = [(cid, True, True), (cid, False, True), (cid, True, False), (cid, False, False)]
        if sign < 0:
            order = [order[1], order[0], order[3], order[2]]
        turn.update(zip(order, order[1:] + order[:1]))
    other_end = {}
    for comp in d.components:
        for p, q in zip(comp, comp[1:] + comp[:1]):
            out, into = (p.crossing, p.over, True), (q.crossing, q.over, False)
            other_end[out], other_end[into] = into, out
    faces, seen = 0, set()
    for start in turn:
        if start not in seen:
            faces += 1
            h = start
            while h not in seen:
                seen.add(h)
                h = turn[other_end[h]]
    root = list(range(d.n_components))  # union-find over the components

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    first_seen = {}
    for k, comp in enumerate(d.components):
        for p in comp:
            root[find(first_seen.setdefault(p.crossing, k))] = find(k)
    pieces = sum(find(k) == k for k in range(d.n_components))
    return (2 * pieces + d.n_crossings - faces) // 2


def make_over_only_link(rng: random.Random, n: int, n_over: int) -> Diagram:
    """A random two-component diagram with n crossings whose first component
    only passes over, through crossings 1..n_over."""
    first = [(c, True) for c in range(1, n_over + 1)]
    second = [(c, False) for c in range(1, n_over + 1)]
    second += [(c, o) for c in range(n_over + 1, n + 1) for o in (True, False)]
    rng.shuffle(first)
    rng.shuffle(second)
    signs = {c: rng.choice([1, -1]) for c in range(1, n + 1)}
    return Diagram([[Passage(c, o) for c, o in comp] for comp in (first, second)], signs)


def sparse_rows(dense: list) -> list:
    """The ``{column: terms}`` rows ``determinant`` takes, from rows of LaurentPoly."""
    return [{j: dict(e.items()) for j, e in enumerate(row) if e} for row in dense]


def determinant_cofactor(m: list) -> LaurentPoly:
    """Naive cofactor expansion of sparse rows; the independent oracle for small orders."""

    def rec(rs, cols):
        if len(cols) == 1:
            return LaurentPoly(rs[0].get(cols[0], {}))
        total = ZERO
        sub = rs[1:]
        for pos, c in enumerate(cols):
            if c not in rs[0]:
                continue
            minor = rec(sub, cols[:pos] + cols[pos + 1:])
            term = LaurentPoly(rs[0][c]) * minor
            total = total + term if pos % 2 == 0 else total - term
        return total

    n = len(m)
    if n == 0:
        return ONE
    return rec(m, list(range(n)))


def mirror_invariant(p: LaurentPoly) -> LaurentPoly:
    """p(u, v) -> -p(v, u), the invariant of the mirror image (every crossing
    switched).

    The reference for the ``b``-side clasp identity, which
    ``evaluate_recursive`` writes in its finish; like the clasp identities,
    it holds up to units.
    """
    return LaurentPoly({(j, i): -c for (i, j), c in p.items()})


def base_end_zeros(blocks) -> tuple:
    """(leading zero, trailing zero) of a base shape: blocks in {0, 1} with
    zeros only at the ends.  A single block counts as leading only."""
    if not (set(blocks) <= {0, 1} and all(blocks[1:-1])):
        raise ValueError(f"{blocks} is not a base shape")
    return blocks[0] == 0, len(blocks) > 1 and blocks[-1] == 0


def base_closed_form(spec) -> LaurentPoly:
    """Diagram-level Delta_0 of a clasp-a base shape (not normalized).

    The paper's closed forms, written out as polynomials, one per pattern of
    end zeros; the oracle that the generated diagrams and the recursion's
    base values are checked against.
    """
    if spec.clasp != "a":
        raise ValueError(f"base families are clasp-a specs, got {spec.clasp!r}")
    lead, trail = base_end_zeros(spec.blocks)
    m = sum(spec.blocks)
    u, v = U, V
    if not lead and not trail:
        return -ONE + u ** m + v - u ** (m + 1) * v - u ** m * v ** (m + 1) \
            + u ** (m + 1) * v ** (m + 1)
    if not trail:
        body = v - u * v - v ** m + u ** m * v ** m + u * v ** (m + 1) \
            - u ** m * v ** (m + 1)
        return -body if m % 2 == 0 else body
    if not lead:
        return -u + u ** m + u * v - u ** (m + 1) * v - u ** m * v ** m \
            + u ** (m + 1) * v ** m
    body = ONE - u - v ** m + u ** (m + 1) * v ** m + u * v ** (m + 1) \
        - u ** (m + 1) * v ** (m + 1)
    return -body if m % 2 == 0 else body


@pytest.fixture
def rng():
    return random.Random(20250808)
