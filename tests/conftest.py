import itertools
import random

import pytest

from valex.diagram import Diagram, Passage
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
