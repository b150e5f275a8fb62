"""The Alexander matrix of a diagram and the invariant Delta_0.

Each classical crossing contributes two linear relations among its four
incident arcs; the 2n x 2n coefficient matrix over Z[u^{\xb11}, v^{\xb11}] has
determinant Delta_0(D).  Row templates (columns in role order):

    positive:  A:  +1*in_under  +u*in_over  -u*out_under  -1*out_over
               B:  -1*in_over   +v*out_over
    negative:  A:  +1*in_over   +u*in_under -u*out_over   -1*out_under
               B:  +v*in_over   -1*out_over

Coincident roles (kinks, one-crossing components) accumulate additively,
and an entry that cancels to zero is not stored.  Rows are ordered
(crossing 1 row A, crossing 1 row B, crossing 2 row A, ...) by crossing id;
columns by arc id ascending.  Reordering crossings permutes row pairs and
leaves the determinant unchanged; relabeling arcs can flip its sign, which is
why cross-diagram comparisons normalize first.  ``build_matrix`` returns this
matrix; it is the definition, and the oracles evaluate it.

``delta0_diagram`` takes the determinant of the n x n over-arc matrix
instead.  Every arc leaves exactly one passage, so the n out-under arcs and
the n out-over arcs partition the 2n arcs.  A B row says x_out_over =
v^-sign * x_in_over, so each over arc is v^k times the out-under arc that
begins its over-arc chain.  The over-arc matrix has the A rows in crossing
order and the out-under arcs, ascending, as columns; each arc of an A row
is replaced by its out-under arc times v^k, so the row has at most three
entries (the over passage's two arcs share a column).  It is the Schur
complement of the B rows on their out-over columns, a block whose rows and
columns permute together to a triangular one with diagonal +v (positive
crossings) and -1 (negative), so, exactly and not up to a unit,

    Delta_0 = sgn(row perm) * sgn(col perm) * v^#positive * (-1)^#negative
              * det(over-arc matrix).

The row permutation takes the 2n x 2n row order to (kept rows in that
order, eliminated B rows in crossing order), and the column permutation
takes ascending arcs to (generators ascending, the eliminated B rows'
out-over arcs in crossing order), so that the block's determinant is the
product of its diagonal.

``delta0_diagram`` places every arc in one walk over each component's
passages, in traversal order, starting at an under-passage.  The arc
leaving an under-passage is a generator with k = 0; each over-passage after
it subtracts its crossing's sign from k for the arc it leaves.  Arcs are
always 1..2n, so an arc's place in ascending order is its id minus one.

A component with no under-passage has no out-under arc, and its B rows
chain its arcs into a cycle.  The walk starts such a component at the
passage of its crossing of least id, whose out-over arc stays a generator,
and that crossing's B row stays a row of the over-arc matrix, where it
reads +-(v^K - 1) * x up to a unit (0 when K = 0), so the matrix gains one
row and one column per such component.
The cycle's other B rows are eliminated as above; #positive and #negative
count the eliminated B rows only.
"""

from __future__ import annotations

from typing import Optional

from ._backend import _ONE, divexact_terms, fma_terms, mul_terms
from .diagram import Diagram, _component_arcs, _perm_sign, format_gauss, odd_writhe
from .errors import InvalidArgument, NotDivisible
from .laurent import LaurentPoly, U, V, ZERO, exact_div, normalize

__all__ = [
    "AlexMatrix",
    "build_matrix",
    "determinant",
    "delta0_diagram",
    "delta_bar",
    "KNOT_FACTOR",
    "LINK_FACTOR",
    "InvariantReport",
    "invariant_report",
]

LINK_FACTOR = (U - 1) * (V - 1)
KNOT_FACTOR = LINK_FACTOR * (U * V - 1)


class AlexMatrix:
    """The 2n x 2n Alexander matrix of ``build_matrix``, columns in ascending arc id.

    ``rows[i]`` maps the column of each nonzero entry of row i to that
    entry's kernel term dict; zero entries are not stored.  ``determinant``
    takes these rows.  ``entries`` is the same matrix as a list of
    LaurentPoly rows, built when read, with the shared ZERO where no entry
    is stored.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list):
        self.rows = rows

    @property
    def entries(self) -> list:
        n = len(self.rows)
        return [[LaurentPoly._raw(row[j]) if j in row else ZERO for j in range(n)]
                for row in self.rows]


def _relations(sign, in_over, out_over, in_under, out_under) -> tuple:
    """The crossing's A and B rows as (column, terms) pieces, one per arc.

    Each arc is given by its place (column, k): its term goes to that column
    times v^k.
    """
    (j1, k1), (j2, k2), (j3, k3), (j4, k4) = in_under, in_over, out_under, out_over
    if sign > 0:
        return (((j1, {(0, k1): 1}), (j2, {(1, k2): 1}), (j3, {(1, k3): -1}),
                 (j4, {(0, k4): -1})),
                ((j2, {(0, k2): -1}), (j4, {(0, k4 + 1): 1})))
    return (((j2, {(0, k2): 1}), (j1, {(1, k1): 1}), (j4, {(1, k4): -1}),
             (j3, {(0, k3): -1})),
            ((j2, {(0, k2 + 1): 1}), (j4, {(0, k4): -1})))


def _sparse_row(pieces) -> dict:
    """A row {column: terms} from fresh (column, terms) pieces.

    Pieces in one column add up, and a term or entry that cancels to zero
    is not stored; columns keep the order in which they first appear.
    """
    row: dict = {}
    for j, terms in pieces:
        entry = row.setdefault(j, terms)
        if entry is not terms:
            for key, c in terms.items():
                c += entry.get(key, 0)
                if c:
                    entry[key] = c
                else:
                    del entry[key]
            if not entry:
                del row[j]
    return row


def build_matrix(incidences) -> AlexMatrix:
    """Assemble the 2n x 2n Alexander matrix from per-crossing arc roles."""
    arcs = sorted(
        {a for i in incidences for a in (i.in_over, i.out_over, i.in_under, i.out_under)}
    )
    n2 = 2 * len(incidences)
    if len(arcs) != n2:
        raise InvalidArgument(f"expected {n2} arcs, found {len(arcs)}")
    place = {a: (k, 0) for k, a in enumerate(arcs)}
    rows = []
    for inc in sorted(incidences, key=lambda i: i.crossing):
        rows.extend(map(_sparse_row, _relations(
            inc.sign, place[inc.in_over], place[inc.out_over],
            place[inc.in_under], place[inc.out_under])))
    return AlexMatrix(rows)


def _exact(num: dict, prev: dict) -> dict:
    """num / prev, which Sylvester's identity makes exact."""
    if not num or prev == _ONE:
        return num
    q = divexact_terms(num, prev)
    if q is None:  # impossible over an integral domain
        raise NotDivisible("Bareiss interior division failed")
    return q


def _cheapest_unit(active: dict, cols: dict) -> tuple | None:
    """The active unit of least cost, the first one found on ties; None if there is none."""
    best, found = len(cols) ** 2, None  # above every cost
    for i, sparse in active.items():
        r = len(sparse) - 1
        for j, terms in sparse.items():
            if len(terms) == 1:
                cost = r * (len(cols[j]) - 1)
                if cost < best:
                    (c,) = terms.values()
                    if c == 1 or c == -1:
                        best, found = cost, (i, j)
    return found


def _cheapest(active: dict, cols: dict) -> tuple:
    """The active (row, column) of least (cost, terms), the first one found on ties."""
    best_cost, best_terms, found = len(cols) ** 2, 0, None  # above every cost
    for i, sparse in active.items():
        r = len(sparse) - 1
        for j, terms in sparse.items():
            cost = r * (len(cols[j]) - 1)
            if cost > best_cost or cost == best_cost and len(terms) >= best_terms:
                continue
            best_cost, best_terms, found = cost, len(terms), (i, j)
    return found


def determinant(m: list) -> LaurentPoly:
    """Exact determinant by sparse fraction-free (Bareiss 1968) elimination.

    ``m`` is the list of the n rows, each a ``{column: terms}`` dict of its
    nonzero entries, as in ``AlexMatrix.rows``.  An entry stored as ``{}`` is
    zero and is dropped, an entry in a column outside 0..n-1 raises
    InvalidArgument, even a ``{}`` one, and neither the rows nor their term
    dicts are written.
    Each column keeps the set of active rows that have an entry in it, so the
    elimination never visits a zero position.

    Pivot rule: while an active entry is a unit e * u^a v^b, e = +-1, each
    step takes the unit of least Markowitz (1957) cost (r - 1)(c - 1), r and
    c being the entry counts of its row and column, even where a non-unit
    costs less; otherwise it takes the entry of least cost, ties going to
    the entry with fewer terms.  Either way ties then go to the first one
    found in row-then-column order.  The pivot order changes the work, never
    the result.  Most Alexander-matrix entries are units.

    A unit pivot's row is first divided by the unit, whose inverse is the
    monomial e * u^-a v^-b, which leaves a pivot of 1; the units' product is
    carried as a sign and an exponent pair.  Then every step is the same
    Bareiss update: with ``prev`` the previous pivot (1 before the first
    step), a row with an entry ``lead`` in the pivot column becomes
    (pivot * a_ij - lead * a_pj) / prev over the union of its columns and
    the pivot row's, and a row without one is scaled entry by entry to
    pivot * a_ij / prev.  When pivot equals prev, as on a unit step while
    prev is 1, both leave every entry off the pivot row's columns as it is,
    so only the pivot row's columns of the rows with an entry in the pivot
    column are visited.

    Every division by ``prev`` is exact.  Each active entry of row i is a
    minor whose last row is input row i, so dividing the pivot row by a
    unit is the same as dividing that input row by it first: every active
    entry stays a minor of the row-scaled input, and Sylvester's identity
    covers each division, a unit taken after a Bareiss step included.  Only
    a row with an entry in the pivot column, or a column of the pivot row,
    can lose its last entry; if one does, the matrix is singular and the
    result is 0.

    Sign rule: the units' product times the last pivot is the determinant of
    the matrix with rows and columns taken in pivot order, so it is
    multiplied by the parity of the row permutation and by that of the
    column permutation, whose product is the parity of the permutation that
    takes each pivot's row to its column.

    Every product and quotient goes through ``_backend``'s kernel
    (``fma_terms``, ``mul_terms``, ``divexact_terms``); the units' product
    is kept in ints.
    """
    n = len(m)
    cols: dict = {j: set() for j in range(n)}
    active = {}
    try:
        for i, row in enumerate(m):
            sparse = active[i] = {}
            for j, terms in row.items():
                col = cols[j]
                if terms:
                    col.add(i)
                    sparse[j] = terms
    except KeyError as e:
        raise InvalidArgument(f"column {e.args[0]!r} is outside 0..{n - 1}") from None
    if not all(active.values()) or not all(cols.values()):
        return ZERO
    match = list(range(n))  # match[p] = q for each pivot (p, q)
    sign, ue, ve = 1, 0, 0  # the units' product is sign * u^ue v^ve
    prev = pivot = _ONE
    while active:
        found = _cheapest_unit(active, cols)
        p, q = found or _cheapest(active, cols)
        pivot_row = active.pop(p)
        pivot = pivot_row.pop(q)
        if found:
            (((a, b), e),) = pivot.items()
            sign *= e
            ue += a
            ve += b
            pivot_row = {j: divexact_terms(t, pivot) for j, t in pivot_row.items()}
            pivot = _ONE
        for j in pivot_row:
            cols[j].discard(p)
        leading = cols.pop(q)
        leading.discard(p)
        match[p] = q
        same = pivot == prev
        for i in leading if same else active:
            sparse = active[i]
            if i not in leading:
                for j, t in sparse.items():
                    sparse[j] = _exact(mul_terms(pivot, t), prev)
                continue
            lead = sparse.pop(q)
            for j in pivot_row if same else sparse.keys() | pivot_row.keys():
                t = _exact(fma_terms(pivot, sparse.get(j, {}), lead, pivot_row.get(j, {})), prev)
                if t:
                    if j not in sparse:
                        cols[j].add(i)
                    sparse[j] = t
                elif j in sparse:
                    del sparse[j]
                    cols[j].discard(i)
            if not sparse:
                return ZERO
        for j in pivot_row:
            if not cols[j]:
                return ZERO
        prev = pivot
    if _perm_sign(match) < 0:
        sign = -sign
    return LaurentPoly._raw({(i + ue, j + ve): sign * c for (i, j), c in pivot.items()})


def _over_arc_pieces(sign, in_over, out_over, in_under, out_under) -> tuple:
    """A crossing's A row in the over-arc matrix as ``_sparse_row`` pieces.

    The arcs are given by their places (column, k), as in ``_relations``.
    The over passage's two arcs share a column, so they make one piece and
    the row has at most three entries.
    """
    (j1, k1), (j2, k2), k4, j3 = in_under, in_over, out_over[1], out_under[0]
    if sign > 0:
        return ((j1, {(0, k1): 1}), (j2, {(1, k2): 1, (0, k4): -1}), (j3, {(1, 0): -1}))
    return ((j2, {(0, k2): 1, (1, k4): -1}), (j1, {(1, k1): 1}), (j3, {(0, 0): -1}))


def delta0_diagram(d: Diagram) -> LaurentPoly:
    """Delta_0 of the diagram under its arc labeling, from the over-arc matrix.

    Equal term by term to ``determinant(build_matrix(...))``; the module
    docstring derives the over-arc matrix, the walk that builds it and the
    unit that relates the two.
    """
    signs = d.signs
    place = [None] * (2 * len(signs) + 1)  # arc -> (generator arc, k)
    under, over = {}, {}  # crossing -> (in-arc, out-arc) of its under/over passage
    for comp, ins, outs in _component_arcs(d):
        s = next((t for t, p in enumerate(comp) if not p.over), None)
        k = 0
        if s is None:  # over-only: its least crossing's out-arc is a generator
            s = min(range(len(comp)), key=lambda t: comp[t].crossing)
            k = signs[comp[s].crossing]  # its own step below leaves k = 0
        g = outs[s]
        for t in range(s - len(comp), s):  # from passage s, once around
            p, a = comp[t], outs[t]
            if p.over:
                over[p.crossing] = ins[t], a
                k -= signs[p.crossing]
            else:
                under[p.crossing] = ins[t], a
                g, k = a, 0
            place[a] = g, k
    gens = [a for a, (g, _) in enumerate(place[1:], 1) if a == g]  # ascending
    col = {a: r for r, a in enumerate(gens)}
    place = [None] + [(col[g], k) for g, k in place[1:]]
    rows, kept, eliminated, pivots = [], [], [], []
    sign, v_exp = 1, 0
    for t, c in enumerate(sorted(signs)):
        (i_o, o_o), (i_u, o_u) = over[c], under[c]
        roles = signs[c], place[i_o], place[o_o], place[i_u], place[o_u]
        rows.append(_sparse_row(_over_arc_pieces(*roles)))
        kept.append(2 * t)
        if o_o in col:  # the out-over arc of an over-only cycle: the B row stays
            rows.append(_sparse_row(_relations(*roles)[1]))
            kept.append(2 * t + 1)
            continue
        eliminated.append(2 * t + 1)
        pivots.append(o_o - 1)
        if signs[c] > 0:
            v_exp += 1  # the B row's pivot is +v
        else:
            sign = -sign  # the B row's pivot is -1
    sign *= _perm_sign(kept + eliminated) * _perm_sign([a - 1 for a in gens] + pivots)
    det = determinant(rows)
    return LaurentPoly._raw({(i, j + v_exp): sign * c for (i, j), c in det._terms.items()})


def delta_bar(p: LaurentPoly, is_knot: bool = True) -> LaurentPoly:
    """Quotient of Delta_0 by (u-1)(v-1)(uv-1) for knots, (u-1)(v-1) for links.

    NotDivisible here means a divisibility law failed upstream; it is a
    test failure, not a user error.  Zero stays zero.
    """
    if not p:
        return ZERO
    return exact_div(p, KNOT_FACTOR if is_knot else LINK_FACTOR)


class InvariantReport:
    """Delta_0, its normalized quotient and the odd-writhe verdict for one input.

    ``invariant_report`` builds it from a diagram and ``twist.spec_report``
    from a twist spec.  Its fields stay assignable.
    """

    __slots__ = ("subject", "is_knot", "_delta0", "dbar", "dbar_normalized", "unit",
                 "dbar_at_minus_one", "odd_writhe", "conjecture_holds")

    def __init__(
        self,
        subject: str,                 # Gauss code or twist spec
        delta0: Optional[LaurentPoly],  # diagram level, label dependent
        dbar: LaurentPoly,            # diagram level quotient
        is_knot: bool,
        odd_writhe: Optional[int],
    ):
        """Normalize dbar, evaluate it at (-1, -1) and test 2|dbar(-1,-1)| = |OW|.

        Without an odd writhe (links, clasps ab/ba) the verdict is None.  A
        ``delta0`` of None is the factor times dbar, built when first read.
        """
        norm = normalize(dbar)
        val = norm.poly.evaluate(-1, -1)
        self.subject = subject
        self.is_knot = is_knot
        self._delta0 = delta0
        self.dbar = dbar
        self.dbar_normalized = norm.poly
        self.unit = norm
        self.dbar_at_minus_one = val
        self.odd_writhe = odd_writhe
        self.conjecture_holds = None if odd_writhe is None else 2 * abs(val) == abs(odd_writhe)

    @property
    def delta0(self) -> LaurentPoly:
        """Delta_0; a report made without one builds factor * dbar here, once."""
        if self._delta0 is None:
            self._delta0 = self._factor() * self.dbar
        return self._delta0

    @delta0.setter
    def delta0(self, value: LaurentPoly) -> None:
        self._delta0 = value

    def _factor(self) -> LaurentPoly:
        return KNOT_FACTOR if self.is_knot else LINK_FACTOR

    @property
    def delta0_normalized(self) -> LaurentPoly:
        """factor * dbar_normalized.

        The factor is (u-1)(v-1)(uv-1) for knots and (u-1)(v-1) for links,
        matching the printed values of the source examples.
        """
        return self._factor() * self.dbar_normalized


def invariant_report(d: Diagram) -> InvariantReport:
    """The report of the diagram, with Delta_0 by its determinant.

    Multi-component diagrams have no odd writhe, so they carry no verdict.
    """
    p = delta0_diagram(d)
    knot = d.is_knot
    return InvariantReport(format_gauss(d), p, delta_bar(p, is_knot=knot), knot,
                           odd_writhe(d) if knot else None)
