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
instead, after folding its pass-through rows (below).  Every arc leaves
exactly one passage, so the n out-under arcs and the n out-over arcs
partition the 2n arcs.  A B row says x_out_over = v^-sign * x_in_over, so
each over arc is v^k times the out-under arc that begins its over-arc
chain.  The over-arc matrix has the A rows in crossing order and the
out-under arcs, ascending, as columns; each arc of an A row is replaced by
its out-under arc times v^k, so the row has at most three entries (the
over passage's two arcs share a column).  It is the Schur complement of
the B rows on their out-over columns, a block whose rows and columns
permute together to a triangular one with diagonal +v (positive crossings)
and -1 (negative), so, exactly and not up to a unit,

    Delta_0 = sgn(row perm) * sgn(col perm) * v^#positive * (-1)^#negative
              * det(over-arc matrix).

The row permutation takes the 2n x 2n row order to (kept rows in that
order, eliminated B rows in crossing order), and the column permutation
takes ascending arcs to (generators ascending, the eliminated B rows'
out-over arcs in crossing order), so that the block's determinant is the
product of its diagonal.

A pass-through column is the out-under arc of a crossing c whose
under-passage is followed directly by the under-passage of a crossing c'.
The arc meets no over-passage, so its column holds only -u^[c positive]
(row c) and u^[c' negative] (row c'), with [P] = 1 if P holds and 0
otherwise.  Adding u^e times row c to row c', with
e = [c' negative] - [c positive], clears the column but for row c, so row c
and its column leave the matrix with the factor -u^[c positive].  A run of
consecutive under-passages folds into the row of its last one: each row
of the run is added there times u to the sum of the e of itself and of
the rows after it in the run.  This is the Schur complement of the folded
rows on their columns.  In walk order, each predecessor first, that block
is lower bidiagonal (a folded row's only other entry in the block is in
its predecessor's column), and permuting its rows and its columns alike
keeps its determinant, so in any order that pairs each folded row with its
column that determinant is the product of the diagonal.  No B row has an
entry in a pass-through column, so the folded A rows join the eliminated
B rows, in crossing order, each paired with its out-under arc, and with f
folded rows, f+ of them at positive crossings,

    Delta_0 = sgn(row perm) * sgn(col perm) * v^#positive * (-1)^#negative
              * (-1)^f * u^f+ * det(folded over-arc matrix).

The fold makes no kernel call; it removes about half the rows of a random
knot code (7.8 of 16 at n = 16).

``delta0_diagram`` places every arc in one walk over each component's
passages, in traversal order, starting at an under-passage that follows an
over-passage, so that no run of under-passages wraps around the start.  The
arc leaving an under-passage is a generator with k = 0; each over-passage
after it subtracts its crossing's sign from k for the arc it leaves.  Arcs
are always 1..2n, so an arc's place in ascending order is its id minus one.
A component with no over-passage is one cyclic run, walked from its first
passage; it keeps the row of its last passage and that passage's column.

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

from ._backend import _ONE, det_terms, divexact_terms, fma_terms, mul_terms
from .diagram import Diagram, _component_arcs, format_gauss, odd_writhe
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


def _a_row(sign, in_over, out_over, in_under, out_under, e=0) -> tuple:
    """The crossing's A row as (column, (i, k), c) triples, one per arc.

    Each arc is given by its place (column, k): its term c * u^i goes to
    that column times v^k.  The row is multiplied by u^e, the factor of a
    folded row.  ``build_matrix`` and ``delta0_diagram`` both take their A
    rows from it, and ``_add_terms`` merges the triples that share a column.
    """
    (j1, k1), (j2, k2), (j3, k3), (j4, k4) = in_under, in_over, out_under, out_over
    if sign > 0:
        return (j1, (e, k1), 1), (j2, (e + 1, k2), 1), (j3, (e + 1, k3), -1), (j4, (e, k4), -1)
    return (j2, (e, k2), 1), (j1, (e + 1, k1), 1), (j4, (e + 1, k4), -1), (j3, (e, k3), -1)


def _b_row(sign, in_over, out_over) -> tuple:
    """The crossing's B row as (column, (i, k), c) triples, as ``_a_row``'s."""
    (j2, k2), (j4, k4) = in_over, out_over
    if sign > 0:
        return (j2, (0, k2), -1), (j4, (0, k4 + 1), 1)
    return (j2, (0, k2 + 1), 1), (j4, (0, k4), -1)


def _add_terms(row: dict, triples) -> dict:
    """Add (column, key, c) triples into a row {column: terms} and return it.

    A term or entry that cancels to zero is not stored; columns keep the
    order in which they first appear.
    """
    for j, key, c in triples:
        entry = row.get(j)
        if entry is None:
            row[j] = {key: c}
            continue
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
        in_over, out_over = place[inc.in_over], place[inc.out_over]
        rows.append(_add_terms({}, _a_row(inc.sign, in_over, out_over,
                                          place[inc.in_under], place[inc.out_under])))
        rows.append(_add_terms({}, _b_row(inc.sign, in_over, out_over)))
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


def _perm_sign(perm) -> int:
    """The sign (+1 or -1) of a permutation of range(len(perm))."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            if k != start:
                sign = -sign
    return sign


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
    the result.  Most Alexander-matrix entries are units.  When no unit is
    left, prev is 1 and three or four rows remain, no pivot is taken: the
    core is finished by cofactors (below), unless the kernel declines it,
    and then the loop goes on as before.  When one row is
    left, its one entry is the last pivot, with no search: the step would
    touch no other entry, and a unit taken as it stands gives the same
    product as a unit divided out.

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

    The three- and four-row finish.  While prev is 1, each active entry is
    a minor of the row-scaled input bordered on a leading minor that is 1,
    so by Sylvester's identity the determinant of the remaining core is the
    last pivot that Bareiss would reach, with no division.  ``det_terms``
    expands it by cofactors with every entry packed once; each coefficient
    of the result is at most the permanent of the entries' l1 norms in size,
    and when that needs slots of more than 64 bits, or the packed box is too
    sparse, it returns None and the loop goes on with the core.
    Its rows are matched to its columns in their order, for the sign rule.

    Sign rule: the units' product times the last pivot is the determinant of
    the matrix with rows and columns taken in pivot order, so it is
    multiplied by the parity of the row permutation and by that of the
    column permutation, whose product is the parity of the permutation that
    takes each pivot's row to its column.

    Every product and quotient goes through ``_backend``'s kernel
    (``fma_terms``, ``mul_terms``, ``divexact_terms``, and ``det_terms``
    for a three- or four-row core); the units' product is kept in ints.
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
        if len(active) == 1:  # the last row's one entry is the last pivot
            ((p, row),) = active.items()
            ((q, pivot),) = row.items()
            match[p] = q
            break
        found = _cheapest_unit(active, cols)
        if not found and prev is _ONE and 3 <= len(active) <= 4:
            det = det_terms([[sparse.get(j, {}) for j in cols] for sparse in active.values()])
            if det is not None:
                for p, q in zip(active, cols):
                    match[p] = q
                pivot = det
                break
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


def delta0_diagram(d: Diagram) -> LaurentPoly:
    """Delta_0 of the diagram under its arc labeling, from the over-arc matrix.

    Equal term by term to ``determinant(build_matrix(...))``; the module
    docstring derives the over-arc matrix, the walk that builds it, the fold
    of its pass-through rows and the unit that relates them.  The rows are
    built in one pass over the crossings: each folded row's A row goes,
    times its power of u, straight into its run's last row, and its
    column's two terms cancel there; a pass-through column keeps the key
    -arc, outside the matrix, so a term left in one would make
    ``determinant`` raise.  The row permutation's parity is counted in the
    same pass: each kept row passes every eliminated row before it.  The
    unit is multiplied into the matrix's first row, so ``determinant``
    returns Delta_0 itself.
    """
    signs = d.signs
    place = [None] * (2 * len(signs) + 1)  # arc -> (generator arc, k)
    under, over = {}, {}  # crossing -> (in-arc, out-arc) of its under/over passage
    fold = {}  # folded crossing -> (its run's last crossing, e)
    for comp, ins, outs in _component_arcs(d):
        # an under-passage after an over-passage; else passage 0 (under-only: one run)
        s = next((t for t, p in enumerate(comp) if not p.over and comp[t - 1].over), 0)
        k = 0
        if comp[s].over:  # over-only: its least crossing's out-arc is a generator
            s = min(range(len(comp)), key=lambda t: comp[t].crossing)
            k = signs[comp[s].crossing]  # its own step below leaves k = 0
        g, run = outs[s], []
        for t in range(s - len(comp), s):  # from passage s, once around
            p, a = comp[t], outs[t]
            c = p.crossing
            if p.over:
                over[c] = ins[t], a
                k -= signs[c]
            else:
                under[c] = ins[t], a
                g, k = a, 0
                if t < s - 1 and not comp[t + 1].over:
                    run.append(c)
                    g = -a  # a folded column: its key -a is outside the matrix
                elif run:  # c ends a run; each e sums from its row to the run's end
                    nxt, e = c, 0
                    for b in reversed(run):
                        e += (signs[nxt] < 0) - (signs[b] > 0)
                        fold[b] = c, e
                        nxt = b
                    run = []
            place[a] = g, k
    gens = [a for a, (g, _) in enumerate(place[1:], 1) if a == g]  # ascending
    col = {a: r for r, a in enumerate(gens)}
    place = [None] + [(col.get(g, g), k) for g, k in place[1:]]
    rows, pivots = [], []
    into_row = {}  # kept crossing -> its row, with the rows folded into it
    sign, u_exp, v_exp = 1, 0, 0
    eliminated = swaps = 0  # rows eliminated so far; kept rows passing them
    for c in sorted(signs):
        (i_o, o_o), (i_u, o_u) = over[c], under[c]
        into, e = fold.get(c) or (c, 0)
        row = into_row.setdefault(into, {})
        _add_terms(row, _a_row(signs[c], place[i_o], place[o_o], place[i_u], place[o_u], e))
        if into == c:
            rows.append(row)
            swaps += eliminated
        else:  # eliminated, with the pivot -u (positive) or -1 (negative)
            eliminated += 1
            pivots.append(o_u - 1)
            sign = -sign
            u_exp += signs[c] > 0
        if o_o in col:  # the out-over arc of an over-only cycle: the B row stays
            rows.append(_add_terms({}, _b_row(signs[c], place[i_o], place[o_o])))
            swaps += eliminated
            continue
        eliminated += 1
        pivots.append(o_o - 1)
        if signs[c] > 0:
            v_exp += 1  # the B row's pivot is +v
        else:
            sign = -sign  # the B row's pivot is -1
    if swaps & 1:  # the row permutation is odd
        sign = -sign
    sign *= _perm_sign([a - 1 for a in gens] + pivots)
    # the determinant is linear in row 0, so the unit goes there; a monomial
    # factor keeps every entry's term count and unit status, and so the pivots
    rows[0] = {j: {(i + u_exp, k + v_exp): sign * c for (i, k), c in terms.items()}
               for j, terms in rows[0].items()}
    return determinant(rows)


def delta_bar(p: LaurentPoly, is_knot: bool = True) -> LaurentPoly:
    """Quotient of Delta_0 by (u-1)(v-1)(uv-1) for knots, (u-1)(v-1) for links.

    NotDivisible here means a divisibility law failed upstream; it is a
    test failure, not a user error.  Zero stays zero.
    """
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
