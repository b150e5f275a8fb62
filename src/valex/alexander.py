"""The Alexander matrix of a diagram and the invariant Delta_0.

Each classical crossing contributes two linear relations among its four
incident arcs; the 2n x 2n coefficient matrix over Z[u^{\xb11}, v^{\xb11}] has
determinant Delta_0(D).  Row templates (columns in role order):

    positive:  A:  +1*in_under  +u*in_over  -u*out_under  -1*out_over
               B:  -1*in_over   +v*out_over
    negative:  A:  +1*in_over   +u*in_under -u*out_over   -1*out_under
               B:  +v*in_over   -1*out_over

Coincident roles (kinks) accumulate additively.  Rows are ordered
(crossing 1 row A, crossing 1 row B, crossing 2 row A, ...) by crossing id;
columns by arc id ascending.  Reordering crossings permutes row pairs and
leaves the determinant unchanged; relabeling arcs can flip its sign, which is
why cross-diagram comparisons normalize first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._backend import divexact_terms, fma_terms
from .diagram import Diagram, derive_incidence, format_gauss, odd_writhe
from .errors import NotDivisible
from .laurent import LaurentPoly, Normalized, ONE, U, V, ZERO, exact_div, normalize

__all__ = [
    "AlexMatrix",
    "build_matrix",
    "determinant",
    "determinant_cofactor",
    "delta0_diagram",
    "delta_bar",
    "KNOT_FACTOR",
    "LINK_FACTOR",
    "InvariantReport",
    "invariant_report",
]

LINK_FACTOR = (U - 1) * (V - 1)
KNOT_FACTOR = LINK_FACTOR * (U * V - 1)


@dataclass
class AlexMatrix:
    """Square matrix of LaurentPoly entries plus its column arc ids."""

    entries: list
    columns: list

    @property
    def order(self) -> int:
        return len(self.entries)


def build_matrix(incidences) -> AlexMatrix:
    """Assemble the Alexander matrix from per-crossing arc roles."""
    arcs = sorted(
        {a for i in incidences for a in (i.in_over, i.out_over, i.in_under, i.out_under)}
    )
    col = {a: k for k, a in enumerate(arcs)}
    n2 = 2 * len(incidences)
    if len(arcs) != n2:
        raise ValueError(f"expected {n2} arcs, found {len(arcs)}")
    rows = []
    for inc in sorted(incidences, key=lambda i: i.crossing):
        if inc.sign > 0:
            pattern_a = (
                (inc.in_under, ONE),
                (inc.in_over, U),
                (inc.out_under, -U),
                (inc.out_over, -ONE),
            )
            pattern_b = ((inc.in_over, -ONE), (inc.out_over, V))
        else:
            pattern_a = (
                (inc.in_over, ONE),
                (inc.in_under, U),
                (inc.out_over, -U),
                (inc.out_under, -ONE),
            )
            pattern_b = ((inc.in_over, V), (inc.out_over, -ONE))
        acc_a = [ZERO] * n2
        acc_b = [ZERO] * n2
        for arc, coeff in pattern_a:
            acc_a[col[arc]] = acc_a[col[arc]] + coeff
        for arc, coeff in pattern_b:
            acc_b[col[arc]] = acc_b[col[arc]] + coeff
        rows.append(acc_a)
        rows.append(acc_b)
    return AlexMatrix(rows, arcs)


def determinant(m: AlexMatrix | list) -> LaurentPoly:
    """Exact determinant by fraction-free Bareiss elimination.

    Zero pivots are repaired by row swaps (sign tracked); if a pivot column
    vanishes entirely the matrix is singular and the determinant is 0.  Every
    interior division is exact over the Laurent ring.
    """
    rows = m.entries if isinstance(m, AlexMatrix) else m
    n = len(rows)
    if n == 0:
        return ONE
    grid = [[e._terms if isinstance(e, LaurentPoly) else dict(e) for e in row] for row in rows]
    if any(len(row) != n for row in grid):
        raise ValueError("determinant needs a square matrix")
    if n == 1:
        return LaurentPoly(grid[0][0])
    sign = 1
    prev = {(0, 0): 1}
    for k in range(n - 1):
        if not grid[k][k]:
            for i in range(k + 1, n):
                if grid[i][k]:
                    grid[k], grid[i] = grid[i], grid[k]
                    sign = -sign
                    break
            else:
                return ZERO
        pivot = grid[k][k]
        for i in range(k + 1, n):
            row_i = grid[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = fma_terms(pivot, row_i[j], lead, grid[k][j])
                if k == 0:
                    row_i[j] = num
                else:
                    q = divexact_terms(num, prev)
                    if q is None:  # impossible over an integral domain
                        raise NotDivisible("Bareiss interior division failed")
                    row_i[j] = q
            row_i[k] = {}
        prev = pivot
    out = grid[n - 1][n - 1]
    if sign < 0:
        out = {key: -c for key, c in out.items()}
    return LaurentPoly._raw(dict(out))


def determinant_cofactor(m: AlexMatrix | list) -> LaurentPoly:
    """Naive cofactor expansion; the independent oracle for small orders."""
    rows = m.entries if isinstance(m, AlexMatrix) else m
    rows = [[e if isinstance(e, LaurentPoly) else LaurentPoly(e) for e in row] for row in rows]

    def rec(rs, cols):
        if len(cols) == 1:
            return rs[0][cols[0]]
        total = ZERO
        sub = rs[1:]
        for pos, c in enumerate(cols):
            a = rs[0][c]
            if a.is_zero:
                continue
            minor = rec(sub, cols[:pos] + cols[pos + 1:])
            term = a * minor
            total = total + term if pos % 2 == 0 else total - term
        return total

    n = len(rows)
    if n == 0:
        return ONE
    return rec(rows, list(range(n)))


def delta0_diagram(d: Diagram) -> LaurentPoly:
    """Delta_0 of the diagram: the determinant under its arc labeling."""
    _, incidences = derive_incidence(d)
    return determinant(build_matrix(incidences))


def delta_bar(p: LaurentPoly, is_knot: bool = True) -> LaurentPoly:
    """Quotient of Delta_0 by (u-1)(v-1)(uv-1) for knots, (u-1)(v-1) for links.

    NotDivisible here means a divisibility law failed upstream; it is a
    test failure, not a user error.  Zero stays zero.
    """
    if p.is_zero:
        return ZERO
    return exact_div(p, KNOT_FACTOR if is_knot else LINK_FACTOR)


@dataclass
class InvariantReport:
    """Delta_0, its normalized quotient and the odd-writhe verdict for one input.

    ``invariant_report`` builds it from a diagram and ``twist.spec_report``
    from a twist spec; both go through ``InvariantReport.of``.
    """

    subject: str                 # Gauss code or twist spec
    is_knot: bool
    delta0: LaurentPoly          # diagram level, label dependent
    dbar: LaurentPoly            # diagram level quotient
    dbar_normalized: LaurentPoly
    delta0_normalized: LaurentPoly
    unit: Normalized
    dbar_at_minus_one: int
    odd_writhe: Optional[int]
    conjecture_holds: Optional[bool]

    @classmethod
    def of(cls, subject: str, delta0: LaurentPoly, dbar: LaurentPoly, is_knot: bool,
           odd_writhe: Optional[int]) -> "InvariantReport":
        """Normalize dbar, evaluate it at (-1, -1) and test 2|dbar(-1,-1)| = |OW|.

        The normalized Delta_0 is reported as factor * dbar_norm, with the
        knot factor (u-1)(v-1)(uv-1) or the link factor (u-1)(v-1), matching
        the printed values of the source examples.  Without an odd writhe
        (links, clasps ab/ba) the verdict is None.
        """
        norm = normalize(dbar)
        val = norm.poly.evaluate(-1, -1)
        return cls(
            subject=subject,
            is_knot=is_knot,
            delta0=delta0,
            dbar=dbar,
            dbar_normalized=norm.poly,
            delta0_normalized=(KNOT_FACTOR if is_knot else LINK_FACTOR) * norm.poly,
            unit=norm,
            dbar_at_minus_one=val,
            odd_writhe=odd_writhe,
            conjecture_holds=None if odd_writhe is None else 2 * abs(val) == abs(odd_writhe),
        )


def invariant_report(d: Diagram) -> InvariantReport:
    """Delta_0 of the diagram by its determinant, then ``InvariantReport.of``.

    Multi-component diagrams have no odd writhe, so they carry no verdict.
    """
    p = delta0_diagram(d)
    knot = d.is_knot
    return InvariantReport.of(format_gauss(d), p, delta_bar(p, is_knot=knot), knot,
                              odd_writhe(d) if knot else None)
