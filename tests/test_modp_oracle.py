"""Schwartz-Zippel check of Delta_0, up to sizes the cofactor oracle cannot reach.

The 2n x 2n relation matrix is built here, at a random point (u, v) modulo
the prime 2^61 - 1, from the Gauss-code text and the row templates written
in ``valex.alexander``'s docstring, and its determinant is taken by plain
Gaussian elimination mod p; it must equal Delta_0(u, v) mod p.  A wrong
Delta_0 of total degree d passes with probability at most d / p.  The check
shares no code with valex's row template, matrix builders, Laurent kernel or
elimination, so an error in the row templates ``_a_row`` and ``_b_row``,
which both ``build_matrix`` and ``delta0_diagram`` use, cannot make the two
sides agree.
"""

import random
import re

import pytest

from tests.conftest import all_diagrams, make_over_only_link, make_random_diagram
from valex import alexander
from valex.alexander import build_matrix, delta0_diagram, delta_bar
from valex.diagram import derive_incidence, format_gauss

P = (1 << 61) - 1
TOKEN = re.compile(r"([OU])(\d+)([+-])")


def at_point(poly, u, v):
    return sum(c * pow(u, i, P) * pow(v, j, P) for (i, j), c in poly.items()) % P


def relation_matrix(code, u, v):
    """The 2n x 2n relation matrix at (u, v) mod P, read from a Gauss code.

    Arc t is the gap after the t-th passage, components in order, and a
    passage enters on the arc that leaves the passage before it in its
    component.  Rows: crossings by id, row A then row B, from the templates

        positive:  A:  +1*in_under  +u*in_over  -u*out_under  -1*out_over
                   B:  -1*in_over   +v*out_over
        negative:  A:  +1*in_over   +u*in_under -u*out_over   -1*out_under
                   B:  +v*in_over   -1*out_over

    with coincident roles adding up; columns: arcs ascending.
    """
    roles, t = {}, 0
    for comp in code.split(";"):
        tokens = TOKEN.findall(comp)
        first = t
        for side, cid, sign in tokens:
            arc_in = t if t > first else first + len(tokens)
            roles.setdefault(int(cid), {"sign": sign})[side] = arc_in, t + 1
            t += 1
    n2 = 2 * len(roles)
    rows = []
    for cid in sorted(roles):
        r = roles[cid]
        (in_over, out_over), (in_under, out_under) = r["O"], r["U"]
        if r["sign"] == "+":
            a = ((in_under, 1), (in_over, u), (out_under, -u), (out_over, -1))
            b = ((in_over, -1), (out_over, v))
        else:
            a = ((in_over, 1), (in_under, u), (out_over, -u), (out_under, -1))
            b = ((in_over, v), (out_over, -1))
        for terms in (a, b):
            row = [0] * n2
            for arc, c in terms:
                row[arc - 1] = (row[arc - 1] + c) % P
            rows.append(row)
    return rows


def det_mod_p(a):
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % P
        inv = pow(a[k][k], P - 2, P)
        for i in range(k + 1, n):
            f = a[i][k] * inv % P
            if f:
                a[i] = [(x - f * y) % P for x, y in zip(a[i], a[k])]
    return det % P


def check_mod_p(d, rng, nonzero=True):
    u, v = rng.randrange(2, P - 1), rng.randrange(2, P - 1)
    matrix = relation_matrix(format_gauss(d), u, v)
    delta0 = delta0_diagram(d)
    assert at_point(delta0, u, v) == det_mod_p(list(matrix))
    assert delta0 or not nonzero
    # build_matrix, the definition valex exports, is the same matrix
    assert [[at_point(e, u, v) for e in row]
            for row in build_matrix(derive_incidence(d)[1]).entries] == matrix
    delta_bar(delta0, d.is_knot)  # raises NotDivisible unless the factor divides


def test_relation_matrix_of_the_virtual_trefoil():
    # O1+U2+U1+O2+: crossing 1 is over from arc 4 to 1 and under from 2 to 3,
    # crossing 2 over from 3 to 4 and under from 1 to 2
    assert relation_matrix("O1+U2+U1+O2+", 5, 7) == [
        [P - 1, 1, P - 5, 5], [7, 0, 0, P - 1], [1, P - 5, 5, P - 1], [0, 0, P - 1, 7]]


@pytest.mark.parametrize("n", [40, 50, 64])
def test_delta0_equals_determinant_mod_p(n):
    rng = random.Random(n)
    check_mod_p(make_random_diagram(rng, n), rng)


def test_four_row_cores_mod_p(monkeypatch):
    # some n = 24 codes end in a unit-free core of four rows, which
    # determinant finishes by cofactors in det_terms; the spy sees that the
    # check covers such a core
    rows = []
    real = alexander.det_terms

    def spy(core):
        rows.append(len(core))
        return real(core)

    monkeypatch.setattr(alexander, "det_terms", spy)
    rng = random.Random(24)
    for _ in range(8):
        check_mod_p(make_random_diagram(rng, 24), rng)
    assert 4 in rows


def test_link_with_over_only_component_mod_p():
    # the first component's B rows close a cycle, so Delta_0 keeps one of
    # them as a row of the over-arc matrix
    rng = random.Random(40)
    check_mod_p(make_over_only_link(rng, 40, 15), rng)


@pytest.mark.parametrize("n, n_comp", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (2, 3)])
def test_every_small_diagram_mod_p(n, n_comp):
    # kinks and one-passage components: the roles that coincide
    rng = random.Random(n * 10 + n_comp)
    for d in all_diagrams(n, n_comp):
        check_mod_p(d, rng, nonzero=False)
