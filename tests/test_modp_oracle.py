"""Schwartz-Zippel check of Delta_0 at sizes the cofactor oracle cannot reach.

The Alexander matrix entries are evaluated at a random point (u, v) modulo
the prime 2^61 - 1 and the determinant is taken by plain Gaussian
elimination mod p; it must equal Delta_0(u, v) mod p.  A wrong Delta_0 of
total degree d passes with probability at most d / p.  The check shares no
code with the Laurent kernel or the elimination it checks.
"""

import random

import pytest

from tests.conftest import make_over_only_link, make_random_diagram
from valex.alexander import build_matrix, invariant_report
from valex.diagram import derive_incidence

P = (1 << 61) - 1


def at_point(poly, u, v):
    return sum(c * pow(u, i, P) * pow(v, j, P) for (i, j), c in poly.items()) % P


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


def check_mod_p(d, rng):
    u, v = rng.randrange(2, P - 1), rng.randrange(2, P - 1)
    rows = build_matrix(derive_incidence(d)[1]).entries
    delta0 = invariant_report(d).delta0
    assert delta0
    assert at_point(delta0, u, v) == det_mod_p([[at_point(e, u, v) for e in row] for row in rows])


@pytest.mark.parametrize("n", [40, 50, 64])
def test_delta0_equals_determinant_mod_p(n):
    rng = random.Random(n)
    check_mod_p(make_random_diagram(rng, n), rng)


def test_link_with_over_only_component_mod_p():
    # the first component's B rows close a cycle, so Delta_0 keeps one of
    # them as a row of the over-arc matrix
    rng = random.Random(40)
    check_mod_p(make_over_only_link(rng, 40, 15), rng)
