"""Every based diagram with at most three crossings, knots and two-component links."""

import itertools

import pytest

from tests.conftest import all_diagrams, determinant_cofactor
from valex.alexander import build_matrix, delta0_diagram, invariant_report
from valex.diagram import KINK_KINDS, Diagram, add_kink, add_r2, derive_incidence
from valex.laurent import ONE, U, V

KINK_FACTORS = {"Ia": U * V, "Ib": U * V, "Ic": -ONE, "Id": -ONE}


@pytest.mark.parametrize("n, n_comp, count", [(1, 1, 4), (2, 1, 48), (3, 1, 960),
                                              (1, 2, 4), (2, 2, 144), (3, 2, 4800)])
def test_generator_yields_each_diagram_once(n, n_comp, count):
    ds = list(all_diagrams(n, n_comp))
    assert len(ds) == len(set(ds)) == count
    assert all(d.n_crossings == n and d.n_components == n_comp for d in ds)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_knot(n):
    for d in all_diagrams(n):
        rep = invariant_report(d)  # raises NotDivisible unless the knot factor divides
        assert rep.delta0 == determinant_cofactor(build_matrix(derive_incidence(d)[1]).rows), d
        assert rep.conjecture_holds, d
        comp = d.components[0]
        for r in range(1, 2 * n):
            turned = Diagram([comp[r:] + comp[:r]], d.signs)
            assert invariant_report(turned).dbar_normalized == rep.dbar_normalized, (d, r)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_two_component_link(n):
    for d in all_diagrams(n, 2):
        rep = invariant_report(d)  # raises NotDivisible unless the link factor divides
        assert rep.delta0 == determinant_cofactor(build_matrix(derive_incidence(d)[1]).rows), d


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kink_factor_on_every_arc(n):
    # Delta_0 itself, not only its normalized quotient, gains the kink's factor
    for d in all_diagrams(n):
        base = delta0_diagram(d)
        for arc, kind in itertools.product(range(1, 2 * n + 1), KINK_KINDS):
            assert delta0_diagram(add_kink(d, arc, kind)) == KINK_FACTORS[kind] * base, (d, arc, kind)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_r2_factor(n):
    # every ordered pair of distinct arcs up to n = 2; at n = 3, where that
    # is 29,040 pairs, the arcs (1, 2) only
    pairs = [(1, 2)] if n == 3 else list(itertools.permutations(range(1, 2 * n + 1), 2))
    for d in all_diagrams(n):
        want = -(U * V) * delta0_diagram(d)
        for over, under in pairs:
            assert delta0_diagram(add_r2(d, over, under)) == want, (d, over, under)
