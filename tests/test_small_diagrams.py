"""Every based diagram with at most three crossings (knots) or two (links)."""

import pytest

from tests.conftest import all_diagrams, determinant_cofactor
from valex.alexander import build_matrix, invariant_report
from valex.diagram import Diagram, derive_incidence


@pytest.mark.parametrize("n, n_comp, count", [(1, 1, 4), (2, 1, 48), (3, 1, 960),
                                              (1, 2, 4), (2, 2, 144)])
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


@pytest.mark.parametrize("n", [1, 2])
def test_every_two_component_link(n):
    for d in all_diagrams(n, 2):
        rep = invariant_report(d)  # raises NotDivisible unless the link factor divides
        assert rep.delta0 == determinant_cofactor(build_matrix(derive_incidence(d)[1]).rows), d
