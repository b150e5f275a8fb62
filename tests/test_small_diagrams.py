"""Every based diagram with at most three crossings, knots and two-component links."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (KINK_KINDS, CrossingFreeLoop, add_kink, add_r2, all_diagrams,
                            determinant_cofactor, genus, smooth_crossing, switch_crossing)
from valex.alexander import build_matrix, delta0_diagram, invariant_report
from valex.diagram import Diagram, derive_incidence, parse_gauss
from valex.laurent import ONE, U, V

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE_EIGHT = "O1+U2-O4-U1+O3+U4-O2-U3+"
KINK_FACTORS = {"Ia": U * V, "Ib": U * V, "Ic": -ONE, "Id": -ONE}

# (n, components) -> codes of genus 0 among all_diagrams(n, components);
# Delta_0 vanishes on each, as on every classical link
CLASSICAL_COUNTS = {(1, 1): 4, (2, 1): 32, (3, 1): 336, (1, 2): 0, (2, 2): 32, (3, 2): 768}


@pytest.mark.parametrize("n, n_comp, count", [(1, 1, 4), (2, 1, 48), (3, 1, 960),
                                              (1, 2, 4), (2, 2, 144), (3, 2, 4800)])
def test_generator_yields_each_diagram_once(n, n_comp, count):
    ds = list(all_diagrams(n, n_comp))
    assert len(ds) == len(set(ds)) == count
    assert all(d.n_crossings == n and d.n_components == n_comp for d in ds)


def test_genus_oracle_fixtures():
    assert genus(parse_gauss(TREFOIL)) == 0  # the classical trefoil
    assert genus(parse_gauss(FIGURE_EIGHT)) == 0  # the figure-eight
    assert genus(parse_gauss("O1+U2+U1+O2+")) == 1  # the virtual trefoil
    assert genus(parse_gauss("O1+;U1+")) == 1  # the virtual Hopf link


def test_r2_on_the_trefoil_mostly_leaves_the_plane():
    # an R2 move keeps the knot type, but pushing one arc over another across
    # the diagram adds a handle to the Carter surface
    d = parse_gauss(TREFOIL)
    genera = [genus(add_r2(d, a, b)) for a, b in itertools.permutations(range(1, 7), 2)]
    assert (genera.count(0), genera.count(1), len(genera)) == (6, 24, 30)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([TREFOIL, FIGURE_EIGHT]), st.data())
def test_r1_keeps_the_genus_and_r2_never_lowers_it(code, data):
    # chains of 1-4 moves from a classical knot; each genus-0 result is a
    # classical diagram, so Delta_0 and the odd writhe vanish on it
    d = parse_gauss(code)
    g = genus(d)
    for _ in range(data.draw(st.integers(1, 4))):
        arcs = st.integers(1, 2 * d.n_crossings)
        if data.draw(st.booleans()):
            d = add_kink(d, data.draw(arcs), data.draw(st.sampled_from(KINK_KINDS)))
            assert genus(d) == g
        else:
            over = data.draw(arcs)
            d = add_r2(d, over, data.draw(arcs.filter(lambda a: a != over)))
            assert genus(d) >= g
            g = genus(d)
        if g == 0:
            rep = invariant_report(d)
            assert not rep.delta0 and rep.odd_writhe == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_knot(n):
    classical = 0
    for d in all_diagrams(n):
        rep = invariant_report(d)  # raises NotDivisible unless the knot factor divides
        assert rep.delta0 == determinant_cofactor(build_matrix(derive_incidence(d)[1]).rows), d
        assert rep.conjecture_holds, d
        if genus(d) == 0:
            classical += 1
            assert not rep.delta0 and rep.odd_writhe == 0, d
        comp = d.components[0]
        for r in range(1, 2 * n):
            turned = Diagram([comp[r:] + comp[:r]], d.signs)
            assert invariant_report(turned).dbar_normalized == rep.dbar_normalized, (d, r)
    assert classical == CLASSICAL_COUNTS[n, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_two_component_link(n):
    classical = 0
    for d in all_diagrams(n, 2):
        rep = invariant_report(d)  # raises NotDivisible unless the link factor divides
        assert rep.delta0 == determinant_cofactor(build_matrix(derive_incidence(d)[1]).rows), d
        if genus(d) == 0:
            classical += 1
            assert not rep.delta0, d
    assert classical == CLASSICAL_COUNTS[n, 2]


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


def test_exact_skein_identity_at_every_crossing():
    # Delta_0(L+) - Delta_0(L-) = (uv-1) Delta_0(L0) term by term, under
    # smooth_crossing's labels, at every crossing of every knot with n <= 3
    # and every two-component link with n <= 2, smoothed from either sign
    ds = itertools.chain(*(all_diagrams(n) for n in (1, 2, 3)),
                         *(all_diagrams(n, 2) for n in (1, 2)))
    count, alone = 0, set()
    for d in ds:
        for cid in sorted(d.signs):
            try:
                zero = smooth_crossing(d, cid)
            except CrossingFreeLoop:  # a crossing-free loop
                continue
            plus = d if d.signs[cid] > 0 else switch_crossing(d, cid)
            minus = switch_crossing(plus, cid)
            assert (delta0_diagram(plus) - delta0_diagram(minus)
                    == (U * V - ONE) * delta0_diagram(zero)), (d, cid)
            count += 1
            # a passage alone in its component: in_over = out_over or in_under = out_under
            alone.update(p.over for comp in d.components if len(comp) == 1
                         for p in comp if p.crossing == cid)
    assert count == 1920
    assert alone == {True, False}
