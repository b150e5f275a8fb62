import pytest

from tests.conftest import make_random_diagram
from valex.alexander import (
    KNOT_FACTOR,
    LINK_FACTOR,
    build_matrix,
    delta0_diagram,
    delta_bar,
    determinant,
    determinant_cofactor,
    invariant_report,
)
from valex.diagram import (
    KINK_KINDS,
    add_kink,
    add_r2,
    derive_incidence,
    parse_gauss,
    smooth_crossing,
    switch_crossing,
)
from valex.errors import EmptyComponent, NotDivisible
from valex.laurent import LaurentPoly, ONE, U, V, ZERO, normalize, parse_poly
from valex.twist import TwistSpec, generate_twist

VT1_VALUE = parse_poly("-1 + u + v - u^2*v - u*v^2 + u^2*v^2")


def rows_of(d):
    _, inc = derive_incidence(d)
    return build_matrix(inc)


class TestBuildMatrix:
    def test_vt1_fixture_rows(self):
        m = rows_of(generate_twist(TwistSpec((1,))))
        # clasp rows over columns x1..x4
        assert m.entries[0] == [-ONE, U, ONE, -U]
        assert m.entries[1] == [V, -ONE, ZERO, ZERO]
        # twist type-1 rows
        assert m.entries[2] == [ONE, -ONE, -U, U]
        assert m.entries[3] == [ZERO, V, ZERO, -ONE]

    def test_positive_kink_rows(self):
        # kink of kind Ia inserted on arc 1: relation rows u*a1 - u*a3 and -a1 + v*a2
        d = add_kink(parse_gauss("O1+U2+U1+O2+"), 1, "Ia")
        m = rows_of(d)
        kink_row_a, kink_row_b = m.entries[4], m.entries[5]
        assert kink_row_a[0:3] == [U, ZERO, -U]
        assert kink_row_b[0:3] == [-ONE, V, ZERO]
        assert all(e.is_zero for e in kink_row_a[3:])
        assert all(e.is_zero for e in kink_row_b[3:])

    def test_vhl_two_by_two(self):
        m = rows_of(parse_gauss("O1+;U1+"))
        assert m.order == 2
        assert determinant(m) == (U - 1) * (V - 1)

    def test_entry_exponents_at_build_time(self, rng):
        allowed = {(0, 0), (1, 0), (0, 1)}
        for _ in range(10):
            d = make_random_diagram(rng, rng.randint(1, 5), rng.choice([1, 2]))
            for row in rows_of(d).entries:
                for e in row:
                    assert set(e.terms) <= allowed


class TestDeterminant:
    def test_diag(self):
        assert determinant([[U, ZERO], [ZERO, V]]) == U * V

    def test_vt1(self):
        assert delta0_diagram(generate_twist(TwistSpec((1,)))) == VT1_VALUE

    def test_trefoil_zero(self):
        assert delta0_diagram(parse_gauss("O1+U2+O3+U1+O2+U3+")) == ZERO

    def test_bareiss_equals_cofactor_on_diagrams(self, rng):
        for _ in range(20):
            d = make_random_diagram(rng, rng.randint(1, 4), rng.choice([1, 2]))
            m = rows_of(d)
            assert determinant(m) == determinant_cofactor(m)

    def test_bareiss_equals_cofactor_on_random_matrices(self, rng):
        def rand_poly():
            return LaurentPoly({
                (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                for _ in range(rng.randint(0, 3))
            })

        for order in (1, 2, 3, 4, 5):
            for _ in range(6):
                m = [[rand_poly() for _ in range(order)] for _ in range(order)]
                assert determinant(m) == determinant_cofactor(m)

    def test_order_eight(self, rng):
        d = make_random_diagram(rng, 4)
        m = rows_of(d)
        assert m.order == 8
        assert determinant(m) == determinant_cofactor(m)

    def test_zero_pivot_column(self):
        m = [[ZERO, U], [ZERO, V]]
        assert determinant(m) == ZERO

    def test_row_swap_pivot(self):
        m = [[ZERO, U], [V, ZERO]]
        assert determinant(m) == -U * V

    def test_column_swap_negates(self):
        base = rows_of(generate_twist(TwistSpec((1,))))
        swapped = [[row[1], row[0], row[2], row[3]] for row in base.entries]
        assert determinant(swapped) == -determinant(base)

    def test_row_pair_reorder_invariant(self):
        base = rows_of(generate_twist(TwistSpec((1,))))
        rows = base.entries
        reordered = rows[2:4] + rows[0:2]
        assert determinant(reordered) == determinant(base)


class TestDeltaBar:
    def test_vt1_is_one(self):
        assert delta_bar(VT1_VALUE) == ONE

    def test_vhl_link_quotient(self):
        p = delta0_diagram(parse_gauss("O1+;U1+"))
        assert delta_bar(p, is_knot=False) == ONE

    def test_zero(self):
        assert delta_bar(ZERO).is_zero

    def test_violation_raises(self):
        with pytest.raises(NotDivisible):
            delta_bar(U - 1)

    def test_vt11_factored_value(self):
        p = delta0_diagram(generate_twist(TwistSpec((1, 1))))
        assert p == KNOT_FACTOR * parse_poly("1 + u + u*v")


class TestLemmaLaws:
    """Diagram-level laws on the small corpus (kinks, skein, divisibility)."""

    CORPUS = [
        "O1+;U1+",
        "O1-;U1-",
        "O1+U2+U1+O2+",
        "O1+U2+O3+U1+O2+U3+",
        "O1+U2+;U1+O2+",
    ]

    def test_kink_factors(self):
        factors = {"Ia": U * V, "Ib": U * V, "Ic": -ONE, "Id": -ONE}
        for code in self.CORPUS:
            d = parse_gauss(code)
            base = delta0_diagram(d)
            base_norm = normalize(delta_bar(base, is_knot=d.is_knot)).poly
            for arc in range(1, 2 * d.n_crossings + 1):
                for kind in KINK_KINDS:
                    got = delta0_diagram(add_kink(d, arc, kind))
                    assert got == factors[kind] * base, (code, arc, kind)
                    after = normalize(
                        delta_bar(got, is_knot=d.is_knot)
                    ).poly
                    assert after == base_norm

    def test_kink_factor_multiset(self):
        d = parse_gauss("O1+U2+U1+O2+")
        base = delta0_diagram(d)
        got = sorted(
            str(delta0_diagram(add_kink(d, 1, k))) for k in KINK_KINDS
        )
        want = sorted(str(f * base) for f in (U * V, U * V, -ONE, -ONE))
        assert got == want

    def test_skein_every_crossing(self):
        uv1 = U * V - 1
        for code in self.CORPUS:
            d = parse_gauss(code)
            for cid in d.crossings:
                plus = d if d.signs[cid] > 0 else switch_crossing(d, cid)
                minus = switch_crossing(plus, cid)
                try:
                    zero = smooth_crossing(plus, cid)
                except EmptyComponent:
                    continue
                lhs = delta0_diagram(plus) - delta0_diagram(minus)
                assert lhs == uv1 * delta0_diagram(zero), (code, cid)

    def test_r2_insertion(self):
        for code in self.CORPUS:
            d = parse_gauss(code)
            if d.n_crossings < 2:
                continue
            assert delta0_diagram(add_r2(d, 1, 2)) == -(U * V) * delta0_diagram(d)

    def test_divisibility_never_fails(self, rng):
        for _ in range(25):
            d = make_random_diagram(rng, rng.randint(1, 5), rng.choice([1, 1, 2]))
            delta_bar(delta0_diagram(d), is_knot=d.is_knot)  # must not raise


class TestInvariantReport:
    def test_worked_example(self):
        rep = invariant_report(generate_twist(TwistSpec((7, 4, 3, 5, 9))))
        assert rep.dbar_normalized == parse_poly(
            "2 + 5*u*v - u^2*v^3 + 2*u^2*v^2 + 4*u^3*v^3"
        )
        assert rep.odd_writhe == 28
        assert rep.dbar_at_minus_one == 14
        assert rep.conjecture_holds
        assert rep.delta0_normalized == KNOT_FACTOR * rep.dbar_normalized

    def test_negative_example(self):
        rep = invariant_report(generate_twist(TwistSpec((-7, 3, -5, -2, 3))))
        assert rep.dbar_normalized == parse_poly(
            "1 + u*v - u^2*v^2 + u^3*v^2 + 4*u^3*v^3"
        )
        assert rep.conjecture_holds

    def test_vt0(self):
        rep = invariant_report(generate_twist(TwistSpec((0,))))
        assert rep.dbar_normalized.is_zero
        assert rep.odd_writhe == 0
        assert rep.conjecture_holds

    def test_link_omits_knot_fields(self):
        rep = invariant_report(parse_gauss("O1+;U1+"))
        assert rep.odd_writhe is None
        assert rep.conjecture_holds is None
        assert rep.dbar_normalized == ONE
        assert rep.dbar_at_minus_one == 1
        assert rep.delta0_normalized == LINK_FACTOR * rep.dbar_normalized

    def test_switched_hopf(self):
        # switching VHL+ changes Delta_0 only through the labeling; the
        # printed fixtures of the two Hopf links differ exactly by sign
        plus = parse_gauss("O1+;U1+")
        minus = parse_gauss("O1-;U1-")
        assert delta0_diagram(plus) == -delta0_diagram(minus)
        sw = switch_crossing(plus, 1)
        assert normalize(delta_bar(delta0_diagram(sw), is_knot=False)).poly == ONE
