import copy
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests.conftest import (
    determinant_cofactor,
    make_over_only_link,
    make_random_diagram,
    sparse_rows,
)
from valex import alexander
from valex.alexander import (
    KNOT_FACTOR,
    LINK_FACTOR,
    build_matrix,
    delta0_diagram,
    delta_bar,
    determinant,
    invariant_report,
)
from valex.diagram import (
    CrossingIncidence,
    Diagram,
    KINK_KINDS,
    Passage,
    add_kink,
    add_r2,
    derive_incidence,
    parse_gauss,
    smooth_crossing,
    switch_crossing,
)
from valex.errors import EmptyComponent, InvalidArgument, NotDivisible
from valex.laurent import LaurentPoly, ONE, U, V, ZERO, normalize, parse_poly
from valex.twist import TwistSpec, generate_twist
from valex.verify import acceptance_grid

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
        assert not any(kink_row_a[3:])
        assert not any(kink_row_b[3:])

    def test_vhl_two_by_two(self):
        m = rows_of(parse_gauss("O1+;U1+"))
        assert len(m.rows) == 2
        assert determinant(m.rows) == (U - 1) * (V - 1)

    @pytest.mark.parametrize("kind", KINK_KINDS)
    def test_kink_rows_store_no_empty_entry(self, kind):
        # the kink's A row adds +1 and -1 (or u and -u) on one arc: the
        # cancelled entry is not stored, so the row keeps two entries
        m = rows_of(add_kink(parse_gauss("O1+U2+U1+O2+"), 1, kind))
        assert all(all(row.values()) for row in m.rows)
        assert [len(row) for row in m.rows[4:]] == [2, 2]
        assert [[LaurentPoly(row[j]) if j in row else ZERO for j in range(len(m.rows))]
                for row in m.rows] == list(m.entries)

    def test_one_crossing_component_rows(self):
        # O1+;U1+: in_under == out_over and in_over == out_over
        m = rows_of(parse_gauss("O1+;U1+"))
        assert all(all(row.values()) for row in m.rows)
        assert m.rows == [{0: {(1, 0): 1, (0, 0): -1}, 1: {(0, 0): 1, (1, 0): -1}},
                          {0: {(0, 1): 1, (0, 0): -1}}]

    def test_wrong_arc_count(self):
        # one crossing needs two distinct arcs; this one names only arc 1
        with pytest.raises(InvalidArgument):
            build_matrix([CrossingIncidence(1, 1, 1, 1, 1, 1)])

    def test_entry_exponents_at_build_time(self, rng):
        allowed = {(0, 0), (1, 0), (0, 1)}
        for _ in range(10):
            d = make_random_diagram(rng, rng.randint(1, 5), rng.choice([1, 2]))
            for row in rows_of(d).entries:
                for e in row:
                    assert {key for key, _ in e.items()} <= allowed


_EXPS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
# (kind, i, j, c): kind 0 is a zero entry, 1-3 the unit c * u^i v^j, 4 the
# one-term non-unit 2c * u^i v^j and 5 the two-term c * u^i v^j + 2 * u^(i+1) v^j
_ENTRY = st.tuples(st.integers(0, 5), st.integers(-2, 2), st.integers(-2, 2),
                   st.sampled_from([1, -1]))


def _entry(kind: int, i: int, j: int, c: int) -> dict:
    if kind == 0:
        return {}
    if kind < 4:
        return {(i, j): c}
    if kind == 4:
        return {(i, j): 2 * c}
    return {(i, j): c, (i + 1, j): 2}


@st.composite
def unit_heavy_rows(draw):
    """Sparse rows of order 1..7, mostly units +-u^i v^j.

    Zero entries are left out or stored as {}.  A row or a column may be a
    unit times another, so that it empties during a unit step and the result is 0.
    """
    n = draw(st.integers(1, 7))
    entries = [_entry(*e) for e in draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))]
    store_zeros = draw(st.booleans())
    m = [{j: t for j, t in enumerate(entries[i * n:(i + 1) * n]) if t or store_zeros}
         for i in range(n)]
    kind = draw(st.sampled_from(["none", "row", "column"]))
    if n > 1 and kind != "none":
        k, src = draw(st.permutations(range(n)))[:2]
        (a, b), c = draw(_EXPS), draw(st.sampled_from([1, -1]))

        def times(t):
            return {(x + a, y + b): c * z for (x, y), z in t.items()}

        if kind == "row":
            m[k] = {j: times(t) for j, t in m[src].items()}
        else:
            for row in m:
                row.pop(k, None)
                if src in row:
                    row[k] = times(row[src])
    return m


class TestDeterminant:
    def test_diag(self):
        assert determinant(sparse_rows([[U, ZERO], [ZERO, V]])) == U * V

    def test_vt1(self):
        assert delta0_diagram(generate_twist(TwistSpec((1,)))) == VT1_VALUE

    def test_trefoil_zero(self):
        assert delta0_diagram(parse_gauss("O1+U2+O3+U1+O2+U3+")) == ZERO

    def test_bareiss_equals_cofactor_on_diagrams(self, rng):
        for _ in range(20):
            d = make_random_diagram(rng, rng.randint(1, 4), rng.choice([1, 2]))
            m = rows_of(d).rows
            assert determinant(m) == determinant_cofactor(m)

    @pytest.mark.parametrize("code", ["O1+O2+;U1+U2+", "O1+O2+O3+;U1+U2+U3+",
                                      "O1-O2+O3-;U3-U2+U1-"])
    def test_two_unit_rows_closing_a_cycle(self, code):
        # the all-over component's B rows -x_in + v*x_out form a cycle over
        # its arcs; after the others are pivoted on, the last one is
        # +-(v^k - 1) up to a unit, not a unit, so it is a Bareiss pivot
        m = rows_of(parse_gauss(code)).rows
        # every crossing is over on the first component, so every B row is one
        assert all(len(row) == 2 and all(len(t) == 1 for t in row.values())
                   for row in m[1::2])
        det = determinant(m)
        assert det
        assert det == determinant_cofactor(m)

    def test_bareiss_equals_cofactor_on_random_matrices(self, rng):
        def rand_poly():
            return LaurentPoly({
                (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                for _ in range(rng.randint(0, 3))
            })

        for order in (1, 2, 3, 4, 5):
            for _ in range(6):
                m = sparse_rows([[rand_poly() for _ in range(order)] for _ in range(order)])
                assert determinant(m) == determinant_cofactor(m)

    def test_order_eight(self, rng):
        d = make_random_diagram(rng, 4)
        m = rows_of(d)
        assert len(m.rows) == 8
        assert determinant(m.rows) == determinant_cofactor(m.rows)

    def test_non_square(self):
        # two rows with an entry in a third column: the column is out of range
        with pytest.raises(InvalidArgument, match="column 2"):
            determinant([{0: {(1, 0): 1}, 2: {(0, 1): 1}}, {0: {(0, 0): 1}}])
        with pytest.raises(InvalidArgument, match="column -1"):
            determinant([{-1: {(0, 0): 1}}])
        # a zero entry stored as {} is checked like any other
        with pytest.raises(InvalidArgument, match="column 3"):
            determinant([{0: {(0, 0): 1}, 3: {}}])

    def test_zero_pivot_column(self):
        m = sparse_rows([[ZERO, U], [ZERO, V]])
        assert determinant(m) == ZERO

    def test_row_swap_pivot(self):
        m = sparse_rows([[ZERO, U], [V, ZERO]])
        assert determinant(m) == -U * V

    def test_column_swap_negates(self):
        base = rows_of(generate_twist(TwistSpec((1,))))
        swapped = [[row[1], row[0], row[2], row[3]] for row in base.entries]
        assert determinant(sparse_rows(swapped)) == -determinant(base.rows)

    def test_row_pair_reorder_invariant(self):
        base = rows_of(generate_twist(TwistSpec((1,))))
        rows = base.rows
        reordered = rows[2:4] + rows[0:2]
        assert determinant(reordered) == determinant(rows)

    def test_equals_cofactor_under_row_and_column_permutations(self, rng):
        def sparse_poly():
            if rng.random() < 0.5:
                return ZERO
            return LaurentPoly({
                (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 3))
            })

        for order in range(1, 8):
            for _ in range(8):
                m = [[sparse_poly() for _ in range(order)] for _ in range(order)]
                rows = rng.sample(range(order), order)
                cols = rng.sample(range(order), order)
                permuted = sparse_rows([[m[i][j] for j in cols] for i in rows])
                assert determinant(permuted) == determinant_cofactor(permuted)

    def test_column_empties_after_first_pivot(self):
        # column 1 is u times column 0: the first pivot, 1 at (0, 0), cancels
        # all of column 1 while both remaining rows keep an entry
        m = sparse_rows([[ONE, U, V], [V, U * V, ONE], [U, U * U, ONE]])
        assert determinant(m) == ZERO == determinant_cofactor(m)

    def test_zero_coefficients_in_dict_entries(self):
        # the constructor drops the zero coefficient, so the entry is 1
        m = sparse_rows([
            [LaurentPoly({(0, 0): 1, (1, 0): 0}), V, ZERO],
            [U, 2 * ONE, ONE],
            [ZERO, U * V, 3 * ONE],
        ])
        assert determinant(m) == parse_poly("6 - 4*u*v") == determinant_cofactor(m)

    def test_order_one(self):
        assert determinant(sparse_rows([[U - V]])) == U - V
        assert determinant(sparse_rows([[LaurentPoly({(1, 2): 3, (0, 0): 0})]])) == 3 * U * V**2
        assert determinant([{}]) == ZERO
        assert determinant([{0: {}}]) == ZERO

    def test_unit_pivots_with_negative_coefficients_and_exponents(self, rng):
        # the units are -u^i v^j with i, j != 0, so a wrong sign or exponent
        # in a pivot's inverse changes every update it takes part in
        def entry():
            x = rng.random()
            if x < 0.4:
                return ZERO
            mono = (rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2]))
            if x < 0.85:
                return LaurentPoly({mono: -1})
            return LaurentPoly({mono: -1, (0, 0): 2})

        nonzero = 0
        for order in range(2, 7):
            for _ in range(8):
                m = sparse_rows([[entry() for _ in range(order)] for _ in range(order)])
                det = determinant(m)
                assert det == determinant_cofactor(m)
                nonzero += bool(det)
        assert nonzero >= 20

    def test_no_unit_entry(self, rng):
        # coefficients other than +-1 or two terms: no first pivot is a unit
        def entry():
            if rng.random() < 0.3:
                return ZERO
            mono = (rng.randint(-1, 1), rng.randint(-1, 1))
            if rng.random() < 0.5:
                return LaurentPoly({mono: rng.choice([-3, -2, 2, 3])})
            return LaurentPoly({mono: rng.choice([-1, 1]), (2, 2): rng.choice([-2, 1])})

        for order in range(1, 6):
            for _ in range(6):
                m = sparse_rows([[entry() for _ in range(order)] for _ in range(order)])
                assert determinant(m) == determinant_cofactor(m)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_constant_entries_without_units(self, rng, order):
        # no entry is +-1, so the first steps are Bareiss steps; they make
        # +-1 entries, which are then unit steps whose previous pivot is
        # not 1, so every row they update or leave alone is divided by it
        values = [0, 2, -2, 3, -3, 4, 5]
        for _ in range(300):
            m = [{j: {(0, 0): c} for j, c in enumerate(rng.choices(values, k=order)) if c}
                 for _ in range(order)]
            assert determinant(m) == determinant_cofactor(m)

    def test_all_units_leave_an_empty_core(self, rng):
        # no row or column has a single entry, so the first pivot, a_00,
        # costs 1; its update cancels a_11 because a_00 * a_11 == a_01 * a_10,
        # and every entry left is a unit until the matrix is used up
        a, b, c = -U * V**2, LaurentPoly({(-1, 1): 1}), U**2
        d = LaurentPoly({(0, -1): -1})
        assert a * d == b * c
        e, f, g = -V, LaurentPoly({(1, -2): 1}), -U
        m = sparse_rows([[a, b, ZERO], [c, d, e], [ZERO, f, g]])
        assert determinant(m) == -a * e * f == determinant_cofactor(m)

        def unit():
            return LaurentPoly({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice([-1, 1])})

        # unit entries on and below the diagonal, rows and columns shuffled
        for order in range(1, 7):
            tri = [[unit() if j <= i else ZERO for j in range(order)] for i in range(order)]
            rows = rng.sample(range(order), order)
            cols = rng.sample(range(order), order)
            m = sparse_rows([[tri[i][j] for j in cols] for i in rows])
            assert determinant(m) == determinant_cofactor(m)

    def test_unit_pivot_costlier_than_a_non_unit(self):
        # 1 + u sits alone in its row (cost 0), every unit costs 2 or more;
        # the unit is still taken first, and 1 + u's entry is the last pivot
        m = sparse_rows([[ONE + U, ZERO, ZERO], [V, -U, ONE], [-ONE, U * V, V]])
        want = parse_poly("-2*u*v - 2*u^2*v")
        assert determinant(m) == want == determinant_cofactor(m)

    def test_empty_entry_is_zero(self):
        # a stored {} is a zero entry; the search for the entry of fewest
        # terms once took it as the pivot and returned 0
        m = [{0: {}, 1: {(0, 0): 2}, 2: {(0, 0): 3}},
             {0: {(0, 0): 2}, 1: {(0, 0): 2}, 2: {(0, 0): 5}},
             {0: {(0, 0): 3}, 1: {(0, 0): 7}, 2: {(0, 0): 2}}]
        assert determinant(m) == 46 * ONE == determinant_cofactor(m)

    def test_unit_pivots_with_large_updates(self, rng, monkeypatch):
        # units on the diagonal and 13- to 15-term entries elsewhere, so a
        # unit step's update multiplies two entries of 13 or more terms: 169
        # or more term products, which fma_terms packs
        def big():
            terms, size = {}, rng.randint(13, 15)
            while len(terms) < size:
                terms[(rng.randint(-2, 2), rng.randint(-2, 2))] = rng.choice([-3, -2, -1, 1, 2, 3])
            return terms

        def unit():
            return {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice([-1, 1])}

        products = []
        fma_terms = alexander.fma_terms

        def spy(a, b, c, d):
            if a == {(0, 0): 1}:
                products.append(len(c) * len(d))
            return fma_terms(a, b, c, d)

        monkeypatch.setattr(alexander, "fma_terms", spy)
        for order in (3, 4, 5):
            for _ in range(2):
                m = [{j: unit() if i == j else big() for j in range(order)} for i in range(order)]
                det = determinant(m)
                assert det
                assert det == determinant_cofactor(m)
            # row 1 is a 13-term multiple of row 0, whose unit is the first
            # pivot: the packed update cancels all of row 1
            m = [{j: unit() if i == j else big() for j in range(order)} for i in range(order)]
            factor = LaurentPoly(big())
            m[1] = {j: dict((factor * LaurentPoly(t)).items()) for j, t in m[0].items()}
            assert determinant(m) == ZERO == determinant_cofactor(m)
        assert products and min(products) >= 150

    def test_input_rows_unchanged(self, rng, monkeypatch):
        # the rows of every over-arc matrix of the acceptance grid and of
        # n = 16 codes, and their term dicts, are as they were after the call
        calls = []
        real = alexander.determinant

        def checked(m):
            before = copy.deepcopy(m)
            det = real(m)
            assert m == before
            calls.append(len(m))
            return det

        monkeypatch.setattr(alexander, "determinant", checked)
        for spec in acceptance_grid():
            delta0_diagram(generate_twist(spec))
        for _ in range(10):
            delta0_diagram(make_random_diagram(rng, 16))
        assert len(calls) == 910

    @settings(max_examples=200, deadline=None)
    @given(unit_heavy_rows())
    def test_unit_heavy_matrices(self, m):
        assert determinant(m) == determinant_cofactor(m)


def assert_over_arc_matches(d):
    got = delta0_diagram(d)
    assert got == determinant(rows_of(d).rows), d
    assert all(c for _, c in got.items())


@st.composite
def over_arc_cases(draw):
    """A code of 1-3 components, or a link with an over-only component."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return make_over_only_link(rng, n, draw(st.integers(1, n)))
    return make_random_diagram(rng, n, draw(st.integers(1, min(3, 2 * n))))


class TestOverArcMatrix:
    """delta0_diagram equals the 2n x 2n determinant term by term."""

    @settings(max_examples=150, deadline=None)
    @given(over_arc_cases())
    def test_random_codes(self, d):
        assert_over_arc_matches(d)

    @settings(max_examples=40, deadline=None)
    @given(over_arc_cases(), st.data())
    def test_kinks_r2_and_smoothing(self, d, data):
        arcs = st.integers(1, 2 * d.n_crossings)
        arc = data.draw(arcs)
        for kind in KINK_KINDS:
            assert_over_arc_matches(add_kink(d, arc, kind))
        if d.n_crossings >= 2:
            over, under = data.draw(st.lists(arcs, min_size=2, max_size=2, unique=True))
            assert_over_arc_matches(add_r2(d, over, under))
        # smooth_crossing relabels the arcs through arc_labels
        try:
            smoothed = smooth_crossing(d, data.draw(st.sampled_from(d.crossings)))
        except EmptyComponent:
            return
        assert_over_arc_matches(smoothed)

    @pytest.mark.parametrize("code", ["O1+;U1+", "O1-;U1-", "O1+O2+;U1+U2+",
                                      "O1-O2+O3-;U3-U2+U1-"])
    def test_over_only_components(self, code):
        d = parse_gauss(code)
        assert delta0_diagram(d)
        assert_over_arc_matches(d)

    @pytest.mark.parametrize("clasp", ["a", "^a", "b", "^b"])
    def test_twist_diagrams(self, clasp):
        # generated diagrams carry explicit, and for b/^b mirrored, arc labels
        for n in (1, 2):
            for blocks in itertools.product(range(-4, 5), repeat=n):
                assert_over_arc_matches(generate_twist(TwistSpec(blocks, clasp)))

    def test_cycle_with_zero_v_exponent(self):
        # the over-only component's signs add up to 0, so its cycle row
        # v^0 - 1 is empty and Delta_0 is 0
        d = parse_gauss("O1+O2-;U1+U2-")
        assert delta0_diagram(d) == ZERO == determinant(rows_of(d).rows)


class TestDeltaBar:
    def test_vt1_is_one(self):
        assert delta_bar(VT1_VALUE) == ONE

    def test_vhl_link_quotient(self):
        p = delta0_diagram(parse_gauss("O1+;U1+"))
        assert delta_bar(p, is_knot=False) == ONE

    def test_zero(self):
        assert not delta_bar(ZERO)

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
        assert not rep.dbar_normalized
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


@st.composite
def diagrams(draw):
    """A random diagram of at most 10 crossings and one or two components."""
    rng = draw(st.randoms(use_true_random=False))
    return make_random_diagram(rng, draw(st.integers(1, 10)), draw(st.sampled_from([1, 2])))


class TestDiagramInvariance:
    """The normalized quotient does not depend on how a diagram is written.

    Rotation and renumbering permute the rows or columns of the Alexander
    matrix, so they also check that the pivot order of the elimination has no
    effect.  A kink or an R2 pair adds crossings and multiplies Delta_0 by a
    unit, which normalization removes.
    """

    @settings(max_examples=60, deadline=None)
    @given(diagrams(), st.data())
    def test_basepoint_rotation(self, d, data):
        shifts = [data.draw(st.integers(0, len(c) - 1)) for c in d.components]
        rotated = Diagram([c[k:] + c[:k] for c, k in zip(d.components, shifts)], d.signs)
        assert (invariant_report(rotated).dbar_normalized
                == invariant_report(d).dbar_normalized)

    @settings(max_examples=60, deadline=None)
    @given(diagrams(), st.data())
    def test_crossing_renumbering(self, d, data):
        ids = dict(zip(d.crossings, data.draw(st.permutations(d.crossings))))
        renumbered = Diagram(
            [[Passage(ids[p.crossing], p.over) for p in c] for c in d.components],
            {ids[c]: s for c, s in d.signs.items()},
        )
        assert (invariant_report(renumbered).dbar_normalized
                == invariant_report(d).dbar_normalized)

    @settings(max_examples=60, deadline=None)
    @given(diagrams(), st.data())
    def test_kink_insertion(self, d, data):
        arc = data.draw(st.integers(1, 2 * d.n_crossings))
        want = invariant_report(d).dbar_normalized
        for kind in KINK_KINDS:
            assert invariant_report(add_kink(d, arc, kind)).dbar_normalized == want, kind

    @settings(max_examples=60, deadline=None)
    @given(diagrams(), st.data())
    def test_r2_insertion(self, d, data):
        assume(d.n_crossings >= 2)
        over, under = data.draw(st.lists(st.integers(1, 2 * d.n_crossings),
                                         min_size=2, max_size=2, unique=True))
        assert (invariant_report(add_r2(d, over, under)).dbar_normalized
                == invariant_report(d).dbar_normalized)
