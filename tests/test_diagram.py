import ast

import pytest

from tests.conftest import make_random_diagram
from valex.diagram import (
    Diagram,
    KINK_KINDS,
    Passage,
    add_kink,
    add_r2,
    derive_incidence,
    format_gauss,
    mirror_all,
    odd_writhe,
    parse_gauss,
    reverse_orientation,
    smooth_crossing,
    switch_crossing,
)
from valex.errors import (
    EmptyComponent,
    InvalidArgument,
    NotAKnot,
    PairingError,
    ParseError,
    SignMismatch,
    UnknownArc,
    UnknownCrossing,
    ValexError,
)
from valex.twist import TwistSpec, generate_twist, ow_closed_form

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREFOIL = "O1+U2+U1+O2+"


class TestParse:
    def test_trefoil(self):
        d = parse_gauss(TREFOIL)
        assert d.n_crossings == 3
        assert d.is_knot
        assert all(s == 1 for s in d.signs.values())

    def test_virtual_trefoil(self):
        d = parse_gauss(VTREFOIL)
        assert d.n_crossings == 2 and d.is_knot

    def test_single_kink_is_valid(self):
        d = parse_gauss("O1+U1+")
        table, _ = derive_incidence(d)
        assert table.count == 2

    def test_pairing_errors(self):
        for bad in ("O1+", "O1+O1+", "O1+U2+U1+"):
            with pytest.raises(PairingError):
                parse_gauss(bad)

    def test_sign_mismatch(self):
        with pytest.raises(SignMismatch):
            parse_gauss("O1+U1-")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_gauss("O1+X2-U1+")
        with pytest.raises(ParseError):
            parse_gauss("")
        # int() refuses more digits than the int-string conversion limit
        with pytest.raises(ParseError):
            parse_gauss(f"O{'9' * 5000}+U{'9' * 5000}+")
        with pytest.raises(ParseError):
            parse_gauss("O0+U0+")

    def test_trailing_whitespace(self):
        assert parse_gauss("O1+U1+ ") == parse_gauss("O1+U1+")
        assert parse_gauss("O1+U1+\t;U2-O2-") == parse_gauss("O1+U1+;U2-O2-")

    def test_empty_component(self):
        with pytest.raises(EmptyComponent):
            parse_gauss("O1+;;U1+")

    def test_multi_component(self):
        d = parse_gauss("O1+;U1+")
        assert d.n_components == 2 and not d.is_knot

    def test_roundtrip_fixtures(self):
        for code in (TREFOIL, VTREFOIL, "O1+;U1+", "O1-U2-U1-O2-"):
            d = parse_gauss(code)
            assert parse_gauss(format_gauss(d)) == d

    def test_equal_diagrams_hash_equal(self):
        d = parse_gauss("O1-U2+U1-O2+")
        # the same signs inserted in the other order
        same = Diagram(d.components, {2: 1, 1: -1})
        assert same == d and hash(same) == hash(d)
        assert len({d: 1, same: 2}) == 1

    @pytest.mark.parametrize("code", [TREFOIL, VTREFOIL, "O1+;U1+"])
    def test_repr_holds_a_parseable_code(self, code):
        d = parse_gauss(code)
        text = repr(d)
        assert text.startswith("Diagram(") and text.endswith(")")
        assert parse_gauss(ast.literal_eval(text[len("Diagram("):-1])) == d

    def test_roundtrip_random(self, rng):
        for _ in range(25):
            d = make_random_diagram(rng, rng.randint(1, 6), rng.choice([1, 1, 2]))
            assert parse_gauss(format_gauss(d)) == d

    def test_random_diagram_component_limit(self, rng):
        # 2n passages make at most 2n components
        assert make_random_diagram(rng, 1, 2).n_components == 2
        for n, n_comp in ((1, 3), (2, 5), (3, 0)):
            with pytest.raises(ValueError, match=r"n_comp must be in 1\.\."):
                make_random_diagram(rng, n, n_comp)


class TestConstructor:
    """Diagram(...) takes only what a Gauss code can spell."""

    @pytest.mark.parametrize("cid", [0, -2, True, 1.0])
    def test_crossing_ids_are_ints_from_1(self, cid):
        # as parse_gauss does: O0+U0+ is no Gauss code
        with pytest.raises(InvalidArgument, match="crossing id"):
            Diagram([[Passage(cid, True), Passage(cid, False)]], {cid: 1})

    @pytest.mark.parametrize("sign", [1.0, -1.0, True, 2, None])
    def test_signs_are_int_1_or_minus_1(self, sign):
        # 1.0 == 1 and True == 1; a float sign would fail later, in evaluate
        with pytest.raises(SignMismatch):
            Diagram([[Passage(1, True), Passage(1, False)]], {1: sign})

    @pytest.mark.parametrize("labels", [(2.0, 1.0, 4.0, 3.0), (True, 2, 4, 3), (2, 1, 4, 3.0)])
    def test_arc_labels_are_ints(self, labels):
        # the labels index lists; 2.0 == 2 would pass a permutation check
        d = parse_gauss(VTREFOIL)
        with pytest.raises(InvalidArgument, match="arc_labels"):
            Diagram(d.components, d.signs, labels)
        assert Diagram(d.components, d.signs, (2, 1, 4, 3)).arc_labels == (2, 1, 4, 3)


class TestIncidence:
    def test_virtual_trefoil_roles(self):
        _, inc = derive_incidence(parse_gauss(VTREFOIL))
        c1 = inc[0]
        assert (c1.in_over, c1.out_over) == (4, 1)
        assert (c1.in_under, c1.out_under) == (2, 3)

    def test_kink_coincident_roles(self):
        _, inc = derive_incidence(parse_gauss("O1+U1+"))
        c = inc[0]
        assert c.in_over == 2 and c.out_over == 1
        assert c.in_under == 1 and c.out_under == 2

    def test_trefoil_six_distinct(self):
        table, inc = derive_incidence(parse_gauss(TREFOIL))
        assert table.count == 6
        for c in inc:
            assert len({c.in_over, c.out_over, c.in_under, c.out_under}) == 4

    def test_in_out_double_counting(self, rng):
        for _ in range(20):
            d = make_random_diagram(rng, rng.randint(1, 6), rng.choice([1, 2]))
            _, inc = derive_incidence(d)
            ins, outs = {}, {}
            for c in inc:
                for a in (c.in_over, c.in_under):
                    ins[a] = ins.get(a, 0) + 1
                for a in (c.out_over, c.out_under):
                    outs[a] = outs.get(a, 0) + 1
            n2 = 2 * d.n_crossings
            assert ins == {a: 1 for a in range(1, n2 + 1)}
            assert outs == {a: 1 for a in range(1, n2 + 1)}

    def test_label_override(self):
        d = parse_gauss(VTREFOIL)
        relabeled = Diagram(d.components, d.signs, (4, 3, 2, 1))
        _, inc = derive_incidence(relabeled)
        c1 = inc[0]
        assert (c1.in_over, c1.out_over) == (1, 4)
        for bad in ((1, 1, 2, 3), (1, 2, 3)):
            with pytest.raises(ValueError):
                Diagram(d.components, d.signs, bad)
            with pytest.raises(ValexError):
                Diagram(d.components, d.signs, bad)


class TestTransforms:
    def test_switch_involution(self, rng):
        for _ in range(10):
            d = make_random_diagram(rng, rng.randint(1, 5))
            cid = rng.choice(d.crossings)
            assert switch_crossing(switch_crossing(d, cid), cid) == d

    def test_switch_unknown(self):
        with pytest.raises(UnknownCrossing):
            switch_crossing(parse_gauss(VTREFOIL), 9)

    def test_mirror_is_switch_all(self):
        d = parse_gauss(VTREFOIL)
        m = mirror_all(d)
        assert m == switch_crossing(switch_crossing(d, 1), 2)
        assert mirror_all(m) == d

    def test_reverse_involution(self, rng):
        for _ in range(10):
            d = make_random_diagram(rng, rng.randint(1, 5), rng.choice([1, 2]))
            assert reverse_orientation(reverse_orientation(d)) == d

    def test_reverse_keeps_signs_and_flags(self):
        d = parse_gauss("O1+U2-U1+O2-")
        r = reverse_orientation(d)
        assert r.signs == d.signs
        assert [p.over for p in r.components[0]] == [
            p.over for p in reversed(d.components[0])
        ]


class TestOddWrithe:
    def test_trefoil_zero(self):
        assert odd_writhe(parse_gauss(TREFOIL)) == 0

    def test_virtual_trefoil(self):
        assert odd_writhe(parse_gauss(VTREFOIL)) == 2

    def test_vt2(self):
        assert odd_writhe(generate_twist(TwistSpec((2,)))) == 2

    def test_not_a_knot(self):
        with pytest.raises(NotAKnot):
            odd_writhe(parse_gauss("O1+;U1+"))

    def test_mirror_negates(self, rng):
        for _ in range(10):
            d = make_random_diagram(rng, rng.randint(1, 6))
            assert odd_writhe(mirror_all(d)) == -odd_writhe(d)

    def test_agrees_with_closed_form_on_grid(self):
        import itertools

        for clasp in ("a", "^a", "b", "^b"):
            for n in (1, 2, 3):
                for blocks in itertools.product(range(-4, 5) if n < 3 else range(-2, 3),
                                                repeat=n):
                    spec = TwistSpec(blocks, clasp)
                    assert odd_writhe(generate_twist(spec)) == ow_closed_form(spec), spec


class TestKink:
    def test_adds_one_crossing(self):
        d = parse_gauss(VTREFOIL)
        for kind in KINK_KINDS:
            d2 = add_kink(d, 1, kind)
            assert d2.n_crossings == 3
            new = max(d2.signs)
            assert d2.signs[new] == (1 if kind in ("Ia", "Id") else -1)

    def test_unknown_arc(self):
        with pytest.raises(UnknownArc):
            add_kink(parse_gauss(VTREFOIL), 5, "Ia")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            add_kink(parse_gauss(VTREFOIL), 1, "Ix")
        with pytest.raises(ValexError):
            add_kink(parse_gauss(VTREFOIL), 1, "Ix")


class TestSmooth:
    def test_splits_knot(self):
        d = parse_gauss(VTREFOIL)
        s = smooth_crossing(d, 1)
        assert s.n_components == 2 and s.n_crossings == 1

    def test_merges_two_components(self):
        d = parse_gauss("O1+U2+;U1+O2+")
        s = smooth_crossing(d, 1)
        assert s.n_components == 1 and s.n_crossings == 1

    def test_empty_component_rejected(self):
        with pytest.raises(EmptyComponent):
            smooth_crossing(parse_gauss("O1+;U1+"), 1)
        with pytest.raises(EmptyComponent):
            smooth_crossing(parse_gauss("O1+U1+"), 1)

    def test_unknown(self):
        with pytest.raises(UnknownCrossing):
            smooth_crossing(parse_gauss(VTREFOIL), 7)

    def test_sign_independent(self, rng):
        # the smoothing is orientation-determined: switching the crossing first
        # must not change the resulting invariant (basepoints may differ)
        from valex.alexander import delta0_diagram

        for _ in range(15):
            d = make_random_diagram(rng, rng.randint(2, 5), rng.choice([1, 2]))
            for cid in d.crossings:
                try:
                    a = smooth_crossing(d, cid)
                except EmptyComponent:
                    continue
                b = smooth_crossing(switch_crossing(d, cid), cid)
                assert a.signs == b.signs
                assert a.n_components == b.n_components
                assert delta0_diagram(a) == delta0_diagram(b)


class TestR2:
    def test_structure(self):
        d = parse_gauss(VTREFOIL)
        d2 = add_r2(d, 1, 2)
        assert d2.n_crossings == 4
        news = sorted(set(d2.signs) - set(d.signs))
        assert sorted(d2.signs[c] for c in news) == [-1, 1]

    def test_needs_distinct_arcs(self):
        with pytest.raises(UnknownArc):
            add_r2(parse_gauss(VTREFOIL), 2, 2)
