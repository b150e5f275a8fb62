import ast
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    KINK_KINDS,
    CrossingFreeLoop,
    add_kink,
    add_r2,
    make_random_diagram,
    reverse_orientation,
    smooth_crossing,
    switch_crossing,
)
from valex.diagram import (
    Diagram,
    MAX_GAUSS_CROSSINGS,
    Passage,
    derive_incidence,
    format_gauss,
    mirror_all,
    odd_writhe,
    parse_gauss,
)
from valex.errors import (
    InvalidArgument,
    ParseError,
    ValexError,
)
from valex.twist import TwistSpec, generate_twist, ow_closed_form

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREFOIL = "O1+U2+U1+O2+"

_ITEM = re.compile(r"([OU])\s*([0-9]+)\s*([+-])|(;)|\S")


def parse_checked(text: str) -> Diagram:
    """A Gauss code parsed token by token and built by the checked constructor.

    The reference for ``parse_gauss``: it raises the same ParseErrors in the
    same order, then the cap error, and leaves the pairing check to
    ``Diagram(components, signs)``.
    """
    components, passages, signs, start = [], [], {}, 0
    for m in _ITEM.finditer(text):
        over, digits, sign_char, semicolon = m.groups()
        if semicolon:
            if not passages:
                raise ParseError("component without classical crossings", start)
            components.append(passages)
            passages, start = [], m.end()
            continue
        pos = m.start()
        if over is None:
            raise ParseError(
                f"bad token in Gauss code {text[pos:pos + 8].partition(';')[0]!r}", pos)
        try:
            cid = int(digits)
        except ValueError:
            raise ParseError(f"crossing id of {len(digits)} digits is too long", pos) from None
        if cid < 1:
            raise ParseError("crossing ids start at 1", pos)
        sign = 1 if sign_char == "+" else -1
        if signs.setdefault(cid, sign) != sign:
            raise ParseError(f"crossing {cid} appears with both signs in {text!r}", pos)
        passages.append(Passage(cid, over == "O"))
    if not passages:
        if components:
            raise ParseError("component without classical crossings", start)
        raise ParseError("empty Gauss code", 0)
    components.append(passages)
    if len(signs) > MAX_GAUSS_CROSSINGS:
        raise ParseError(f"{len(signs)} crossings exceed the cap of {MAX_GAUSS_CROSSINGS}", 0)
    return Diagram(components, signs)


def outcome(parse, text):
    """The diagram, or the error's type, message and position."""
    try:
        return parse(text)
    except (ParseError, InvalidArgument) as e:
        return type(e), str(e), getattr(e, "position", None)


_TOKEN = st.builds("{}{}{}{}{}".format, st.sampled_from("OU"), st.sampled_from(["", "", " "]),
                   st.integers(0, 6), st.sampled_from(["", "", "\t"]), st.sampled_from("+-"))
_PIECE = st.one_of(_TOKEN, _TOKEN, _TOKEN, st.sampled_from([";", " ", "X", "O", "7", "+", "U-"]))


@st.composite
def near_valid_gauss(draw):
    """Gauss text a few edits from a valid code, at most or just over the cap.

    A valid code of 1 to 5 (or 71 to 74) crossings in 1 or 2 components,
    then up to three edits: a token dropped (a crossing visited once),
    repeated (three times) or with its sign or side switched, a ';' or a
    blank put in, or a stray piece of a token.
    """
    n = draw(st.one_of(st.integers(1, 5), st.integers(MAX_GAUSS_CROSSINGS - 1,
                                                      MAX_GAUSS_CROSSINGS + 2)))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=n, max_size=n))
    tokens = draw(st.permutations([f"{side}{c}{signs[c - 1]}"
                                   for c in range(1, n + 1) for side in "OU"]))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "sign", "side", "insert"]))
        t = tokens[k]
        if edit == "drop" and len(tokens) > 1:
            del tokens[k]
        elif edit == "repeat":
            tokens.insert(k, t)
        elif edit == "sign":
            tokens[k] = t[:-1] + ("-" if t[-1] == "+" else "+")
        elif edit == "side":
            tokens[k] = ("U" if t[0] == "O" else "O") + t[1:]
        else:
            tokens.insert(k, draw(_PIECE))
    if n > 1 and len(tokens) > 1 and draw(st.booleans()):  # three drops can leave one
        tokens.insert(draw(st.integers(1, len(tokens) - 1)), ";")
    return "".join(tokens)


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
        labels, _ = derive_incidence(d)
        assert len(labels) == 2

    def test_pairing_errors(self):
        for bad in ("O1+", "O1+O1+", "O1+U2+U1+"):
            with pytest.raises(InvalidArgument):
                parse_gauss(bad)

    def test_sign_mismatch(self):
        with pytest.raises(ParseError):
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

    def test_digits_outside_ascii_rejected(self):
        # a crossing id is written in 0-9 only: int() would read Arabic-Indic
        # or full-width digits, and an underscore, as crossing 1 or 10
        for code, position in (("O\u0661+U\u0661+", 0), ("O\uff11+U\uff11+", 0),
                               ("O1+U\u0661+", 3), ("O1_0+U1_0+", 0)):
            with pytest.raises(ParseError, match="bad token") as err:
                parse_gauss(code)
            assert err.value.position == position, code

    def test_crossing_cap(self):
        # links count too: the cap is on the crossings of the whole code
        at_cap = ";".join(f"O{c}+U{c}+" for c in range(1, MAX_GAUSS_CROSSINGS + 1))
        assert parse_gauss(at_cap).n_crossings == MAX_GAUSS_CROSSINGS
        with pytest.raises(ParseError, match=f"{MAX_GAUSS_CROSSINGS + 1} crossings exceed"):
            parse_gauss(at_cap + f";O{MAX_GAUSS_CROSSINGS + 1}-U{MAX_GAUSS_CROSSINGS + 1}-")

    def test_trailing_whitespace(self):
        assert parse_gauss("O1+U1+ ") == parse_gauss("O1+U1+")
        assert parse_gauss("O1+U1+\t;U2-O2-") == parse_gauss("O1+U1+;U2-O2-")
        # whitespace is whatever str.isspace() calls so, not ASCII alone
        assert parse_gauss("O1+\x1cU1+\u3000") == parse_gauss("O1+U1+")

    def test_empty_component(self):
        with pytest.raises(ParseError):
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

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(near_valid_gauss(), st.lists(_PIECE, max_size=12).map("".join)))
    def test_equals_the_checked_constructor(self, text):
        # parse_gauss builds its diagram unchecked after its own pairing
        # check; the result, or the error's type, message and position, is
        # that of a token scan that builds through Diagram(...)
        got, want = outcome(parse_gauss, text), outcome(parse_checked, text)
        assert got == want
        if isinstance(got, Diagram):
            assert got.components == want.components and list(got.signs) == list(want.signs)
            assert all(type(p) is Passage for comp in got.components for p in comp)

    def test_pairing_error_after_the_cap(self):
        # crossing 1 is visited once, and the code is one crossing over the cap
        n = MAX_GAUSS_CROSSINGS + 1
        text = "O1+" + "".join(f"O{c}+U{c}+" for c in range(2, n + 1))
        with pytest.raises(ParseError, match=f"{n} crossings exceed"):
            parse_gauss(text)
        with pytest.raises(InvalidArgument, match="crossing 1 must be visited"):
            parse_gauss(text[:-len(f"O{n}+U{n}+")])

    def test_canonical_codes_round_trip(self, rng):
        # seeded codes written as format_gauss writes them
        for _ in range(200):
            n = rng.randint(1, 32)
            text = random_code_text(rng, n)
            assert format_gauss(parse_gauss(text)) == text

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
        with pytest.raises(InvalidArgument):
            Diagram([[Passage(1, True), Passage(1, False)]], {1: sign})

    @pytest.mark.parametrize("signs", [{1: 1, 2.0: 1}, {True: 1, 2: 1}])
    def test_sign_keys_are_ints(self, signs):
        # 2.0 == 2 finds crossing 2's sign, and crossings read [1, 2.0]
        d = parse_gauss(VTREFOIL)
        with pytest.raises(InvalidArgument, match="crossing ids in signs"):
            Diagram(d.components, signs)
        assert list(Diagram(d.components, {2: -1, 1: 1}).signs) == [2, 1]  # order kept

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
        labels, inc = derive_incidence(parse_gauss(TREFOIL))
        assert len(labels) == 6
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

    def test_default_labels_are_traversal_order(self):
        d = parse_gauss(VTREFOIL)
        built = Diagram(d.components, d.signs)
        labeled = Diagram(d.components, d.signs, (1, 2, 3, 4))
        assert d.arc_labels == built.arc_labels == labeled.arc_labels == (1, 2, 3, 4)
        assert d == built == labeled and hash(d) == hash(built) == hash(labeled)
        assert derive_incidence(d)[0] is d.arc_labels

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
            cid = rng.choice(sorted(d.signs))
            assert switch_crossing(switch_crossing(d, cid), cid) == d

    def test_switch_unknown(self):
        with pytest.raises(InvalidArgument):
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
        with pytest.raises(InvalidArgument):
            odd_writhe(parse_gauss("O1+;U1+"))

    def test_equals_pairwise_distance(self, rng):
        # a crossing is odd when the distance between its two visits in the
        # code's text, counted in tokens, is even
        for _ in range(200):
            text = random_code_text(rng, rng.randint(1, 32))
            visits = {}
            for t, (c, sign) in enumerate(re.findall(r"[OU](\d+)([+-])", text)):
                visits.setdefault(c, []).append((t, sign))
            want = sum(1 if sign == "+" else -1
                       for (p, sign), (q, _) in visits.values() if (q - p) % 2 == 0)
            assert odd_writhe(parse_gauss(text)) == want, text

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
        with pytest.raises(InvalidArgument):
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
        with pytest.raises(CrossingFreeLoop):
            smooth_crossing(parse_gauss("O1+;U1+"), 1)
        with pytest.raises(CrossingFreeLoop):
            smooth_crossing(parse_gauss("O1+U1+"), 1)

    def test_unknown(self):
        with pytest.raises(InvalidArgument):
            smooth_crossing(parse_gauss(VTREFOIL), 7)

    def test_sign_independent(self, rng):
        # the smoothing is orientation-determined: switching the crossing first
        # must not change the resulting invariant (basepoints may differ)
        from valex.alexander import delta0_diagram

        for _ in range(15):
            d = make_random_diagram(rng, rng.randint(2, 5), rng.choice([1, 2]))
            for cid in sorted(d.signs):
                try:
                    a = smooth_crossing(d, cid)
                except CrossingFreeLoop:
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
        with pytest.raises(InvalidArgument):
            add_r2(parse_gauss(VTREFOIL), 2, 2)


_MOVE_ERRORS = {  # name -> (call, message); each raises InvalidArgument
    "switch_unknown": (lambda: switch_crossing(parse_gauss(VTREFOIL), 9), "no crossing 9"),
    "smooth_unknown": (lambda: smooth_crossing(parse_gauss(VTREFOIL), 9), "no crossing 9"),
    "kink_unknown_arc": (lambda: add_kink(parse_gauss(VTREFOIL), 9, "Ia"), "no arc 9"),
    "r2_unknown_arc": (lambda: add_r2(parse_gauss(VTREFOIL), 1, 9), "no arc 9"),
    "r2_one_arc": (lambda: add_r2(parse_gauss(VTREFOIL), 2, 2),
                   "R2 insertion needs two distinct arcs"),
}


@pytest.mark.parametrize("site", list(_MOVE_ERRORS))
def test_move_error_type_and_message(site):
    call, message = _MOVE_ERRORS[site]
    with pytest.raises(ValexError) as exc:
        call()
    assert type(exc.value) is InvalidArgument
    assert str(exc.value) == message


def random_code_text(rng, n: int) -> str:
    """A random knot code of n crossings, written token by token."""
    visits = [(c, side) for c in range(1, n + 1) for side in "OU"]
    rng.shuffle(visits)
    signs = {c: rng.choice("+-") for c in range(1, n + 1)}
    return "".join(f"{side}{c}{signs[c]}" for c, side in visits)
