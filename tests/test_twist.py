import itertools

import pytest

from valex import alexander, twist
from valex.alexander import delta0_diagram, delta_bar
from valex.diagram import format_gauss, odd_writhe, parse_gauss, smooth_crossing
from valex.errors import (
    EmptyBlock,
    NotABaseCase,
    ParseError,
    ShapeMismatch,
    UnsupportedClasp,
    ValexError,
)
from valex.laurent import ONE, U, V, ZERO, format_poly, monomial_pow, normalize, parse_poly
from valex.twist import (
    KNOT_FACTOR,
    TwistSpec,
    base_closed_form,
    base_delta_bar,
    clasp_identity,
    contract,
    evaluate_recursive,
    format_spec,
    generate_twist,
    negative_flip,
    ow_closed_form,
    parity_context,
    parse_spec,
    recursion_step,
    smoothed_closed_form,
    vtab_closed_form,
    vtab_delta_bar,
)

UV = U * V


def first_crossing_of_block(spec: TwistSpec, i: int) -> int:
    """Crossing id of the first twist crossing in block i (ids start at 2)."""
    return 2 + sum(abs(b) for b in spec.blocks[: i - 1])


class TestSpecText:
    def test_parse(self):
        s = parse_spec("VT[a](7,4,3,5,9)")
        assert s.blocks == (7, 4, 3, 5, 9) and s.clasp == "a"
        assert parse_spec("VT[ab](0,1,1)").clasp == "ab"
        assert parse_spec("VT[^b](2,-1)").clasp == "^b"
        assert parse_spec("VT(3)").clasp == "a"

    def test_roundtrip(self):
        for text in ("VT[a](1)", "VT[ab](0,1,1)", "VT[ba](2,0)", "VT[^a](-3)"):
            assert format_spec(parse_spec(text)) == text

    def test_errors(self):
        for bad in ("VT[q](1)", "VT[a]()", "VT[a](x)", "knot(1)"):
            with pytest.raises(ParseError):
                parse_spec(bad)
        for args in (((),), ((1,), "q")):
            with pytest.raises(ValueError):
                TwistSpec(*args)
            with pytest.raises(ValexError):
                TwistSpec(*args)


class TestParityContext:
    def test_positive_worked_example(self):
        ctx = parity_context(TwistSpec((7, 4, 3, 5, 9)))
        assert ctx.delta == 3
        assert ctx.s[5] == 33
        assert ctx.eps == (0, -1, 0, 1, 2)

    def test_negative_worked_example(self):
        ctx = parity_context(TwistSpec((-7, 3, -5, -2, 3)))
        assert ctx.delta == 1
        assert ctx.s[5] == -3
        assert ctx.eps == (2, 1, 0, -1, 0)

    def test_single_block(self):
        for k in range(0, 7):
            ctx = parity_context(TwistSpec((k,)))
            assert ctx.s[1] == k + 1
            assert ctx.delta == 0
            assert ctx.eps == (k % 2 - 1,)

    def test_signed_vs_absolute_convention(self):
        for blocks in [(-7, 3, -5, -2, 3), (-1, -2), (4, -3, 0)]:
            signed = parity_context(TwistSpec(blocks))
            absolute = parity_context(TwistSpec(tuple(abs(b) for b in blocks)))
            assert signed.delta == absolute.delta
            assert signed.eps == absolute.eps
            assert (signed.s[-1] - absolute.s[-1]) % 2 == 0


class TestGenerator:
    def test_vt1_is_virtual_trefoil(self):
        d = generate_twist(TwistSpec((1,)))
        assert format_gauss(d) == "U2+U1+O2+O1+"
        rep_norm = normalize(delta_bar(delta0_diagram(d))).poly
        assert rep_norm == ONE and odd_writhe(d) == 2
        # equal to the standard virtual trefoil code up to rotation
        vt = parse_gauss("O1+U2+U1+O2+")
        assert normalize(delta_bar(delta0_diagram(vt))).poly == ONE
        assert odd_writhe(vt) == 2

    def test_vt0_single_crossing(self):
        d = generate_twist(TwistSpec((0,)))
        assert d.n_crossings == 1
        assert delta0_diagram(d).is_zero

    def test_all_ones_all_type1(self):
        # in VT(1,...,1) every twist crossing has the odd strand underneath
        d = generate_twist(TwistSpec((1, 1, 1)))
        odd_strand = d.components[0][:3]
        assert all(not p.over for p in odd_strand)

    def test_unsupported_clasp(self):
        with pytest.raises(UnsupportedClasp):
            generate_twist(TwistSpec((1, 1), "ab"))

    def test_clasp_variants_generate(self):
        for clasp in ("^a", "b", "^b"):
            d = generate_twist(TwistSpec((2, 1), clasp))
            assert d.is_knot


class TestBaseClosedForms:
    def test_families_match_determinant_exactly(self):
        shapes = [
            lambda m: (1,) * m,
            lambda m: (0,) + (1,) * m,
            lambda m: (1,) * m + (0,),
            lambda m: (0,) + (1,) * m + (0,),
        ]
        for mk in shapes:
            for m in range(1, 9):
                spec = TwistSpec(mk(m))
                det = delta0_diagram(generate_twist(spec))
                cf = base_closed_form(spec)
                assert det == cf, (spec, format_poly(det), format_poly(cf))
                assert cf == KNOT_FACTOR * base_delta_bar(spec)

    def test_fixture_values(self):
        assert base_closed_form(TwistSpec((1, 1))) == parse_poly(
            "-1 + u^2 + v - u^3*v - u^2*v^3 + u^3*v^3"
        )
        assert base_delta_bar(TwistSpec((1, 1))) == parse_poly("1 + u + u*v")
        assert base_delta_bar(TwistSpec((0, 1, 1))) == V
        assert base_closed_form(TwistSpec((1, 0))).is_zero
        assert base_delta_bar(TwistSpec((0,))).is_zero

    def test_not_a_base_case(self):
        for blocks in ((2,), (1, -1), (1, 0, 1)):
            with pytest.raises(NotABaseCase):
                base_closed_form(TwistSpec(blocks))


class TestVTabClosedForms:
    def test_guards(self):
        assert vtab_delta_bar(TwistSpec((1,), "ab")).is_zero
        assert vtab_closed_form(TwistSpec((0, 1), "ab")) == -UV * KNOT_FACTOR
        assert vtab_closed_form(TwistSpec((0, 0), "ab")) == KNOT_FACTOR
        assert twist.KNOT_FACTOR is alexander.KNOT_FACTOR

    def test_family_values(self):
        assert vtab_delta_bar(TwistSpec((1, 1), "ab")) == UV
        assert vtab_delta_bar(TwistSpec((1, 1, 1), "ab")) == UV * parse_poly(
            "1 + u + v + u*v"
        )


class TestSmoothedClosedForm:
    def test_vt1(self):
        assert smoothed_closed_form(TwistSpec((1,)), 1) == (U - 1) * (V - 1)

    def test_always_link_shaped(self):
        for blocks in [(1,), (2, 3), (-2, 1, 4), (7, 4, 3, 5, 9)]:
            spec = TwistSpec(blocks)
            for i in range(1, spec.n + 1):
                if spec.blocks[i - 1] == 0:
                    continue
                val = smoothed_closed_form(spec, i)
                q = normalize(val).poly
                assert q == (U - 1) * (V - 1) or q == -((U - 1) * (V - 1)) \
                    or q == normalize((U - 1) * (V - 1)).poly

    def test_empty_block_rejected(self):
        with pytest.raises(EmptyBlock):
            smoothed_closed_form(TwistSpec((0, 1)), 1)
        with pytest.raises(EmptyBlock):
            smoothed_closed_form(TwistSpec((1,)), 2)

    def test_smoothed_law_on_grid(self):
        """det(smooth(generated, first crossing of block i)) equals the closed
        form, times the label-transposition sign for type-2 first crossings."""
        from valex.twist import _p

        for n in (1, 2, 3):
            rng = range(-3, 4) if n <= 2 else range(-2, 3)
            for blocks in itertools.product(rng, repeat=n):
                spec = TwistSpec(blocks)
                ctx = parity_context(spec)
                d = generate_twist(spec)
                for i, b in enumerate(blocks, start=1):
                    if b == 0:
                        continue
                    got = delta0_diagram(
                        smooth_crossing(d, first_crossing_of_block(spec, i))
                    )
                    want = smoothed_closed_form(spec, i)
                    if _p(ctx.s[i - 1]):
                        want = -want
                    assert got == want, (blocks, i)


class TestRecursionStep:
    def test_positive_worked_example(self):
        red, factor, corr = recursion_step(TwistSpec((7, 4, 3, 5, 9)))
        assert red.blocks == (1, 0, 1, 1, 1)
        assert factor == monomial_pow(-1, 1, 1, 12)
        assert corr == parse_poly("4 + 2*u^-1*v^-1 + 2*u*v + 4*u^2*v^2")

    def test_negative_worked_example(self):
        red, factor, corr = recursion_step(TwistSpec((-7, 3, -5, -2, 3)))
        assert red.blocks == (-1, 1, -1, 0, 1)
        assert factor == monomial_pow(-1, 1, 1, 8)
        assert corr == parse_poly(
            "-3*u^2*v^2 + u*v - 2 - u^-1*v^-1 + 1"
        )

    def test_trivial(self):
        red, factor, corr = recursion_step(TwistSpec((1, 1)))
        assert red.blocks == (1, 1) and factor == ONE and corr.is_zero


class TestContract:
    def test_merge_without_cancellation(self):
        spec, factor = contract(TwistSpec((1, 0, 1, 1, 1)))
        assert spec.blocks == (2, 1, 1) and factor == ONE

    def test_merge_with_cancellation(self):
        spec, factor = contract(TwistSpec((-1, 1, -1, 0, 1)))
        assert spec.blocks == (-1, 1, 0)
        assert factor == monomial_pow(-1, 1, 1, 1)

    def test_nothing_to_do(self):
        spec, factor = contract(TwistSpec((1, 1)))
        assert spec.blocks == (1, 1) and factor == ONE

    def test_cascading(self):
        spec, factor = contract(TwistSpec((1, 0, -1, 0, 1)))
        assert spec.blocks == (1,)
        assert factor == monomial_pow(-1, 1, 1, 1)


class TestNegativeFlip:
    def test_trailing_zero_shape(self):
        flipped, corr = negative_flip(TwistSpec((-1, 1, 0)), 1)
        assert flipped.blocks == (1, 1, 0)
        assert corr == UV

    def test_single_negative(self):
        flipped, corr = negative_flip(TwistSpec((-1,)), 1)
        assert flipped.blocks == (1,)
        assert corr == -ONE
        assert base_delta_bar(flipped) + corr == ZERO  # dbar(VT(-1)) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            negative_flip(TwistSpec((-2, 1)), 1)
        with pytest.raises(ShapeMismatch):
            negative_flip(TwistSpec((1, 1)), 1)
        with pytest.raises(ShapeMismatch):
            negative_flip(TwistSpec((1, 0, -1)), 3)

    def test_flips_match_determinant_on_grid(self):
        for n in (1, 2, 3):
            for blocks in itertools.product((-1, 0, 1), repeat=n):
                spec = TwistSpec(blocks)
                det_bar = delta_bar(delta0_diagram(generate_twist(spec)))
                assert evaluate_recursive(spec) == det_bar, blocks


class TestEvaluateRecursive:
    def test_positive_worked_example(self):
        got = evaluate_recursive(TwistSpec((7, 4, 3, 5, 9)))
        want = monomial_pow(-1, 1, 1, 12) * parse_poly(
            "-u*v^2 + 5 + 2*u^-1*v^-1 + 2*u*v + 4*u^2*v^2"
        )
        assert got == want
        assert normalize(got).poly == parse_poly(
            "2 + 5*u*v - u^2*v^3 + 2*u^2*v^2 + 4*u^3*v^3"
        )

    def test_negative_worked_example(self):
        got = evaluate_recursive(TwistSpec((-7, 3, -5, -2, 3)))
        want = monomial_pow(-1, 1, 1, 8) * parse_poly(
            "-u^2*v - 4*u^2*v^2 + u*v - u^-1*v^-1 - 1"
        )
        assert got == want
        assert normalize(got).poly == parse_poly(
            "1 + u*v - u^2*v^2 + u^3*v^2 + 4*u^3*v^3"
        )

    def test_vtab_normalizes_to_one(self):
        for x in range(5):
            for y in range(5):
                got = evaluate_recursive(TwistSpec((x, y), "ab"))
                assert normalize(got).poly == ONE, (x, y)

    def test_matches_determinant_exactly_small_grid(self):
        for n in (1, 2):
            for blocks in itertools.product(range(-3, 4), repeat=n):
                spec = TwistSpec(blocks)
                det = delta0_diagram(generate_twist(spec))
                assert KNOT_FACTOR * evaluate_recursive(spec) == det, blocks

    def test_large_blocks_match_determinant(self):
        # m = 27 twist crossings: a 56x56 exact determinant against the
        # recursion, plus the two-block table value at scale
        spec = TwistSpec((15, 12))
        det = delta0_diagram(generate_twist(spec))
        rec = evaluate_recursive(spec)
        assert det == KNOT_FACTOR * rec
        assert normalize(rec).poly == parse_poly("6 + 7*u*v")

    def test_reduction_guard_fires_on_broken_contract(self, monkeypatch):
        from valex import twist as twist_mod
        from valex.errors import InfiniteReduction
        from valex.laurent import ONE as one

        monkeypatch.setattr(twist_mod, "recursion_step",
                            lambda spec: (spec, one, twist_mod.ZERO))
        with pytest.raises(InfiniteReduction):
            twist_mod.evaluate_recursive(TwistSpec((4,)))


class TestClaspIdentity:
    def test_rewrites(self):
        spec, tr = clasp_identity(TwistSpec((1,), "^a"))
        assert spec.blocks == (1, 0) and spec.clasp == "a"
        assert tr(U) == U

        spec, tr = clasp_identity(TwistSpec((1,), "b"))
        assert spec.blocks == (-1,) and spec.clasp == "a"
        assert tr(U + 2 * V) == -(V + 2 * U)

        spec, tr = clasp_identity(TwistSpec((1, 2), "ba"))
        assert spec.blocks == (1, 3) and spec.clasp == "ab"

    def test_transform_involution_up_to_normalization(self):
        q = evaluate_recursive(TwistSpec((2, 3)))
        _, tr = clasp_identity(TwistSpec((2, 3), "b"))
        assert normalize(tr(tr(q))).poly == normalize(q).poly

    def test_variants_match_generated_diagrams(self):
        for clasp in ("^a", "b", "^b"):
            for blocks in [(1,), (2,), (0, 2), (3, -1)]:
                spec = TwistSpec(blocks, clasp)
                d = generate_twist(spec)
                det_n = normalize(delta_bar(delta0_diagram(d))).poly
                rec_n = normalize(evaluate_recursive(spec)).poly
                assert det_n == rec_n, (clasp, blocks)


class TestOddWritheClosedForm:
    def test_fixtures(self):
        assert ow_closed_form(TwistSpec((1,))) == 2
        assert ow_closed_form(TwistSpec((7, 4, 3, 5, 9))) == 28
        assert ow_closed_form(TwistSpec((0,))) == 0
        assert ow_closed_form(TwistSpec((2,))) == 2
        assert ow_closed_form(TwistSpec((-1,))) == 0

    def test_against_diagram(self):
        for n in (1, 2):
            for blocks in itertools.product(range(-4, 5), repeat=n):
                spec = TwistSpec(blocks)
                assert ow_closed_form(spec) == odd_writhe(generate_twist(spec))
