import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    base_closed_form,
    base_end_zeros,
    mirror_invariant,
    read_poly,
    smooth_crossing,
)
from valex import twist
from valex.alexander import KNOT_FACTOR, delta0_diagram, delta_bar
from valex.diagram import Diagram, format_gauss, odd_writhe, parse_gauss
from valex.errors import InvalidArgument, ParseError, UnsupportedClasp, ValexError
from valex.laurent import (
    LaurentPoly,
    ONE,
    U,
    V,
    ZERO,
    format_poly,
    normalize,
)
from valex.twist import (
    CLASPS,
    MAX_SPEC_BLOCKS,
    MAX_SPEC_CROSSINGS,
    TwistSpec,
    _closed_form,
    _parity,
    _square,
    _step,
    _triangle,
    clasp_identity,
    evaluate_recursive,
    generate_twist,
    ow_closed_form,
    parse_spec,
    spec_report,
)
from valex.verify import acceptance_grid

UV = U * V


def paper_parities(blocks) -> tuple:
    """(s, delta, eps): the paper's sums written out term by term, O(n^2)."""
    def p(x):
        return abs(x) % 2

    n = len(blocks)
    s = [0]
    for b in blocks:
        s.append(s[-1] + b + 1)
    delta = sum(p(blocks[j - 1]) * p(s[j]) for j in range(1, n + 1))
    eps = tuple(
        p(s[i - 1]) - 1
        + sum(p(blocks[j - 1]) * p(s[j]) for j in range(1, i))
        + sum(p(blocks[j - 1]) * p(1 + s[j - 1]) for j in range(i, n + 1))
        for i in range(1, n + 1)
    )
    return tuple(s), delta, eps


def leftmost_merge(blocks) -> tuple:
    """(blocks, k): merge at the leftmost interior zero until none is left;
    each merge of opposite signs costs (-uv)^min(|x|, |y|)."""
    out = list(blocks)
    k = 0
    while True:
        idx = next((i for i in range(1, len(out) - 1) if out[i] == 0), None)
        if idx is None:
            return tuple(out), k
        x, y = out[idx - 1], out[idx + 1]
        if x * y < 0:
            k += min(abs(x), abs(y))
        out[idx - 1:idx + 2] = [x + y]


# dbar(shape) = dbar(flipped) + c (uv)^e when the -1 in block i of a reduced
# shape with n blocks becomes +1; (e, c) by the shape's end zeros, where a
# leading zero reads the same row with or without a trailing one
FLIP_TABLE = {
    "no end zero": lambda n, i: (n - i, -1),
    "leading zero": lambda n, i: (i - 2, (-1) ** (n + 1)),
    "trailing zero": lambda n, i: (n - i - 1, 1),
}


def flip_correction(blocks, i) -> tuple:
    if blocks[0] == 0:
        row = "leading zero"
    elif blocks[-1] == 0:
        row = "trailing zero"
    else:
        row = "no end zero"
    return FLIP_TABLE[row](len(blocks), i)


def is_reduced(blocks) -> bool:
    return all(abs(b) <= 1 for b in blocks) and all(blocks[1:-1])


# the clasp identities onto clasps a and ab: blocks -> (blocks, clasp, mirrored)
CLASP_REWRITES = {
    "a": lambda a: (a, "a", False),
    "ab": lambda a: (a, "ab", False),
    "^a": lambda a: (a + (0,), "a", False),
    "b": lambda a: (tuple(-b for b in a), "a", True),
    "^b": lambda a: (tuple(-b for b in a) + (0,), "a", True),
    "ba": lambda a: (a[:-1] + (a[-1] + 1,), "ab", False),
}


def base_dbar(blocks, clasp: str) -> LaurentPoly:
    """dbar of a base shape of clasp ``a`` or ``ab``, by the paper's sums.

    With m ones and the end zeros read by ``base_end_zeros``, clasp ``a``
    sums u^i v^j over
        j <= i < m          with no end zero,
        i <= j < m - 1      times v with a leading zero only,
        j <= i < m - 1      times u with a trailing zero only,
        i <= j < m          with both,
    and clasp ``ab`` over the square i, j <= t, times uv unless both ends are
    zero, where t = m - 2, m - 1 or m for none, one or two end zeros.  A
    leading zero gives the sign (-1)^m.
    """
    lead, trail = base_end_zeros(blocks)
    m = sum(blocks)
    sign = (-1) ** m if lead else 1
    if clasp == "ab":
        t = m - 2 + lead + trail
        d = 0 if lead and trail else 1
        return LaurentPoly({(i + d, j + d): sign for i in range(t + 1) for j in range(t + 1)})
    t = m if lead == trail else m - 1
    du, dv = int(trail and not lead), int(lead and not trail)
    return LaurentPoly({(i + du, j + dv): sign for i in range(t) for j in range(t)
                        if (i <= j if lead else j <= i)})


def reference_dbar(spec: TwistSpec):
    """dbar by the paper's recursion in LaurentPoly arithmetic, from the
    definitions: the clasp identities by ``CLASP_REWRITES`` and
    ``mirror_invariant``, the parities by ``paper_parities``, the contraction
    by ``leftmost_merge``, the flips by ``FLIP_TABLE`` and the base values by
    ``base_dbar``.  It shares no twist code with ``evaluate_recursive``.
    """
    blocks, clasp, mirror = CLASP_REWRITES[spec.clasp](spec.blocks)
    factor = ONE
    acc = ZERO  # dbar(spec) = factor * dbar(blocks) + acc
    for _ in range(sum(abs(b) for b in blocks) + len(blocks) + 1):
        if is_reduced(blocks):
            break
        s, delta, eps = paper_parities(blocks)
        factor = factor * (-UV) ** sum(abs(b) // 2 for b in blocks)
        if clasp == "a":
            sign = (-1) ** ((delta + s[-1]) % 2)
            for e, b in zip(eps, blocks):
                w = (abs(b) // 2) * sign
                acc = acc + factor * (w if b > 0 else -w) * UV ** e
        reduced = tuple(0 if b % 2 == 0 else (1 if b > 0 else -1) for b in blocks)
        blocks, k = leftmost_merge(reduced)
        factor = factor * (-UV) ** k
    else:
        raise AssertionError(f"{spec} did not reduce")
    for i, b in enumerate(blocks, start=1):
        if b == -1:
            if clasp == "a":
                e, c = flip_correction(blocks, i)
                acc = acc + factor * c * UV ** e
            blocks = blocks[: i - 1] + (1,) + blocks[i:]
    dbar = factor * base_dbar(blocks, clasp) + acc
    return mirror_invariant(dbar) if mirror else dbar


def smoothed_closed_form(spec: TwistSpec, i: int) -> LaurentPoly:
    """Delta_0 of the link made by smoothing the first crossing of block i.

    The paper's formula (clasp a, figure labeling):
        (-uv)^{sum floor(|a_j|/2)} (-1)^{-p(s(i-1)) + delta + s(n)}
        (uv)^{eps(i)} (u-1)(v-1)
    It is a unit times (u-1)(v-1): smoothing a knot's crossing gives a
    2-component link, never divisible by (uv-1).  The formula reads the
    clasp-a layout's blocks, so any other clasp raises UnsupportedClasp.
    """
    if spec.clasp != "a":
        raise UnsupportedClasp(f"no smoothed closed form for clasp {spec.clasp!r}")
    if not 1 <= i <= spec.n:
        raise InvalidArgument(f"block index {i} out of range 1..{spec.n}")
    if spec.blocks[i - 1] == 0:
        raise InvalidArgument(f"block {i} of {spec} is empty")
    s, delta, eps = paper_parities(spec.blocks)
    half_sum = sum(abs(b) // 2 for b in spec.blocks)
    sign_exp = (-s[i - 1] + delta + s[spec.n]) % 2
    out = (-UV) ** half_sum * UV ** eps[i - 1]
    out = out * ((U - 1) * (V - 1))
    return -out if sign_exp else out


def one_pass(blocks, clasp: str) -> tuple:
    """``_step`` from k = 0 on a fresh dict: (out, k, {e: c}) with
    dbar(blocks) = (-uv)^k dbar(out) + sum_e c (uv)^e."""
    corr = {}
    out, k = _step(blocks, clasp, 0, corr)
    return out, k, corr


def paper_step(blocks, clasp: str) -> tuple:
    """One recursion pass by the paper's definitions, in ``one_pass``'s form
    (out, k, {e: c}) with dbar(blocks) = (-uv)^k dbar(out) + sum_e c (uv)^e:
    the corrections from ``paper_parities``, then the reduced blocks
    sgn(a_i) p(a_i), then ``leftmost_merge``."""
    s, delta, eps = paper_parities(blocks)
    half_sum = sum(abs(b) // 2 for b in blocks)
    corr = {}
    if clasp == "a":
        sign = (-1) ** ((half_sum + delta + s[-1]) % 2)  # (-uv)^half_sum's sign too
        for e, b in zip(eps, blocks):
            w = abs(b) // 2
            if w:
                corr[e + half_sum] = corr.get(e + half_sum, 0) + sign * (w if b > 0 else -w)
    reduced = tuple(0 if b % 2 == 0 else (1 if b > 0 else -1) for b in blocks)
    out, k = leftmost_merge(reduced)
    return out, half_sum + k, corr


def step_eps(blocks) -> tuple:
    """epsilon(i) for i = 1..n, read off ``one_pass``'s correction exponents.

    epsilon reads only parities, so block i is set to 2 + p(a_i) and every
    other block to p(a_j): block i is then the only one with a correction,
    at the exponent epsilon(i) + 1 (one half-twist), and its coefficient
    must be -(-1)^{delta+s(n)} with delta and s from ``paper_parities``.
    """
    s, delta, _ = paper_parities(blocks)
    want = -((-1) ** ((delta + s[-1]) % 2))
    out = []
    for i, b in enumerate(blocks):
        probe = [a & 1 for a in blocks]
        probe[i] = 2 + (b & 1)
        corr = one_pass(tuple(probe), "a")[2]
        assert len(corr) == 1 and list(corr.values()) == [want], (blocks, i, corr)
        out.append(next(iter(corr)) - 1)
    return tuple(out)


def dropping_zeros(step: tuple) -> tuple:
    """``one_pass``'s result with zero correction coefficients dropped."""
    reduced, k, corr = step
    return reduced, k, {e: c for e, c in corr.items() if c}


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
            assert str(parse_spec(text)) == text

    def test_errors(self):
        for bad in ("VT[q](1)", "VT[a]()", "VT[a](x)", "knot(1)"):
            with pytest.raises(ParseError):
                parse_spec(bad)
        for bad in ("VT[aa](1)", "VT[^ab](1)"):
            with pytest.raises(ParseError, match="unknown clasp tag"):
                parse_spec(bad)
        for args in (((),), ((1,), "q")):
            with pytest.raises(ValueError):
                TwistSpec(*args)
            with pytest.raises(ValexError):
                TwistSpec(*args)

    def test_digits_outside_ascii_rejected(self):
        # int() reads "1_0" as 10 and any Unicode decimal digit, so each of
        # these would parse to a spec that prints as a different text
        for text, position in (("VT(1_0)", 4), ("VT(\u0663)", 3), ("VT[a](7, \uff14)", 9),
                               ("VT[b]( 1,\u0e52 )", 9)):
            with pytest.raises(ParseError, match="bad character") as err:
                parse_spec(text)
            assert err.value.position == position, text

    def test_parse_builds_a_checked_spec(self):
        for text in ("VT[a](7,4,3,5,9)", "VT[ab](0,1,1)", "VT[^B]( -3 , 0 )"):
            spec = parse_spec(text)
            built = TwistSpec(*spec)
            assert spec == built and hash(spec) == hash(built)
            assert type(spec) is TwistSpec and type(spec.blocks) is tuple
            assert all(type(b) is int for b in spec.blocks)

    def test_caps(self):
        ones = lambda n: "VT[ab](" + ",".join(["1"] * n) + ")"
        assert parse_spec(ones(MAX_SPEC_BLOCKS)).n == MAX_SPEC_BLOCKS
        with pytest.raises(ParseError, match=f"{MAX_SPEC_BLOCKS + 1} blocks exceed the cap"):
            parse_spec(ones(MAX_SPEC_BLOCKS + 1))
        half = MAX_SPEC_CROSSINGS // 2
        wide = parse_spec(f"VT[b]({half},{half - MAX_SPEC_CROSSINGS})")
        assert sum(map(abs, wide.blocks)) == MAX_SPEC_CROSSINGS
        with pytest.raises(ParseError, match="twist crossings exceed the cap"):
            parse_spec(f"VT[b]({half},{half - MAX_SPEC_CROSSINGS - 1})")
        # the largest spec the command-line checks run, and the benchmark's
        long = parse_spec("VT[^b](" + ",".join(["3,-1"] * 150) + ")")
        assert (long.n, sum(map(abs, long.blocks))) == (300, 600)
        ba = parse_spec("VT[ba](" + ",".join(["-40"] * 8) + ")")
        assert sum(map(abs, ba.blocks)) == 320

    def test_non_integer_blocks_rejected(self):
        for blocks in ((2.7, -1.2), (2.0,), ("3",), 3):
            with pytest.raises(InvalidArgument):
                TwistSpec(blocks)
        blocks = TwistSpec((True, 2)).blocks
        assert blocks == (1, 2) and all(type(b) is int for b in blocks)


class TestParityContext:
    def test_positive_worked_example(self):
        s, delta, half_sum = _parity((7, 4, 3, 5, 9))
        assert delta == 3
        assert s[5] == 33
        assert half_sum == 12
        assert step_eps((7, 4, 3, 5, 9)) == (0, -1, 0, 1, 2)

    def test_negative_worked_example(self):
        s, delta, half_sum = _parity((-7, 3, -5, -2, 3))
        assert delta == 1
        assert s[5] == -3
        assert half_sum == 8
        assert step_eps((-7, 3, -5, -2, 3)) == (2, 1, 0, -1, 0)

    def test_single_block(self):
        for k in range(0, 7):
            s, delta, _ = _parity((k,))
            assert s[1] == k + 1
            assert delta == 0
            assert step_eps((k,)) == (k % 2 - 1,)

    def test_signed_vs_absolute_convention(self):
        for blocks in [(-7, 3, -5, -2, 3), (-1, -2), (4, -3, 0)]:
            s, delta, _ = _parity(blocks)
            absolute = tuple(abs(b) for b in blocks)
            s_abs, delta_abs, _ = _parity(absolute)
            assert delta == delta_abs
            assert step_eps(blocks) == step_eps(absolute)
            assert one_pass(blocks, "a")[2].keys() == one_pass(absolute, "a")[2].keys()
            assert (s[-1] - s_abs[-1]) % 2 == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
    def test_matches_quadratic_definition(self, blocks):
        s, delta, eps = paper_parities(blocks)
        half_sum = sum(abs(b) // 2 for b in blocks)
        assert _parity(tuple(blocks)) == (s, delta, half_sum)
        assert step_eps(blocks) == eps


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
        assert not delta0_diagram(d)

    def test_all_ones_all_type1(self):
        # in VT(1,...,1) every twist crossing has the odd strand underneath
        d = generate_twist(TwistSpec((1, 1, 1)))
        odd_strand = d.components[0][:3]
        assert all(not p.over for p in odd_strand)

    def test_unsupported_clasp(self):
        with pytest.raises(UnsupportedClasp):
            generate_twist(TwistSpec((1, 1), "ab"))

    def test_diagrams_pass_the_public_checks(self):
        # the generator skips Diagram's checks; rebuilding through them must
        # give the same diagram, with fields of the same types (every passage
        # a Passage with a bool flag), and the signs run c_1, c_2, ... in order
        grid = [s.blocks for s in acceptance_grid()] + [(0,)]
        for blocks, clasp in itertools.product(grid, ("a", "^a", "b", "^b")):
            d = generate_twist(TwistSpec(blocks, clasp))
            checked = Diagram(d.components, d.signs, d.arc_labels)
            assert checked == d, (blocks, clasp)
            assert list(d.signs) == list(range(1, d.n_crossings + 1)), (blocks, clasp)
            for x in (d, checked):
                assert type(x.components) is tuple
                assert all(type(c) is tuple for c in x.components)
                assert type(x.signs) is dict and type(x.arc_labels) is tuple

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
                assert cf == KNOT_FACTOR * base_dbar(spec.blocks, "a")
                assert cf == KNOT_FACTOR * evaluate_recursive(spec)

    def test_fixture_values(self):
        assert base_closed_form(TwistSpec((1, 1))) == read_poly(
            "-1 + u^2 + v - u^3*v - u^2*v^3 + u^3*v^3"
        )
        assert evaluate_recursive(TwistSpec((1, 1))) == read_poly("1 + u + u*v")
        assert evaluate_recursive(TwistSpec((0, 1, 1))) == V
        assert not base_closed_form(TwistSpec((1, 0)))
        assert not evaluate_recursive(TwistSpec((0,)))

    @pytest.mark.parametrize("clasp", ["a", "ab"])
    def test_recursion_reads_every_base_shape(self, clasp):
        # blocks in {0, 1}, zeros only at the ends: 2 shapes at n = 1, 4 at each n >= 2
        shapes = [b for n in range(1, 8) for b in itertools.product((0, 1), repeat=n)
                  if all(b[1:-1])]
        assert len(shapes) == 26
        for blocks in shapes:
            got = evaluate_recursive(TwistSpec(blocks, clasp))
            assert got == base_dbar(blocks, clasp), blocks


class TestDoubleSums:
    @pytest.mark.parametrize("m", range(-2, 13))
    def test_match_definitions(self, m):
        for u_outer, outer, inner in ((True, U, V), (False, V, U)):
            total = ZERO
            for i in range(m):
                for j in range(i, m):
                    total = total + outer ** i * inner ** j
            for c, du, dv in ((1, 0, 0), (-1, 0, 1), (1, 1, 0)):
                got = LaurentPoly(_triangle(m, u_outer, c, du, dv))
                assert got == c * U ** du * V ** dv * total
        square = ZERO
        for i in range(m + 1):
            for j in range(m + 1):
                square = square + U ** i * V ** j
        for c, d in ((1, 0), (-1, 1)):
            assert LaurentPoly(_square(m, c, d)) == c * UV ** d * square


class TestVTabClosedForms:
    def test_guards(self):
        assert not evaluate_recursive(TwistSpec((1,), "ab"))
        assert evaluate_recursive(TwistSpec((0, 1), "ab")) == -UV
        assert evaluate_recursive(TwistSpec((0, 0), "ab")) == ONE
        # the knot factor has one home, alexander
        assert not hasattr(twist, "KNOT_FACTOR")

    def test_family_values(self):
        assert evaluate_recursive(TwistSpec((1, 1), "ab")) == UV
        assert evaluate_recursive(TwistSpec((1, 1, 1), "ab")) == UV * read_poly(
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
        with pytest.raises(InvalidArgument):
            smoothed_closed_form(TwistSpec((0, 1)), 1)
        with pytest.raises(InvalidArgument):
            smoothed_closed_form(TwistSpec((1,)), 2)

    @pytest.mark.parametrize("clasp", [c for c in CLASPS if c != "a"])
    def test_other_clasps_rejected(self, clasp):
        # the formula reads the clasp-a layout's blocks: applied to VT[^a](1),
        # whose diagram is VT_a(1, 0), it would give the wrong sign
        with pytest.raises(UnsupportedClasp):
            smoothed_closed_form(TwistSpec((1,), clasp), 1)

    def test_smoothed_law_on_grid(self):
        """det(smooth(generated, first crossing of block i)) equals the closed
        form, times the label-transposition sign for type-2 first crossings."""
        for n in (1, 2, 3):
            rng = range(-3, 4) if n <= 2 else range(-2, 3)
            for blocks in itertools.product(rng, repeat=n):
                spec = TwistSpec(blocks)
                s = _parity(blocks)[0]
                d = generate_twist(spec)
                for i, b in enumerate(blocks, start=1):
                    if b == 0:
                        continue
                    got = delta0_diagram(
                        smooth_crossing(d, first_crossing_of_block(spec, i))
                    )
                    want = smoothed_closed_form(spec, i)
                    if s[i - 1] % 2:
                        want = -want
                    assert got == want, (blocks, i)


class TestRecursionStep:
    # dbar(blocks) = (-uv)^k dbar(out) + sum_e c (uv)^e.  A pass reduces a_i
    # to sgn(a_i) p(a_i) at a factor (-uv)^h, h = sum_i floor(|a_i|/2), and a
    # correction (-uv)^h sgn(a_i) floor(|a_i|/2) (-1)^{delta+s(n)}
    # (uv)^{eps(i)} per block; the reduced vector is then contracted, each
    # cancelling merge costing one more -uv.
    def test_positive_worked_example(self):
        # s = 0, 8, 13, 17, 23, 33; p(a) = 1, 0, 1, 1, 1.  delta = 0 + 0 + 1
        # + 1 + 1 = 3.  The terms p(a_j) p(1 + s(j-1)) are 1, 0, 0, 0, 0, so
        # the suffix sums are 1, 0, 0, 0, 0 and the prefix sums 0, 0, 0, 1, 2:
        # eps = (0 - 1 + 0 + 1, 0 - 1 + 0 + 0, 1 - 1 + 0 + 0, 1 - 1 + 1 + 0,
        # 1 - 1 + 2 + 0) = (0, -1, 0, 1, 2).  h = 3 + 2 + 1 + 2 + 4 = 12 and
        # (-1)^{h+delta+s(n)} = (-1)^{12+3+33} = 1, so the weights 3, 2, 1, 2,
        # 4 sit at 12 + eps: 2 at 11, 3 + 1 at 12, 2 at 13, 4 at 14.  The
        # reduced (1, 0, 1, 1, 1) contracts to (2, 1, 1) with no cancellation.
        assert one_pass((7, 4, 3, 5, 9), "a") == ((2, 1, 1), 12, {11: 2, 12: 4, 13: 2, 14: 4})

    def test_negative_worked_example(self):
        # s = 0, -6, -2, -6, -7, -3; p(a) = 1, 1, 1, 0, 1.  delta = p(s(5)) =
        # 1.  The terms p(a_j) p(1 + s(j-1)) are 1, 1, 1, 0, 0, so the suffix
        # sums are 3, 2, 1, 0, 0 and the prefix sums all 0: eps = (0 - 1 + 3,
        # 0 - 1 + 2, 0 - 1 + 1, 0 - 1 + 0, 1 - 1 + 0) = (2, 1, 0, -1, 0).
        # h = 3 + 1 + 2 + 1 + 1 = 8 and (-1)^{8+1-3} = 1, so the weights -3,
        # 1, -2, -1, 1 sit at 8 + eps: -3 at 10, 1 at 9, -2 + 1 at 8, -1 at 7.
        # The reduced (-1, 1, -1, 0, 1) merges -1 and 1 across the zero: they
        # cancel at one -uv and leave a zero at the end, so k = 8 + 1.
        assert one_pass((-7, 3, -5, -2, 3), "a") == (
            (-1, 1, 0), 9, {7: -1, 8: -1, 9: 1, 10: -3})

    def test_odd_half_sum_negates_the_correction(self):
        # VT(3): s = 0, 4; delta = p(3) p(4) = 0; eps(1) = 0 - 1 + p(3) p(1)
        # = 0.  h = 1 and (-1)^{1+0+4} = -1, so the weight 1 gives -1 at
        # 1 + 0; dbar(VT(3)) = -uv dbar(VT(1)) - uv = -2uv.
        assert one_pass((3,), "a") == ((1,), 1, {1: -1})
        assert evaluate_recursive(TwistSpec((3,))) == -2 * UV

    def test_trivial(self):
        assert one_pass((1, 1), "a") == ((1, 1), 0, {})

    def test_vtab_has_no_correction(self):
        assert one_pass((7, 4, 3, 5, 9), "ab") == ((2, 1, 1), 12, {})

    def test_cancelling_weights_keep_their_exponent(self):
        # no block is odd, so delta = 0 and every sum in eps is 0: eps(i) =
        # p(s(i-1)) - 1.  VT(2, -2): s = 0, 3, 2, so eps = (-1, 0); h = 2 and
        # (-1)^{2+0+2} = 1 put the weights 1 and -1 at 1 and 2.  VT(2, 0, -2):
        # s = 0, 3, 4, 3, so eps = (-1, 0, -1); (-1)^{2+0+3} = -1 puts -1 and
        # 1 both at 1, where they cancel.  All-zero reduced blocks contract
        # to one zero.
        assert one_pass((2, -2), "a") == ((0, 0), 2, {1: 1, 2: -1})
        assert dropping_zeros(one_pass((2, 0, -2), "a")) == ((0,), 2, {})
        assert one_pass((2, 0, -2), "a")[2] == {1: 0}

    @pytest.mark.parametrize("k", [2, 3])
    def test_adds_into_the_running_dict(self, k):
        # a pass from k = 0 gives ((0, 1), 3, {2: -2, 3: -1}); from k on a
        # filled dict each c at e lands as (-1)^k c at e + k: 2 (-1)^k at
        # 2 + k cancels and stays as a 0 entry, in its place, and 3 + k is
        # new, so it comes last.  (0, 1)'s triangle is empty, so the finish
        # is the dict on the diagonal, with the 0 entry dropped.
        sign = -1 if k & 1 else 1
        acc = {2 + k: 2 * sign, 0: 5}
        assert _step((4, 3), "a", k, acc) == ((0, 1), k + 3)
        assert list(acc.items()) == [(2 + k, 0), (0, 5), (3 + k, -sign)]
        got = LaurentPoly._raw(_closed_form((0, 1), "a", k + 3, acc, False))
        assert list(got.items()) == [((0, 0), 5), ((3 + k, 3 + k), -sign)]
        want = (-UV) ** k * evaluate_recursive(TwistSpec((4, 3))) + 5 + 2 * sign * UV ** (2 + k)
        assert got == want

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=12), st.sampled_from(["a", "ab"]))
    def test_matches_paper_step(self, blocks, clasp):
        assert one_pass(tuple(blocks), clasp) == paper_step(blocks, clasp)


class TestContract:
    # on reduced blocks, in {-1, 0, 1}, a pass has no half-twist to remove,
    # so it is the contraction alone
    def test_merge_without_cancellation(self):
        assert one_pass((1, 0, 1, 1, 1), "a") == ((2, 1, 1), 0, {})

    def test_merge_with_cancellation(self):
        assert one_pass((-1, 1, -1, 0, 1), "a") == ((-1, 1, 0), 1, {})

    def test_nothing_to_do(self):
        assert one_pass((1, 1), "a") == ((1, 1), 0, {})

    def test_cascading(self):
        assert one_pass((1, 0, -1, 0, 1), "a") == ((1,), 1, {})

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-1, 1), min_size=1, max_size=10), st.sampled_from(["a", "ab"]))
    def test_matches_leftmost_merge(self, blocks, clasp):
        assert one_pass(tuple(blocks), clasp) == leftmost_merge(blocks) + ({},)


def flip_difference(blocks, i) -> LaurentPoly:
    """dbar(blocks) - dbar(flipped), both by ``evaluate_recursive``, where
    ``flipped`` is ``blocks`` with the -1 in block i turned into +1."""
    flipped = blocks[:i - 1] + (1,) + blocks[i:]
    return evaluate_recursive(TwistSpec(blocks)) - evaluate_recursive(TwistSpec(flipped))


class TestNegativeFlip:
    def test_trailing_zero_shape(self):
        assert flip_difference((-1, 1, 0), 1) == UV

    def test_single_negative(self):
        assert flip_difference((-1,), 1) == -1
        assert evaluate_recursive(TwistSpec((1,))) == ONE  # so dbar(VT(-1)) == 1 - 1 == 0

    def test_matches_flip_table(self):
        for n in range(1, 6):
            for blocks in itertools.product((-1, 0, 1), repeat=n):
                if not is_reduced(blocks):
                    continue
                for i, b in enumerate(blocks, start=1):
                    if b == -1:
                        e, c = flip_correction(blocks, i)
                        assert flip_difference(blocks, i) == c * UV ** e, (blocks, i)

    def test_flips_match_determinant_on_grid(self):
        for n in (1, 2, 3):
            for blocks in itertools.product((-1, 0, 1), repeat=n):
                spec = TwistSpec(blocks)
                det_bar = delta_bar(delta0_diagram(generate_twist(spec)))
                assert evaluate_recursive(spec) == det_bar, blocks


class TestEvaluateRecursive:
    def test_positive_worked_example(self):
        got = evaluate_recursive(TwistSpec((7, 4, 3, 5, 9)))
        want = (-UV) ** 12 * read_poly(
            "-u*v^2 + 5 + 2*u^-1*v^-1 + 2*u*v + 4*u^2*v^2"
        )
        assert got == want
        assert normalize(got).poly == read_poly(
            "2 + 5*u*v - u^2*v^3 + 2*u^2*v^2 + 4*u^3*v^3"
        )

    def test_negative_worked_example(self):
        got = evaluate_recursive(TwistSpec((-7, 3, -5, -2, 3)))
        want = (-UV) ** 8 * read_poly(
            "-u^2*v - 4*u^2*v^2 + u*v - u^-1*v^-1 - 1"
        )
        assert got == want
        assert normalize(got).poly == read_poly(
            "1 + u*v - u^2*v^2 + u^3*v^2 + 4*u^3*v^3"
        )

    def test_vtab_normalizes_to_one(self):
        for x in range(5):
            for y in range(5):
                got = evaluate_recursive(TwistSpec((x, y), "ab"))
                assert normalize(got).poly == ONE, (x, y)

    def test_matches_determinant_exactly_small_grid(self):
        # exact, not up to units, for every clasp with a diagram
        for clasp in ("a", "^a", "b", "^b"):
            for n in (1, 2):
                for blocks in itertools.product(range(-4, 5), repeat=n):
                    spec = TwistSpec(blocks, clasp)
                    det = delta0_diagram(generate_twist(spec))
                    assert KNOT_FACTOR * evaluate_recursive(spec) == det, spec

    def test_large_blocks_match_determinant(self):
        # m = 27 twist crossings: a 56x56 exact determinant against the
        # recursion, plus the two-block table value at scale
        spec = TwistSpec((15, 12))
        det = delta0_diagram(generate_twist(spec))
        rec = evaluate_recursive(spec)
        assert det == KNOT_FACTOR * rec
        assert normalize(rec).poly == read_poly("6 + 7*u*v")

    # exact, not up to units, so a slip in the running unit's sign or power
    # shows; order 642 is the largest spec of the benchmark's twist workload,
    # and order 306 takes two passes, the first of which leaves k = 75, odd,
    # under which the second adds its corrections
    @pytest.mark.parametrize("clasp, blocks, order", [
        pytest.param(clasp, blocks, order, id=clasp if order == 200 else f"{clasp}-{order}")
        for blocks, order in (((25, -25, 25, -24), 200), ((40, -40) * 4, 642),
                              ((41, 0, 39, 0, -37, 0, 35), 306))
        for clasp in ("a", "^a", "b", "^b")
    ])
    def test_recursion_equals_determinant_at_order_200(self, clasp, blocks, order):
        spec = TwistSpec(blocks, clasp)
        d = generate_twist(spec)
        assert 2 * d.n_crossings == order
        assert KNOT_FACTOR * evaluate_recursive(spec) == delta0_diagram(d)

    def test_reduction_guard_fires_on_broken_contract(self, monkeypatch):
        from valex.errors import InfiniteReduction

        monkeypatch.setattr(twist, "_step", lambda blocks, clasp, k, acc: (blocks, k))
        # the cap is m + n + 1 of the rewritten blocks: (4,) for a and ab,
        # (-4,) for b, (4, 0) for ^a, (-4, 0) for ^b and (5,) for ba; the
        # message names the caller's spec, not its rewrite
        for clasp, cap in (("a", 6), ("^a", 7), ("b", 6), ("^b", 7), ("ab", 6), ("ba", 7)):
            with pytest.raises(InfiniteReduction) as exc:
                twist.evaluate_recursive(TwistSpec((4,), clasp))
            assert str(exc.value) == f"VT[{clasp}](4) did not reduce within {cap} passes"

    @pytest.mark.parametrize("clasp", CLASPS)
    def test_one_call_per_spec(self, monkeypatch, clasp):
        # the module-level name is called once, from outside, and the clasp
        # is rewritten once, even for a spec that takes several passes
        calls = []

        def spy_identity(spec):
            calls.append("clasp_identity")
            return clasp_identity(spec)

        def spy_recursive(spec):
            calls.append("evaluate_recursive")
            return evaluate_recursive(spec)

        monkeypatch.setattr(twist, "clasp_identity", spy_identity)
        monkeypatch.setattr(twist, "evaluate_recursive", spy_recursive)
        spec = TwistSpec((7, -4, 3, 0, 5, -9), clasp)
        assert twist.evaluate_recursive(spec) == reference_dbar(spec)
        assert calls == ["evaluate_recursive", "clasp_identity"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=8))
    def test_clasp_identities_term_by_term(self, blocks):
        # before normalization, each rewritten clasp equals its identity's
        # right-hand side exactly
        def vt(clasp, b):
            return evaluate_recursive(TwistSpec(b, clasp))

        s = tuple(blocks)
        neg = tuple(-b for b in s)
        assert vt("b", s) == mirror_invariant(vt("a", neg))
        assert vt("^b", s) == mirror_invariant(vt("a", neg + (0,)))
        assert vt("^a", s) == vt("a", s + (0,))
        assert vt("ba", s) == vt("ab", s[:-1] + (s[-1] + 1,))

    def test_mirrored_finish_on_every_small_vector(self):
        # the finish writes the b-side answer mirrored; every vector of at
        # most 3 blocks in -2..2 reaches all four base families, -1 flips
        # and end zeros, on both sides of the mirror; the reference map
        # p(u, v) -> -p(v, u) is an exact involution
        assert mirror_invariant(U + 2 * V) == -(V + 2 * U)
        for n in (1, 2, 3):
            for s in itertools.product(range(-2, 3), repeat=n):
                neg = tuple(-b for b in s)
                for clasp, base in (("b", neg), ("^b", neg + (0,))):
                    got = evaluate_recursive(TwistSpec(s, clasp))
                    q = evaluate_recursive(TwistSpec(base))
                    want = mirror_invariant(q)
                    assert dict(got.items()) == dict(want.items()), (clasp, s)
                    assert mirror_invariant(want) == q, (clasp, s)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=8), st.sampled_from(CLASPS))
    def test_matches_laurent_reference(self, blocks, clasp):
        spec = TwistSpec(tuple(blocks), clasp)
        got = evaluate_recursive(spec)
        assert got == reference_dbar(spec)
        assert all(c for _, c in got.items())

    def test_long_spec_does_not_stall(self):
        # 300 blocks reduce to (1,) * 300 after 150 flips: a 45,000-term
        # triangle, which takes seconds if the closed form grows term by term
        spec = TwistSpec((3, -1) * 150)
        got = evaluate_recursive(spec)
        assert len(got) == 45000
        assert got == reference_dbar(spec)
        assert 2 * abs(got.evaluate(-1, -1)) == abs(ow_closed_form(spec))


def varied_block(blocks, i, sign, p):
    """The three specs' blocks with block i = sign (2k + p) for k = 1 - p,
    2 - p and 3 - p, so the first is sign (2 - p), never zero."""
    return [blocks[:i] + (sign * (2 * k + p),) + blocks[i + 1:] for k in range(1 - p, 4 - p)]


def satisfies_recurrence(f0, f1, f2) -> bool:
    """F(k+2) + 2uv F(k+1) + (uv)^2 F(k) = 0."""
    return not f2 + 2 * UV * f1 + UV * UV * f0


class TestBlockLengthRecurrence:
    # Fix the clasp, the other blocks and a_i's sign and parity, and vary
    # k_i = floor(|a_i|/2).  Both dbar by the recursion and Delta_0 by the
    # determinant should then satisfy F(k+2) + 2uv F(k+1) + (uv)^2 F(k) = 0,
    # so F = (-uv)^k (A + kB), which two consecutive k fix; ROADMAP item 4
    # has the argument.  Neither recurrence is proved, so these are samples.
    # Each sequence starts at a nonzero block: from a_i = 0, clasp ba's
    # rewrite of its last block, +1, would change that block's sign.

    @staticmethod
    def samples(rng, count, clasps, bound):
        for clasp in clasps:
            for _ in range(count):
                blocks = tuple(rng.randint(-bound, bound) for _ in range(rng.randint(1, 3)))
                yield (clasp, blocks, rng.randrange(len(blocks)), rng.choice((1, -1)),
                       rng.randint(0, 1))

    def test_recursion_side(self):
        rng = random.Random(38)
        for clasp, blocks, i, sign, p in self.samples(rng, 500, CLASPS, 9):
            f = [evaluate_recursive(TwistSpec(b, clasp)) for b in varied_block(blocks, i, sign, p)]
            assert satisfies_recurrence(*f), (clasp, blocks, i, sign, p)

    def test_determinant_side(self):
        rng = random.Random(39)
        for clasp, blocks, i, sign, p in self.samples(rng, 500, ("a", "^a", "b", "^b"), 4):
            f = [delta0_diagram(generate_twist(TwistSpec(b, clasp)))
                 for b in varied_block(blocks, i, sign, p)]
            assert satisfies_recurrence(*f), (clasp, blocks, i, sign, p)

    def test_grid_holds_a_box_for_each_class(self):
        # per block, the first two values of its sequence: sign (2 - p) and
        # sign (4 - p), for every clasp-a class of n <= 3 blocks
        grid = {spec.blocks for spec in acceptance_grid() if spec.clasp == "a"}
        for n in (1, 2, 3):
            for signs in itertools.product((1, -1), repeat=n):
                for parities in itertools.product((0, 1), repeat=n):
                    box = itertools.product(*({s * (2 - p), s * (4 - p)}
                                              for s, p in zip(signs, parities)))
                    assert grid.issuperset(box), (signs, parities)


class TestSpecReport:
    def test_delta0_is_factor_times_dbar(self):
        rep = spec_report(TwistSpec((3, -2), "^b"))
        assert rep.delta0 == KNOT_FACTOR * rep.dbar
        assert rep.delta0 is rep.delta0  # built once, when first read

    def test_fields_stay_assignable(self):
        rep = spec_report(TwistSpec((1,)))
        rep.delta0 = ONE
        rep.dbar = ZERO
        assert (rep.delta0, rep.dbar) == (ONE, ZERO)


class TestClaspIdentity:
    @pytest.mark.parametrize("clasp", CLASPS)
    def test_derived_spec_is_a_checked_spec(self, clasp):
        spec = TwistSpec((3, -2, 0, 5), clasp)
        base, mirror = clasp_identity(spec)
        built = TwistSpec(*base)
        assert base == built and hash(base) == hash(built) and type(base) is TwistSpec
        assert (base.blocks, base.clasp, mirror) == CLASP_REWRITES[clasp](spec.blocks)

    def test_rewrites(self):
        assert clasp_identity(TwistSpec((1,), "^a")) == (TwistSpec((1, 0), "a"), False)
        assert clasp_identity(TwistSpec((1,), "b")) == (TwistSpec((-1,), "a"), True)
        assert clasp_identity(TwistSpec((1,), "^b")) == (TwistSpec((-1, 0), "a"), True)
        assert clasp_identity(TwistSpec((1, 2), "ba")) == (TwistSpec((1, 3), "ab"), False)

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
