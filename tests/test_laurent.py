import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valex import _backend
from valex._backend import divexact_terms, fma_terms, mul_terms
from valex.errors import (
    DivisionByZero,
    InvalidArgument,
    NonUnitNegativePower,
    NotDivisible,
    ParseError,
)
from valex.laurent import (
    LaurentPoly,
    ONE,
    U,
    V,
    ZERO,
    exact_div,
    format_poly,
    monomial_pow,
    normalize,
    parse_poly,
)


def mul_naive(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Independent second multiplication routine (sorted-list convolution)."""
    out = {}
    for (i, j), c in sorted(a.items()):
        for (k, l), d in sorted(b.items()):
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
    return LaurentPoly(out)


# a small box and unit coefficients make exact divisions in Z[t] common,
# wrapped ones among them
tiny_term_dicts = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 2)),
    st.sampled_from([-1, 1]),
    max_size=3,
)

small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(-9, 9),
        max_size=6,
    ),
)


term_dicts = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-(2 ** 80), 2 ** 80).filter(bool),
    max_size=5,
)
nonzero_term_dicts = term_dicts.filter(bool)


class TestKernelContract:
    """The term-dict kernel against LaurentPoly and the independent mul_naive."""

    @settings(max_examples=150, deadline=None)
    @given(term_dicts, term_dicts, term_dicts, term_dicts)
    def test_mul_and_fma(self, a, b, c, d):
        before = [dict(x) for x in (a, b, c, d)]
        prod = mul_terms(a, b)
        out = fma_terms(a, b, c, d)
        assert [a, b, c, d] == before
        assert all(prod.values()) and all(out.values())
        pa, pb, pc, pd = (LaurentPoly(x) for x in (a, b, c, d))
        assert LaurentPoly(prod) == mul_naive(pa, pb)
        assert LaurentPoly(out) == mul_naive(pa, pb) - mul_naive(pc, pd)

    @settings(max_examples=150, deadline=None)
    @given(term_dicts, nonzero_term_dicts)
    def test_divexact_inverts_mul(self, a, b):
        prod = mul_terms(a, b)
        before = [dict(prod), dict(b)]
        q = divexact_terms(prod, b)
        assert [prod, b] == before
        assert all(q.values())
        assert q == a

    @settings(max_examples=150, deadline=None)
    @given(term_dicts, nonzero_term_dicts,
           st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    def test_divexact_rejects_non_multiple(self, a, b, key):
        # a*b + u^i*v^j is a multiple of b only if b divides a monomial,
        # i.e. only if b is a single term with coefficient +-1
        assume(len(b) > 1 or abs(next(iter(b.values()))) > 1)
        num = mul_terms(a, b)
        num[key] = num.get(key, 0) + 1
        if not num[key]:
            del num[key]
        before = [dict(num), dict(b)]
        assert divexact_terms(num, b) is None
        assert [num, b] == before

    @settings(max_examples=400, deadline=None)
    @given(tiny_term_dicts, tiny_term_dicts.filter(bool))
    def test_divexact_is_sound(self, a, b):
        q = divexact_terms(a, b)
        if q is not None:
            assert mul_naive(LaurentPoly(q), LaurentPoly(b)) == LaurentPoly(a)

    @pytest.mark.parametrize("a, b", [
        # 1 + uv = (1 + t)(1 - t + t^2) under u -> t^2, v -> t, and
        # 1 - t + t^2 decodes to 1 + u - v
        ({(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (0, 1): 1}),
        # the same division, shifted by Laurent monomials
        ({(-2, -3): 1, (-1, -2): 1}, {(1, 1): 1, (1, 2): 1}),
        # the v-span of b exceeds that of a
        ({(1, 0): 1}, {(0, 0): 1, (0, 2): 1}),
    ])
    def test_divexact_rejects_wrapped_quotient(self, a, b):
        assert divexact_terms(a, b) is None



def school_mul(a: dict, b: dict) -> dict:
    """Plain schoolbook product of two term dicts."""
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
    return {key: c for key, c in out.items() if c}


def school_fma(a: dict, b: dict, c: dict, d: dict) -> dict:
    out = school_mul(a, b)
    for key, x in school_mul(c, d).items():
        out[key] = out.get(key, 0) - x
    return {key: x for key, x in out.items() if x}


def long_divide(a: dict, b: dict) -> dict | None:
    """Exact Laurent quotient a / b by bivariate long division, or None.

    Each step cancels the lexicographically leading term of the remainder
    against that of b.  A true quotient has no u-exponent below
    min_u(a) - min_u(b) and no v-exponent below min_v(a) - min_v(b), so a
    step that needs one (or an inexact coefficient) proves b does not
    divide a; the leading term falls every step, so this ends.
    """
    if not a:
        return {}
    (bu, bv), lead = max(b.items())
    lo_u = min(i for i, _ in a) - min(i for i, _ in b)
    lo_v = min(j for _, j in a) - min(j for _, j in b)
    r, q = dict(a), {}
    while r:
        (i, j), c = max(r.items())
        qu, qv = i - bu, j - bv
        if qu < lo_u or qv < lo_v or c % lead:
            return None
        t = c // lead
        q[(qu, qv)] = t
        for (k, l), d in b.items():
            key = (qu + k, qv + l)
            v = r.get(key, 0) - t * d
            if v:
                r[key] = v
            else:
                r.pop(key, None)
    return q


def balanced_digits(x: int, bits: int) -> list:
    """Digits d_k of x = sum(d_k * 2**(bits*k)) with -2**(bits-1) <= d_k < 2**(bits-1)."""
    digits = []
    while x:
        d = x % (1 << bits)
        if d >= 1 << (bits - 1):
            d -= 1 << bits
        digits.append(d)
        x = (x - d) >> bits
    return digits


@pytest.fixture
def slot_widths(monkeypatch):
    """The slot widths, in bits, at which the kernel reads packed results back."""
    widths = []
    unpack = _backend._unpack

    def spy(x, n, bits):
        widths.append(bits)
        return unpack(x, n, bits)

    monkeypatch.setattr(_backend, "_unpack", spy)
    return widths


@st.composite
def packable_terms(draw, max_size=24):
    """Signed term dicts for the packed kernel paths.

    One magnitude per dict, near 2**e for e in 1, 3, 7, 15, 31, 63 (7 to 63
    are the slot widths' sign bits) or 64 and 80 (past 64-bit slots), so
    products land on both sides of each slot width.  Boxes are dense (6 x 6, 8 x 4, one row or column) or
    sparse with wide spans, at any shift.
    """
    e = draw(st.sampled_from([1, 3, 7, 15, 31, 63, 64, 80]))
    edge = [s * (2 ** e + k) for s in (-1, 1) for k in (-1, 0, 1)]
    coef = st.one_of(st.integers(-(2 ** e) - 1, 2 ** e + 1), st.sampled_from(edge)).filter(bool)
    su, sv = draw(st.sampled_from([(5, 5), (7, 3), (0, 40), (40, 0), (150, 2), (2, 150)]))
    du, dv = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
    keys = st.tuples(st.integers(du, du + su), st.integers(dv, dv + sv))
    size = draw(st.integers(0, max_size))
    return draw(st.dictionaries(keys, coef, min_size=size, max_size=size))


class TestPackedKernel:
    """mul_terms, fma_terms and divexact_terms against the plain references.

    The operands reach past the packing thresholds (150 term products, 32
    dividend terms), so both the schoolbook and the Kronecker-packed paths
    run, at every slot width and across its limits.
    """

    @settings(max_examples=150, deadline=None)
    @given(packable_terms(), packable_terms(), packable_terms(), packable_terms())
    def test_mul_and_fma_equal_schoolbook(self, a, b, c, d):
        before = [dict(x) for x in (a, b, c, d)]
        assert mul_terms(a, b) == school_mul(a, b)
        assert fma_terms(a, b, c, d) == school_fma(a, b, c, d)
        assert [a, b, c, d] == before

    @settings(max_examples=150, deadline=None)
    @given(packable_terms(), packable_terms().filter(bool),
           st.tuples(st.integers(-80, 80), st.integers(-80, 80)), st.booleans())
    def test_divexact_equals_long_division(self, q, b, key, perturb):
        a = school_mul(q, b)
        if perturb:  # most such a have no quotient
            a[key] = a.get(key, 0) + 1
            a = {k: c for k, c in a.items() if c}
        before = [dict(a), dict(b)]
        want = long_divide(a, b)
        assert divexact_terms(a, b) == want
        assert [a, b] == before
        if not perturb:
            assert want == q

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_divexact_with_carries_at_every_width(self, bits, data):
        # a is the balanced base-2**bits expansion of q(2**bits) * b(2**bits),
        # with q's coefficients near 2**(bits - 1): a and b fit slots of the
        # given width, and where q's digits carry, b divides the packed ints
        # but not a
        near = 2 ** (bits * 5 // 8)
        mags = data.draw(st.lists(st.integers(2 ** (bits - 2) - near, 2 ** (bits - 1) + near),
                                  min_size=33, max_size=40))
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=33, max_size=33))
        b = data.draw(st.sampled_from([{(0, 0): 1, (0, 1): 1}, {(0, 0): -1, (0, 1): 1},
                                       {(0, 0): 1, (0, 2): -1}, {(0, 0): 3, (0, 1): 1}]))
        q = {(0, k): s * c for k, (c, s) in enumerate(zip(mags, signs))}
        x = sum(c << (bits * j) for (_, j), c in q.items())
        y = sum(c << (bits * j) for (_, j), c in b.items())
        a = {(0, k): d for k, d in enumerate(balanced_digits(x * y, bits)) if d}
        assert divexact_terms(a, b) == long_divide(a, b)

    def test_divexact_widens_past_the_operands_width(self, slot_widths):
        # q = sum k(39 - k) v**k needs 10 bits, but a = q (1 - v)**2 needs
        # only 7: a and b pack into 8-bit slots, where q's digits do not
        # fit, and q comes out of 16-bit slots
        q = {(0, k): k * (39 - k) for k in range(1, 39)}
        b = {(0, 0): 1, (0, 1): -2, (0, 2): 1}
        a = school_mul(q, b)
        assert len(a) == 40 and max(map(abs, a.values())) == 38 and max(q.values()) == 380
        before = [dict(a), dict(b)]
        assert divexact_terms(a, b) == q
        assert slot_widths == [8, 16]
        # the width holds b too: a / q packs at 16 bits
        slot_widths.clear()
        assert divexact_terms(a, q) == b
        assert slot_widths == [16]
        # a + v**5 leaves a remainder at 8 bits, so no quotient is read
        slot_widths.clear()
        off = dict(a)
        off[(0, 5)] += 1
        assert long_divide(off, b) is None
        assert divexact_terms(off, b) is None
        assert slot_widths == []
        assert [a, b] == before
        # q = 4k v**k up to k = 37, then 127 v**38: a = q (1 - v) fits 8-bit
        # slots, but q's balanced base-2**8 digits carry into a slot above
        # its top term, so the quotient is read again at 16 bits
        slot_widths.clear()
        q = {(0, k): 4 * k for k in range(1, 38)}
        q[(0, 38)] = 127
        b = {(0, 0): 1, (0, 1): -1}
        a = school_mul(q, b)
        assert len(a) == 39 and max(map(abs, a.values())) == 127
        assert divexact_terms(a, b) == q
        assert slot_widths == [8, 16]

    @pytest.mark.parametrize("s_seed", [1, 2, 3])
    def test_divexact_rejects_wrapped_dense_quotient(self, s_seed, slot_widths):
        # (1 + uv) s / ((1 + v) s) divides in Z[t] when W is even: s spans
        # v**0..v**4, so a spans six v-exponents, W = 6, and
        # 1 + t**7 = (1 + t)(1 - t + ... + t**6) decodes to a wrapped quotient
        rng = random.Random(s_seed)
        s = {(i, j): rng.choice([-3, -2, -1, 1, 2, 3]) for i in range(6) for j in range(5)}
        a = school_mul({(0, 0): 1, (1, 1): 1}, s)
        b = school_mul({(0, 0): 1, (0, 1): 1}, s)
        assert len(a) >= 32
        before = [dict(a), dict(b)]
        assert long_divide(a, b) is None
        assert divexact_terms(a, b) is None
        assert slot_widths == [8]  # the Z[t] quotient is read, then rejected
        assert [a, b] == before

    def test_divexact_rejects_quotient_wrapped_in_its_last_row(self, slot_widths):
        # with W = 6, a = s (1 + v) + u**5 v**5 + u**6 is (s + t**35)(1 + t)
        # in Z[t], s spanning v**0..v**4 in rows u**0..u**5: only the
        # quotient's last row, u**5, holds a slot that wraps past W
        rng = random.Random(6)
        s = {(i, j): rng.choice([-3, -2, -1, 1, 2, 3]) for i in range(6) for j in range(5)}
        b = {(0, 0): 1, (0, 1): 1}
        a = school_mul(s, b)
        a[(5, 5)] += 1
        a[(6, 0)] = 1
        assert len(a) >= 32 and all(a.values())
        assert long_divide(a, b) is None
        assert divexact_terms(a, b) is None
        assert slot_widths == [8]

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    @pytest.mark.parametrize("step", [0, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_width_edges(self, bits, step, sign):
        # sixteen equal terms along v: the middle coefficient of a*b is
        # 16 * m**2, the slot bound itself, just inside (step 0) or just
        # past (step 1) the sign bit of a slot of the given width
        m = math.isqrt((2 ** (bits - 1) - 1) // 16) + step
        a = {(0, k): m for k in range(16)}
        b = {(3, k - 5): sign * m for k in range(16)}
        assert mul_terms(a, b) == school_mul(a, b)
        assert fma_terms(a, b, b, {(0, 0): -m}) == school_fma(a, b, b, {(0, 0): -m})

    def test_sparse_wide_operands(self):
        a = {(0, 0): 1, (0, 10 ** 6): -2, (10 ** 6, 0): 3, (10 ** 6, 10 ** 6): 5}
        b = {(k, 7 * k): k - 20 for k in range(40) if k != 20}
        assert mul_terms(a, b) == school_mul(a, b)
        assert fma_terms(b, b, a, b) == school_fma(b, b, a, b)
        prod = school_mul(a, b)
        assert divexact_terms(prod, b) == a


class TestAddMul:
    def test_add_cancellation(self):
        assert U + (-U) == ZERO
        assert not U + (-U)

    def test_add_merge(self):
        assert (ONE + U * V) + U * V == ONE + 2 * U * V

    def test_add_disjoint(self):
        p = monomial_pow(1, -1, 1, 1) + monomial_pow(1, 1, -1, 1)
        assert p == LaurentPoly({(-1, 1): 1, (1, -1): 1})

    def test_mul_expand(self):
        assert (U - 1) * (V - 1) == U * V - U - V + 1

    def test_mul_unit_inverse(self):
        assert (U * V) * monomial_pow(1, 1, 1, -1) == ONE

    def test_triple_product_against_independent_routine(self):
        p = (U - 1) * (V - 1) * (U * V - 1)
        q = mul_naive(mul_naive(U - 1, V - 1), U * V - 1)
        assert p == q
        assert p.coeff(0, 0) == -1
        assert p.coeff(2, 2) == 1

    def test_int_coercion(self):
        assert 2 * U == U + U
        assert U - 1 == U + (-1)
        assert 3 - U == LaurentPoly({(0, 0): 3, (1, 0): -1})
        assert ONE == 1 and U - U == 0

    def test_equal_polys_hash_equal(self):
        built = parse_poly("1 + u*v")
        assert hash(built) == hash(ONE + U * V)
        assert len({built: 1, ONE + U * V: 2}) == 1

    def test_constants_hash_as_their_ints(self):
        # ONE == 1 and ZERO == 0, so they must also hash alike
        assert hash(ONE) == hash(1) and hash(-ONE) == hash(-1)
        assert hash(ZERO) == hash(0)
        assert {0: "z"}.get(ZERO) == "z"
        assert len({1: "a", ONE: "b"}) == 1

    @pytest.mark.parametrize("terms", [{(0.5, 0): 1, (0, 0): 2}, {("1", "2"): 5},
                                       {(0, 1.0): 1}, {(0, 0): 1.0}])
    def test_constructor_takes_only_int_exponents_and_coefficients(self, terms):
        # converting with int() would truncate (0.5, 0) onto (0, 0), where
        # the later term overwrites it, and read ("1", "2") as u*v^2
        with pytest.raises(TypeError):
            LaurentPoly(terms)

    def test_bool_and_repr(self):
        assert not bool(U - U) and bool(U)
        assert repr(U + V) == "LaurentPoly('v + u')"

    def test_negative_power_of_unit_monomial(self):
        assert U ** -2 == LaurentPoly({(-2, 0): 1})
        assert (-U * V) ** -1 == LaurentPoly({(-1, -1): -1})

    def test_negative_power_of_nonunit(self):
        with pytest.raises(NonUnitNegativePower):
            (U + 1) ** -1
        with pytest.raises(NonUnitNegativePower):
            (2 * U) ** -1


class TestMonomialPow:
    def test_square(self):
        assert monomial_pow(-1, 1, 1, 2) == U ** 2 * V ** 2

    def test_unit_inverse(self):
        assert monomial_pow(1, 1, 1, -1) == LaurentPoly({(-1, -1): 1})

    def test_large_unit_power(self):
        assert monomial_pow(-1, 1, 1, 12) == LaurentPoly({(12, 12): 1})

    def test_negative_power_of_nonunit(self):
        with pytest.raises(NonUnitNegativePower):
            monomial_pow(2, 1, 0, -1)

    def test_zero_monomial(self):
        assert not monomial_pow(0, 3, 1, 2)
        assert monomial_pow(0, 0, 0, 0) == ONE


class TestExactDiv:
    def test_known_factor(self):
        p = (U - 1) * (V - 1) * (U * V - 1)
        assert exact_div(p, U - 1) == (V - 1) * (U * V - 1)

    def test_identity(self):
        p = 3 * U ** 2 - V
        assert exact_div(p, ONE) == p

    def test_not_divisible(self):
        # substitute u = -1: p(-1, v) = 2(v-1)(-v-1) != 0 certifies non-divisibility
        p = (U - 1) * (V - 1) * (U * V - 1)
        cert = {}
        for (i, j), c in p.items():
            cert[j] = cert.get(j, 0) + (-1) ** i * c
        assert any(cert.values())
        with pytest.raises(NotDivisible):
            exact_div(p, U + 1)
        with pytest.raises(NotDivisible):
            exact_div(1 + U * V, 1 + V)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            exact_div(U, ZERO)

    def test_laurent_shifts(self):
        a = monomial_pow(1, -2, -3, 1) * (U - 1)
        assert exact_div(a, U - 1) == monomial_pow(1, -2, -3, 1)

    def test_quotient_with_positive_shift(self):
        # 1 / u^-1 = u; (u+1) / (u^-1 + 1) = u
        assert exact_div(ONE, monomial_pow(1, -1, 0, 1)) == U
        assert exact_div(U + 1, monomial_pow(1, -1, 0, 1) + 1) == U


class TestEvaluate:
    def test_printed_polynomial_at_minus_one(self):
        p = parse_poly("2 + 5*u*v - u^2*v^3 + 2*u^2*v^2 + 4*u^3*v^3")
        assert p.evaluate(-1, -1) == 14

    def test_factor_vanishes(self):
        assert ((U - 1) * (V - 1) * (U * V - 1)).evaluate(-1, -1) == 0

    def test_zero(self):
        assert ZERO.evaluate(-1, -1) == 0

    @pytest.mark.parametrize("u0, v0", [(0, 1), (2, 1), (1, -2), (-1, 0)])
    def test_points_other_than_units_raise(self, u0, v0):
        with pytest.raises(InvalidArgument):
            monomial_pow(1, -1, 0, 1).evaluate(u0, v0)

    def test_negative_exponents_at_unit_points_stay_int(self):
        p = parse_poly("3*u^-3*v^-2 - 2*u^-1 + 5*v^-5 + 7*u^2*v^-1 - 4")
        for u0 in (1, -1):
            for v0 in (1, -1):
                want = sum(c * Fraction(u0) ** i * Fraction(v0) ** j for (i, j), c in p.items())
                got = p.evaluate(u0, v0)
                assert type(got) is int and got == want, (u0, v0)


class TestNormalize:
    def test_forced_unit(self):
        res = normalize(monomial_pow(-1, 1, 1, 2) * 3)
        assert res.poly == LaurentPoly({(0, 0): 3})
        assert (res.shift, res.sign) == (2, 1)

    def test_worked_example_unit(self):
        raw = monomial_pow(-1, 1, 1, 12) * parse_poly(
            "-u*v^2 + 5 + 2*u^-1*v^-1 + 2*u*v + 4*u^2*v^2"
        )
        res = normalize(raw)
        assert res.poly == parse_poly("2 + 5*u*v - u^2*v^3 + 2*u^2*v^2 + 4*u^3*v^3")
        assert (res.shift, res.sign) == (11, 1)

    def test_negative_blocks_example(self):
        raw = monomial_pow(-1, 1, 1, 8) * parse_poly(
            "-u^2*v - 4*u^2*v^2 + u*v - u^-1*v^-1 - 1"
        )
        assert normalize(raw).poly == parse_poly(
            "1 + u*v - u^2*v^2 + u^3*v^2 + 4*u^3*v^3"
        )

    def test_zero_total(self):
        res = normalize(ZERO)
        assert not res.poly and res.shift == 0 and res.sign == 1


class TestTextForm:
    def test_two_block_value(self):
        p = parse_poly("1 + u + u*v")
        assert p == LaurentPoly({(0, 0): 1, (1, 0): 1, (1, 1): 1})

    def test_negative_exponents(self):
        assert parse_poly("u^-1*v^-1") == LaurentPoly({(-1, -1): 1})

    def test_zero(self):
        assert not parse_poly("0")
        assert format_poly(ZERO) == "0"

    def test_format_sorted(self):
        p = parse_poly("4*u^3*v^3 + 2 - u^2*v^3 + 2*u^2*v^2 + 5*u*v")
        assert format_poly(p) == "2 + 5*u*v + 2*u^2*v^2 - u^2*v^3 + 4*u^3*v^3"

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("1 + !")
        assert exc.value.position == 4

    def test_parse_error_number_after_variable(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("u*2")
        assert exc.value.position == 2

    @pytest.mark.parametrize("text, position", [
        (f"1 + {'9' * 5000}*u", 4),   # past the int-string digit limit
        (f"u^{'9' * 5000}", 2),
        ("u^\u00b2", 2),              # '\u00b2' is a digit to str.isdigit, not to int()
    ], ids=["long_coefficient", "long_exponent", "superscript_two"])
    def test_parse_error_unreadable_integer(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert exc.value.position == position

    def test_parse_error_empty(self):
        with pytest.raises(ParseError):
            parse_poly("   ")

    def test_star_optional(self):
        assert parse_poly("2u v^2") == 2 * U * V ** 2

    def test_cancelling_terms(self):
        assert parse_poly("u - u") == ZERO

    @pytest.mark.parametrize("text", ["2 3", "uu", "u^", "+"])
    def test_parse_error_malformed_term(self, text):
        with pytest.raises(ParseError):
            parse_poly(text)


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys)
def test_add_mul_commutative(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_associative_distributive(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys)
def test_exact_div_roundtrip(a, b):
    if not b:
        return
    assert exact_div(a * b, b) == a


@settings(max_examples=200, deadline=None)
@given(small_polys)
def test_normalize_reconstruction_and_idempotence(a):
    res = normalize(a)
    assert res.sign * monomial_pow(1, 1, 1, res.shift) * res.poly == a
    again = normalize(res.poly)
    assert again.poly == res.poly
    assert (again.shift, again.sign) == (0, 1)


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
def test_evaluate_is_ring_hom(a, b, u0, v0):
    assert (a * b).evaluate(u0, v0) == a.evaluate(u0, v0) * b.evaluate(u0, v0)
    assert (a + b).evaluate(u0, v0) == a.evaluate(u0, v0) + b.evaluate(u0, v0)


@settings(max_examples=200, deadline=None)
@given(small_polys, st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
def test_evaluate_matches_termwise_sum(a, u0, v0):
    want = sum(Fraction(c) * Fraction(u0) ** i * Fraction(v0) ** j for (i, j), c in a.items())
    got = a.evaluate(u0, v0)
    assert got == want
    assert type(got) is int


@settings(max_examples=200, deadline=None)
@given(small_polys)
def test_parse_format_roundtrip(a):
    assert parse_poly(format_poly(a)) == a


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys)
def test_mul_matches_independent_routine(a, b):
    assert a * b == mul_naive(a, b)
