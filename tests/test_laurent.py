from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valex._backend import divexact_terms, fma_terms, mul_terms
from valex.errors import (
    DivisionByZero,
    EvalAtZero,
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
    for (i, j), c in sorted(a.terms.items()):
        for (k, l), d in sorted(b.terms.items()):
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
    return LaurentPoly(out)


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
        assert prod == mul_naive(pa, pb).terms
        assert out == (mul_naive(pa, pb) - mul_naive(pc, pd)).terms

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


class TestAddMul:
    def test_add_cancellation(self):
        assert U + (-U) == ZERO
        assert (U + (-U)).is_zero

    def test_add_merge(self):
        assert (ONE + U * V) + U * V == ONE + 2 * U * V

    def test_add_disjoint(self):
        p = monomial_pow(1, -1, 1, 1) + monomial_pow(1, 1, -1, 1)
        assert p.terms == {(-1, 1): 1, (1, -1): 1}

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


class TestMonomialPow:
    def test_square(self):
        assert monomial_pow(-1, 1, 1, 2) == U ** 2 * V ** 2

    def test_unit_inverse(self):
        assert monomial_pow(1, 1, 1, -1).terms == {(-1, -1): 1}

    def test_large_unit_power(self):
        assert monomial_pow(-1, 1, 1, 12).terms == {(12, 12): 1}

    def test_negative_power_of_nonunit(self):
        with pytest.raises(NonUnitNegativePower):
            monomial_pow(2, 1, 0, -1)

    def test_zero_monomial(self):
        assert monomial_pow(0, 3, 1, 2).is_zero
        assert monomial_pow(0, 0, 0, 0) == ONE


class TestExactDiv:
    def test_known_factor(self):
        p = (U - 1) * (V - 1) * (U * V - 1)
        assert exact_div(p, U - 1) == (V - 1) * (U * V - 1)

    def test_identity(self):
        p = 3 * U ** 2 - V
        assert exact_div(p, ONE) == p

    def test_not_divisible(self):
        # substitute u = -1: 2(v-1)(-v-1) != 0 certifies non-divisibility
        p = (U - 1) * (V - 1) * (U * V - 1)
        cert = p.evaluate(-1, 2)
        assert cert != 0
        with pytest.raises(NotDivisible):
            exact_div(p, U + 1)

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

    def test_negative_exponent_at_zero(self):
        with pytest.raises(EvalAtZero):
            monomial_pow(1, -1, 0, 1).evaluate(0, 1)

    def test_fraction_result(self):
        p = monomial_pow(1, -1, 0, 1)
        assert p.evaluate(2, 1) == Fraction(1, 2)
        assert p.evaluate(1, 5) == 1


class TestNormalize:
    def test_forced_unit(self):
        res = normalize(monomial_pow(-1, 1, 1, 2) * 3)
        assert res.poly == LaurentPoly.const(3)
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
        assert res.poly.is_zero and res.shift == 0 and res.sign == 1


class TestTextForm:
    def test_two_block_value(self):
        p = parse_poly("1 + u + u*v")
        assert p.terms == {(0, 0): 1, (1, 0): 1, (1, 1): 1}

    def test_negative_exponents(self):
        assert parse_poly("u^-1*v^-1").terms == {(-1, -1): 1}

    def test_zero(self):
        assert parse_poly("0").is_zero
        assert format_poly(ZERO) == "0"

    def test_format_sorted(self):
        p = parse_poly("4*u^3*v^3 + 2 - u^2*v^3 + 2*u^2*v^2 + 5*u*v")
        assert format_poly(p) == "2 + 5*u*v + 2*u^2*v^2 - u^2*v^3 + 4*u^3*v^3"

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("1 + !")
        assert exc.value.position == 4

    def test_parse_error_empty(self):
        with pytest.raises(ParseError):
            parse_poly("   ")

    def test_star_optional(self):
        assert parse_poly("2u v^2") == 2 * U * V ** 2


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
    if b.is_zero:
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
@given(small_polys)
def test_parse_format_roundtrip(a):
    assert parse_poly(format_poly(a)) == a


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys)
def test_mul_matches_independent_routine(a, b):
    assert a * b == mul_naive(a, b)
