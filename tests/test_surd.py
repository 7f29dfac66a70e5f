"""Exact quadratic-surd arithmetic: signs, ordering, parsing, decimals.

Sign decisions are cross-checked against a 50-digit Decimal evaluation,
which is precise enough to separate every sample here by a wide margin.
The integer display kernel is checked against ``decimal`` and ``fractions``
as oracles: each decimal is the text of the Decimal that one correctly
rounded division gives, and the integer parser reads exactly what
``Fraction`` reads.
"""

import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prioritaire.errors import ParseError
from prioritaire.surd import (
    MAX_DIGITS,
    QuadSurd,
    _parse_ratio,
    compare_sqrt_sum,
    decimal_str,
    format_rational,
    format_surd,
    parse_rational,
    parse_surd,
)


def decimal_value(s: QuadSurd) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 50
        v = Decimal(s.a.numerator) / Decimal(s.a.denominator)
        if s.b:
            v += Decimal(s.b.numerator) / Decimal(s.b.denominator) * Decimal(s.d).sqrt()
        return v


def test_construction_normalizes():
    assert QuadSurd(Fraction(1), Fraction(1), 4) == QuadSurd.from_rational(Fraction(3))
    assert QuadSurd(Fraction(1), Fraction(0), 7).d == 0
    assert QuadSurd(Fraction(-6), Fraction(3), 4).is_rational
    s = QuadSurd(Fraction(-6), Fraction(3), 4)
    assert (s.a, s.b, s.d) == (0, 0, 0)
    with pytest.raises(ValueError):
        QuadSurd(Fraction(0), Fraction(1), -5)


def test_rational_embedding():
    x = QuadSurd.from_rational(Fraction(-3, 8))
    assert x.is_rational and x.a == Fraction(-3, 8)
    assert x.sign() == -1
    assert QuadSurd.from_rational(Fraction(0)).sign() == 0


def test_arithmetic_same_radicand():
    x = QuadSurd(Fraction(1, 2), Fraction(1, 3), 5)
    y = QuadSurd(Fraction(-2), Fraction(1, 6), 5)
    assert (x + y) - y == x
    assert (-x) + x == QuadSurd.from_rational(Fraction(0))


def test_mixed_radicand_addition_rejected():
    x = QuadSurd(Fraction(0), Fraction(1), 2)
    y = QuadSurd(Fraction(0), Fraction(1), 3)
    with pytest.raises(ValueError):
        x + y


def test_sign_close_calls():
    # -7 + 2*sqrt(12) is negative, -7 + 2*sqrt(13) is positive.
    assert QuadSurd(Fraction(-7), Fraction(2), 12).sign() == -1
    assert QuadSurd(Fraction(-7), Fraction(2), 13).sign() == 1
    # 3/2 - sqrt(2) versus 1/10 and 1/12: the width of the rank-2 interval.
    x = QuadSurd(Fraction(3, 2), Fraction(-1, 4), 32)
    assert x.compare(Fraction(1, 10)) < 0
    assert x.compare(Fraction(1, 12)) > 0
    assert x.sign() == 1


def test_equality_and_hash():
    a = QuadSurd(Fraction(1, 2), Fraction(1, 3), 45)
    b = QuadSurd(Fraction(1, 2), Fraction(1), 5)
    assert a == b and hash(a) == hash(b)
    table = {a: "x"}
    assert table[b] == "x"


def test_compare_sqrt_sum():
    # sqrt(2) + sqrt(8) = 3*sqrt(2) < 5, = at 4+9 vs 5, > against 4.
    assert compare_sqrt_sum(Fraction(2), Fraction(8), Fraction(5)) == -1
    assert compare_sqrt_sum(Fraction(4), Fraction(9), Fraction(5)) == 0
    assert compare_sqrt_sum(Fraction(4), Fraction(9), Fraction(4)) == 1
    assert compare_sqrt_sum(Fraction(0), Fraction(0), Fraction(0)) == 0
    assert compare_sqrt_sum(Fraction(1), Fraction(1), Fraction(-3)) == 1
    with pytest.raises(ValueError):
        compare_sqrt_sum(Fraction(-1), Fraction(1), Fraction(1))


def test_format_parse_roundtrip():
    s = QuadSurd(Fraction(3, 2), Fraction(-1, 10), 221)
    assert format_surd(s) == "3/2 - 1/10*sqrt(221)"
    assert parse_surd(format_surd(s)) == s
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-3, 8)) == "-3/8"
    assert parse_rational("-3/8") == Fraction(-3, 8)
    assert parse_surd("-3/8") == QuadSurd.from_rational(Fraction(-3, 8))
    with pytest.raises(ParseError):
        parse_rational("not a number")


def test_decimal_str_half_even():
    assert decimal_str(Fraction(1, 3), 12) == "0.333333333333"
    assert decimal_str(Fraction(1, 2)) == "0.5"
    # 0.125 at two digits rounds half-even to 0.12.
    assert decimal_str(Fraction(1, 8), 2) == "0.12"
    assert decimal_str(QuadSurd(Fraction(3, 2), Fraction(-1, 10), 221), 12) == "0.0133931252681"
    # Rounded once: -0.125000000000000000001 is past the half-way -0.125.
    assert decimal_str(Fraction(-125000000000000000001, 10**21), 2) == "-0.13"


def test_decimal_str_bounds_its_digits():
    # The cost grows faster than the digit count, so the bound is the
    # function's own and not only the CLI's.
    x = QuadSurd(Fraction(3, 2), Fraction(-1, 10), 221)
    assert MAX_DIGITS == 10_000
    with pytest.raises(ValueError, match="^digits must be <= 10000$"):
        decimal_str(x, 10_001)
    assert len(Decimal(decimal_str(x, 10_000)).as_tuple().digits) == 10_000


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
radicands = st.sampled_from([0, 2, 3, 5, 7, 32, 221])
digit_counts = st.integers(min_value=1, max_value=60)


@given(
    st.integers(min_value=-(10**60), max_value=10**60),
    st.integers(min_value=1, max_value=10**60),
    digit_counts,
)
# Exact quotients at the exponent nearest 0, trailing zeros kept or dropped.
@example(100, 4, 12)  # 25
@example(12300, 1, 12)  # 12300
@example(1000, 1, 2)  # 1.0E+3
@example(-123, 10**7, 12)  # -0.0000123
@example(1, 10**7, 3)  # 1E-7
@example(1, 2, 60)  # 0.5
# Roundings that carry into a new leading digit.
@example(199, 2, 2)  # 99.5 -> 1.0E+2
@example(995, 1000, 2)  # 1.0
@example(-96, 100, 1)  # -1
@example(0, 7, 5)  # 0
def test_decimal_str_of_a_rational_is_one_division(n, m, digits):
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_HALF_EVEN
        expected = str(Decimal(n) / Decimal(m))
    assert decimal_str(Fraction(n, m), digits) == expected


def _assert_within_half_a_unit(s: QuadSurd, digits: int) -> None:
    """decimal_str(s, digits) has ``digits`` digits and lies within half a
    unit of its last digit of s, decided exactly by QuadSurd.compare."""
    text = decimal_str(s, digits)
    x = Decimal(text)
    assert str(x) == text  # Decimal's own form, not only its value
    _, coefficient, exponent = x.as_tuple()
    assert len(coefficient) == digits
    half = Fraction(10) ** exponent / 2
    assert s.compare(Fraction(x) - half) > 0 and s.compare(Fraction(x) + half) < 0


@given(
    rationals,
    rationals.filter(bool),
    st.sampled_from([2, 3, 5, 7, 32, 221]),
    st.integers(min_value=-30, max_value=30),
    digit_counts,
)
def test_decimal_str_of_a_surd_is_within_half_a_unit(a, b, d, shift, digits):
    scale = Fraction(10) ** shift
    _assert_within_half_a_unit(QuadSurd(a * scale, b * scale, d), digits)


@given(
    st.integers(min_value=1, max_value=10**80),
    st.sampled_from([2, 3, 5, 7, 221, 9 * 10**40 - 4]),
    st.booleans(),
    digit_counts,
)
def test_decimal_str_of_a_cancelling_surd_is_within_half_a_unit(n, d, below, digits):
    # isqrt(d n^2)/n - sqrt(d) cancels about as many digits as n has.
    root = math.isqrt(d * n * n) + (not below)
    _assert_within_half_a_unit(QuadSurd(Fraction(root, n), -1, d), digits)


@given(rationals, rationals, radicands)
def test_sign_matches_decimal(a, b, d):
    s = QuadSurd(a, b, d)
    v = decimal_value(s)
    if v == 0:
        assert s.sign() == 0
    elif abs(v) > Decimal("1e-30"):
        assert s.sign() == (1 if v > 0 else -1)


@given(rationals, rationals, rationals, rationals, radicands)
def test_field_identities(a1, b1, a2, b2, d):
    x = QuadSurd(a1, b1, d)
    y = QuadSurd(a2, b2, d)
    assert (x + y) - y == x


# Spellings near the edge of what Fraction reads: signs, slashes, points,
# exponents, underscores, spaces, a zero denominator and non-ASCII digits.
_PIECES = ["", " ", "\t", "\u00a0", "+", "-", "0", "1", "7", "12", "007", "/", "/0", ".", "_"]
_PIECES += ["e", "E", "\u0663", "\u00b2", "x"]
rational_texts = (
    st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)
    | st.from_regex(r"\A\s?[+-]?\d{0,4}(/\d{0,4})?\s?\Z")
    | st.text(max_size=10)
)


@given(rational_texts)
@example("-2/6")
@example(" +0004 ")
@example("3/0")
@example("0.25")
def test_the_integer_parser_reads_what_fraction_reads(text):
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError) as refused:
            _parse_ratio(text)
        assert str(refused.value) == f"not a rational: {text!r}"
    else:
        assert _parse_ratio(text) == expected.as_integer_ratio()
        assert parse_rational(text) == expected
