"""Exact arithmetic kernel: rationals, quadratic surds, display helpers.

Rationals are plain ``fractions.Fraction`` values; the stdlib already
guarantees lowest terms and a positive denominator, which is exactly the
normal form required here.  This module supplies what sits on top:

* ``QuadSurd`` -- numbers of the form a + b*sqrt(d) with rational a, b
  and integer d >= 0, closed under addition, subtraction and negation,
  with sign and comparison decided exactly by case analysis on the
  signs of a and b plus one integer comparison of a^2 against b^2*d.
  No floating point is consulted anywhere.
* exact string round-tripping ("p/q" and "a/b + c/d*sqrt(D)"), and
* decimal rendering (round-half-even, configurable digit count) used
  only for display, never for decisions.

Arithmetic across two distinct irrational radicands is out of scope and
rejected, except for the one comparison the interval machinery needs:
``compare_sqrt_sum`` decides sqrt(u) + sqrt(v) against a rational w by
squaring twice, staying in exact rational arithmetic throughout.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

from ._record import Record
from .errors import ParseError

_SURD_RE = re.compile(
    r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*"
    r"(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*(?P<d>\d+)\s*\)\s*$"
)


def _sgn(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class QuadSurd(Record):
    """Exact value a + b*sqrt(d), normalized on construction.

    Normal form: d == 0 whenever the value is rational (b == 0, or d a
    perfect square, which is folded into a).  Equality and hashing use
    the canonical key (a, sign(b), b^2*d) so equal values compare equal
    even when built from different radicand presentations.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction | int, b: Fraction | int, d: int) -> None:
        a, b, d = Fraction(a), Fraction(b), int(d)
        if d < 0:
            raise ValueError(f"negative radicand {d}")
        if b == 0:
            d = 0
        elif d == 0:
            b = Fraction(0)
        else:
            root = math.isqrt(d)
            if root * root == d:
                a, b, d = a + b * root, Fraction(0), 0
        set_a, set_b, set_d = __class__._setters
        set_a(self, a)
        set_b(self, b)
        set_d(self, d)

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "QuadSurd":
        return cls(Fraction(value), Fraction(0), 0)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- arithmetic (same radicand only) --------------------------------

    def _coerce(self, other: "QuadSurd | Fraction | int") -> "QuadSurd":
        if isinstance(other, QuadSurd):
            return other
        if isinstance(other, (Fraction, int)):
            return QuadSurd.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def _join_radicand(self, other: "QuadSurd") -> int:
        if self.d and other.d and self.d != other.d:
            raise ValueError(
                f"cross-radicand arithmetic unsupported: sqrt({self.d}) vs sqrt({other.d})"
            )
        return self.d or other.d

    def __add__(self, other: "QuadSurd | Fraction | int") -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_radicand(o)
        return QuadSurd(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(-self.a, -self.b, self.d)

    def __sub__(self, other: "QuadSurd | Fraction | int") -> "QuadSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: "Fraction | int") -> "QuadSurd":
        return (-self) + other

    # -- exact sign and order -------------------------------------------

    def sign(self) -> int:
        """Sign of the exact value, in {-1, 0, 1}, without floats."""
        if self.b == 0:
            return _sgn(self.a)
        if self.a == 0:
            return _sgn(self.b)
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        # Mixed signs: |a| against |b|*sqrt(d) decided by squaring.
        return _sgn(lhs - rhs) if self.a > 0 else _sgn(rhs - lhs)

    def compare(self, other: "QuadSurd | Fraction | int") -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare QuadSurd with {type(other).__name__}")
        return (self - o).sign()

    def _key(self) -> tuple:
        return (self.a, _sgn(self.b), self.b * self.b * self.d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Fraction, int)):
            other = QuadSurd.from_rational(other)
        if not isinstance(other, QuadSurd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        return format_surd(self)


def compare_sqrt_sum(u2: Fraction, v2: Fraction, w: Fraction) -> int:
    """Sign of (sqrt(u2) + sqrt(v2)) - w, exactly.

    u2 and v2 must be nonnegative rationals.  Used to compare interval
    endpoints whose half-widths live over different radicands: squaring
    twice reduces everything to rational comparisons.
    """
    if u2 < 0 or v2 < 0:
        raise ValueError("negative operand under a square root")
    if w < 0:
        return 1
    m = w * w - u2 - v2
    if m < 0:
        return 1
    # Compare 2*sqrt(u2*v2) against m, both nonnegative.
    return _sgn(4 * u2 * v2 - m * m)


# -- parsing and formatting ---------------------------------------------


def format_rational(value: Fraction | int) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def format_surd(s: QuadSurd) -> str:
    if s.is_rational:
        return format_rational(s.a)
    op = "+" if s.b > 0 else "-"
    return f"{format_rational(s.a)} {op} {format_rational(abs(s.b))}*sqrt({s.d})"


def parse_surd(text: str) -> QuadSurd:
    m = _SURD_RE.match(text)
    if m is not None:
        b = Fraction(m.group("b"))
        if m.group("sign") == "-":
            b = -b
        return QuadSurd(Fraction(m.group("a")), b, int(m.group("d")))
    return QuadSurd.from_rational(parse_rational(text))


def decimal_str(value: Fraction | QuadSurd | int, digits: int = 12) -> str:
    """Decimal rendering at ``digits`` significant digits, half-even,
    rounded once from the exact value.

    A rational is one ``Decimal`` division, which is correctly rounded; a
    surd goes through ``_surd_decimal``.  Display only; exact computations
    never call this.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    ctx = decimal.Context(
        prec=digits, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
    )
    if isinstance(value, QuadSurd):
        if value.b:
            return str(_surd_decimal(value, ctx))
        value = value.a
    value = Fraction(value)
    return str(ctx.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator)))


def _surd_decimal(s: QuadSurd, ctx: decimal.Context) -> decimal.Decimal:
    """The irrational s = (p + q sqrt(d))/m rounded once at ``ctx.prec``
    significant digits.

    N = floor(|s| 10^k) is found in integers, with one ``math.isqrt``, for
    a k >= 0 that gives N at least prec + 1 digits.  k comes from a lower
    bound on |s| in bit lengths; where p and q sqrt(d) have opposite signs
    it reads |s| = |p^2 - q^2 d| / (m (|p| + |q| sqrt(d))), so cancellation
    costs no digit.  |s| lies strictly between N and N + 1 over 10^k, and with at
    least prec + 1 digits every rounding boundary is a whole multiple of
    10^-k, so N followed by a digit 1 rounds as |s| does.
    """
    (a, m_a), (b, m_b) = s.a.as_integer_ratio(), s.b.as_integer_ratio()
    m = math.lcm(m_a, m_b)
    p, q = a * (m // m_a), b * (m // m_b)
    z = q * q * s.d
    bp, bz, sign = abs(p).bit_length(), z.bit_length(), 1 if q > 0 else -1
    if p * q >= 0:  # no cancellation: |s| >= max(|p|, sqrt(z)) / m
        e = max(bp - 1, (bz - 1) // 2) - m.bit_length()
    else:  # |s| = |p^2 - z| / (m (|p| + sqrt(z))), |p| + sqrt(z) < 2^(1 + max(bp, ceil(bz / 2)))
        w = p * p - z
        sign *= -1 if w > 0 else 1  # the larger of |p| and sqrt(z) wins
        e = abs(w).bit_length() - 2 - m.bit_length() - max(bp, (bz + 1) // 2)
    p, q = sign * p, sign * q
    # 2^e < |s| and 10^(e log10 2) >= 10^lower, with log10 2 in (0.30102, 0.30103).
    lower = e * (30102 if e >= 0 else 30103) // 100000
    k = max(ctx.prec - lower, 0)
    root = math.isqrt(z * 100**k)  # floor(|q| sqrt(d) 10^k), never exact
    n = (p * 10**k + (root if q > 0 else -root - 1)) // m
    return decimal.Decimal(sign * (10 * n + 1)).scaleb(-k - 1, ctx)
