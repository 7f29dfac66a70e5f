"""Exact arithmetic kernel: quadratic surds, and the display of rationals
and surds from integers.

Rationals are plain ``fractions.Fraction`` values wherever the library
returns one; the stdlib already guarantees lowest terms and a positive
denominator, which is exactly the normal form required here.  This module
supplies what sits on top:

* ``QuadSurd`` -- numbers of the form a + b*sqrt(d) with rational a, b
  and integer d >= 0, closed under addition, subtraction and negation,
  with sign and comparison decided exactly by case analysis on the
  signs of a and b plus one integer comparison of a^2 against b^2*d.
  No floating point is consulted anywhere.
* exact string round-tripping ("p/q" and "a/b + c/d*sqrt(D)"), and
* decimal rendering (round-half-even, configurable digit count) used
  only for display, never for decisions.

Display works in integers: ``_ratio_text`` and ``_surd_text`` write the
exact texts of n/d and (p + q sqrt(d))/m, and ``_rational_decimal`` and
``_surd_decimal`` their decimals, which ``_decimal_text`` rounds once,
half-even, and writes as ``str()`` of the ``decimal.Decimal`` that one
correctly rounded division gives: plain or with ``E+n``, and an exact
quotient at the exponent nearest 0 (1/2 prints 0.5, 100/4 prints 25).
Its digits are written in pieces short enough for any int-to-str limit.
``_parse_ratio`` reads "p" and "p/q" in integers and hands any other
spelling ("0.25", "1e3") to ``Fraction``.  The command line answers through
these alone, so a query imports neither ``fractions`` nor ``decimal``; the
functions that return or take a ``Fraction`` import ``fractions`` when
called.

Arithmetic across two distinct irrational radicands is out of scope and
rejected, except for the one comparison the interval machinery needs:
``compare_sqrt_sum`` decides sqrt(u) + sqrt(v) against a rational w by
squaring twice, staying in exact rational arithmetic throughout.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import ParseError

# The most significant digits ``decimal_str`` renders: its cost grows
# faster than the digit count.
MAX_DIGITS = 10_000

# The longest integer ``_digit_text`` hands to ``str()`` whole: 1 600 bits
# is at most 482 digits, under 640, the lowest int-to-str limit Python lets
# a program set.
_PIECE_BITS = 1600

# The text of a surd, "a + b*sqrt(d)", for ``parse_surd``, which imports
# ``re`` and compiles it on first use (``re`` keeps it): a command-line
# query parses no surd, and would otherwise pay about 4 ms for ``re``.
_SURD_PATTERN = (
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
        import fractions  # here, not at the top: the package's import loads no fractions

        a, b, d = fractions.Fraction(a), fractions.Fraction(b), int(d)
        if d < 0:
            raise ValueError(f"negative radicand {d}")
        if b == 0:
            d = 0
        elif d == 0:
            b = fractions.Fraction(0)
        else:
            root = math.isqrt(d)
            if root * root == d:
                a, b, d = a + b * root, fractions.Fraction(0), 0
        set_a, set_b, set_d = __class__._setters
        set_a(self, a)
        set_b(self, b)
        set_d(self, d)

    @classmethod
    def _trusted(cls, a: Fraction, b: Fraction, d: int) -> "QuadSurd":
        """a + b*sqrt(d) already in normal form, unchecked: a and b are
        Fractions, and d is not a square, or b == d == 0."""
        s = object.__new__(cls)
        set_a, set_b, set_d = __class__._setters
        set_a(s, a)
        set_b(s, b)
        set_d(s, d)
        return s

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "QuadSurd":
        return cls(value, 0, 0)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- arithmetic (same radicand only) --------------------------------

    def _coerce(self, other: "QuadSurd | Fraction | int") -> "QuadSurd":
        import fractions

        if isinstance(other, QuadSurd):
            return other
        if isinstance(other, (fractions.Fraction, int)):
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
        import fractions

        if isinstance(other, (fractions.Fraction, int)):
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


def _ratio_text(n: int, d: int) -> str:
    """n/d, d > 0, in any terms, as ``str(Fraction(n, d))``: "p" or "p/q" in
    lowest terms.  An answer's text, so every digit is written: unlike
    ``_record._ratio``, it is subject to the int-to-str limit."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _surd_text(p: int, q: int, d: int, m: int) -> str:
    """(p + q sqrt(d))/m, m > 0, q != 0 and d not a square, as ``str()`` of
    its ``QuadSurd``: "a + b*sqrt(d)" or "a - b*sqrt(d)", a = p/m and
    b = |q|/m in lowest terms (``_ratio_text``)."""
    return f"{_ratio_text(p, m)} {'+' if q > 0 else '-'} {_ratio_text(abs(q), m)}*sqrt({d})"


def _terms(s: QuadSurd) -> tuple[int, int, int, int]:
    """(p, q, d, m) with s = (p + q sqrt(d))/m, m the least common denominator."""
    (a, m_a), (b, m_b) = s.a.as_integer_ratio(), s.b.as_integer_ratio()
    m = math.lcm(m_a, m_b)
    return a * (m // m_a), b * (m // m_b), s.d, m


def format_rational(value: Fraction | int) -> str:
    return _ratio_text(value.numerator, value.denominator)


def _ratio_of(text: str) -> tuple[int, int]:
    """(n, d) of ``Fraction(text.strip())``, in lowest terms with d > 0, and
    ValueError or ZeroDivisionError wherever that call raises.  An ASCII
    "p" or "p/q", p signed, is read in integers; any other spelling goes to
    ``Fraction``, so both accept exactly the same strings."""
    s = text.strip()
    num, slash, den = s.partition("/")
    body = num[1:] if num[:1] in ("+", "-") else num
    if s.isascii() and body.isdigit() and (den.isdigit() or not slash):
        n, d = int(num), int(den) if slash else 1
        if d == 0:
            raise ZeroDivisionError(f"{s} has denominator zero")
        g = math.gcd(n, d)
        return n // g, d // g
    import fractions

    return fractions.Fraction(s).as_integer_ratio()


def _parse_ratio(text: str) -> tuple[int, int]:
    """``parse_rational`` as (n, d): lowest terms, d > 0."""
    try:
        return _ratio_of(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def parse_rational(text: str) -> Fraction:
    import fractions

    return fractions.Fraction(*_parse_ratio(text))


def format_surd(s: QuadSurd) -> str:
    if s.is_rational:
        return format_rational(s.a)
    return _surd_text(*_terms(s))


def parse_surd(text: str) -> QuadSurd:
    import fractions
    import re

    m = re.match(_SURD_PATTERN, text)
    if m is not None:
        b = fractions.Fraction(m.group("b"))
        if m.group("sign") == "-":
            b = -b
        return QuadSurd(fractions.Fraction(m.group("a")), b, int(m.group("d")))
    return QuadSurd.from_rational(parse_rational(text))


def _check_digits(digits: int) -> None:
    """ValueError unless 1 <= digits <= MAX_DIGITS, the bounds of every
    decimal a caller asks for."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits must be <= {MAX_DIGITS}")


def decimal_str(value: Fraction | QuadSurd | int, digits: int = 12) -> str:
    """Decimal rendering at ``digits`` significant digits, half-even,
    rounded once from the exact value, as ``str()`` of the ``Decimal`` that
    one correctly rounded division gives (``_decimal_text``).

    A rational goes through ``_rational_decimal`` and a surd through
    ``_surd_decimal``.  Display only; exact computations never call this.
    ValueError unless 1 <= digits <= MAX_DIGITS.
    """
    _check_digits(digits)
    if isinstance(value, QuadSurd):
        if value.b:
            return _surd_decimal(*_terms(value), digits)
        value = value.a
    elif not isinstance(value, int):
        import fractions

        value = fractions.Fraction(value)
    return _rational_decimal(value.numerator, value.denominator, digits)


def _rational_decimal(n: int, d: int, digits: int) -> str:
    """n/d, d > 0, in any terms, at ``digits`` significant digits, as
    ``str(Context(prec=digits).divide(Decimal(n), Decimal(d)))``, rounded
    half-even and with exponents unbounded: ``_decimal_text`` of
    c = floor(|n/d| 10^k), where 2^e < |n/d| for e from the bit lengths and
    k makes c at least 10^digits; inexact exactly when the division leaves
    a remainder."""
    if n == 0:
        return "0"
    a = abs(n)
    e = a.bit_length() - d.bit_length() - 1  # 2^e < a/d
    k = digits - _log10_below(e)
    c, rem = divmod(a * 10**k, d) if k >= 0 else divmod(a, d * 10**-k)
    return _decimal_text(n < 0, c, -k, rem != 0, digits)


def _surd_decimal(p: int, q: int, d: int, m: int, digits: int) -> str:
    """The irrational s = (p + q sqrt(d))/m, m > 0, in any terms, at
    ``digits`` significant digits, rounded once, half-even.

    N = floor(|s| 10^k) is found in integers, with one ``math.isqrt``, for
    a k >= 0 that gives N at least digits + 1 digits.  k comes from a lower
    bound on |s| in bit lengths; where p and q sqrt(d) have opposite signs
    it reads |s| = |p^2 - q^2 d| / (m (|p| + |q| sqrt(d))), so cancellation
    costs no digit.  |s| lies strictly between N and N + 1 over 10^k, and with at
    least digits + 1 digits every rounding boundary is a whole multiple of
    10^-k, so N followed by a digit 1 rounds as |s| does (``_decimal_text``).
    """
    z = q * q * d
    bp, bz, sign = abs(p).bit_length(), z.bit_length(), 1 if q > 0 else -1
    if p * q >= 0:  # no cancellation: |s| >= max(|p|, sqrt(z)) / m
        e = max(bp - 1, (bz - 1) // 2) - m.bit_length()
    else:  # |s| = |p^2 - z| / (m (|p| + sqrt(z))), |p| + sqrt(z) < 2^(1 + max(bp, ceil(bz / 2)))
        w = p * p - z
        sign *= -1 if w > 0 else 1  # the larger of |p| and sqrt(z) wins
        e = abs(w).bit_length() - 2 - m.bit_length() - max(bp, (bz + 1) // 2)
    p, q = sign * p, sign * q
    k = max(digits - _log10_below(e), 0)
    root = math.isqrt(z * 100**k)  # floor(|q| sqrt(d) 10^k), never exact
    n = (p * 10**k + (root if q > 0 else -root - 1)) // m
    return _decimal_text(sign < 0, 10 * n + 1, -k - 1, True, digits)


def _log10_below(e: int) -> int:
    """An integer l with 10^l <= 2^e, within one of the largest: e log10 2
    rounded down, with log10 2 in (0.30102, 0.30103)."""
    return e * (30102 if e >= 0 else 30103) // 100000


def _decimal_text(negative: bool, c: int, exp: int, inexact: bool, digits: int) -> str:
    """str(Decimal) of +-(c + t) 10^exp rounded half-even to ``digits``
    significant digits, for c >= 10^digits and 0 <= t < 1, t > 0 exactly
    when ``inexact``: the digits of c past ``digits`` and t decide the
    rounding.

    The coefficient keeps ``digits`` digits, except that an exact result
    takes the exponent nearest 0 that holds it, as a ``Decimal`` division
    does: trailing zeros are dropped while the exponent is negative.  The
    text is ``Decimal.__str__``'s: plain when the exponent is at most 0 and
    the value at least 10^-6, else one digit, a point and E+n or E-n.
    """
    drop = _digit_count(c) - digits
    unit = 10**drop
    c, tail = divmod(c, unit)
    half = unit >> 1
    if tail > half or (tail == half and (inexact or c & 1)):
        c += 1
    inexact = inexact or tail != 0
    exp += drop
    if c == 10**digits:  # the rounding carried into a new leading digit
        c, exp = c // 10, exp + 1
    if not inexact and exp < 0:
        c, exp = _strip_zeros(c, exp)
    text = _digit_text(c)
    left = exp + len(text)  # the digits left of the point in plain notation
    dot = left if exp <= 0 and left > -6 else 1
    if dot <= 0:
        text = "0." + "0" * -dot + text
    elif dot < len(text):
        text = f"{text[:dot]}.{text[dot:]}"
    else:
        text += "0" * (dot - len(text))
    if left != dot:
        text += f"E{left - dot:+d}"
    return "-" + text if negative else text


def _digit_count(c: int) -> int:
    """The number of decimal digits of c > 0, from its bit length and at
    most three powers of ten."""
    n = _log10_below(c.bit_length() - 1) + 1
    while c >= 10**n:
        n += 1
    return n


def _strip_zeros(c: int, exp: int) -> tuple[int, int]:
    """c 10^exp, exp < 0, with up to -exp trailing zeros of c dropped, in
    O(log) divisions: the count is found bit by bit from the top."""
    step = 1 << (-exp).bit_length()
    while step:
        if step <= -exp:
            q, r = divmod(c, 10**step)
            if r == 0:
                c, exp = q, exp + step
        step >>= 1
    return c, exp


def _digit_text(c: int) -> str:
    """str(c) for c >= 0 of any length, written in pieces of at most
    _PIECE_BITS bits, so that no int-to-str limit applies."""
    if c.bit_length() <= _PIECE_BITS:
        return str(c)
    half = _log10_below(c.bit_length()) // 2
    hi, lo = divmod(c, 10**half)
    return _digit_text(hi) + _digit_text(lo).zfill(half)
