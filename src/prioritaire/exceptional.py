"""Exceptional bundles on the plane and the dyadic slope lattice.

An exceptional bundle is determined by its slope alpha = c1/r in lowest
terms: rank r, first Chern class c1, discriminant (1 - 1/r^2)/2 and
c2 = ((r-1)/(2r)) * (r + 1 + c1^2), which must come out an integer.

New slopes are produced from old by the composition law

    gamma = (alpha + beta)/2 - (Delta_alpha - Delta_beta)/(3 + alpha - beta)

whose defining property is the vanishing chi(E_gamma, E_alpha) =
chi(E_beta, E_gamma) = 0; both vanishings are asserted on every call.
Iterating it from the integer slopes realizes a bijection from dyadic
numbers to exceptional slopes: integers map to line bundles, the map
commutes with integer translation, and the midpoint of two adjacent
dyadics maps to the composition of their images.

Around each exceptional slope sits the open interval of radius

    x_F = (3r - sqrt(9 r^2 - 4)) / (2r),

the smaller root of X^2 - 3X + 1/r^2.  The intervals attached to
distinct exceptional slopes are pairwise disjoint and every rational in
[-1, 0] falls in exactly one of them (or is itself an exceptional
slope); ``locate_many`` finds the owners of a list of slopes by one
bisection walk of the dyadic tree, and ``locate_exceptional`` is its
one-slope case.  Membership needs no surd: for 0 <= d < 3/2 the
quadratic is positive exactly below x_F, so d = n/m lies inside exactly
when n(n - 3m) r^2 + m^2 > 0, an integer test.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from . import chern
from ._record import Record
from .chern import ChernCharacter, ChernData
from .errors import DepthExhaustedError, InternalInconsistencyError, ParseError
from .surd import QuadSurd

DEFAULT_MAX_DEPTH = 64
_ENV_MAX_DEPTH = "PRIORITAIRE_MAX_DEPTH"


def max_depth_default() -> int:
    """Descent cap: PRIORITAIRE_MAX_DEPTH from the environment, else 64."""
    raw = os.environ.get(_ENV_MAX_DEPTH)
    if raw is None:
        return DEFAULT_MAX_DEPTH
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParseError(f"{_ENV_MAX_DEPTH} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ParseError(f"{_ENV_MAX_DEPTH} must be >= 1, got {value}")
    return value


class Dyadic(Record):
    """Rational p / 2^q in normal form (q == 0, or p odd)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if q < 0:
            raise ValueError(f"negative level {q}")
        while q > 0 and p % 2 == 0:
            p //= 2
            q -= 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "Dyadic":
        value = Fraction(value)
        den = value.denominator
        q = den.bit_length() - 1
        if 1 << q != den:
            raise ParseError(f"{value} is not dyadic (denominator {den})")
        return cls(value.numerator, q)

    def value(self) -> Fraction:
        return Fraction(self.p, 1 << self.q)

    def neighbors(self) -> "tuple[Dyadic, Dyadic]":
        """The bracketing pair one level up; defined for q >= 1."""
        if self.q == 0:
            raise ValueError(f"{self} is an integer and has no bracketing pair")
        return (Dyadic((self.p - 1) // 2, self.q - 1), Dyadic((self.p + 1) // 2, self.q - 1))

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        return f"{self.p}/{1 << self.q}"


def parse_dyadic(text: str) -> Dyadic:
    """Accepts "p/2^q", plain fractions with power-of-two denominator,
    and decimal strings that are exactly dyadic ("-0.25")."""
    s = text.strip()
    if "^" in s:
        try:
            num, den = s.split("/")
            base, exp = den.split("^")
            if int(base) != 2:
                raise ValueError
            return Dyadic(int(num), int(exp))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"malformed dyadic {text!r}") from exc
    try:
        value = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed dyadic {text!r}") from exc
    return Dyadic.from_fraction(value)


class ExceptionalBundle(Record):
    """Exceptional bundle, determined by its slope.

    ``chern`` holds its invariants as ``ChernData``, built once; the
    record's fields, for equality, hashing and repr, are the other five.
    """

    __slots__ = ("slope", "rank", "c1", "c2", "delta", "chern")
    _fields = __slots__[:5]

    def __init__(self, slope: Fraction, rank: int, c1: int, c2: int, delta: Fraction) -> None:
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "chern", ChernData(rank, c1, c2))

    def character(self) -> ChernCharacter:
        return self.chern.character()

    def twist(self, k: int) -> "ExceptionalBundle":
        return from_slope(self.slope + k)

    def dual(self) -> "ExceptionalBundle":
        return from_slope(-self.slope)

    def half_width(self) -> QuadSurd:
        """x_F = (3r - sqrt(9r^2 - 4))/(2r), radius of the slope interval."""
        r = self.rank
        return QuadSurd(Fraction(3, 2), Fraction(-1, 2 * r), 9 * r * r - 4)

    def contains_slope(self, mu: Fraction) -> bool:
        """Whether mu lies in the open interval around this slope.

        With d = |mu - mu(F)| = n/m, d < x_F iff 2n < 3m and
        n(n - 3m) r^2 + m^2 > 0 (module docstring); n/m need not be in
        lowest terms, the test being homogeneous.
        """
        r, c1 = self.rank, self.c1
        n = abs(mu.numerator * r - c1 * mu.denominator)
        m = mu.denominator * r
        return 2 * n < 3 * m and n * (n - 3 * m) * r * r + m * m > 0

    def label(self) -> str:
        if self.rank == 1:
            return f"O({self.c1})"
        from .surd import format_rational

        return f"E({format_rational(self.slope)})"

    def __str__(self) -> str:
        return self.label()


@lru_cache(maxsize=None)
def from_slope(slope: Fraction) -> ExceptionalBundle:
    """Build the exceptional bundle of the given slope.

    Rejects slopes whose forced c2 is not an integer; that rules out
    many non-exceptional rationals but is not a complete membership
    test, so callers should only pass slopes produced by the lattice
    (or integer translates of them).
    """
    slope = Fraction(slope)
    r, c1 = slope.denominator, slope.numerator
    delta = Fraction(1, 2) * (1 - Fraction(1, r * r))
    c2_num = (r - 1) * (r + 1 + c1 * c1)
    if c2_num % (2 * r) != 0:
        raise ValueError(f"{slope} is not an exceptional slope (c2 not integral)")
    bundle = ExceptionalBundle(slope, r, c1, c2_num // (2 * r), delta)
    if chern.euler_pairing(bundle.chern, bundle.chern) != 1:
        raise InternalInconsistencyError(f"chi(F,F) != 1 for {bundle}")
    return bundle


@lru_cache(maxsize=None)
def _compose_slope(alpha: Fraction, beta: Fraction) -> Fraction:
    a = from_slope(alpha)
    b = from_slope(beta)
    return (alpha + beta) / 2 - (a.delta - b.delta) / (3 + alpha - beta)


def compose(a: ExceptionalBundle, b: ExceptionalBundle) -> ExceptionalBundle:
    """The bundle orthogonally between a and b (slopes a < b, gap < 3).

    Asserts the defining vanishings chi(result, a) = chi(b, result) = 0.
    """
    if not a.slope < b.slope:
        raise ValueError(f"compose needs slope(a) < slope(b), got {a.slope}, {b.slope}")
    if b.slope - a.slope >= 3:
        raise ValueError(f"slope gap {b.slope - a.slope} too wide for composition")
    result = from_slope(_compose_slope(a.slope, b.slope))
    if chern.euler_pairing(result.chern, a.chern) != 0:
        raise InternalInconsistencyError(f"chi({result}, {a}) != 0")
    if chern.euler_pairing(b.chern, result.chern) != 0:
        raise InternalInconsistencyError(f"chi({b}, {result}) != 0")
    return result


@lru_cache(maxsize=None)
def from_dyadic(d: Dyadic) -> ExceptionalBundle:
    """The dyadic-to-exceptional bijection.

    Integers give line bundles; a dyadic of positive level maps to the
    composition of the images of its bracketing pair.  The pair is
    reached by bisection from the integer bracket of d, one level at a
    time, so the cost is one ``compose`` per level and no recursion.
    """
    base = d.p >> d.q  # floor(d)
    lo, hi = from_slope(Fraction(base)), from_slope(Fraction(base + 1))
    if d.q == 0:
        return lo
    offset = d.p - (base << d.q)  # d = base + offset/2^q, offset odd
    for level in range(d.q - 1, 0, -1):
        mid = compose(lo, hi)
        if (offset >> level) & 1:
            lo = mid
        else:
            hi = mid
    return compose(lo, hi)


def _normalize_slope(mu: Fraction) -> Fraction:
    """Translate by an integer into (-1, 0]."""
    mu = Fraction(mu)
    return mu - math.ceil(mu)


def dyadic_of(bundle: ExceptionalBundle, max_depth: int | None = None) -> Dyadic:
    """Invert ``from_dyadic`` by monotone descent.

    The slope is first translated into (-1, 0]; the returned dyadic is
    translated back.  Raises DepthExhaustedError if the slope is not
    reached within the cap (it then is not a lattice slope, or lies too
    deep).
    """
    cap = max_depth if max_depth is not None else max_depth_default()
    mu = _normalize_slope(bundle.slope)
    shift = int(bundle.slope - mu)
    lo, hi = from_slope(Fraction(-1)), from_slope(Fraction(0))
    if mu == hi.slope:
        return Dyadic(shift, 0)
    lo_d, hi_d = Dyadic(-1, 0), Dyadic(0, 0)
    for _ in range(cap):
        # Midpoint of the dyadic bracket, one level deeper.
        mid_value = (lo_d.value() + hi_d.value()) / 2
        mid_d = Dyadic.from_fraction(mid_value)
        mid = compose(lo, hi)
        if mid.slope == mu:
            return Dyadic.from_fraction(mid_value + shift)
        if mu < mid.slope:
            hi_d, hi = mid_d, mid
        else:
            lo_d, lo = mid_d, mid
    raise DepthExhaustedError(
        f"slope {bundle.slope} not reached in {cap} levels", bracket=(lo_d, hi_d)
    )


def locate_exceptional(mu: Fraction, max_depth: int | None = None) -> ExceptionalBundle:
    """Owner of the rational slope mu in [-1, 0]: the unique exceptional
    bundle F with mu == mu(F) or |mu - mu(F)| < x_F (``locate_many``)."""
    return locate_many([mu], max_depth)[0]


def locate_many(
    slopes: Iterable[Fraction], max_depth: int | None = None
) -> list[ExceptionalBundle]:
    """Owners of rational slopes in [-1, 0], by one walk of the dyadic tree.

    Each slope descends from the bracket [O(-1), O]; every interval
    membership test is the exact integer test of ``contains_slope``.
    Each bundle is tested once per slope: after the two ends of [-1, 0],
    only the new midpoint of each level, since the end kept from the
    level above has already failed.  The slopes still open under a
    bracket share its midpoint, so each bundle is composed once per call.

    A slope not resolved within ``max_depth`` levels raises
    DepthExhaustedError with its last bracket; when several are, the
    error names the first of them in the list.
    """
    slopes = [Fraction(mu) for mu in slopes]
    for mu in slopes:
        if mu < -1 or mu > 0:
            raise ValueError(f"slope {mu} outside [-1, 0]")
    cap = max_depth if max_depth is not None else max_depth_default()
    if not slopes:
        return []
    owners: list[ExceptionalBundle | None] = [None] * len(slopes)
    lo = from_dyadic(Dyadic(-1, 0))
    hi = from_dyadic(Dyadic(0, 0))
    # (bracket ends, ends not yet tested, open slope indices, levels left)
    stack = [(lo, hi, (lo, hi), list(range(len(slopes))), cap)]
    exhausted: tuple[int, ExceptionalBundle, ExceptionalBundle] | None = None
    while stack:
        lo, hi, untested, group, left = stack.pop()
        if left <= 0:
            if exhausted is None or group[0] < exhausted[0]:
                exhausted = (group[0], lo, hi)
            continue
        below: list[int] = []
        above: list[int] = []
        mid = None
        for i in group:
            mu = slopes[i]
            for end in untested:
                if mu == end.slope or end.contains_slope(mu):
                    owners[i] = end
                    break
            else:
                if mid is None:
                    mid = compose(lo, hi)
                if mu == mid.slope:
                    owners[i] = mid
                elif mu < mid.slope:
                    below.append(i)
                else:
                    above.append(i)
        if above:
            stack.append((mid, hi, (mid,), above, left - 1))
        if below:
            stack.append((lo, mid, (mid,), below, left - 1))
    if exhausted is not None:
        i, lo, hi = exhausted
        raise DepthExhaustedError(
            f"slope {slopes[i]} not resolved within depth {cap}", bracket=(lo, hi)
        )
    return owners  # type: ignore[return-value]


def enumerate_to_level(level_max: int) -> list[ExceptionalBundle]:
    """All bundles at dyadic slopes p/2^q in [-1, 0] with q <= level_max,
    deduplicated and sorted by slope."""
    if level_max < 0:
        raise ValueError("level_max must be >= 0")
    seen: dict[Fraction, ExceptionalBundle] = {}
    for p in range(-(1 << level_max), 1):
        bundle = from_dyadic(Dyadic(p, level_max))
        seen.setdefault(bundle.slope, bundle)
    return [seen[s] for s in sorted(seen)]
