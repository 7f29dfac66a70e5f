"""Exceptional bundles on the plane and the dyadic slope lattice.

An exceptional bundle is determined by its rank r and first Chern class
c1: discriminant (1 - 1/r^2)/2 and c2 = ((r-1)/(2r)) * (r + 1 + c1^2),
which must come out an integer.  One private constructor builds every
bundle from (r, c1) and holds the package's only cache.

Composition produces the bundle gamma between alpha and beta with
chi(E_gamma, E_alpha) = chi(E_beta, E_gamma) = 0, whose slope is

    gamma = (alpha + beta)/2 - (Delta_alpha - Delta_beta)/(3 + alpha - beta).

Both vanishings are linear in x = (r, c1, c1^2 - 2 c2), so ``compose``
takes the cross product of the two forms in integers: -2 x of gamma, a
factor checked on every call with both vanishings.  Iterating it from
the integer slopes realizes a bijection from dyadic numbers to
exceptional slopes: integers map to line bundles, the map commutes with
integer translation, and the midpoint of two adjacent dyadics maps to
the composition of their images.

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
        return _bundle(self.rank, self.c1 + k * self.rank)

    def dual(self) -> "ExceptionalBundle":
        return _bundle(self.rank, -self.c1)

    def half_width(self) -> QuadSurd:
        """x_F = (3r - sqrt(9r^2 - 4))/(2r), radius of the slope interval."""
        r = self.rank
        return QuadSurd(Fraction(3, 2), Fraction(-1, 2 * r), 9 * r * r - 4)

    def contains_slope(self, mu: Fraction) -> bool:
        """Whether mu lies in the open interval around this slope.

        With d = |mu - mu(F)| = n/m, d < x_F iff 2n < 3m and
        n(n - 3m) r^2 + m^2 > 0 (module docstring).
        """
        return self._contains(mu.numerator, mu.denominator)

    def _contains(self, num: int, den: int) -> bool:
        """``contains_slope`` of num/den, den > 0; the fraction need not be
        in lowest terms, the test being homogeneous."""
        r, c1 = self.rank, self.c1
        n = abs(num * r - c1 * den)
        m = den * r
        return 2 * n < 3 * m and n * (n - 3 * m) * r * r + m * m > 0

    def label(self) -> str:
        if self.rank == 1:
            return f"O({self.c1})"
        from .surd import format_rational

        return f"E({format_rational(self.slope)})"

    def __str__(self) -> str:
        return self.label()


def _conic_side(x: ExceptionalBundle, sign: int, n: int, d: int) -> tuple[int, int]:
    """P(sign * (mu - mu(x))) - Delta(x) at mu = n/d, d > 0, as (num, den):
    each side of a triangle tile, and delta, is this conic.

    With t = sign * (n r - c1 d) and w = d r the argument of P is t/w,
    and P(t/w) - (r^2 - 1)/(2 r^2) = (t^2 + 3 t w + (r^2 + 1) d^2) / (2 w^2).
    The pair need not be in lowest terms; den is positive.
    """
    r = x.rank
    w = d * r
    t = sign * (n * r - x.c1 * d)
    return t * t + 3 * t * w + (r * r + 1) * d * d, 2 * w * w


@lru_cache(maxsize=4096)
def _bundle(rank: int, c1: int) -> ExceptionalBundle:
    """The exceptional bundle (r, c1).  c2 must be integral, which proves
    gcd(r, c1) = 1 (mod a common prime p the numerator is -1), and
    chi(F,F) = 1; failures are InternalInconsistencyError."""
    if rank < 1:
        raise InternalInconsistencyError(f"rank {rank} of ({rank}, {c1}) is not positive")
    c2, rem = divmod((rank - 1) * (rank + 1 + c1 * c1), 2 * rank)
    if rem:
        raise InternalInconsistencyError(f"({rank}, {c1}) is not exceptional: c2 not integral")
    if rank * rank + rank * (c1 * c1 - 2 * c2) - c1 * c1 != 1:
        raise InternalInconsistencyError(f"chi(F,F) != 1 for ({rank}, {c1}, {c2})")
    return ExceptionalBundle(
        Fraction(c1, rank), rank, c1, c2, Fraction(rank * rank - 1, 2 * rank * rank)
    )


def from_slope(slope: Fraction) -> ExceptionalBundle:
    """The exceptional bundle of a slope from outside the package.

    Raises ValueError when the forced c2 is not an integer; that is not a
    complete membership test, so pass lattice slopes or their translates.
    """
    slope = Fraction(slope)
    r, c1 = slope.denominator, slope.numerator
    if (r - 1) * (r + 1 + c1 * c1) % (2 * r):
        raise ValueError(f"{slope} is not an exceptional slope (c2 not integral)")
    return _bundle(r, c1)


def compose(a: ExceptionalBundle, b: ExceptionalBundle) -> ExceptionalBundle:
    """The bundle orthogonally between a and b, the images of two adjacent
    dyadics (slopes a < b, gap < 3).

    2 chi(x, a) = u.x and 2 chi(b, x) = v.x on x = (r, c1, c1^2 - 2 c2);
    u x v spans their kernel and is -2 x of the result.  Neighbours are
    exactly the pairs with chi(b, a) = 0; on any other pair the kernel can
    be another multiple of x, so compose refuses it with ValueError first.
    """
    ra, ca, rb, cb = a.rank, a.c1, b.rank, b.c1
    gap = cb * ra - ca * rb  # (slope(b) - slope(a)) * ra * rb
    if gap <= 0:
        raise ValueError(f"compose needs slope(a) < slope(b), got {a.slope}, {b.slope}")
    if gap >= 3 * ra * rb:
        raise ValueError(f"slope gap {b.slope - a.slope} too wide for composition")
    sa, sb = ca * ca - 2 * a.c2, cb * cb - 2 * b.c2
    u0, u1, u2 = 2 * ra + 3 * ca + sa, -3 * ra - 2 * ca, ra
    v0, v1, v2 = 2 * rb - 3 * cb + sb, 3 * rb - 2 * cb, rb
    if v0 * ra + v1 * ca + v2 * sa != 0:  # 2 chi(b, a)
        raise ValueError(f"{a} and {b} are not neighbours: chi({b}, {a}) != 0")
    k0, k1, k2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    result = _bundle(-k0 >> 1, -k1 >> 1)
    if (k0 | k1 | k2) & 1 or 2 * result.c2 - result.c1 * result.c1 != k2 >> 1:
        raise InternalInconsistencyError(f"kernel of {a}, {b} is not -2 x ch({result})")
    if chern.euler_pairing(result.chern, a.chern) != 0:
        raise InternalInconsistencyError(f"chi({result}, {a}) != 0")
    if chern.euler_pairing(b.chern, result.chern) != 0:
        raise InternalInconsistencyError(f"chi({b}, {result}) != 0")
    return result


def from_dyadic(d: Dyadic) -> ExceptionalBundle:
    """The dyadic-to-exceptional bijection.

    Integers give line bundles; a dyadic of positive level maps to the
    composition of the images of its bracketing pair.  The pair is
    reached by bisection from the integer bracket of d, one level at a
    time, so the cost is one ``compose`` per level and no recursion.
    """
    base = d.p >> d.q  # floor(d)
    lo, hi = _bundle(1, base), _bundle(1, base + 1)
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


def dyadic_of(bundle: ExceptionalBundle, max_depth: int | None = None) -> Dyadic:
    """Invert ``from_dyadic`` by monotone descent.

    The slope is first translated into (-1, 0]; the returned dyadic is
    translated back.  Raises DepthExhaustedError if the slope is not
    reached within the cap (it then is not a lattice slope, or lies too
    deep).
    """
    return _descend(bundle, max_depth)[0]


def _descend(bundle: ExceptionalBundle, max_depth: int | None) -> tuple:
    """``dyadic_of`` and the images of the dyadic's neighbours, both translated
    back by the same shift (None, None for a line bundle)."""
    cap = max_depth if max_depth is not None else max_depth_default()
    r = bundle.rank
    shift = -(-bundle.c1 // r)  # ceil(slope)
    n = bundle.c1 - shift * r  # slope - shift = n/r in (-1, 0]
    if n == 0:
        return Dyadic(shift, 0), None, None
    lo, hi = _bundle(1, -1), _bundle(1, 0)
    # The bracket is [p/2^q, (p+1)/2^q]; each level appends one bit to p.
    p = -1
    for q in range(cap):
        mid = compose(lo, hi)
        if mid.rank == r and mid.c1 == n:
            return Dyadic(2 * p + 1 + (shift << (q + 1)), q + 1), lo.twist(shift), hi.twist(shift)
        if n * mid.rank < mid.c1 * r:
            hi, p = mid, 2 * p
        else:
            lo, p = mid, 2 * p + 1
    raise DepthExhaustedError(
        f"slope {bundle.slope} not reached in {cap} levels",
        bracket=(Dyadic(p, cap), Dyadic(p + 1, cap)),
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
        if mu.numerator < -mu.denominator or mu.numerator > 0:
            raise ValueError(f"slope {mu} outside [-1, 0]")
    cap = max_depth if max_depth is not None else max_depth_default()
    if not slopes:
        return []
    owners: list[ExceptionalBundle | None] = [None] * len(slopes)
    lo, hi = _bundle(1, -1), _bundle(1, 0)
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
            n, m = mu.numerator, mu.denominator
            for end in untested:
                if (n == end.c1 and m == end.rank) or end.contains_slope(mu):
                    owners[i] = end
                    break
            else:
                if mid is None:
                    mid = compose(lo, hi)
                if n == mid.c1 and m == mid.rank:
                    owners[i] = mid
                elif n * mid.rank < mid.c1 * m:
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
    bundles = [_bundle(1, -1), _bundle(1, 0)]
    for _ in range(level_max):
        deeper = bundles[:1]
        for lo, hi in zip(bundles, bundles[1:]):
            deeper += (compose(lo, hi), hi)
        bundles = deeper
    return bundles
