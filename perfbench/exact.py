"""Independent exact arithmetic for generating inputs and checking answers.

Nothing here imports the library.  The oracles re-derive what they check
from the definitions in plain integers and ``Fraction``s:

* twist by O(k):      c1' = c1 + r*k,  c2' = c2 + (r-1)*c1*k + r*(r-1)*k^2/2
* prioritary bound:   2r*c2 - (r-1)*c1^2 + c1*(c1 + r) >= 0 on the slope band (-1, 0]
* exceptional slopes: composition law on the dyadic bracket,
  gamma = (a + b)/2 - (D_a - D_b)/(3 + a - b) with D = (1 - 1/r^2)/2
* owner interval:     0 <= d < x_F  iff  d*(d - 3)*r^2 + 1 > 0  (d < 3/2)
* frontiers:          delta = P(-d) - D_F,
                      delta_prime = (delta - 1/r^2 + 3d/2) + d/(2r) * sqrt(9r^2 - 4)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def twist(r: int, c1: int, c2: int, k: int) -> tuple[int, int, int]:
    return r, c1 + r * k, c2 + (r - 1) * c1 * k + r * (r - 1) * k * k // 2


def normalize(r: int, c1: int, c2: int) -> tuple[int, int, int]:
    """Twist into the slope band -1 < c1/r <= 0."""
    return twist(r, c1, c2, (-c1) // r)


def prioritary(r: int, c1: int, c2: int) -> bool:
    """Whether Delta >= -mu*(mu + 1)/2 at the normalised slope."""
    r, c1, c2 = normalize(r, c1, c2)
    return 2 * r * c2 - (r - 1) * c1 * c1 + c1 * (c1 + r) >= 0


def band_c2_floor(r: int, c1: int) -> int:
    """Smallest c2 meeting the prioritary bound at slope c1/r in (-1, 0]."""
    num = (r - 1) * c1 * c1 - c1 * (c1 + r)
    return -((-num) // (2 * r))


def discriminant(r: int, c1: int, c2: int) -> Fraction:
    return (Fraction(c2) - Fraction((r - 1) * c1 * c1, 2 * r)) / r


def _disc_of_rank(r: int) -> Fraction:
    return (1 - Fraction(1, r * r)) / 2


@lru_cache(maxsize=None)
def lattice_slope(p: int, q: int) -> Fraction:
    """Exceptional slope named by the dyadic p/2^q (any level)."""
    while q > 0 and p % 2 == 0:
        p, q = p // 2, q - 1
    if q == 0:
        return Fraction(p)
    a = lattice_slope((p - 1) // 2, q - 1)
    b = lattice_slope((p + 1) // 2, q - 1)
    da, db = _disc_of_rank(a.denominator), _disc_of_rank(b.denominator)
    return (a + b) / 2 - (da - db) / (3 + a - b)


def exceptional_c2(slope: Fraction) -> int | None:
    """c2 of the exceptional bundle of this slope, or None if not integral."""
    r, c1 = slope.denominator, slope.numerator
    num = (r - 1) * (r + 1 + c1 * c1)
    return num // (2 * r) if num % (2 * r) == 0 else None


def in_interval(mu: Fraction, slope: Fraction) -> bool:
    """mu == slope, or |mu - slope| < x_F, decided in integers."""
    d = abs(mu - slope)
    if d == 0:
        return True
    n, m, r = d.numerator, d.denominator, slope.denominator
    return 2 * n < 3 * m and n * (n - 3 * m) * r * r + m * m > 0


def interval_digits(slope: Fraction) -> int:
    """Smallest k with 10^-k < x_F, so points within 10^-k of an endpoint
    can fall inside the interval."""
    k = 1
    while not in_interval(slope + Fraction(1, 10**k), slope):
        k += 1
    return k


def endpoint_neighbours(slope: Fraction, side: int, k: int) -> tuple[Fraction, Fraction]:
    """(inside, outside) slopes n/10^k next to the endpoint slope + side*x_F.

    The endpoint is irrational, so the two neighbours are the multiples of
    10^-k just inside and just outside the owner's open interval.
    """
    r, c1, scale = slope.denominator, slope.numerator, 10**k
    radicand = (9 * r * r - 4) * scale * scale
    base = 2 * c1 * scale + side * 3 * r * scale

    def at_most(n: int) -> bool:
        # n/scale <= (base - side*sqrt(radicand)) / (2r)
        gap = base - 2 * r * n
        if side > 0:
            return gap >= 0 and gap * gap >= radicand
        return gap >= 0 or gap * gap <= radicand

    n = (base - side * math.isqrt(radicand)) // (2 * r)
    while not at_most(n):
        n -= 1
    while at_most(n + 1):
        n += 1
    below, above = Fraction(n, scale), Fraction(n + 1, scale)
    return (below, above) if side > 0 else (above, below)


def delta(mu: Fraction, owner: Fraction) -> Fraction:
    d = -abs(mu - owner)
    return (d + 1) * (d + 2) / 2 - _disc_of_rank(owner.denominator)


def delta_prime_parts(mu: Fraction, owner: Fraction) -> tuple[Fraction, Fraction, int]:
    """(a, b, D) with delta_prime(mu) = a + b*sqrt(D)."""
    r, d = owner.denominator, abs(mu - owner)
    a = delta(mu, owner) - Fraction(1, r * r) + Fraction(3, 2) * d
    return a, d / (2 * r), 9 * r * r - 4


def surd_sign(a: Fraction, b: Fraction, radicand: int) -> int:
    """Sign of a + b*sqrt(radicand), in integers."""

    def sgn(x) -> int:
        return (x > 0) - (x < 0)

    if b == 0 or sgn(a) == sgn(b) or a == 0:
        return sgn(a) or sgn(b)
    # Opposite signs: compare a^2 with b^2 * radicand over a common denominator.
    lhs = (a.numerator * b.denominator) ** 2
    rhs = (b.numerator * a.denominator) ** 2 * radicand
    return sgn(a) * sgn(lhs - rhs)


def region(r: int, c1: int, c2: int, owner: Fraction) -> str:
    """Region tag of (r, c1, c2), given the owner slope of its normalised slope."""
    r, c1, c2 = normalize(r, c1, c2)
    mu, disc = Fraction(c1, r), discriminant(r, c1, c2)
    if not prioritary(r, c1, c2):
        return "no_prioritary"
    if disc >= delta(mu, owner):
        return "semistable_positive_dim"
    if mu == owner and disc == _disc_of_rank(owner.denominator):
        return "semistable_exceptional"
    if (c1, c2) == (0, 1):
        return "special_c0_c21"
    a, b, rad = delta_prime_parts(mu, owner)
    side = surd_sign(a - disc, b, rad)
    if side == 0:
        return "undecided"
    return "below_delta_prime" if side > 0 else "above_delta_prime"
