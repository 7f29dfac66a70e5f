"""Existence frontiers in the (slope, discriminant) plane.

For a rational slope mu owned by the exceptional bundle F (meaning mu
lies in F's interval or equals its slope):

* delta(mu) = P(-|mu - mu(F)|) - (1 - 1/r^2)/2.  Semistable sheaves of
  positive-dimensional moduli exist at (mu, Delta) iff Delta >= delta(mu);
  the only other semistable points are the exceptional points
  (mu(F), Delta(F)) themselves, which sit 1/r^2 below: delta(mu(F)) -
  Delta(F) = 1/r^2.

* delta_prime(mu) = delta(mu) - (1/r^2) * (1 - |mu(F) - mu| / x_F), a
  quadratic surd over the radicand 9 r^2 - 4 (computed with
  1/x_F = r*(3r + sqrt(9r^2 - 4))/2).  It is rational exactly at
  mu = mu(F), where it equals Delta(F).  Below it the generic prioritary
  sheaf is a rigid direct sum; above it an exceptional part splits off.

* Prioritary sheaves of normalized slope mu exist iff
  Delta >= -mu(mu+1)/2.

``classify`` reduces arbitrary integral invariants to exactly one region
tag after normalizing the slope into (-1, 0].

Every answer at a slope derives from its owner F, found by one
``locate_exceptional`` descent: ``delta``, ``delta_prime`` and
``classify`` each descend once and evaluate the formulas above at
(mu, F), in closed-form integers.  ``delta_many`` answers a list of
slopes from one walk of the lattice.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from fractions import Fraction

from . import chern, exceptional
from ._record import Record
from .chern import ChernData
from .errors import InternalInconsistencyError
from .exceptional import ExceptionalBundle
from .surd import QuadSurd


class RegionTag(enum.Enum):
    NO_PRIORITARY = "no_prioritary"
    SEMISTABLE_POSITIVE_DIM = "semistable_positive_dim"
    SEMISTABLE_EXCEPTIONAL = "semistable_exceptional"
    ABOVE_DELTA_PRIME = "above_delta_prime"
    SPECIAL_C0_C21 = "special_c0_c21"
    BELOW_DELTA_PRIME = "below_delta_prime"


class Region(Record):
    """Classification of a point: tag plus the owning bundle when relevant."""

    __slots__ = ("tag", "witness")

    def __init__(self, tag: RegionTag, witness: ExceptionalBundle | None = None) -> None:
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "witness", witness)


def _prioritary_bound(mu: Fraction) -> Fraction:
    """-mu(mu+1)/2: prioritary sheaves of normalized slope mu exist iff
    their discriminant is at least this."""
    return -mu * (mu + 1) / 2


def _distance(mu0: Fraction, f: ExceptionalBundle) -> tuple[int, int]:
    """|mu0 - mu(f)| = n/m with m = b r, for mu0 = a/b."""
    m = mu0.denominator * f.rank
    return abs(mu0.numerator * f.rank - f.c1 * mu0.denominator), m


def _delta_at(mu0: Fraction, f: ExceptionalBundle) -> Fraction:
    """delta at the normalized slope mu0 = a/b owned by f.

    With |mu0 - mu(F)| = n/m, m = b r:
    P(-n/m) - (r^2 - 1)/(2 r^2) = ((m - n)(2m - n) - (r^2 - 1) b^2) / (2 m^2).
    """
    n, m = _distance(mu0, f)
    r, b = f.rank, mu0.denominator
    return Fraction((m - n) * (2 * m - n) - (r * r - 1) * b * b, 2 * m * m)


def _delta_prime_at(mu0: Fraction, f: ExceptionalBundle) -> QuadSurd:
    """delta_prime at the normalized slope mu0 = a/b owned by f.

    With 1/x_F = r (3r + sqrt(9r^2 - 4))/2 and |mu0 - mu(F)| = n/m as in
    ``_delta_at``, delta - (1/r^2)(1 - (n/m)/x_F) is
    (2m^2 + n^2 - (r^2 + 1) b^2) / (2m^2) + n/(2mr) * sqrt(9r^2 - 4).
    """
    n, m = _distance(mu0, f)
    r, b = f.rank, mu0.denominator
    return QuadSurd(
        Fraction(2 * m * m + n * n - (r * r + 1) * b * b, 2 * m * m),
        Fraction(n, 2 * m * r),
        9 * r * r - 4,
    )


def _normalize_slope(mu: Fraction) -> Fraction:
    """Translate by an integer into (-1, 0]."""
    mu = Fraction(mu)
    return mu - math.ceil(mu)


def delta(mu: Fraction, max_depth: int | None = None) -> Fraction:
    """Semistability frontier at the rational slope mu (any rational;
    extended by integer periodicity)."""
    mu0 = _normalize_slope(mu)
    return _delta_at(mu0, exceptional.locate_exceptional(mu0, max_depth))


def delta_prime(mu: Fraction, max_depth: int | None = None) -> QuadSurd:
    """Rigidity frontier at the rational slope mu.

    Returned as an exact surd over the radicand 9r^2 - 4 of the owning
    bundle; normalizes to a plain rational exactly when mu = mu(F).
    """
    mu0 = _normalize_slope(mu)
    return _delta_prime_at(mu0, exceptional.locate_exceptional(mu0, max_depth))


def delta_many(
    slopes: Iterable[Fraction], max_depth: int | None = None
) -> list[tuple[ExceptionalBundle, Fraction, QuadSurd]]:
    """(owner, delta, delta_prime) at each rational slope.

    The owner is that of the slope normalized into (-1, 0]; all owners
    come from one ``exceptional.locate_many`` walk of the lattice.
    """
    mus = [_normalize_slope(mu) for mu in slopes]
    owners = exceptional.locate_many(mus, max_depth)
    return [(f, _delta_at(mu0, f), _delta_prime_at(mu0, f)) for mu0, f in zip(mus, owners)]


def prioritary_exists(cd: ChernData) -> bool:
    """Existence test for prioritary sheaves with the given invariants."""
    norm, _ = chern.normalize(cd)
    return norm.discriminant() >= _prioritary_bound(norm.slope())


def _semistable(norm: ChernData, f: ExceptionalBundle) -> RegionTag | None:
    """Semistable tag of normalized invariants whose slope f owns, or None."""
    mu = norm.slope()
    disc = norm.discriminant()
    if disc >= _delta_at(mu, f):
        return RegionTag.SEMISTABLE_POSITIVE_DIM
    if mu == f.slope and disc == f.delta:
        # Rank is then forced to be a multiple of rank(F).
        if norm.rank % f.rank != 0:
            raise InternalInconsistencyError(
                f"rank {norm.rank} not a multiple of {f.rank} at the point of {f}"
            )
        return RegionTag.SEMISTABLE_EXCEPTIONAL
    return None


def semistable_exists(cd: ChernData, max_depth: int | None = None) -> RegionTag | None:
    """Whether semistable sheaves with these invariants exist, and how:
    RegionTag.SEMISTABLE_POSITIVE_DIM, RegionTag.SEMISTABLE_EXCEPTIONAL,
    or None when there are none."""
    norm, _ = chern.normalize(cd)
    return _semistable(norm, exceptional.locate_exceptional(norm.slope(), max_depth))


def classify(cd: ChernData, max_depth: int | None = None) -> Region:
    """Exactly one region tag for any integral invariants.

    Precedence: prioritary existence bound, then the semistable cases,
    then the special pair (c1, c2) = (0, 1), then comparison with
    delta_prime.  Equality with an irrational delta_prime is impossible
    for rational input and treated as an internal inconsistency.
    """
    return _classify_normalized(chern.normalize(cd)[0], max_depth)


def _classify_normalized(norm: ChernData, max_depth: int | None) -> Region:
    """``classify`` of invariants already twisted into -1 < mu <= 0."""
    mu = norm.slope()
    disc = norm.discriminant()
    if disc < _prioritary_bound(mu):
        return Region(RegionTag.NO_PRIORITARY)
    f = exceptional.locate_exceptional(mu, max_depth)
    tag = _semistable(norm, f)
    if tag is not None:
        return Region(tag, f)
    if norm.c1 == 0 and norm.c2 == 1:
        return Region(RegionTag.SPECIAL_C0_C21, f)
    side = _delta_prime_at(mu, f).compare(disc)
    if side < 0:
        return Region(RegionTag.ABOVE_DELTA_PRIME, f)
    if side > 0:
        return Region(RegionTag.BELOW_DELTA_PRIME, f)
    raise InternalInconsistencyError(
        f"rational discriminant {disc} equals delta_prime({mu}) off an exceptional point"
    )
