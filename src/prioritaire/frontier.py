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

Every answer at a slope derives from its owner F, found by one walk of
the lattice (``classify`` walks it on the integers (c1, r)), and
evaluates the formulas above at (mu, F) in closed-form integers.
``delta``, ``delta_prime`` and ``delta_many`` normalize the slope in
integers and hand the pairs (n, d) to one ``exceptional._owners`` call,
which walks a slope only when its memo of 4096 owners does not hold it
at that cap: ``delta_prime`` at the slope that ``classify`` has just
answered walks nothing.

At mu = num/den, with n = |num r - c1 den| and m = den r (so that
|mu - mu(F)| = n/m), ``_conic_terms`` writes both frontiers from the same
n and m:

    delta       = (n(n - 3m) + (r^2 + 1) den^2) / (2m^2),
    delta_prime = (n^2 + (r^2 - 1) den^2) / (2m^2) + (n/(2mr)) sqrt(9r^2 - 4).

The first is P(-n/m) - Delta(F), with P(X) = (X + 1)(X + 2)/2; the second
subtracts (1/r^2)(1 - (n/m)/x_F) from it, with 1/x_F = r(3r + sqrt(9r^2 - 4))/2.

The region tests are integer signs on (r, c1, c2) and the owner's
(r_F, c1_F): the prioritary bound, the side of delta and the exceptional
point are cross-multiplied inequalities, and the side of delta_prime is
the sign of A - B sqrt(9 r_F^2 - 4) with integers A and B >= 0
(``_frontier_gaps``).  ``Fraction`` and ``QuadSurd`` values are built
only where they are returned (``_delta_of``, ``_delta_prime_of``), and
``fractions`` is imported there; the command line prints its answers from
the same integers.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from . import chern, exceptional
from ._record import Record, _ratio
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
        set_tag, set_witness = __class__._setters
        set_tag(self, tag)
        set_witness(self, witness)


def _conic_terms(num: int, den: int, f: ExceptionalBundle) -> tuple[int, int, int, int]:
    """(N, N', n, m) at the slope num/den (den > 0, any terms) owned by f,
    with n = |num r - c1 den| and m = den r, so that |mu - mu(F)| = n/m:
    delta = N/(2m^2) and delta_prime = N'/(2m^2) + (n/(2mr)) sqrt(9r^2 - 4)
    (module docstring), where, as m^2 = r^2 den^2,

        N  = n(n - 3m) + (r^2 + 1) den^2 = n^2 + m^2 - 3nm + den^2,
        N' = n^2 + (r^2 - 1) den^2       = n^2 + m^2 - den^2.
    """
    n, m, den_sq = abs(num * f.rank - f.c1 * den), den * f.rank, den * den
    both = n * n + m * m
    return both - 3 * n * m + den_sq, both - den_sq, n, m


def _delta_of(terms: tuple[int, int, int, int]) -> Fraction:
    """delta N/(2m^2) from the ``_conic_terms`` (N, N', n, m) of a slope."""
    import fractions

    big_n, _, _, m = terms
    return fractions.Fraction(big_n, 2 * m * m)


def _delta_prime_of(terms: tuple[int, int, int, int], r: int) -> QuadSurd:
    """delta_prime N'/(2m^2) + (n/(2mr)) sqrt(9r^2 - 4) from the
    ``_conic_terms`` (N, N', n, m) of a slope owned by a bundle of rank r."""
    import fractions

    _, rational, n, m = terms
    a, b = fractions.Fraction(rational, 2 * m * m), fractions.Fraction(n, 2 * m * r)
    # Normal form as it stands: (3r - 1)^2 < 9r^2 - 4 < (3r)^2 for r >= 1,
    # so the radicand is never a square.
    return QuadSurd._trusted(a, b, 9 * r * r - 4 if n else 0)


def _normalize_slope(mu: Fraction) -> tuple[int, int]:
    """(n, d) of mu - ceil(mu), in lowest terms with d > 0: mu translated
    by an integer into (-1, 0].  An int or a Fraction already holds its
    lowest terms; any other value is read through ``Fraction``."""
    try:
        n, d = mu.numerator, mu.denominator
    except AttributeError:
        import fractions

        n, d = fractions.Fraction(mu).as_integer_ratio()
    return -(-n % d), d


def delta(mu: Fraction, max_depth: int | None = None) -> Fraction:
    """Semistability frontier at the rational slope mu (any rational;
    extended by integer periodicity)."""
    n, d = _normalize_slope(mu)
    f = exceptional._owners([(n, d)], exceptional._cap(max_depth))[0]
    return _delta_of(_conic_terms(n, d, f))


def delta_prime(mu: Fraction, max_depth: int | None = None) -> QuadSurd:
    """Rigidity frontier at the rational slope mu.

    Returned as an exact surd over the radicand 9r^2 - 4 of the owning
    bundle; normalizes to a plain rational exactly when mu = mu(F).
    """
    n, d = _normalize_slope(mu)
    f = exceptional._owners([(n, d)], exceptional._cap(max_depth))[0]
    return _delta_prime_of(_conic_terms(n, d, f), f.rank)


def delta_many(
    slopes: Iterable[Fraction], max_depth: int | None = None
) -> list[tuple[ExceptionalBundle, Fraction, QuadSurd]]:
    """(owner, delta, delta_prime) at each rational slope.

    The owner is that of the slope normalized into (-1, 0]; all owners
    come from one ``exceptional._owners`` call, and both values at a slope
    from one ``_conic_terms``.
    """
    pairs = [_normalize_slope(mu) for mu in slopes]
    owners = exceptional._owners(pairs, exceptional._cap(max_depth))
    out = []
    for (n, d), f in zip(pairs, owners):
        terms = _conic_terms(n, d, f)
        out.append((f, _delta_of(terms), _delta_prime_of(terms, f.rank)))
    return out


def _disc_num(r: int, c1: int, c2: int) -> int:
    """D = 2r c2 - (r-1) c1^2, so that Delta = D/(2r^2)."""
    return 2 * r * c2 - (r - 1) * c1 * c1


def _prioritary(r: int, c1: int, c2: int) -> bool:
    """Delta >= -mu(mu+1)/2 at normalized (r, c1, c2): D + c1(c1 + r) >= 0."""
    return _disc_num(r, c1, c2) + c1 * (c1 + r) >= 0


def _frontier_gaps(r: int, c1: int, c2: int, f: ExceptionalBundle) -> tuple[int, int, int, int]:
    """Where (r, c1, c2) sits against the frontiers of f at its slope.

    ``_conic_terms`` at c1/r gives N, A0, n and m = r r_F (not reduced; the
    tests are homogeneous), and Delta = D r_F^2/(2m^2) with D = ``_disc_num``:
    Delta - delta = (D r_F^2 - N)/(2m^2) and Delta - delta_prime =
    (A - n r sqrt(9 r_F^2 - 4))/(2m^2), A = D r_F^2 - A0.  Returns D r_F^2 - N,
    A, n and m: f owns the slope exactly when ``exceptional._inside(n, m,
    r^2)`` holds, so a caller that has not yet proved it asks with the same n
    and m.
    """
    big_n, rational, n, m = _conic_terms(c1, r, f)
    x = _disc_num(r, c1, c2) * f.rank * f.rank
    return x - big_n, x - rational, n, m


def _surd_sign(a: int, b: int, rf: int) -> int:
    """Sign of a - b sqrt(9 r_F^2 - 4) for b >= 0: -1 when a <= 0 (0 when
    b = 0 too), else the sign of a^2 - b^2 (9 r_F^2 - 4)."""
    if a <= 0:
        return -1 if a < 0 or b else 0
    s = a * a - b * b * (9 * rf * rf - 4)
    return (s > 0) - (s < 0)


def _at_exceptional_point(r: int, c1: int, c2: int, f: ExceptionalBundle) -> bool:
    """(mu, Delta) == (mu(F), Delta(F)): c1 r_F = c1_F r and
    D r_F^2 = (r_F^2 - 1) r^2."""
    rf = f.rank
    return c1 * rf == f.c1 * r and _disc_num(r, c1, c2) * rf * rf == (rf * rf - 1) * r * r


def prioritary_exists(cd: ChernData) -> bool:
    """Existence test for prioritary sheaves with the given invariants."""
    norm, _ = chern.normalize(cd)
    return _prioritary(norm.rank, norm.c1, norm.c2)


def semistable_exists(cd: ChernData, max_depth: int | None = None) -> RegionTag | None:
    """Whether semistable sheaves with these invariants exist, and how:
    RegionTag.SEMISTABLE_POSITIVE_DIM, RegionTag.SEMISTABLE_EXCEPTIONAL,
    or None when there are none: ``classify``'s tag when it is one of those
    two (semistable sheaves are prioritary, so none lie below the bound)."""
    tag = classify(cd, max_depth).tag
    semistable = (RegionTag.SEMISTABLE_POSITIVE_DIM, RegionTag.SEMISTABLE_EXCEPTIONAL)
    return tag if tag in semistable else None


def classify(cd: ChernData, max_depth: int | None = None) -> Region:
    """Exactly one region tag for any integral invariants.

    Precedence: prioritary existence bound, then the semistable cases,
    then the special pair (c1, c2) = (0, 1), then comparison with
    delta_prime.  Equality with an irrational delta_prime is impossible
    for rational input and treated as an internal inconsistency.
    """
    # The cap is checked before any answer, so a bad one raises below the bound too.
    return _classify_normalized(chern.normalize(cd)[0], exceptional._cap(max_depth))


def _classify_normalized(norm: ChernData, cap: int | None) -> Region:
    """``classify`` of invariants already twisted into -1 < mu <= 0, within
    the checked cap."""
    r, c1, c2 = norm.rank, norm.c1, norm.c2
    if not _prioritary(r, c1, c2):
        return Region(RegionTag.NO_PRIORITARY)
    f = exceptional._owners([(c1, r)], cap)[0]
    delta_gap, a, n, _ = _frontier_gaps(r, c1, c2, f)
    if delta_gap >= 0:
        return Region(RegionTag.SEMISTABLE_POSITIVE_DIM, f)
    if _at_exceptional_point(r, c1, c2, f):
        # Rank is then forced to be a multiple of rank(F).
        if r % f.rank != 0:
            raise InternalInconsistencyError(f"rank {r} not a multiple of {f.rank} at {f}")
        return Region(RegionTag.SEMISTABLE_EXCEPTIONAL, f)
    if c1 == 0 and c2 == 1:
        return Region(RegionTag.SPECIAL_C0_C21, f)
    side = _surd_sign(a, n * r, f.rank)
    if side > 0:
        return Region(RegionTag.ABOVE_DELTA_PRIME, f)
    if side < 0:
        return Region(RegionTag.BELOW_DELTA_PRIME, f)
    raise InternalInconsistencyError(
        f"rational discriminant {_ratio(_disc_num(r, c1, c2), 2 * r * r)} equals "
        f"delta_prime({_ratio(c1, r)}) off an exceptional point"
    )
