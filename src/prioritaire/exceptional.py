"""Exceptional bundles on the plane and the dyadic slope lattice.

An exceptional bundle is determined by its rank r and first Chern class
c1: discriminant (1 - 1/r^2)/2 and c2 = ((r-1)/(2r)) * (r + 1 + c1^2),
which must come out an integer.  Every step of the lattice (composition,
mutation, twist, the series recurrence) already holds the integer
character vector x = (r, c1, c1^2 - 2 c2), so the package builds each
bundle from it with ``_bundle``, the one exceptional-vector check (rank
>= 1, c2 = (c1^2 - x_2)/2 integral, chi(F,F) = 1) behind a cache of 4096
bundles.  A bundle holds r, c1 and its ``ChernData``, the one home of the
formulas for slope, c2 and discriminant, which it reads on demand: no
lattice step builds a Fraction.  The package keeps five other stores,
each bounded and each filled only by answers that passed every check:

* ``_mids``, one slot per dyadic middle of [O(-1), O] down to dyadic
  level 11, at most 2 047 middles, never evicted: the middle of bracket
  (q, i), the image of (2i + 1)/2^(q+1) - 1, in slot 2^q - 1 + i.  Every
  descent starts from [O(-1), O] and repeats the middles near the top of
  the tree, so ``_middle``, the fetch of each level, reads the slot
  first and builds the middle only on a miss; it keeps the first one
  built there that passed every check.  (A prototype walk that built
  every middle, with no store, lost 7 % of ``deep``'s throughput; a
  single store shared with the kept triad tree, which builds a whole
  triad on a miss, lost 16 %.)
* ``_owner``, a memo of 4096 owners keyed by the slope in lowest terms.
  A query and the
  frontiers at its slope ask again for owners already found: one round
  of ``sweep`` (seed 3) asks for 3 000 owners of 180 distinct slopes,
  ``tile`` for 1 617 of 145, and ``deep`` for 792 of 386 (from a fresh
  import).
* ``helix``'s kept triad tree: one slot per triad down to
  ``helix.MAX_TILE_DEPTH``, at most 2 047 triads.
* ``render``'s kept tile text, the SVG paths of each level of that tree
  (at most 420 kB, and 406 kB of child slots), and its memo of the
  frontier polylines of 16 sample counts (at most 1.05 MB).

``ExceptionalBundle(r, c1)``, ``from_slope`` and the CLI take bundles
from outside through one boundary, ``_lattice``: it refuses a rank below
1 and a non-integral c2, then proves the slope on the lattice by descent
and raises ValueError off it.  Unpickling goes through the same path.

Composition produces the bundle gamma between alpha and beta with
chi(E_gamma, E_alpha) = chi(E_beta, E_gamma) = 0, whose slope is

    gamma = (alpha + beta)/2 - (Delta_alpha - Delta_beta)/(3 + alpha - beta).

Both vanishings are linear in x = (r, c1, c1^2 - 2 c2), so ``compose``
takes the cross product of the two forms in integers: -2 x of gamma, a
factor checked with both vanishings on every call.  Iterating it from
the integer slopes realizes a bijection from dyadic numbers to
exceptional slopes: integers map to line bundles, the map commutes with
integer translation, and the midpoint of two adjacent dyadics maps to
the composition of their images.

Around each exceptional slope sits the open interval of radius

    x_F = (3r - sqrt(9 r^2 - 4)) / (2r),

the smaller root of X^2 - 3X + 1/r^2.  The intervals attached to
distinct exceptional slopes are pairwise disjoint and every rational in
[-1, 0] falls in exactly one of them (or is itself an exceptional
slope); ``locate_many`` finds the owners of a list of slopes, and
``locate_exceptional`` is its one-slope case.  Membership needs no surd:
for 0 <= d < 3/2 the quadratic is positive exactly below x_F.  At the
slope num/den, d = n/m with n = |num r - c1 den| and m = den r, so
m^2 (d^2 - 3d + 1/r^2) = n(n - 3m) + den^2, as m^2/r^2 = den^2, and d
lies inside exactly when

    2n < 3m  and  n(n - 3m) + den^2 > 0,

an integer test written once, in ``_inside``: the form n(n - 3m) r^2 + m^2
divided by r^2 > 0, with no factor r^2 left to multiply.  It says
delta_F(mu) > 1/2, since 2 m^2 (delta_F(mu) - 1/2) = n(n - 3m) + den^2
(``frontier._conic_terms``).  den^2 is the same at every level of an
owner walk, which squares it once.

No descent takes a depth: each ends at a depth its input fixes.  The
ranks of the mids rise, by at least 1 a level, and a slope c1/r is
proved on or off the lattice by a mid of rank r; the owner of n/m
(lowest terms, m > 0) has rank m and slope n/m or rank below
(2m + 1)/6; a dyadic p/2^q is reached in q levels; and the shallowest
tile holding a point has a middle of rank at most the rank at which the
point is integral.  Each public entry point refuses a slope outside
[-1, 0] where it takes one, and hands the input to the descents
(``_walk``, ``_descend``, ``_owners``, ``frontier._classify_normalized``
and ``helix._locate``), which do not check the range again.

The descents of the lattice run through ``_walk``.  A walk carries its
bracket and the third bundle of the triad (lo, mid, hi) that it came
from, and each level fetches one mid with ``_middle``: from its slot of
``_mids`` for a bracket of [O(-1), O] down to level 11, and built only
on a miss (and dropped past that level, or for a translated bracket:
only the CLI walks from another integer, once per process).  The middle
of level 0 is compose(lo, hi); every middle below is one mutation
(``_build_middle``, ``_mutation``; Gorodentsev-Rudakov) of the triad
the walk leaves, three integer multiply-subtracts in place of compose's
cross product and two pairings:

    going left, into [lo, mid]:   x(new) = 3 r_lo x(mid) - x(hi)
    going right, into [mid, hi]:  x(new) = 3 r_hi x(mid) - x(lo)

What is checked moved.  ``_bundle`` still checks chi(F,F) = 1 on every
new vector, and ``_mutation`` checks the Markov identity of every new
triad in integers.  The two vanishings that compose checked at each step
follow, by bilinearity of chi in x, from the triad identities of the
triad the walk leaves: chi(mid, lo) = chi(hi, mid) = chi(hi, lo) = 0,
chi(lo, mid) = 3 r_hi, chi(mid, hi) = 3 r_lo and chi(lo, hi) =
9 r_lo r_hi - 3 r_mid.  Going left,

    chi(new, lo) = 3 r_lo chi(mid, lo) - chi(hi, lo) = 0,
    chi(mid, new) = 3 r_lo chi(mid, mid) - chi(mid, hi) = 3 r_lo - 3 r_lo = 0,

and going right chi(new, mid) = 3 r_hi - chi(lo, mid) = 0 and chi(hi, new)
= 3 r_hi chi(hi, mid) - chi(hi, lo) = 0.  The same expansion gives the
new triad all six identities again (chi(lo, new) = 9 r_lo r_hi -
chi(lo, hi) = 3 r_mid going left, for one), so by induction every triad
of a walk has them once the triad of level 0, (O(s), E(s + 1/2),
O(s + 1)), has them; there compose checks the vanishings, and the three
pairings are 3 by Riemann-Roch.  selfcheck's lattice check
recomposes every middle with compose, as an oracle of the whole walk.
A walk keeps nothing but its slots, and ``_owner`` keeps only the answer
of a whole owner walk that succeeded.  ``helix.enumerate_to_level`` is
one loop of the same fetch over all levels.  Point location
(``helix._locate``) is the one descent that does not walk: it reads
each triad it enters off the kept tree and fetches nothing there.
``compose`` builds two middles of the package: that of level 0, which
``_build_middle`` composes for ``_walk`` and ``helix.enumerate_to_level``,
and the middle of ``helix.root``; selfcheck recomposes the others.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import lru_cache
from itertools import chain
from math import gcd

from . import chern
from ._record import _MAX_BITS, Record, _ratio
from .chern import ChernCharacter, ChernData
from .errors import InternalInconsistencyError, ParseError
from .surd import QuadSurd, _ratio_of


class Dyadic(Record):
    """Rational p / 2^q in normal form (q == 0, or p odd)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if q < 0:
            raise ValueError(f"negative level {_ratio(q, 1)}")
        # Strip every factor of two at once: the lowest set bit of p.
        shift = q if p == 0 else min(q, (p & -p).bit_length() - 1)
        p, q = p >> shift, q - shift
        set_p, set_q = __class__._setters
        set_p(self, p)
        set_q(self, q)

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "Dyadic":
        import fractions

        return _dyadic(*fractions.Fraction(value).as_integer_ratio())

    def value(self) -> Fraction:
        import fractions

        return fractions.Fraction(self.p, 1 << self.q)

    def neighbors(self) -> "tuple[Dyadic, Dyadic]":
        """The bracketing pair one level up; defined for q >= 1."""
        if self.q == 0:
            raise ValueError(f"{_ratio(self.p, 1)} is an integer and has no bracketing pair")
        return (Dyadic((self.p - 1) // 2, self.q - 1), Dyadic((self.p + 1) // 2, self.q - 1))

    def __str__(self) -> str:
        """p at level 0, else p over 2^q in digits, or over "2^q" once 2^q
        passes _MAX_BITS bits: exact, read back by ``parse_dyadic``, and
        within the int-to-str limit whenever p is."""
        den = 1 << self.q if self.q < _MAX_BITS else f"2^{self.q}"
        return f"{self.p}/{den}" if self.q else str(self.p)


def parse_dyadic(text: str) -> Dyadic:
    """Accepts "p/2^q", plain fractions with power-of-two denominator,
    and decimal strings that are exactly dyadic ("-0.25"); the first two
    are read in integers (``surd._ratio_of``)."""
    s = text.strip()
    try:
        if "^" not in s:
            n, den = _ratio_of(s)
        else:
            num, den = s.split("/")
            base, exp = den.split("^")
            if int(base) != 2:
                raise ValueError
            return Dyadic(int(num), int(exp))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed dyadic {text!r}") from exc
    return _dyadic(n, den)


def _dyadic(n: int, den: int) -> Dyadic:
    """The dyadic n/den, in lowest terms with den > 0, or ParseError when
    den is not a power of two."""
    if den & (den - 1):
        raise ParseError(f"{_ratio(n, den)} is not dyadic (denominator {_ratio(den, 1)})")
    return Dyadic(n, den.bit_length() - 1)


def _c2(rank: int, c1: int) -> tuple[int, int]:
    """c2 = ((r-1)/(2r)) * (r + 1 + c1^2) of the exceptional bundle (r, c1),
    as (quotient, remainder): the bundle exists only if the remainder is 0,
    which also proves gcd(r, c1) = 1 (mod a common prime p the numerator
    is -1).  Only the boundary ``_lattice`` divides; the package's own
    bundles come with their vector."""
    return divmod((rank - 1) * (rank + 1 + c1 * c1), 2 * rank)


class ExceptionalBundle(Record):
    """The exceptional bundle of rank r and first Chern class c1.

    Built from outside the package, or unpickled, the record is proved on
    the lattice by ``_lattice``, which raises ValueError otherwise, and it
    is a new record equal to the one the descent found.
    The package builds its own bundles with ``_bundle``.  The record's
    fields, for equality, hashing, repr and pickling, are (rank, c1);
    ``chern``, the invariants as ``ChernData``, is derived once, and
    ``slope``, ``c2`` and ``delta`` are read from it on demand.
    """

    __slots__ = ("rank", "c1", "chern")
    _fields = __slots__[:2]

    def __init__(self, rank: int, c1: int) -> None:
        found = _lattice(rank, c1)[0]
        set_rank, set_c1, set_chern = __class__._setters
        set_rank(self, found.rank)
        set_c1(self, found.c1)
        set_chern(self, found.chern)

    @property
    def slope(self) -> Fraction:
        return self.chern.slope()

    @property
    def c2(self) -> int:
        return self.chern.c2

    @property
    def delta(self) -> Fraction:
        """(r^2 - 1)/(2 r^2), the discriminant of every exceptional bundle."""
        import fractions

        return fractions.Fraction(self.rank**2 - 1, 2 * self.rank**2)

    def character(self) -> ChernCharacter:
        return self.chern.character()

    def twist(self, k: int) -> "ExceptionalBundle":
        r, c1, x2 = self.chern._vec
        return _bundle(r, c1 + k * r, x2 + k * (2 * c1 + k * r))

    def dual(self) -> "ExceptionalBundle":
        return _bundle(self.rank, -self.c1, self.chern._vec[2])

    def half_width(self) -> QuadSurd:
        """x_F = (3r - sqrt(9r^2 - 4))/(2r), radius of the slope interval."""
        import fractions

        r = self.rank
        return QuadSurd(fractions.Fraction(3, 2), fractions.Fraction(-1, 2 * r), 9 * r * r - 4)

    def contains_slope(self, mu: Fraction) -> bool:
        """Whether mu lies in the open interval around this slope.

        With mu = num/den and d = |mu - mu(F)| = n/m, m = den r, d < x_F iff
        2n < 3m and n(n - 3m) + den^2 > 0: the test n(n - 3m) r^2 + m^2 > 0
        of m^2 r^2 times X^2 - 3X + 1/r^2 at d, divided by r^2 > 0 (module
        docstring; equivalently delta_F(mu) > 1/2).
        """
        return self._contains(mu.numerator, mu.denominator)

    def _contains(self, num: int, den: int) -> bool:
        """``contains_slope`` of num/den, den > 0, by ``_inside``; the
        fraction need not be in lowest terms, the test being homogeneous."""
        return _inside(abs(num * self.rank - self.c1 * den), den * self.rank, den * den)

    def label(self) -> str:
        """O(c1) or E(c1/r), in lowest terms since chi(F,F) = 1; the terms
        are written by ``_ratio``, so past _MAX_BITS a term is named by its
        bit length and no label depends on the int-to-str limit."""
        text = _ratio(self.c1, self.rank)
        return f"O({text})" if self.rank == 1 else f"E({text})"

    def __str__(self) -> str:
        return self.label()


def _inside(n: int, m: int, den_sq: int) -> bool:
    """Whether d = n/m, n >= 0, lies below x_F of the bundle of rank r at
    the slope num/den, for n = |num r - c1 den|, m = den r and den_sq =
    den^2: 2n < 3m and n(n - 3m) + den^2 > 0 (module docstring).  The one
    ownership test, behind ``_contains`` and ``_owner``'s steer."""
    return 2 * n < 3 * m and n * (n - 3 * m) + den_sq > 0


def _conic_side(x: ExceptionalBundle, sign: int, n: int, d: int) -> tuple[int, int]:
    """P(sign * (mu - mu(x))) - Delta(x) at mu = n/d, d > 0, as (num, den):
    each side of a triangle tile is this conic.

    With t = sign * (n r - c1 d) and w = d r the argument of P is t/w,
    and P(t/w) - (r^2 - 1)/(2 r^2) = (t^2 + 3 t w + (r^2 + 1) d^2) / (2 w^2).
    The pair need not be in lowest terms; den is positive.
    """
    r = x.rank
    w = d * r
    t = sign * (n * r - x.c1 * d)
    return t * t + 3 * t * w + (r * r + 1) * d * d, 2 * w * w


@lru_cache(maxsize=4096)
def _bundle(rank: int, c1: int, x2: int) -> ExceptionalBundle:
    """The bundle of character vector (rank, c1, x2), x2 = c1^2 - 2 c2, which
    a caller inside the package already holds: every bundle of the package
    is built here, behind its only cache.  The one exceptional-vector check:
    rank >= 1, c1^2 - x2 even and chi(F,F) = 1; a failure is a fault of the
    package, InternalInconsistencyError."""
    if rank < 1:
        raise InternalInconsistencyError(f"rank {rank} of ({rank}, {c1}) is not positive")
    if (c1 - x2) & 1:
        raise InternalInconsistencyError(f"({rank}, {c1}) is not exceptional: c2 not integral")
    c2 = (c1 * c1 - x2) >> 1
    f = object.__new__(ExceptionalBundle)
    set_rank, set_c1, set_chern = ExceptionalBundle._setters
    set_rank(f, rank)
    set_c1(f, c1)
    set_chern(f, ChernData(rank, c1, c2))
    if chern.euler_pairing(f.chern, f.chern) != 1:
        raise InternalInconsistencyError(f"chi(F,F) != 1 for ({rank}, {c1}, {c2})")
    return f


def from_slope(slope: Fraction) -> ExceptionalBundle:
    """The exceptional bundle of a slope from outside the package, or
    ValueError (``_lattice``).  The descent ends at the first mid of rank
    >= the denominator, since the ranks of its mids rise."""
    import fractions

    slope = fractions.Fraction(slope)
    return _lattice(slope.denominator, slope.numerator)[0]


def _lattice(rank: int, c1: int) -> tuple:
    """The bundle (rank, c1) from outside the package and its dyadic: the
    package's one boundary, behind ``ExceptionalBundle``, ``from_slope`` and
    the CLI's ``slope --invert``.  ValueError for a rank below 1 or a
    non-integral c2, and when the descent proves the slope off the
    lattice; the bundle is the one the descent found."""
    if rank < 1:
        r = _ratio(rank, 1)
        raise ValueError(f"rank {r} of ({r}, {_ratio(c1, 1)}) is not positive")
    if _c2(rank, c1)[1]:
        slope = f"{_ratio(c1, 1)}/{_ratio(rank, 1)}"  # term by term: it need not be reduced
        raise ValueError(f"{slope} is not an exceptional slope (c2 not integral)")
    return _descend(rank, c1)[:2]


def compose(a: ExceptionalBundle, b: ExceptionalBundle) -> ExceptionalBundle:
    """The bundle orthogonally between a and b, the images of two adjacent
    dyadics (slopes a < b, gap < 3).

    2 chi(x, a) = u.x and 2 chi(b, x) = v.x on x = (r, c1, c1^2 - 2 c2);
    u x v spans their kernel and is -2 x of the result, which ``_bundle``
    builds from x.  Neighbours are exactly the pairs with chi(b, a) = 0; on
    any other pair the kernel can be another multiple of x, so compose
    refuses it with ValueError first.  Every call runs every check and
    keeps nothing.  The walks call it only for a middle of level 0, whose
    bracket is no mutation (module docstring).
    """
    (ra, ca, sa), (rb, cb, sb) = a.chern._vec, b.chern._vec
    gap = cb * ra - ca * rb  # (slope(b) - slope(a)) * ra * rb
    if gap <= 0:
        slopes = f"{_ratio(ca, ra)}, {_ratio(cb, rb)}"
        raise ValueError(f"compose needs slope(a) < slope(b), got {slopes}")
    if gap >= 3 * ra * rb:
        raise ValueError(f"slope gap {_ratio(gap, ra * rb)} too wide for composition")
    u0, u1, u2 = 2 * ra + 3 * ca + sa, -3 * ra - 2 * ca, ra
    v0, v1, v2 = 2 * rb - 3 * cb + sb, 3 * rb - 2 * cb, rb
    if v0 * ra + v1 * ca + v2 * sa != 0:  # 2 chi(b, a)
        raise ValueError(f"{a} and {b} are not neighbours: chi({b}, {a}) != 0")
    k0, k1, k2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    if (k0 | k1 | k2) & 1:
        raise InternalInconsistencyError(f"kernel of {a}, {b} is not even")
    result = _bundle(-k0 >> 1, -k1 >> 1, -k2 >> 1)
    if chern.euler_pairing(result.chern, a.chern) != 0:
        raise InternalInconsistencyError(f"chi({result}, {a}) != 0")
    if chern.euler_pairing(b.chern, result.chern) != 0:
        raise InternalInconsistencyError(f"chi({b}, {result}) != 0")
    return result


def _mutation(a: ExceptionalBundle, b: ExceptionalBundle, c: ExceptionalBundle) -> ExceptionalBundle:
    """The bundle of vector 3 r_a x(b) - x(c), for a, b, c the three bundles
    of an exceptional triad: the one mutation of the lattice, the middle of
    a walk's next bracket (``_middle``) and of ``helix``'s child triads, and
    a triad's bundle h.  The new triad (a, b, result) must satisfy the
    Markov identity r_a^2 + r_b^2 + r^2 = 3 r_a r_b r.  Since r = 3 r_a r_b
    - r_c, it reads r_a^2 + r_b^2 = r r_c, which is checked in integers (and
    is the identity of (a, b, c) as well), before ``_bundle`` checks
    chi(F,F) = 1; a failure is InternalInconsistencyError."""
    k, ra = 3 * a.rank, a.rank
    (rb, cb, xb), (rc, cc, xc) = b.chern._vec, c.chern._vec
    r = k * rb - rc
    if ra * ra + rb * rb != r * rc:  # r^2 - 3 r_a r_b r = -r r_c
        raise InternalInconsistencyError(f"Markov identity fails for ranks {ra},{rb},{r}")
    return _bundle(r, k * cb - cc, k * xb - xc)


# The middles of [-1, 0] at dyadic levels 1..11, one level past helix's kept
# triad tree: slot 2^q - 1 + i holds the middle of bracket (q, i) once it
# has passed every check, else None (module docstring).  At most 2 047
# middles, never cleared.
_mids: list[ExceptionalBundle | None] = [None] * ((1 << 11) - 1)


def _middle(p: int, q: int, lo: ExceptionalBundle, hi: ExceptionalBundle, far) -> ExceptionalBundle:
    """``_build_middle(p, lo, hi, far)``, the middle of [lo, hi], the images
    of p/2^q and (p + 1)/2^q: the one fetch of each level of a walk and of
    ``helix.enumerate_to_level``.  The middle of a bracket of [-1, 0] with
    q <= 10 is read from its slot of ``_mids``, and built only on a miss,
    which fills the slot; past that level, or for a translated bracket, it
    is built and dropped."""
    slot = (2 << q) + p - 1  # 2^q - 1 + i with i = p + 2^q
    if not (-(1 << q) <= p < 0 and slot < len(_mids)):
        return _build_middle(p, lo, hi, far)
    if _mids[slot] is None:
        _mids[slot] = _build_middle(p, lo, hi, far)
    return _mids[slot]


def _build_middle(p: int, lo: ExceptionalBundle, hi: ExceptionalBundle, far) -> ExceptionalBundle:
    """The middle of the bracket [lo, hi] of a walk, the images of p/2^q and
    (p + 1)/2^q: compose(lo, hi) at level 0, where far is None.  Below,
    [lo, hi] is a side of the triad of the level above, whose third bundle
    is far, and the middle is that triad's mutation (``_mutation``): for
    the left side (lo, hi, far), p even, 3 r_lo x(hi) - x(far); for the
    right side (far, lo, hi), p odd, 3 r_hi x(lo) - x(far).  ``helix._child``
    builds each child triad's middle here too."""
    if far is None:
        return compose(lo, hi)
    return _mutation(hi, lo, far) if p & 1 else _mutation(lo, hi, far)


def _walk(steer: Callable, start: int) -> tuple:
    """Bisect the dyadic tree from [O(start), O(start + 1)].

    Each level fetches mid = ``_middle`` of the bracket [lo, hi] and asks
    steer(lo, mid, hi): 0 stops at mid, returning (lo, mid, hi, p, q) with
    mid the image of p/2^q; a negative sign enters [lo, mid], whose middle
    is the mutation 3 r_lo x(mid) - x(hi) of the triad (lo, mid, hi), and a
    positive one [mid, hi], whose middle is 3 r_hi x(mid) - x(lo).  The
    steer alone ends the walk, by stopping or raising, at a depth its input
    fixes (module docstring).
    """
    lo, hi = _bundle(1, start, start * start), _bundle(1, start + 1, (start + 1) ** 2)
    # [lo, hi] is the image of [p/2^q, (p+1)/2^q], a side of (lo, hi, far)
    # or (far, lo, hi), the triad of the level above.
    p, q, far = start, 0, None
    while True:
        mid = _middle(p, q, lo, hi, far)
        side = steer(lo, mid, hi)
        p, q = 2 * p, q + 1
        if side == 0:
            return lo, mid, hi, p + 1, q
        if side < 0:
            far, hi = hi, mid
        else:
            far, lo, p = lo, mid, p + 1


def from_dyadic(d: Dyadic) -> ExceptionalBundle:
    """The dyadic-to-exceptional bijection: integers give line bundles, and
    a dyadic of positive level maps to the composition of the images of its
    bracketing pair, reached by bisection from the integer bracket of d at
    one ``_middle`` per level."""
    return _from_dyadic(d)[0]


def _from_dyadic(d: Dyadic) -> tuple:
    """``from_dyadic`` and the pair whose middle it is (None for an integer),
    by a walk that steers by the bits of d and stops at its last."""
    base = d.p >> d.q  # floor(d)
    if d.q == 0:
        return _bundle(1, base, base * base), None
    offset = d.p - (base << d.q)  # d = base + offset/2^q, offset odd
    # One sign per bit of offset below the top, then stop at the last bit;
    # drawn as the walk goes, so memory stays flat however deep d lies.
    signs = chain((1 if (offset >> k) & 1 else -1 for k in range(d.q - 1, 0, -1)), (0,))
    lo, mid, hi, _, _ = _walk(lambda lo, mid, hi: next(signs), base)
    return mid, (lo, hi)


def dyadic_of(bundle: ExceptionalBundle) -> Dyadic:
    """Invert ``from_dyadic`` by monotone descent from the integer bracket of
    the slope.  Raises ValueError as soon as the descent proves the slope is
    not on the lattice.
    """
    return _descend(bundle.rank, bundle.c1)[1]


def _descend(r: int, c1: int) -> tuple:
    """The bundle of slope c1/r, gcd(r, c1) = 1, its dyadic (``dyadic_of``)
    and the images of the dyadic's neighbours (None, None for a line bundle).
    The ranks of the mids increase (each is the largest of its Markov
    triple), so a mid of rank >= r that is not the target proves the slope
    off the lattice, which ends the walk."""
    shift = -(-c1 // r)  # ceil(slope)
    if c1 == shift * r:
        return _bundle(1, c1, c1 * c1), Dyadic(shift, 0), None, None

    def steer(lo, mid, hi):
        if mid.rank == r and mid.c1 == c1:
            return 0
        if mid.rank >= r:
            raise ValueError(f"{_ratio(c1, r)} is not an exceptional slope")
        return c1 * mid.rank - mid.c1 * r  # sign of slope - mu(mid)

    lo, mid, hi, p, q = _walk(steer, shift - 1)
    return mid, Dyadic(p, q), lo, hi


def locate_exceptional(mu: Fraction) -> ExceptionalBundle:
    """Owner of the rational slope mu in [-1, 0]: the unique exceptional
    bundle F with mu == mu(F) or |mu - mu(F)| < x_F (``locate_many``)."""
    return locate_many([mu])[0]


def locate_many(slopes: Iterable[Fraction]) -> list[ExceptionalBundle]:
    """Owners of rational slopes in [-1, 0] (``_owners``: a walk for each
    slope that its memo does not hold)."""
    import fractions

    pairs = [(mu.numerator, mu.denominator) for mu in map(fractions.Fraction, slopes)]
    for n, m in pairs:
        if n < -m or n > 0:
            raise ValueError(f"slope {_ratio(n, m)} outside [-1, 0]")
    return _owners(pairs)


def _owners(pairs: list[tuple[int, int]]) -> list[ExceptionalBundle]:
    """``locate_many`` of the slopes n/m in [-1, 0] given as pairs (n, m),
    m > 0, in any terms: each is read, in lowest terms, from ``_owner``."""
    out = []
    for n, m in pairs:
        g = gcd(n, m)
        out.append(_owner(n // g, m // g))
    return out


@lru_cache(maxsize=4096)
def _owner(n: int, m: int) -> ExceptionalBundle:
    """Owner of the slope n/m in [-1, 0], in lowest terms, behind the
    lattice's third cache: a query and the frontiers at its slope ask for
    the same owner.  A bundle owns a slope exactly when ``_inside`` holds,
    as it does at distance 0.  Each bundle is steered once: s = n r - c1 m,
    the sign of n/m - mu(mid), gives d = |s|/(m r) for ``_inside`` and,
    when the mid does not own the slope, the side to enter.  The two ends
    are tried first, then a miss walks to the first mid that owns the
    slope; an error is not kept, so a hit repeats only a proved answer.
    The owner has rank at most m (module docstring), so a mid of larger
    rank that does not own the slope is InternalInconsistencyError."""
    den_sq = m * m

    def steer(lo, mid, hi):
        s = n * mid.rank - mid.c1 * m
        if _inside(abs(s), m * mid.rank, den_sq):
            return 0
        if mid.rank > m:
            raise InternalInconsistencyError(f"no mid up to its denominator owns {_ratio(n, m)}")
        return s

    # The ends, of rank 1, are steered like a mid; at most one owns the slope.
    ends = [f for f in (_bundle(1, -1, 1), _bundle(1, 0, 0)) if steer(None, f, None) == 0]
    return ends[0] if ends else _walk(steer, -1)[1]
