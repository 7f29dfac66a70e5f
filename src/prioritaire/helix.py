"""Triads of exceptional bundles, their triangle tiles, and series.

A triad (e, f, g) is a slope-ordered triple of exceptional bundles that
is pairwise orthogonal in one direction: chi(f,e) = chi(g,f) = chi(g,e)
= 0.  The root triad is (O(-1), E(-1/2), O); every other one arises by
repeated mutation.  The left child of (e, f, g) is (e, h', f) with h'
the kernel bundle of the evaluation f x Hom(f,g) -> g, and the right
child is (f, k, g) with k the cokernel of e -> f x Hom(e,f)*.  The
integer character vectors x = (r, c1, c1^2 - 2 c2) follow the mutation
bookkeeping

    x(h') = chi(f,g) * x(f) - x(g) = 3 rank(e) x(f) - x(g)

and each child's middle is this mutation of its parent's and nothing
else: ``Triad``'s checks prove it the composition of its two ends, since
the vanishings chi(f,e) = chi(g,f) = 0 leave one line of vectors, and
chi(F,F) = 1 with rank >= 1 fixes the multiple.  Only the root composes
its middle.  The mutation is ``exceptional._mutation``, the one of the
package: the walks of the lattice step by it too, and it checks the
Markov identity of every triad it makes, ``Triad``'s own included (that
of (g, e, h) is that of (e, f, g)).  Mutations and series members are
built from their vectors by ``exceptional._bundle``, which checks that
each vector is exceptional.

Each triad is also its tile, a curvilinear triangle in the (mu, Delta)
plane (``Triad.side_ef``, ``side_fg``, ``side_eg`` and ``contains``):

    Delta <= P(mu - mu(g)) - Delta(g)     side through vertices e and f
    Delta <= P(mu(e) - mu) - Delta(e)     side through vertices f and g
    Delta >= P(mu(h) - mu) - Delta(h)     side through vertices e and g

where h is the kernel bundle of e x Hom(e,f) -> f, which the triad
derives from (e, f, g) when it is built.  The bottom side is
taken with argument mu(h) - mu so that it passes exactly through the
vertices e and g; all three sides are vanishing loci of Euler pairings
against a fixed bundle.  Tiles are closed; point location descends from
the root and returns the shallowest containing tile.

The triads down to MAX_TILE_DEPTH are kept, one slot per triad (at most
2 047): ``_kept`` builds and checks a triad from its kept parent the
first time any caller asks for it, so ``iterate_triads`` and point
location (``_locate``) share each triad, whichever gets there first.
Point location reads the triad of each level off the kept tree by its
(level, index), steering by the sign of mu - mu(f), and composes nothing
there; past the kept tree it builds each triad with ``_child`` and drops
it.  Its input bounds it: past a middle of rank above the point's, no
tile holds the point.  The whole levels of the exceptional lattice
(``enumerate_to_level``) build no triad: one loop fetches each level's
middles with ``exceptional._middle``, as a walk does, kept in
``exceptional._mids`` down to level 11 and built and dropped past it.
The package's stores are ``exceptional._bundle``, ``exceptional._mids``,
``exceptional._owner``, this kept tree, and ``render``'s kept tile text
of its levels and frontier memo.  The middles of ``_mids`` and
of this tree are the same objects (``_bundle``'s cache interns them), but
the two stores stay apart: a walk that missed in a single store would
build a whole triad (five pairings) where it now makes one mutation,
which cost ``deep`` 16 % of its throughput.

A triad also holds one ``is_prioritary_sum`` verdict, that of (e, f, g)
(``Triad._prioritary``), which answers every splitting e^m + f^n + g^p
of the generic sheaves whose points it holds: the pairs of a splitting's
summands are among the triad's.  The first splitting on a triad sets it,
and nothing else does: building, rendering and locating leave it unset.
The multiplicities themselves are Euler pairings with the dual basis
(e, -h, g): the triad identities make the Gram matrix of (e, f, g)
unitriangular, and h = 3 rank(g) x(e) - x(f) pairs as chi(e,h) =
chi(g,h) = 0, chi(f,h) = -1.  In one round of the ``sweep``
benchmark (seed 3), 1 026 splittings land on 5 kept triads.

The Ext groups between exceptional bundles follow one slope rule
(Drezet-Le Potier): Ext^1 = Ext^2 = 0 towards a larger slope and Hom = 0
towards a smaller one.  With Serre duality, Ext^2(a, b) = Hom(b, a(-3))*,
it gives every dimension (``_ext2``, ``ext_dims``), line bundles included,
and ``is_prioritary_sum`` answers YES or NO on every sum.

Attached to each exceptional bundle f is a two-sided series (g_n): the
left initial pair is (O(c1-2), O(c1-1)) when f is a line bundle and
(g(-3), e) from the unique triad (e, f, g) otherwise, extended both ways
by ch(g_{n+1}) = c * ch(g_n) - ch(g_{n-1}) with constant c =
chi(g_0, g_1) = 3 * rank(f) (checked).  Every member satisfies
chi(f, g_n) = 0 (checked), and (mu(g_n), Delta(g_n)) converges to
(mu(f) - x_f, 1/2).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from itertools import count

from . import exceptional
from ._record import Record
from .chern import euler_pairing
from .errors import InternalInconsistencyError, NotCoveredError
from .exceptional import Dyadic, ExceptionalBundle


# The deepest tile level that ``iterate_triads`` keeps (levels 0..10 hold
# 2047 triads) and the deepest one the CLI renders.
MAX_TILE_DEPTH = 10

# The kept triad tree: level k at index k, as 2^k slots of which slot i
# holds triad (k, i) once ``_kept`` has built and checked it, else None.
# At most 2047 triads, never cleared.
_levels: list[list[Triad | None]] = [[None] * (1 << k) for k in range(MAX_TILE_DEPTH + 1)]


class Triad(Record):
    """Slope-ordered orthogonal triple with its tree position, and its tile.

    ``level``/``index`` place the triad in the binary tree over [-1, 0]:
    its slope bracket is the image of the dyadic interval
    [(index)/2^level - 1, (index+1)/2^level - 1].  ``h``, the kernel bundle
    of e x Hom(e,f) -> f that carries the bottom side of the tile, is
    derived from (e, f, g) once the triad identities hold.  ``_verdict``,
    the prioritary verdict of (e, f, g) (``_prioritary``), stays unset
    until the first splitting on the tile.
    """

    __slots__ = ("e", "f", "g", "level", "index", "h", "_verdict")
    _fields = __slots__[:5]

    def __init__(
        self,
        e: ExceptionalBundle,
        f: ExceptionalBundle,
        g: ExceptionalBundle,
        level: int,
        index: int,
    ) -> None:
        set_e, set_f, set_g, set_level, set_index, set_h, _ = __class__._setters
        set_e(self, e)
        set_f(self, f)
        set_g(self, g)
        set_level(self, level)
        set_index(self, index)
        if not (e.c1 * f.rank < f.c1 * e.rank and f.c1 * g.rank < g.c1 * f.rank):
            raise InternalInconsistencyError(f"triad slopes out of order: {e}, {f}, {g}")
        # The triad identities that every mutation carries to its children
        # (``exceptional``'s module docstring).
        for left, right, chi in ((f, e, 0), (g, f, 0), (g, e, 0), (e, f, 3 * g.rank), (f, g, 3 * e.rank)):
            if euler_pairing(left.chern, right.chern) != chi:
                raise InternalInconsistencyError(f"chi({left}, {right}) != {chi} in triad")
        # The mutation checks the Markov identity of (g, e, h), which is that
        # of (e, f, g), since r_h = 3 r_g r_e - r_f is the other root.
        set_h(self, exceptional._mutation(g, e, f))

    def label(self) -> str:
        return f"({self.e}, {self.f}, {self.g})"

    def _prioritary(self) -> TriState:
        """``is_prioritary_sum`` of (e, f, g), kept in ``_verdict``.  A
        splitting on the tile sums some of e, f, g, whose pairs are among
        the triad's, so a YES here holds for it; Ext^2 vanishing is
        invariant under a common twist, so it also holds for every twist."""
        try:
            return self._verdict
        except AttributeError:  # the first splitting on the tile sets the slot
            __class__._setters[-1](self, is_prioritary_sum([self.e, self.f, self.g]))
        return self._verdict

    def mid_dyadic(self) -> Dyadic:
        return Dyadic(2 * self.index + 1 - (1 << (self.level + 1)), self.level + 1)

    def side_ef(self, mu: Fraction) -> Fraction:
        return _side(self.g, 1, mu)

    def side_fg(self, mu: Fraction) -> Fraction:
        return _side(self.e, -1, mu)

    def side_eg(self, mu: Fraction) -> Fraction:
        return _side(self.h, -1, mu)

    def contains(self, mu: Fraction, disc: Fraction, strict: bool = False) -> bool:
        """Whether (mu, disc) lies in the closed tile (its interior if strict)."""
        import fractions

        mu, disc = fractions.Fraction(mu), fractions.Fraction(disc)
        n, d, a, b = mu.numerator, mu.denominator, disc.numerator, disc.denominator
        return self._contains(n, d, a, b, strict)

    def _contains(self, n: int, d: int, a: int, b: int, strict: bool) -> bool:
        """``contains`` at mu = n/d, disc = a/b with d, b > 0, in any terms:
        disc is compared with each side num/den by the sign of a*den - num*b,
        oriented towards the inside of the tile."""
        for x, sign, inward in ((self.g, 1, -1), (self.e, -1, -1), (self.h, -1, 1)):
            num, den = exceptional._conic_side(x, sign, n, d)
            gap = (a * den - num * b) * inward
            if gap < 0 or (strict and gap == 0):
                return False
        return True


def _side(x: ExceptionalBundle, sign: int, mu: Fraction) -> Fraction:
    """The side ``exceptional._conic_side`` of x at mu, as a Fraction."""
    import fractions

    return fractions.Fraction(*exceptional._conic_side(x, sign, mu.numerator, mu.denominator))


def root() -> Triad:
    e, g = exceptional._bundle(1, -1, 1), exceptional._bundle(1, 0, 0)
    return Triad(e, exceptional.compose(e, g), g, 0, 0)


def children(t: Triad) -> tuple[Triad, Triad]:
    """Left and right mutation children (``_child``)."""
    return _child(t, False), _child(t, True)


def _child(t: Triad, right: bool) -> Triad:
    """The right mutation child (f, k, g) of t if ``right``, else the left
    one (e, h', f).  Its middle is the mutation 3 rank(kept) x(f) -
    x(dropped) of t's middle, built as a walk's step builds it
    (``exceptional._build_middle``), and ``Triad``'s checks prove it the
    composition of its two ends, so nothing is composed."""
    e, g, far = (t.f, t.g, t.e) if right else (t.e, t.f, t.g)
    return Triad(e, exceptional._build_middle(right, e, g, far), g, t.level + 1, 2 * t.index + right)


def _kept(level: int, index: int) -> Triad:
    """Triad (level, index) of the kept tree, level <= MAX_TILE_DEPTH: built
    from its kept parent and checked the first time any caller asks for it,
    and kept only once its checks have passed."""
    t = _levels[level][index]
    if t is None:
        t = root() if level == 0 else _child(_kept(level - 1, index >> 1), index & 1)
        _levels[level][index] = t
    return t


def iterate_triads(max_level: int) -> Iterator[Triad]:
    """All triads with level <= max_level, in breadth-first order; a
    negative level raises ValueError at the call, as ``enumerate_to_level``
    and ``render``'s entry points do.

    Levels up to MAX_TILE_DEPTH are read off the kept tree, whose missing
    slots ``_kept`` fills on the way; deeper ones are built from the kept
    level MAX_TILE_DEPTH on each call and dropped.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    return _triads(max_level)


def _triads(max_level: int) -> Iterator[Triad]:
    """``iterate_triads`` of a level that it passed."""
    triads: list[Triad] = []
    for level in range(max_level + 1):
        if level <= MAX_TILE_DEPTH:
            triads = _levels[level]  # type: ignore[assignment]
            if None in triads:
                triads = [_kept(level, i) for i in range(1 << level)]
        else:
            triads = [c for t in triads for c in children(t)]
        yield from triads


def enumerate_to_level(level_max: int) -> list[ExceptionalBundle]:
    """All bundles at dyadic slopes p/2^q in [-1, 0] with q <= level_max,
    sorted by slope: O(-1) and O, then each level q inserts between each
    pair of neighbours, the images of p/2^q and (p + 1)/2^q, their middle
    ``exceptional._middle``, kept in its slot of ``exceptional._mids``
    down to level 11 and built and dropped past it: compose of the pair at
    level 0, and below, as in a walk, the mutation of the triad of the
    level above whose side the pair is.  It builds no triad."""
    if level_max < 0:
        raise ValueError(f"level_max must be >= 0, got {level_max}")
    bundles = [exceptional._bundle(1, -1, 1), exceptional._bundle(1, 0, 0)]
    for q in range(level_max):
        # Pair j is a side of the triad bundles[j : j + 3] (j even) or
        # bundles[j - 1 : j + 2] (j odd) of the level above: its third bundle.
        far = [(bundles[j - 1] if j & 1 else bundles[j + 2]) if q else None for j in range(1 << q)]
        mids = [exceptional._middle(j - (1 << q), q, *bundles[j : j + 2], far[j]) for j in range(1 << q)]
        bundles = [x for pair in zip(bundles, mids) for x in pair] + bundles[-1:]
    return bundles


def locate_triangle(mu: Fraction, disc: Fraction) -> Triad:
    """Shallowest tile containing (mu, disc), by root-first descent.

    Descends toward the child whose slope bracket contains mu; a point
    straight above a tile's top vertex is in no tile at all and raises
    NotCoveredError, and so does one in no tile whose middle has rank at
    most 2 b d^2, for (n/d, a/b) in lowest terms: at that rank the point is
    integral (``_locate``).
    """
    import fractions

    mu, disc = fractions.Fraction(mu), fractions.Fraction(disc)
    n, d, a, b = mu.numerator, mu.denominator, disc.numerator, disc.denominator
    if n < -d or n > 0:
        raise ValueError(f"slope {exceptional._ratio(n, d)} outside [-1, 0]")
    return _locate(n, d, a, b, 2 * b * d * d)


def _locate(n: int, d: int, a: int, b: int, bound: int) -> Triad:
    """``locate_triangle`` at mu = n/d in [-1, 0], disc = a/b with d, b > 0,
    in any terms, for a point integral at rank ``bound``.  The shallowest
    tile holding such a point has a middle of rank <= bound (the middle's
    multiplicity in its splitting is at least 1), and the middles' ranks
    rise, by at least 1 a level from 2 at the root, so a triad of larger
    middle raises NotCoveredError untested, by level ``bound`` - 1 at the
    latest: that rank test ends the descent.  Each level reads the triad it
    enters off the kept tree (``_kept``) and composes nothing; past it, each
    level builds its triad with ``_child`` and drops it."""
    t, index = None, 0
    for level in count():
        t = _kept(level, index) if level <= MAX_TILE_DEPTH else _child(t, index & 1)
        if t.f.rank > bound:
            raise NotCoveredError(f"({_point(n, d, a, b)}) is in no tile up to its rank")
        if t._contains(n, d, a, b, False):
            return t
        side = n * t.f.rank - t.f.c1 * d  # sign of mu - mu(f)
        if side == 0:
            raise NotCoveredError(
                f"({_point(n, d, a, b)}) sits above the vertex of {t.label()} and is not covered"
            )
        index = 2 * index + (side > 0)


def _point(n: int, d: int, a: int, b: int) -> str:
    """The point (n/d, a/b) for a walk message (``exceptional._ratio``)."""
    return f"{exceptional._ratio(n, d)}, {exceptional._ratio(a, b)}"


# -- series attached to an exceptional bundle ---------------------------


def left_series(
    f: ExceptionalBundle, n_min: int = 0, n_max: int = 2
) -> list[ExceptionalBundle]:
    """Members g_{n_min} .. g_{n_max} of the series attached to f.

    Recurrence on the integer character vectors ``ChernData._vec`` with
    constant c = chi(g_0, g_1) = 3 rank(f); every member is built from its
    recurrence vector (``exceptional._bundle`` checks it is exceptional)
    and must pair to zero against f.
    """
    return _series(f, None, n_min, n_max)


def _series(f: ExceptionalBundle, bracket, n_min: int, n_max: int) -> list[ExceptionalBundle]:
    """``left_series`` of f; ``bracket`` is the images of the neighbours of its
    dyadic (``exceptional._from_dyadic``), or None to descend for them.  That
    descent ends at the mid of rank f.rank, since the ranks of its mids
    rise."""
    if n_min > n_max:
        raise ValueError("n_min must be <= n_max")
    if f.rank == 1:
        g0, g1 = f.twist(-2), f.twist(-1)
    else:
        lo, hi = bracket or exceptional._descend(f.rank, f.c1)[2:]
        g0, g1 = hi.twist(-3), lo
    c = euler_pairing(g0.chern, g1.chern)
    if c != 3 * f.rank:
        raise InternalInconsistencyError(
            f"chi(g0, g1) = {c} != 3*rank({f}) for the series of {f}"
        )
    vecs = {0: g0.chern._vec, 1: g1.chern._vec}
    for n in range(1, n_max):
        vecs[n + 1] = tuple(c * a - b for a, b in zip(vecs[n], vecs[n - 1]))
    for n in range(0, n_min, -1):
        vecs[n - 1] = tuple(c * a - b for a, b in zip(vecs[n], vecs[n + 1]))
    out: list[ExceptionalBundle] = []
    for n in range(n_min, n_max + 1):
        bundle = exceptional._bundle(*vecs[n])
        if euler_pairing(f.chern, bundle.chern) != 0:
            raise InternalInconsistencyError(f"chi({f}, g_{n}) != 0")
        out.append(bundle)
    return out


def right_series(
    f: ExceptionalBundle, n_min: int = 0, n_max: int = 2
) -> list[ExceptionalBundle]:
    """Twist of the left series by O(3); limits at mu(f) + x_f."""
    return [b.twist(3) for b in left_series(f, n_min, n_max)]


# -- Ext dimensions between (twists of) exceptional bundles -------------


class ExtDims(Record):
    """dim Hom, Ext^1, Ext^2."""

    __slots__ = ("hom", "ext1", "ext2")

    def __init__(self, hom: int, ext1: int, ext2: int) -> None:
        set_hom, set_ext1, set_ext2 = __class__._setters
        set_hom(self, hom)
        set_ext1(self, ext1)
        set_ext2(self, ext2)


def _ext2(a: ExceptionalBundle, b: ExceptionalBundle) -> int:
    """dim Ext^2(a, b), by Serre duality Ext^2(a, b) = Hom(b, a(-3))* and
    one slope rule: between exceptional bundles, Ext^1 = Ext^2 = 0 towards
    a larger slope, and Hom = 0 towards a smaller one (Drezet-Le Potier).

    So Ext^2 is 0 when mu(b) > mu(a) - 3, which is gap + 3 r_a r_b > 0 for
    gap = c1_b r_a - c1_a r_b.  Otherwise Hom(b, a(-3)) is its own
    chi(b, a(-3)) = chi(a, b), and a negative value raises
    InternalInconsistencyError.  For line bundles this is h^0(O(-t-3)),
    t = c1_b - c1_a, since P(-3 - t) = P(t).
    """
    if b.c1 * a.rank - a.c1 * b.rank + 3 * a.rank * b.rank > 0:
        return 0
    chi = euler_pairing(a.chern, b.chern)
    if chi < 0:
        raise InternalInconsistencyError(f"dim Ext^2({a}, {b}) = chi = {chi} < 0")
    return chi


def ext_dims(a: ExceptionalBundle, b: ExceptionalBundle) -> ExtDims:
    """dim Hom, Ext^1, Ext^2 between exceptional bundles (a twist of one is
    again one).

    Ext^2 is ``_ext2``, and the slope rule makes one of Hom and Ext^1
    vanish: Ext^1 when mu(a) <= mu(b), Hom when mu(a) > mu(b), by the sign
    of gap = c1_b r_a - c1_a r_b.  The other one is read off
    chi(a, b) = hom - ext1 + ext2, and a negative value raises
    InternalInconsistencyError.  Equal slopes mean a = b, simple and
    rigid: (1, 0, 0); below mu(a) - 3 the answer is (0, 0, chi(a, b)).
    """
    ext2, chi = _ext2(a, b), euler_pairing(a.chern, b.chern)
    hom, ext1 = (chi - ext2, 0) if b.c1 * a.rank >= a.c1 * b.rank else (0, ext2 - chi)
    if hom < 0 or ext1 < 0:
        raise InternalInconsistencyError(
            f"chi({a}, {b}) = {chi} with ext2 {ext2} leaves a negative dimension"
        )
    return ExtDims(hom, ext1, ext2)


class TriState(enum.Enum):
    YES = "yes"
    NO = "no"


def is_prioritary_sum(
    summands: Sequence[ExceptionalBundle | tuple[ExceptionalBundle, int]]
) -> TriState:
    """Whether a direct sum of exceptional bundles is prioritary.

    The sum is prioritary iff Ext^2(A, B(-1)) = 0 (``_ext2``) for every
    ordered pair of summands, multiplicities being irrelevant: YES if so,
    NO otherwise.
    """
    bundles = [s[0] if isinstance(s, tuple) else s for s in summands]
    if not bundles:
        raise ValueError("empty summand list")
    twisted = [b.twist(-1) for b in bundles]
    return TriState.NO if any(_ext2(a, b) for a in bundles for b in twisted) else TriState.YES
