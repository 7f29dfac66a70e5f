"""Triads of exceptional bundles, their triangle tiles, and series.

A triad (e, f, g) is a slope-ordered triple of exceptional bundles that
is pairwise orthogonal in one direction: chi(f,e) = chi(g,f) = chi(g,e)
= 0.  The root triad is (O(-1), E(-1/2), O); every other one arises by
repeated mutation.  The left child of (e, f, g) is (e, h', f) with h'
the kernel bundle of the evaluation f x Hom(f,g) -> g, and the right
child is (f, k, g) with k the cokernel of e -> f x Hom(e,f)*.  Ranks and
first Chern classes follow the mutation bookkeeping

    rank(h') = rank(f)*chi(f,g) - rank(g),   c1(h') = chi(f,g)*c1(f) - c1(g)

and every produced middle is cross-checked against ``compose`` of its
two ends, an independent integer route; the two must agree.

Each triad owns a curvilinear triangle in the (mu, Delta) plane:

    Delta <= P(mu - mu(g)) - Delta(g)     side through vertices e and f
    Delta <= P(mu(e) - mu) - Delta(e)     side through vertices f and g
    Delta >= P(mu(h) - mu) - Delta(h)     side through vertices e and g

where h is the kernel bundle of e x Hom(e,f) -> f.  The bottom side is
taken with argument mu(h) - mu so that it passes exactly through the
vertices e and g; all three sides are vanishing loci of Euler pairings
against a fixed bundle.  Tiles are closed; point location descends from
the root and returns the shallowest containing tile.

Attached to each exceptional bundle f is a two-sided series (g_n): the
left initial pair is (O(c1-2), O(c1-1)) when f is a line bundle and
(g(-3), e) from the unique triad (e, f, g) otherwise, extended both ways
by ch(g_{n+1}) = c * ch(g_n) - ch(g_{n-1}) with constant c =
chi(g_0, g_1) = 3 * rank(f).  Every member satisfies chi(f, g_n) = 0,
and (mu(g_n), Delta(g_n)) converges to (mu(f) - x_f, 1/2).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from fractions import Fraction

from . import exceptional
from ._record import Record
from .chern import euler_pairing
from .errors import DepthExhaustedError, InternalInconsistencyError, NotCoveredError
from .exceptional import Dyadic, ExceptionalBundle, max_depth_default


def _mutation(a: ExceptionalBundle, b: ExceptionalBundle, chi: int) -> ExceptionalBundle:
    """The bundle of rank rank(a)*chi - rank(b) and c1 chi*c1(a) - c1(b),
    where chi is the Euler pairing of the mutated pair (three times a rank,
    by the triad identities)."""
    return exceptional._bundle(a.rank * chi - b.rank, chi * a.c1 - b.c1)


class Triad(Record):
    """Slope-ordered orthogonal triple with its tree position.

    ``h`` is the kernel bundle of e x Hom(e,f) -> f, which carries the
    bottom side of the triangle.  ``level``/``index`` place the triad in
    the binary tree over [-1, 0]: its slope bracket is the image of the
    dyadic interval [(index)/2^level - 1, (index+1)/2^level - 1].
    """

    __slots__ = ("e", "f", "g", "h", "level", "index")

    def __init__(
        self,
        e: ExceptionalBundle,
        f: ExceptionalBundle,
        g: ExceptionalBundle,
        h: ExceptionalBundle,
        level: int,
        index: int,
    ) -> None:
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "index", index)
        if not (e.c1 * f.rank < f.c1 * e.rank and f.c1 * g.rank < g.c1 * f.rank):
            raise InternalInconsistencyError(f"triad slopes out of order: {e}, {f}, {g}")
        for left, right in ((f, e), (g, f), (g, e)):
            if euler_pairing(left.chern, right.chern) != 0:
                raise InternalInconsistencyError(f"chi({left}, {right}) != 0 in triad")
        re_, rf, rg = e.rank, f.rank, g.rank
        if re_ * re_ + rf * rf + rg * rg != 3 * re_ * rf * rg:
            raise InternalInconsistencyError(f"Markov identity fails for ranks {re_},{rf},{rg}")
        if euler_pairing(e.chern, f.chern) != 3 * rg:
            raise InternalInconsistencyError(f"chi(e,f) != 3*rank(g) in {self.label()}")
        if euler_pairing(f.chern, g.chern) != 3 * re_:
            raise InternalInconsistencyError(f"chi(f,g) != 3*rank(e) in {self.label()}")

    def label(self) -> str:
        return f"({self.e}, {self.f}, {self.g})"

    def mid_dyadic(self) -> Dyadic:
        return Dyadic(2 * self.index + 1 - (1 << (self.level + 1)), self.level + 1)

    def triangle(self) -> "Triangle":
        return Triangle(self)


class Triangle(Record):
    """The closed curvilinear tile attached to a triad."""

    __slots__ = ("triad",)

    def __init__(self, triad: Triad) -> None:
        object.__setattr__(self, "triad", triad)

    def side_ef(self, mu: Fraction) -> Fraction:
        return Fraction(*exceptional._conic_side(self.triad.g, 1, mu.numerator, mu.denominator))

    def side_fg(self, mu: Fraction) -> Fraction:
        return Fraction(*exceptional._conic_side(self.triad.e, -1, mu.numerator, mu.denominator))

    def side_eg(self, mu: Fraction) -> Fraction:
        return Fraction(*exceptional._conic_side(self.triad.h, -1, mu.numerator, mu.denominator))

    def contains(self, mu: Fraction, disc: Fraction, strict: bool = False) -> bool:
        """Whether (mu, disc) lies in the closed tile (its interior if strict)."""
        mu, disc = Fraction(mu), Fraction(disc)
        n, d, a, b = mu.numerator, mu.denominator, disc.numerator, disc.denominator
        return _inside(self.triad, n, d, a, b, strict)


def _inside(t: Triad, n: int, d: int, a: int, b: int, strict: bool) -> bool:
    """``Triangle.contains`` at mu = n/d, disc = a/b with d, b > 0, in any
    terms: disc is compared with each side num/den by the sign of
    a*den - num*b, oriented towards the inside of the tile."""
    for x, sign, inward in ((t.g, 1, -1), (t.e, -1, -1), (t.h, -1, 1)):
        num, den = exceptional._conic_side(x, sign, n, d)
        gap = (a * den - num * b) * inward
        if gap < 0 or (strict and gap == 0):
            return False
    return True


def _make_triad(
    e: ExceptionalBundle, f: ExceptionalBundle, g: ExceptionalBundle, level: int, index: int
) -> Triad:
    # The middle must be the composition of the two ends.
    composed = exceptional.compose(e, g)
    if composed.rank != f.rank or composed.c1 != f.c1:
        raise InternalInconsistencyError(
            f"middle mismatch at level {level}, index {index}: {f} vs {composed}"
        )
    # h is the kernel of e x Hom(e, f) -> f, and chi(e, f) = 3 rank(g)
    # in a triad; Triad.__init__ verifies that identity.
    return Triad(e, f, g, _mutation(e, f, 3 * g.rank), level, index)


def root() -> Triad:
    e, g = exceptional._bundle(1, -1), exceptional._bundle(1, 0)
    return _make_triad(e, exceptional.compose(e, g), g, 0, 0)


def _child(t: Triad, right: bool) -> Triad:
    """The right or left mutation child, its middle double-checked; chi(f, g) =
    3 rank(e) and chi(e, f) = 3 rank(g) are verified in t and again in the child."""
    level, index = t.level + 1, 2 * t.index
    if right:
        return _make_triad(t.f, _mutation(t.f, t.e, 3 * t.g.rank), t.g, level, index + 1)
    return _make_triad(t.e, _mutation(t.f, t.g, 3 * t.e.rank), t.f, level, index)


def children(t: Triad) -> tuple[Triad, Triad]:
    """Left and right mutation children (``_child``)."""
    return _child(t, False), _child(t, True)


def iterate_triads(max_level: int) -> Iterator[Triad]:
    """All triads with level <= max_level, in breadth-first order."""
    frontier = [root()]
    for level in range(max_level + 1):
        next_frontier: list[Triad] = []
        for t in frontier:
            yield t
            if level < max_level:
                next_frontier.extend(children(t))
        frontier = next_frontier


def locate_triangle(mu: Fraction, disc: Fraction, max_depth: int | None = None) -> Triad:
    """Shallowest tile containing (mu, disc), by root-first descent.

    Descends toward the child whose slope bracket contains mu; a point
    straight above a tile's top vertex is in no tile at all and raises
    NotCoveredError.  Past ``max_depth`` levels it raises
    DepthExhaustedError with the ends (e, g) of the last triad tested.
    """
    mu, disc = Fraction(mu), Fraction(disc)
    return _locate(mu.numerator, mu.denominator, disc.numerator, disc.denominator, max_depth)


def _locate(n: int, d: int, a: int, b: int, max_depth: int | None) -> Triad:
    """``locate_triangle`` at mu = n/d, disc = a/b with d, b > 0, in any
    terms; it builds one triad per level, the child it enters."""
    if n < -d or n > 0:
        raise ValueError(f"slope {Fraction(n, d)} outside [-1, 0]")
    cap = max_depth if max_depth is not None else max_depth_default()
    t = root()
    while not _inside(t, n, d, a, b, False):
        side = n * t.f.rank - t.f.c1 * d  # sign of mu - mu(f)
        if side == 0:
            raise NotCoveredError(
                f"({Fraction(n, d)}, {Fraction(a, b)}) sits above the vertex of {t.label()} "
                "and is not covered"
            )
        if t.level >= cap:
            raise DepthExhaustedError(
                f"no tile found for ({Fraction(n, d)}, {Fraction(a, b)}) within depth {cap}",
                bracket=(t.e, t.g),
            )
        t = _child(t, side > 0)
    return t


# -- series attached to an exceptional bundle ---------------------------


def left_series(
    f: ExceptionalBundle, n_min: int = 0, n_max: int = 2
) -> list[ExceptionalBundle]:
    """Members g_{n_min} .. g_{n_max} of the series attached to f.

    Recurrence on the integer character vectors ``ChernData._vec`` with
    constant c = chi(g_0, g_1); every member is rebuilt from its rank and
    c1 and must reproduce the recurrence vector exactly, and must pair
    to zero against f.
    """
    return _series(f, None, n_min, n_max)


def _series(f: ExceptionalBundle, bracket, n_min: int, n_max: int) -> list[ExceptionalBundle]:
    """``left_series`` of f; ``bracket`` is the images of the neighbours of its
    dyadic (``exceptional._from_dyadic``), or None to descend for them."""
    if n_min > n_max:
        raise ValueError("n_min must be <= n_max")
    if f.rank == 1:
        g0, g1 = exceptional._bundle(1, f.c1 - 2), exceptional._bundle(1, f.c1 - 1)
    else:
        lo, hi = exceptional._descend(f, None)[1:] if bracket is None else bracket
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
        x = vecs[n]
        bundle = exceptional._bundle(x[0], x[1])
        if bundle.chern._vec != x:
            raise InternalInconsistencyError(
                f"series member {n} of {f}: character vector {x} is not exceptional"
            )
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
    """dim Hom, Ext^1, Ext^2; None marks a dimension the rules leave open."""

    __slots__ = ("hom", "ext1", "ext2")

    def __init__(self, hom: int | None, ext1: int | None, ext2: int | None) -> None:
        object.__setattr__(self, "hom", hom)
        object.__setattr__(self, "ext1", ext1)
        object.__setattr__(self, "ext2", ext2)


def _h0_line(k: int) -> int:
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


def ext_dims(a: ExceptionalBundle, b: ExceptionalBundle) -> ExtDims:
    """Ext dimensions from slope-based vanishing plus chi completion.

    Rules (exceptional bundles only; a twist of an exceptional bundle is
    again one): a bundle is simple and rigid against itself; Hom
    vanishes when mu(a) > mu(b); Ext^1 vanishes when mu(a) <= mu(b);
    Ext^2(a, b) is Hom(b, a(-3)) by duality; line-bundle pairs get exact
    cohomology.  A single missing dimension is recovered from
    chi = hom - ext1 + ext2 when the result is nonnegative; anything
    else stays None.  Slopes are compared by the sign of
    gap = c1_b r_a - c1_a r_b, that of mu(b) - mu(a).
    """
    gap = b.c1 * a.rank - a.c1 * b.rank
    if gap == 0:
        return ExtDims(1, 0, 0)
    if a.rank == 1 and b.rank == 1:
        k = b.c1 - a.c1
        return ExtDims(_h0_line(k), 0, _h0_line(-3 - k))
    hom: int | None = None
    ext1: int | None = None
    ext2: int | None = None
    if gap < 0:
        hom = 0
    else:
        ext1 = 0
    # Serre duality: Ext^2(a, b) = Hom(b, a(-3))*; mu(b) - mu(a) + 3 has
    # the sign of gap + 3 r_a r_b.
    beyond = gap + 3 * a.rank * b.rank
    if beyond > 0:
        ext2 = 0
    elif beyond == 0:
        ext2 = 1 if (b.rank, b.c1) == (a.rank, a.c1 - 3 * a.rank) else 0
    chi = euler_pairing(a.chern, b.chern)
    dims = [hom, ext1, ext2]
    missing = [i for i, v in enumerate(dims) if v is None]
    if len(missing) == 1:
        signs = (1, -1, 1)
        i = missing[0]
        residue = chi - sum(s * v for s, v in zip(signs, dims) if v is not None)
        candidate = residue * signs[i]
        if candidate >= 0:
            dims[i] = candidate
    elif not missing and dims[0] - dims[1] + dims[2] != chi:  # type: ignore[operator]
        raise InternalInconsistencyError(
            f"ext dims {dims} inconsistent with chi({a}, {b}) = {chi}"
        )
    return ExtDims(dims[0], dims[1], dims[2])


class TriState(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def is_prioritary_sum(
    summands: Sequence[ExceptionalBundle | tuple[ExceptionalBundle, int]]
) -> TriState:
    """Whether a direct sum of exceptional bundles is prioritary.

    The sum is prioritary iff Ext^2(A, B(-1)) = 0 for every ordered pair
    of summands, multiplicities being irrelevant.  Verdicts: NO if some
    pair has a known positive Ext^2, UNKNOWN if some pair is undecided,
    YES otherwise.
    """
    bundles = [s[0] if isinstance(s, tuple) else s for s in summands]
    if not bundles:
        raise ValueError("empty summand list")
    verdict = TriState.YES
    for a in bundles:
        for b in bundles:
            d2 = ext_dims(a, b.twist(-1)).ext2
            if d2 is None:
                if verdict is TriState.YES:
                    verdict = TriState.UNKNOWN
            elif d2 > 0:
                return TriState.NO
    return verdict
