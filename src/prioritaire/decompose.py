"""Explicit splitting of the generic prioritary sheaf.

``generic_prioritary`` dispatches on the region of the normalized
invariants (rank, c1, c2):

* no prioritary sheaf: error.
* semistable with positive-dimensional moduli: region-only answer, the
  generic sheaf does not split.
* exceptional point: the generic sheaf is F^(rank/rank(F)).
* normalized (c1, c2) = (0, 1) with rank >= 2: O^(rank-2) plus the
  rank-2 extension of the ideal sheaf of a point by O.
* above the rigidity frontier but below the semistable one: an
  exceptional part F^p splits off, p = chi(F, .) or chi(., F) depending
  on the side of mu(F); the residual is a generic semistable sheaf
  sitting exactly on the semistability frontier and pairing to zero
  with F.  p * rank(F) < rank is asserted.
* below the rigidity frontier: the point lies in a unique triangle tile
  (e, f, g) and the generic sheaf is e^m + f^n + g^p, the multiplicities
  being the coordinates of ch(input) in the basis (e, f, g).  They are
  read off the Euler pairings with the dual basis, m = chi(input, e),
  n = -chi(input, h), p = chi(g, input) (the Gram matrix of (e, f, g)
  is unitriangular and h pairs to (0, -1, 0) with it), and the character
  balance below proves them.  A negative pairing is a point outside the
  tile.  The kept triad holds the prioritary verdict of each support,
  which no twist changes.

Each summand is built once, already twisted back by the normalization
twist, and the characters of the output must add up exactly to the
character of the input.

``stable_presentation`` gives the resolution of a generic semistable
sheaf sitting on the semistability frontier near an exceptional bundle
f: 0 -> E -> f^k + g0(3)^m2 -> g1(3)^m1 -> 0 with multiplicities read
off Euler pairings against the series of f.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import chern, exceptional, frontier, helix
from ._record import Record, _ratio
from .chern import ChernCharacter, ChernData, euler_pairing
from .errors import InternalInconsistencyError, NoPrioritarySheafError
from .exceptional import ExceptionalBundle
from .frontier import Region, RegionTag

KIND_EXCEPTIONAL = "exceptional"
KIND_GENERIC = "generic_semistable"
KIND_POINT_EXT = "point_ideal_extension"


class Summand(Record):
    """One direct summand of the generic sheaf.

    Exactly one payload is set: ``bundle`` for an exceptional summand,
    ``data`` for a generic semistable one; the point-ideal extension
    carries only its twist.
    """

    __slots__ = ("kind", "multiplicity", "bundle", "data", "twist")

    def __init__(
        self,
        kind: str,
        multiplicity: int,
        bundle: ExceptionalBundle | None = None,
        data: ChernData | None = None,
        twist: int = 0,
    ) -> None:
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {_ratio(multiplicity, 1)}")
        if kind not in (KIND_EXCEPTIONAL, KIND_GENERIC, KIND_POINT_EXT):
            raise ValueError(f"unknown summand kind {kind!r}")
        given = (bundle is not None, data is not None)
        if given != (kind == KIND_EXCEPTIONAL, kind == KIND_GENERIC):
            raise ValueError(
                f"a {kind} summand needs a bundle if exceptional, data if generic_semistable "
                f"and neither otherwise; got bundle={bundle}, data={data}"
            )
        set_kind, set_multiplicity, set_bundle, set_data, set_twist = __class__._setters
        set_kind(self, kind)
        set_multiplicity(self, multiplicity)
        set_bundle(self, bundle)
        set_data(self, data)
        set_twist(self, twist)

    def character(self) -> ChernCharacter:
        return self.chern_data().character()

    def chern_data(self) -> ChernData:
        if self.bundle is not None:
            return self.bundle.chern
        if self.data is not None:
            return self.data
        # The extension of the ideal of a point by O, (2, 0, 1), twisted.
        t = self.twist
        return ChernData(2, 2 * t, t * t + 1)

    def label(self) -> str:
        """The bundle's label, generic(r,c1,c2) or V(t); each term is written
        by ``_ratio``, so past _MAX_BITS it is named by its bit length."""
        if self.bundle is not None:
            return self.bundle.label()
        if self.data is not None:
            d = self.data
            return f"generic({_ratio(d.rank, 1)},{_ratio(d.c1, 1)},{_ratio(d.c2, 1)})"
        return f"V({_ratio(self.twist, 1)})" if self.twist else "V"


class Decomposition(Record):
    """Result record: region, summands (None when no splitting applies)
    and the verification trail of the checks performed.  Compares by
    identity, not by value."""

    __slots__ = ("input", "twist", "region", "summands", "verification")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        input: ChernData,
        twist: int,
        region: Region,
        summands: tuple[Summand, ...] | None,
        verification: dict | None = None,
    ) -> None:
        set_input, set_twist, set_region, set_summands, set_verification = __class__._setters
        set_input(self, input)
        set_twist(self, twist)
        set_region(self, region)
        set_summands(self, summands)
        set_verification(self, {} if verification is None else verification)

    def total_character(self) -> ChernCharacter | None:
        if self.summands is None:
            return None
        import fractions

        r, c1, x = _combine((s.multiplicity, s.chern_data()) for s in self.summands)
        return ChernCharacter(r, c1, fractions.Fraction(x, 2))


def _combine(terms: Iterable[tuple[int, ChernData]]) -> tuple[int, int, int]:
    """The vector ``ChernData._vec`` of the sum of m * ch(cd) over the terms (m, cd)."""
    r = c1 = x = 0
    for m, cd in terms:
        vr, vc1, vx = cd._vec
        r, c1, x = r + m * vr, c1 + m * vc1, x + m * vx
    return r, c1, x


def generic_prioritary(cd: ChernData) -> Decomposition:
    """Region and explicit splitting of the generic prioritary sheaf."""
    norm, k = chern.normalize(cd)
    region = frontier._classify_normalized(norm)
    if region.tag is RegionTag.NO_PRIORITARY:
        # The error writes its message only when it is read.
        raise NoPrioritarySheafError(cd, (norm.rank, norm.c1, norm.c2), region)
    verification: dict = {"normalization_twist": k, "region": region.tag.value}
    # The prioritary verdict of an all-exceptional splitting; None otherwise.
    verdict: helix.TriState | None = None

    if region.tag is RegionTag.SEMISTABLE_POSITIVE_DIM:
        verification["note"] = "semistable moduli positive-dimensional; generic sheaf does not split"
        return Decomposition(cd, k, region, None, verification)

    summands: list[Summand]
    if region.tag is RegionTag.SEMISTABLE_EXCEPTIONAL:
        f = region.witness
        mult = norm.rank // f.rank
        verification["rank_multiple"] = mult
        bundle = f.twist(-k)
        summands = [Summand(KIND_EXCEPTIONAL, mult, bundle=bundle)]
        verdict = helix.is_prioritary_sum([bundle])

    elif region.tag is RegionTag.SPECIAL_C0_C21:
        if norm.rank < 2:
            raise InternalInconsistencyError(f"special case with rank {norm.rank} < 2")
        summands = []
        if norm.rank > 2:
            summands.append(
                Summand(KIND_EXCEPTIONAL, norm.rank - 2, bundle=exceptional._bundle(1, -k, k * k))
            )
        else:
            verification["dropped_zero_multiplicity"] = "O"
        summands.append(Summand(KIND_POINT_EXT, 1, twist=-k))

    elif region.tag is RegionTag.ABOVE_DELTA_PRIME:
        f = region.witness
        left_side = norm.c1 * f.rank <= f.c1 * norm.rank  # mu <= mu(F)
        p = euler_pairing(f.chern, norm) if left_side else euler_pairing(norm, f.chern)
        if p <= 0:
            raise InternalInconsistencyError(f"exceptional multiplicity p = {p} <= 0")
        if p * f.rank >= norm.rank:
            raise InternalInconsistencyError(
                f"exceptional part F^{p} has rank {p * f.rank} >= {norm.rank}"
            )
        rr, rc1, rs = _combine(((1, norm), (-p, f.chern)))
        rc2, odd = divmod(rc1 * rc1 - rs, 2)
        if odd:
            raise InternalInconsistencyError(
                f"residual ({rr}, {rc1}) of {norm} - {f}^{p} has non-integral c2"
            )
        residual = ChernData(rr, rc1, rc2)
        # f owns the residual's slope (the intervals are disjoint, so no
        # other bundle's frontier applies there), and it sits on delta: both
        # from the one n and m of its frontier gaps.
        gap, _, n, m = frontier._frontier_gaps(rr, rc1, rc2, f)
        if not (exceptional._inside(n, m, rr * rr) and gap == 0):
            raise InternalInconsistencyError(
                f"residual {residual} is not on the semistability frontier"
            )
        orth = (
            euler_pairing(f.chern, residual) if left_side else euler_pairing(residual, f.chern)
        )
        if orth != 0:
            raise InternalInconsistencyError(f"residual not orthogonal to {f}: chi = {orth}")
        verification["p"] = p
        verification["side"] = "left" if left_side else "right"
        verification["residual_on_frontier"] = True
        verification["residual_orthogonal"] = True
        summands = [
            Summand(KIND_EXCEPTIONAL, p, bundle=f.twist(-k)),
            Summand(KIND_GENERIC, 1, data=chern.twist(residual, -k)),
        ]

    else:  # BELOW_DELTA_PRIME
        r, c1 = norm.rank, norm.c1
        t = helix._locate(c1, r, frontier._disc_num(r, c1, norm.c2), 2 * r * r, r)
        m = euler_pairing(norm, t.e.chern)
        n = -euler_pairing(norm, t.h.chern)
        p = euler_pairing(t.g.chern, norm)
        # Each pairing is the gap to one side of the tile, so a negative one
        # is the point outside it.
        if min(m, n, p) < 0:
            raise InternalInconsistencyError(
                f"negative multiplicity in {(m, n, p)}: the point is outside {t.label()}"
            )
        zeros = sum(1 for v in (m, n, p) if v == 0)
        if zeros > 1:
            raise InternalInconsistencyError(
                f"more than one vanishing multiplicity in {(m, n, p)} "
                f"at ({_ratio(c1, r)}, {_ratio(frontier._disc_num(r, c1, norm.c2), 2 * r * r)})"
            )
        verification["triangle"] = {"level": t.level, "index": t.index}
        verification["multiplicities"] = [m, n, p]
        verification["euler_cross_check"] = {"m": m, "n": n, "p": p}
        if zeros:
            verification["dropped_zero_multiplicities"] = zeros
        summands = [
            Summand(KIND_EXCEPTIONAL, mult, bundle=b.twist(-k))
            for mult, b in ((m, t.e), (n, t.f), (p, t.g))
            if mult > 0
        ]
        # The triad's verdict holds for every sum of its bundles and every twist.
        verdict = t._prioritary()

    result = Decomposition(cd, k, region, tuple(summands), verification)
    if _combine((s.multiplicity, s.chern_data()) for s in summands) != cd._vec:
        raise InternalInconsistencyError(
            f"summand characters {result.total_character()} do not add up to ch{cd}"
        )
    verification["character_balance"] = True
    if verdict is not None:
        if verdict is helix.TriState.NO:
            raise InternalInconsistencyError("exceptional direct sum is not prioritary")
        verification["prioritary_sum"] = verdict.value
    return result


class PresentationReport(Record):
    """Resolution data 0 -> E -> f^k + g0(3)^m2 -> g1(3)^m1 -> 0."""

    __slots__ = ("input", "f", "k", "m1", "m2", "g0_3", "g1_3")

    def __init__(
        self,
        input: ChernData,
        f: ExceptionalBundle,
        k: int,
        m1: int,
        m2: int,
        g0_3: ExceptionalBundle,
        g1_3: ExceptionalBundle,
    ) -> None:
        set_input, set_f, set_k, set_m1, set_m2, set_g0_3, set_g1_3 = __class__._setters
        set_input(self, input)
        set_f(self, f)
        set_k(self, k)
        set_m1(self, m1)
        set_m2(self, m2)
        set_g0_3(self, g0_3)
        set_g1_3(self, g1_3)

    def describe(self) -> str:
        return (
            f"0 -> E -> {self.f.label()}^{self.k} + {self.g0_3.label()}^{self.m2} "
            f"-> {self.g1_3.label()}^{self.m1} -> 0"
        )


def stable_presentation(cd: ChernData, f: ExceptionalBundle) -> PresentationReport:
    """Presentation of the generic semistable sheaf on the frontier.

    Requires rank >= 2, mu(f) - x_f < mu <= mu(f), and the discriminant
    exactly on the semistability frontier; the degenerate case of the
    invariants of f itself is also accepted.  Multiplicities come from
    Euler pairings against the series of f and must balance the Chern
    character of the input exactly.  f owning the slope, the frontier test
    needs no descent.
    """
    r, c1, c2 = cd.rank, cd.c1, cd.c2
    if r < 2:
        raise ValueError(f"rank {r} < 2")
    # The messages write their terms through _ratio: no int-to-str limit applies.
    if c1 * f.rank > f.c1 * r:
        raise ValueError(f"slope {_ratio(c1, r)} right of mu(f) = {_ratio(f.c1, f.rank)}")
    gap, _, n, m = frontier._frontier_gaps(r, c1, c2, f)
    if not exceptional._inside(n, m, r * r):
        raise ValueError(f"slope {_ratio(c1, r)} outside the interval of {f}")
    if not (gap == 0 or frontier._at_exceptional_point(r, c1, c2, f)):
        raise ValueError(
            f"discriminant {_ratio(frontier._disc_num(r, c1, c2), 2 * r * r)} "
            f"not on the semistability frontier at {_ratio(c1, r)}"
        )
    g0, g1, g2 = helix.left_series(f, 0, 2)
    k = euler_pairing(cd, f.chern)
    m1 = -euler_pairing(g1.twist(3).chern, cd)
    m2 = -euler_pairing(g2.twist(3).chern, cd)
    if k < 0 or m1 < 0 or m2 < 0:
        raise InternalInconsistencyError(f"negative presentation multiplicity ({k}, {m1}, {m2})")
    g0_3, g1_3 = g0.twist(3), g1.twist(3)
    balance = _combine(((k, f.chern), (m2, g0_3.chern), (-m1, g1_3.chern)))
    if balance != cd._vec:
        raise InternalInconsistencyError(
            f"presentation characters {balance} do not balance {cd._vec}"
        )
    return PresentationReport(cd, f, k, m1, m2, g0_3, g1_3)
