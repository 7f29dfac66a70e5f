"""The exceptional-bundle lattice and its dyadic parametrization.

Slope values below were computed by hand from the midpoint law
gamma = (alpha+beta)/2 - (Delta_alpha - Delta_beta)/(3 + alpha - beta),
then confirmed by the orthogonality conditions chi(gamma, alpha) =
chi(beta, gamma) = 0.
"""

import fractions
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prioritaire.exceptional as ex
from prioritaire import chern, frontier, helix
from prioritaire.chern import ChernData, euler_pairing, hirzebruch_p
from prioritaire.errors import (
    DepthExhaustedError,
    InternalInconsistencyError,
    NoPrioritarySheafError,
    NotCoveredError,
    ParseError,
)
from prioritaire.exceptional import (
    Dyadic,
    compose,
    dyadic_of,
    from_dyadic,
    from_slope,
    locate_exceptional,
    locate_many,
    parse_dyadic,
)
from prioritaire.frontier import RegionTag
from prioritaire.helix import enumerate_to_level
from prioritaire.surd import QuadSurd


def _vector(r, c1):
    """(r, c1, c1^2 - 2 c2) with c2 the (floored) exceptional c2 formula,
    the vector ``_bundle`` takes."""
    return r, c1, c1 * c1 - 2 * ((r - 1) * (r + 1 + c1 * c1) // (2 * r))


def test_dyadic_normalization():
    assert Dyadic(2, 3) == Dyadic(1, 2)
    assert Dyadic(-4, 2) == Dyadic(-1, 0)
    assert Dyadic(0, 5) == Dyadic(0, 0)
    assert Dyadic(-3, 2).value() == Fraction(-3, 4)
    # One shift by the lowest set bit of p, however many factors of two.
    assert (Dyadic(0, 10**9).p, Dyadic(0, 10**9).q) == (0, 0)
    assert Dyadic(3 << 200000, 200001) == Dyadic(3, 1)
    assert Dyadic(-12, 4) == Dyadic(-3, 2)
    assert Dyadic(-3 << 50, 50) == Dyadic(-3, 0)
    assert Dyadic(-(1 << 70), 3) == Dyadic(-(1 << 67), 0)
    assert (Dyadic(-5, 7).p, Dyadic(-5, 7).q) == (-5, 7)


def test_dyadic_neighbors():
    lo, hi = Dyadic(-1, 1).neighbors()
    assert (lo, hi) == (Dyadic(-1, 0), Dyadic(0, 0))
    lo, hi = Dyadic(-3, 3).neighbors()
    assert (lo.value(), hi.value()) == (Fraction(-1, 2), Fraction(-1, 4))


def test_parse_dyadic_forms():
    assert parse_dyadic("-3/2^2") == Dyadic(-3, 2)
    assert parse_dyadic("-3/4") == Dyadic(-3, 2)
    assert parse_dyadic("-0.75") == Dyadic(-3, 2)
    assert parse_dyadic("0") == Dyadic(0, 0)
    with pytest.raises(ParseError):
        parse_dyadic("1/3")
    with pytest.raises(ParseError):
        parse_dyadic("2^3")


SLOPE_TABLE = {
    "0": Fraction(0),
    "-1": Fraction(-1),
    "-1/2": Fraction(-1, 2),
    "-1/4": Fraction(-2, 5),
    "-3/4": Fraction(-3, 5),
    "-1/8": Fraction(-5, 13),
    "-3/8": Fraction(-12, 29),
    "-5/8": Fraction(-17, 29),
    "-7/8": Fraction(-8, 13),
}


def test_slope_map_table():
    for text, slope in SLOPE_TABLE.items():
        assert from_dyadic(parse_dyadic(text)).slope == slope


def test_slope_map_symmetry():
    # The map intertwines the two mirror symmetries x -> -1-x, and on the
    # bundles the mirror is the dual twisted by -1.
    for q in range(1, 9):
        for p in range(-(1 << q) + 1, 0):
            d = Dyadic(p, q)
            mirror = Dyadic(-(1 << q) - p, q)
            assert from_dyadic(mirror).slope == -1 - from_dyadic(d).slope
            assert from_dyadic(d).dual().twist(-1) == from_dyadic(mirror)


def test_from_slope_invariants():
    f = from_slope(Fraction(-2, 5))
    assert (f.rank, f.c1, f.c2) == (5, -2, 4)
    assert f.delta == Fraction(12, 25)
    g = from_slope(Fraction(-5, 13))
    assert (g.rank, g.c1, g.c2) == (13, -5, 18)
    assert euler_pairing(g.chern, g.chern) == 1


def test_from_slope_rejects_non_exceptional():
    with pytest.raises(ValueError):
        from_slope(Fraction(-1, 3))
    with pytest.raises(ValueError):
        from_slope(Fraction(-1, 4))


def test_compose_orthogonality_spot():
    a = from_slope(Fraction(-1, 2))
    b = from_slope(Fraction(0))
    c = compose(a, b)
    assert c.slope == Fraction(-2, 5)
    assert euler_pairing(c.chern, a.chern) == 0
    assert euler_pairing(b.chern, c.chern) == 0
    with pytest.raises(ValueError):
        compose(b, a)


def _paper_compose(a, b):
    """The paper's composition law in Fractions, the reference for compose."""
    alpha, beta = a.slope, b.slope
    return (alpha + beta) / 2 - (a.delta - b.delta) / (3 + alpha - beta)


def test_integer_compose_matches_the_paper_formula():
    # Every neighbour pair to level 10.  Each level is built from the
    # formula, so compose never supplies its own reference.
    level = [from_slope(Fraction(-1)), from_slope(Fraction(0))]
    for _ in range(10):
        deeper = level[:1]
        for a, b in zip(level, level[1:]):
            expected = from_slope(_paper_compose(a, b))
            assert compose(a, b) == expected
            deeper += (expected, b)
        level = deeper
    assert len(level) == 2**10 + 1
    assert level == enumerate_to_level(10)


def test_compose_guards():
    o_minus, o = from_slope(Fraction(-1)), from_slope(Fraction(0))
    with pytest.raises(ValueError, match="slope\\(a\\) < slope\\(b\\)"):
        compose(o, o)
    with pytest.raises(ValueError, match="too wide"):
        compose(o.twist(-3), o)
    assert compose(o_minus.twist(-1), o_minus.twist(1)) == from_slope(Fraction(-1))
    # O(-1) is orthogonal between E(-3/2) and O, but the two are not
    # neighbours (chi(O, E(-3/2)) != 0): a caller's error, not a fault.
    with pytest.raises(ValueError, match="not neighbours"):
        compose(from_slope(Fraction(-3, 2)), o)


def test_compose_refuses_every_non_neighbour_pair():
    # Every ordered pair with 0 < gap < 3 among the level-4 slopes and
    # their translates -2..1: compose answers the paper's formula exactly
    # on the pairs with chi(b, a) = 0 and raises ValueError on the rest.
    keys = {b.twist(k) for b in enumerate_to_level(4) for k in range(-2, 2)}
    bundles = sorted(keys, key=lambda b: b.slope)
    answered = refused = 0
    for a in bundles:
        for b in bundles:
            if not 0 < b.slope - a.slope < 3:
                continue
            if euler_pairing(b.chern, a.chern) == 0:
                assert compose(a, b) == from_slope(_paper_compose(a, b))
                answered += 1
            else:
                with pytest.raises(ValueError, match="not neighbours"):
                    compose(a, b)
                refused += 1
    assert (len(bundles), answered, refused) == (65, 165, 1762)


def _neighbour_pairs(level):
    bundles = enumerate_to_level(level)
    return list(zip(bundles, bundles[1:]))


def _fars(level):
    """The third bundle of the triad of the level above, of which each
    bracket of a level >= 1 is a side: as a walk carries it."""
    b = enumerate_to_level(level)
    return [b[i - 1] if i % 2 else b[i + 2] for i in range(1 << level)]


def test_a_middle_slot_returns_the_checked_bundle(monkeypatch):
    pairs, fars = _neighbour_pairs(8), _fars(8)
    monkeypatch.setattr(ex, "_mids", [None] * len(ex._mids))
    mutated = _counting(monkeypatch, ex, "_mutation")
    first = [ex._middle(i - 256, 8, *pair, far) for i, (pair, far) in enumerate(zip(pairs, fars))]
    assert first == [compose(a, b) for a, b in pairs]
    # One mutation a miss.  Only level 9's slots, 2^8 - 1 + i for bracket
    # (8, i), are filled, each with the very object it returned, and a hit
    # reads its slot without building anything.
    assert len(mutated) == 1 << 8
    assert sum(m is not None for m in ex._mids) == 1 << 8
    assert all(ex._mids[255 + i] is mid for i, mid in enumerate(first))
    assert all(ex._middle(i - 256, 8, None, None, None) is mid for i, mid in enumerate(first))
    assert len(mutated) == 1 << 8
    assert all(x is y for x, y in zip(enumerate_to_level(9)[1::2], first))


def _counting(monkeypatch, module, name):
    """The arguments of every call of module.name from now on."""
    calls, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def _triad_pairs(lo, mid, hi):
    return (mid, lo), (hi, mid), (hi, lo), (lo, mid), (mid, hi), (lo, hi)


def _oracle_walk(start, cap, side, fetched):
    """A walk of ``cap`` levels from [O(start), O(start + 1)] steered by
    side(), each middle checked against compose of its bracket's ends; the
    middles in the order met."""
    mids = []

    def steer(lo, mid, hi):
        assert mid == compose(lo, hi), (lo, hi)
        # The six triad identities that carry the vanishings from one level
        # to the next (exceptional's module docstring).
        pairings = [euler_pairing(a.chern, b.chern) for a, b in _triad_pairs(lo, mid, hi)]
        assert pairings == [0, 0, 0, 3 * hi.rank, 3 * lo.rank, 9 * lo.rank * hi.rank - 3 * mid.rank]
        mids.append(mid)
        return side()

    with pytest.raises(DepthExhaustedError):
        ex._walk(steer, lambda: "oracle", cap, start)
    assert len(fetched) == len(mids) == cap
    fetched.clear()
    return mids


def test_every_walk_step_is_the_composition_of_its_bracket(monkeypatch, fresh_lattice):
    # The oracle of the mutation step: at every level of 300 seeded random
    # walks to depth 16, both ways, from [O(-1), O] and from translated
    # brackets, the middle that the walk fetched is compose(lo, hi).  Past
    # level 0, a walk composes nothing.
    rng = random.Random(36)
    fetched = _counting(monkeypatch, ex, "_middle")
    composed = _counting(monkeypatch, ex, "compose")
    walks = {}
    for _ in range(300):
        start = rng.choice((-1, -1, rng.randint(-5, 4)))
        path = [rng.choice((-1, 1)) for _ in range(16)]
        composed.clear()
        level0 = start != -1 or ex._mids[0] is None  # no kept middle of level 0
        walks[start, tuple(path)] = _oracle_walk(start, 16, iter(path).__next__, fetched)
        assert len(composed) == level0
    # A second pass reads the kept middles of [-1, 0] and mutates the others:
    # the same middles.
    for (start, path), mids in walks.items():
        assert _oracle_walk(start, 16, iter(path).__next__, fetched) == mids
    assert sum(m is not None for m in ex._mids) > 300
    # A one-sided chain of 1 000 steps each way, past every kept slot.
    for side in (-1, 1):
        mids = _oracle_walk(-1, 1000, lambda: side, fetched)
        assert mids[-1].rank.bit_length() > 1000


def test_the_markov_check_refuses_a_corrupted_rank():
    # The one mutation checks the Markov identity of the triad it makes, in
    # integers, before it builds a bundle: a rank off by one in any of the
    # three inputs is refused.
    from types import SimpleNamespace

    lo, mid, hi = enumerate_to_level(1)
    assert ex._mutation(lo, mid, hi) == compose(lo, mid) == from_slope(Fraction(-3, 5))

    def corrupted(f):
        r, c1, x2 = f.chern._vec
        return SimpleNamespace(rank=r + 1, chern=SimpleNamespace(_vec=(r + 1, c1, x2)))

    for args in ((corrupted(lo), mid, hi), (lo, corrupted(mid), hi), (lo, mid, corrupted(hi))):
        with pytest.raises(InternalInconsistencyError, match=r"^Markov identity fails for ranks "):
            ex._mutation(*args)


def test_a_refused_pair_leaves_every_slot_empty(monkeypatch):
    # Every ordered pair of level 6 that is not a neighbour pair (a < b and
    # chi(b, a) = 0) is refused twice at the slot of [-1, 0], each time by a
    # compose that runs the checks.
    bundles = enumerate_to_level(6)
    refused = [
        (a, b)
        for a in bundles
        for b in bundles
        if a.slope >= b.slope or euler_pairing(b.chern, a.chern) != 0
    ]
    monkeypatch.setattr(ex, "_mids", [None] * len(ex._mids))
    for a, b in refused:
        for _ in range(2):
            with pytest.raises(ValueError):
                ex._middle(-1, 0, a, b, None)
    assert len(refused) > 3000
    assert ex._mids == [None] * 2047


def test_a_failing_vanishing_check_leaves_every_slot_empty(monkeypatch, fresh_lattice):
    # With every store empty, a fault in the Euler pairing between two
    # distinct bundles is caught by compose's own vanishings, and no slot
    # keeps the unchecked middle.
    original = chern.euler_pairing
    monkeypatch.setattr(chern, "euler_pairing", lambda a, b: original(a, b) + (a is not b))
    with pytest.raises(InternalInconsistencyError, match=r"^chi\(E\(-1/2\), O\(-1\)\) != 0$"):
        from_dyadic(Dyadic(-1, 1))
    with pytest.raises(InternalInconsistencyError, match=r"^chi\(E\(-1/2\), O\(-1\)\) != 0$"):
        enumerate_to_level(3)
    assert ex._mids == [None] * 2047
    monkeypatch.setattr(chern, "euler_pairing", original)
    assert from_dyadic(Dyadic(-1, 1)) == from_slope(Fraction(-1, 2)) == ex._mids[0]


def test_constructor_raises_inconsistency():
    for rank, c1 in ((0, 1), (-2, 1), (2, 0), (6, -3), (3, -1), (3, 1)):
        # The trusted builder: a rank below 1, an odd c1^2 - x2, or chi(F,F)
        # != 1 at the floored c2 is a fault of the package.
        x2 = _vector(rank, c1)[2] if rank else c1 * c1
        for bad in (x2, x2 + 1):
            with pytest.raises(InternalInconsistencyError):
                ex._bundle(rank, c1, bad)
        # The public constructor is the boundary for outside input.
        with pytest.raises(ValueError, match="is not positive|c2 not integral"):
            ex.ExceptionalBundle(rank, c1)
    # from_slope is the boundary for user slopes and keeps ValueError.
    with pytest.raises(ValueError, match="not an exceptional slope"):
        from_slope(Fraction(-1, 3))


def test_bundle_is_fixed_by_rank_and_c1():
    f = ex.ExceptionalBundle(5, -2)
    assert f == from_slope(Fraction(-2, 5)) and hash(f) == hash(from_slope(Fraction(-2, 5)))
    assert (f.slope, f.c2, f.delta) == (Fraction(-2, 5), 4, Fraction(12, 25))
    assert repr(f) == "ExceptionalBundle(rank=5, c1=-2)"
    assert pickle.loads(pickle.dumps(f)) == f

    class Forged:
        def __reduce__(self):
            return ex.ExceptionalBundle, (3, 1)

    # Unpickling runs the public constructor, so its checks too.
    with pytest.raises(ValueError, match=r"^1/3 is not an exceptional slope \(c2 not integral\)$"):
        pickle.loads(pickle.dumps(Forged()))


def test_public_constructor_proves_lattice_membership():
    # (10, -3) has an integral c2 = 9 and chi(F,F) = 1, but its slope is off
    # the lattice: the descent meets rank 13 first.
    with pytest.raises(ValueError, match=r"^-3/10 is not an exceptional slope$"):
        ex.ExceptionalBundle(10, -3)

    class Forged:
        def __reduce__(self):
            return ex.ExceptionalBundle, (10, -3)

    with pytest.raises(ValueError, match=r"^-3/10 is not an exceptional slope$"):
        pickle.loads(pickle.dumps(Forged()))
    # On the lattice: a new record, equal to the one the descent found.
    f, g = ex.ExceptionalBundle(13, -5), from_slope(Fraction(-5, 13))
    assert f == g and f is not g and (f.c2, f.delta, f.chern) == (g.c2, g.delta, g.chern)


def test_no_division_off_the_boundary(monkeypatch, fresh_lattice):
    # Only the boundary works c2 out by division; the package's own
    # bundles are built from the vectors their callers hold.
    f = from_slope(Fraction(-2, 5))
    calls = []
    original = ex._c2
    monkeypatch.setattr(ex, "_c2", lambda r, c1: calls.append((r, c1)) or original(r, c1))
    assert sum(1 for _ in helix.iterate_triads(6)) == (1 << 7) - 1
    assert from_dyadic(Dyadic(-349525, 20)).rank.bit_length() > 100
    assert len(helix.left_series(f, -3, 20)) == 24
    assert (f.twist(5).slope, f.dual().slope) == (Fraction(23, 5), Fraction(2, 5))
    assert calls == []
    ex.ExceptionalBundle(5, -2)
    assert calls == [(5, -2)]


def test_no_fraction_on_the_lattice_path(monkeypatch, fresh_lattice):
    # A bundle holds its integers; slope and delta are Fractions only when
    # read, so no lattice step builds one, here or in ChernData.  The
    # package's modules build a Fraction through ``fractions.Fraction``,
    # imported when called, so the spy stands in for it there.
    f = from_slope(Fraction(-2, 5))
    built = []
    monkeypatch.setattr(fractions, "Fraction", lambda *a: built.append(a) or Fraction(*a))
    assert sum(1 for _ in helix.iterate_triads(6)) == (1 << 7) - 1
    assert from_dyadic(Dyadic(-349525, 20)).rank.bit_length() > 100
    assert len(helix.left_series(f, -3, 20)) == 24
    assert (f.twist(5).c1, f.dual().c1) == (23, 2)
    assert built == []


def test_slope_c2_and_delta_are_read_from_the_integers():
    bundles = set()
    for f in enumerate_to_level(8):
        bundles.update(f.twist(k) for k in range(-3, 4))
        bundles.add(f.dual())
        bundles.update(helix.left_series(f, -1, 2) + helix.right_series(f, -1, 2))
    for f in bundles:
        r, c1 = f.rank, f.c1
        assert f.slope == Fraction(c1, r) and f.chern.slope() == f.slope
        assert 2 * r * f.c2 == (r - 1) * (r + 1 + c1 * c1) and f.c2 == f.chern.c2
        assert f.delta == Fraction(r * r - 1, 2 * r * r)
        assert hash(f) == hash((r, c1)) and repr(f) == f"ExceptionalBundle(rank={r}, c1={c1})"
        assert f.__reduce__() == (ex.ExceptionalBundle, (r, c1))
        assert f.label() == (f"O({c1})" if r == 1 else f"E({f.slope})")
    assert len(bundles) > 2000
    for f in list(bundles)[::97]:
        assert pickle.loads(pickle.dumps(f)) == f


def test_delta_closed_form_matches_the_general_discriminant():
    bundles = set()
    for f in enumerate_to_level(8):
        bundles.update(f.twist(k) for k in range(-3, 4))
        bundles.add(f.dual())
        bundles.update(helix.left_series(f, -1, 2) + helix.right_series(f, -1, 2))
    assert len(bundles) > 2000
    for f in bundles:
        assert f.delta == f.chern.discriminant()


def test_from_dyadic_draws_its_steering_bits_lazily(monkeypatch):
    import tracemalloc

    def one_level(steer, what, max_depth, start):
        lo, hi = ex._bundle(1, start, start * start), ex._bundle(1, start + 1, (start + 1) ** 2)
        mid = compose(lo, hi)
        steer(lo, mid, hi)
        return lo, mid, hi, 1, 1

    monkeypatch.setattr(ex, "_walk", one_level)
    d = Dyadic(1, 10**6)
    tracemalloc.start()
    try:
        from_dyadic(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One sign per level, built up front, would take 8 bytes a level.
    assert peak < 1 << 20


def test_every_cache_is_bounded():
    cached = [
        (module.__name__, name, obj.cache_info().maxsize)
        for module in (ex, helix)
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    ]
    assert cached == [
        ("prioritaire.exceptional", "_bundle", 4096),
        ("prioritaire.exceptional", "_owner", 4096),
    ]
    # The kept middles stop at dyadic level 11, however deep the call.
    assert len(enumerate_to_level(12)) == (1 << 12) + 1
    assert len(ex._mids) == 2047
    assert sum(m is not None for m in ex._mids) == 2047
    # The kept triad tree stops at MAX_TILE_DEPTH, however deep the call.
    assert sum(1 for _ in helix.iterate_triads(helix.MAX_TILE_DEPTH + 1)) == (1 << 12) - 1
    assert len(helix._levels) == helix.MAX_TILE_DEPTH + 1
    assert sum(t is not None for slots in helix._levels for t in slots) == 2047


def test_half_width_satisfies_quadratic():
    # x_F is the smaller root of x^2 - 3x + 1/r^2 = 0.
    for slope in (Fraction(0), Fraction(-1, 2), Fraction(-2, 5), Fraction(-12, 29)):
        f = from_slope(slope)
        r = f.rank
        x = f.half_width()
        a, b, d = x.a, x.b, x.d
        assert d == 9 * r * r - 4
        # With x = a + b sqrt(d): x^2 - 3x + 1/r^2 =
        # (a^2 + b^2 d - 3a + 1/r^2) + (2a - 3) b sqrt(d).
        assert a * a + b * b * d - 3 * a + Fraction(1, r * r) == 0
        assert (2 * a - 3) * b == 0
        # 1/x_F = r(3r + sqrt(9r^2-4))/2 exactly: x * (a' + b' sqrt(d)) =
        # (a a' + b b' d) + (a b' + a' b) sqrt(d) must be 1.
        a_inv, b_inv = Fraction(3 * r * r, 2), Fraction(r, 2)
        assert a * a_inv + b * b_inv * d == 1
        assert a * b_inv + a_inv * b == 0


def test_interval_membership():
    qstar = from_slope(Fraction(-1, 2))
    assert qstar.contains_slope(Fraction(-9, 20))
    assert not qstar.contains_slope(Fraction(-2, 5))
    # Endpoints are irrational so rational slopes are never borderline.
    o = from_slope(Fraction(0))
    assert o.contains_slope(Fraction(-1, 4))
    assert not o.contains_slope(Fraction(-2, 5))


def test_dyadic_of_roundtrip():
    for q in range(0, 7):
        for p in range(-(1 << q), 1):
            d = Dyadic(p, q)
            assert dyadic_of(from_dyadic(d)) == d


def test_dyadic_of_translates():
    f = from_slope(Fraction(-2, 5)).twist(3)
    assert f.slope == Fraction(13, 5)
    # The inverse map shifts back into the original twist: -1/4 + 3.
    assert dyadic_of(f) == Dyadic(11, 2)
    assert from_dyadic(Dyadic(11, 2)).slope == Fraction(13, 5)


def test_dyadic_of_far_translates():
    # One integer step, not one pass per unit of the slope.
    assert dyadic_of(from_slope(Fraction(10**7))) == Dyadic(10**7, 0)
    assert dyadic_of(from_slope(Fraction(-(10**7)))) == Dyadic(-(10**7), 0)
    assert dyadic_of(from_slope(Fraction(-2, 5) + 10**7)) == Dyadic(4 * 10**7 - 1, 2)


def test_dyadic_of_refuses_every_slope_off_the_lattice():
    # Every slope in (-1, 0] with rank < 400 whose forced c2 is integral:
    # the lattice ones round-trip, the others are refused by ValueError,
    # by from_slope, by the public constructor and by dyadic_of of the
    # record _bundle builds from the vector.
    # Lattice ranks at level 7 are at least 610, so level 6 lists them all.
    lattice = {(f.rank, f.c1) for f in enumerate_to_level(6) if f.rank < 400 and f.c1 > -f.rank}
    refused = 0
    for r in range(1, 400):
        for c1 in range(-r + 1, 1):
            if (r - 1) * (r + 1 + c1 * c1) % (2 * r):
                continue
            if (r, c1) in lattice:
                f = from_slope(Fraction(c1, r))
                assert from_dyadic(dyadic_of(f)) == f == ex.ExceptionalBundle(r, c1)
            else:
                with pytest.raises(ValueError, match="is not an exceptional slope$"):
                    from_slope(Fraction(c1, r))
                with pytest.raises(ValueError, match="is not an exceptional slope$"):
                    ex.ExceptionalBundle(r, c1)
                with pytest.raises(ValueError, match="is not an exceptional slope$"):
                    dyadic_of(ex._bundle(*_vector(r, c1)))
                refused += 1
    assert (len(lattice), refused) == (18, 174)


def test_dyadic_of_refuses_at_once(monkeypatch):
    # The descent stops at the first mid of rank >= 10: 2, 5, 13.  It reads
    # them from their slots in [-1, 0], kept since enumerate_to_level(3); in
    # [1, 2], kept in no slot, level 0 composes and each level below is one
    # mutation.
    enumerate_to_level(3)
    calls = _counting(monkeypatch, ex, "_middle")
    composed = _counting(monkeypatch, ex, "compose")
    mutated = _counting(monkeypatch, ex, "_mutation")
    for slope, built in ((Fraction(-3, 10), (0, 0)), (Fraction(13, 10), (1, 2))):
        for counted in (calls, composed, mutated):
            counted.clear()
        with pytest.raises(ValueError, match=f"{slope} is not an exceptional slope"):
            dyadic_of(ex._bundle(*_vector(slope.denominator, slope.numerator)), max_depth=3000)
        assert (len(calls), (len(composed), len(mutated))) == (3, built)


def test_dyadic_of_translates_its_bracket():
    # Out of depth, the bracket is translated like the answer.
    with pytest.raises(DepthExhaustedError) as err:
        dyadic_of(from_slope(Fraction(46, 29)), max_depth=1)
    assert err.value.bracket == (from_dyadic(Dyadic(3, 1)), from_dyadic(Dyadic(2, 0)))
    for f in enumerate_to_level(4)[1:-1]:
        for cap in range(1, dyadic_of(f).q):
            with pytest.raises(DepthExhaustedError) as base:
                dyadic_of(f, max_depth=cap)
            for shift in (-3, 2):
                with pytest.raises(DepthExhaustedError) as moved:
                    dyadic_of(f.twist(shift), max_depth=cap)
                assert moved.value.bracket == tuple(b.twist(shift) for b in base.value.bracket)


# The bundle of -1/2^70: a 97-bit rank at dyadic level 70.
DEEP = ChernData(
    131151201344081895336534324866,
    -50095301248058391139327916261,
    1254769603566860300466847610169497049264524484443656560535,
)


def test_a_deep_bundle_is_answered_without_a_cap():
    # Its rank bounds the owner walk and the inverse descent, which go past
    # level 64 by default; an explicit cap of 64 still runs out first.
    f = from_dyadic(Dyadic(-1, 70))
    assert (f.rank, f.c1, f.c2) == (DEEP.rank, DEEP.c1, DEEP.c2)
    region = frontier.classify(DEEP)
    assert (region.tag, region.witness) == (RegionTag.SEMISTABLE_EXCEPTIONAL, f)
    assert dyadic_of(f.dual()) == Dyadic(1, 70)
    assert str(dyadic_of(from_dyadic(Dyadic(1, 70)))) == "1/1180591620717411303424"
    assert from_slope(f.slope) == f == ex.ExceptionalBundle(f.rank, f.c1)
    with pytest.raises(DepthExhaustedError, match=r"not resolved within depth 64$"):
        frontier.classify(DEEP, 64)
    with pytest.raises(DepthExhaustedError, match=r"not resolved within depth 64$"):
        dyadic_of(f.dual(), 64)


@settings(max_examples=200, deadline=None)
@given(mu=st.fractions(min_value=-1, max_value=0, max_denominator=10**6))
def test_the_owner_of_a_slope_has_rank_below_a_third_of_its_denominator(mu):
    # The owner F of n/m (lowest terms) is the bundle of slope n/m, of rank
    # m, or else |n/m - mu_F| >= 1/(m r_F), while x_F < 2/(r_F (6 r_F - 1)),
    # so 6 r_F < 2m + 1.
    m = mu.denominator
    f = locate_exceptional(mu)
    assert (f.rank == m and f.slope == mu) or 6 * f.rank < 2 * m + 1


def test_an_owner_walk_past_the_denominator_is_an_inconsistency(monkeypatch):
    # Were no mid to own the slope, the walk would stop at the first mid of
    # rank above the denominator instead of running on.  The ends, of rank
    # 1, are the bundles whose m in ``_inside`` is the denominator 20 itself.
    original = ex._inside
    monkeypatch.setattr(ex, "_inside", lambda n, m, den_sq: m == 20 and original(n, m, den_sq))
    ex._owner.cache_clear()
    with pytest.raises(InternalInconsistencyError, match=r"^no mid up to its denominator owns"):
        locate_exceptional(Fraction(-9, 20))


def test_locate_exceptional():
    assert locate_exceptional(Fraction(-9, 20)).slope == Fraction(-1, 2)
    assert locate_exceptional(Fraction(-1, 4)).slope == Fraction(0)
    assert locate_exceptional(Fraction(-1, 3)).slope == Fraction(0)
    assert locate_exceptional(Fraction(-2, 5)).slope == Fraction(-2, 5)
    assert locate_exceptional(Fraction(-1)).slope == Fraction(-1)
    with pytest.raises(ValueError):
        locate_exceptional(Fraction(1, 2))


def test_locate_depth_cap():
    with pytest.raises(DepthExhaustedError) as err:
        locate_exceptional(Fraction(-9, 20), max_depth=0)
    assert err.value.bracket is not None


def test_walk_errors_do_not_depend_on_the_int_to_str_limit(default_digit_limit):
    # A bundle of rank 22 876 bits, about 6 900 digits: each walk message
    # names its slope by sign and bit lengths, and keeps its typed error.
    f = from_dyadic(Dyadic(-349525, 20))
    assert (f.rank.bit_length(), (-f.c1).bit_length()) == (22876, 22875)
    big = "-<22875 bits>/<22876 bits>"
    with pytest.raises(DepthExhaustedError) as err:
        dyadic_of(f, 3)
    assert str(err.value) == f"slope {big} not resolved within depth 3"
    assert err.value.bracket is not None
    with pytest.raises(DepthExhaustedError, match=rf"^slope {re.escape(big)} not resolved "):
        ex._owners([(f.c1, f.rank)], 3)
    point = re.escape(f"point ({big}, <45750 bits>/<45751 bits>)")
    with pytest.raises(DepthExhaustedError, match=rf"^{point} not resolved within depth 3$"):
        helix._locate(f.c1, f.rank, f.rank**2 - 1, 2 * f.rank**2, 3, f.rank)
    with pytest.raises(ValueError, match=r"^-<\d+ bits>/<\d+ bits> is not an exceptional slope$"):
        ex._descend(f.rank + 1, f.c1, None)
    with pytest.raises(ValueError, match=r"^slope <22876 bits> outside \[-1, 0\]$"):
        locate_many([Fraction(f.rank)])
    # Short terms are written as str(Fraction) writes them.
    for n, m in ((-6, 4), (0, 5), (7, 1), (-(1 << 1999), 3), (1, 1 << 1999)):
        assert ex._ratio(n, m) == str(Fraction(n, m))
    assert ex._ratio(1 << 2001, 2) == "<2001 bits>"
    assert ex._ratio(3, 1 << 2000) == "<2 bits>/<2001 bits>"


def test_a_deep_label_does_not_depend_on_the_int_to_str_limit(default_digit_limit):
    # label() writes its terms as walk messages do, so a point above a deep
    # vertex keeps its NotCoveredError.
    f = from_dyadic(Dyadic(-349525, 20))
    assert f.label() == "E(-<22875 bits>/<22876 bits>)"
    assert str(f) == f.label()
    with pytest.raises(NotCoveredError) as err:
        helix.locate_triangle(f.slope, Fraction(1, 2))
    assert str(err.value).startswith("(-<22875 bits>/<22876 bits>, 1/2) sits above the vertex of (")
    assert f", {f}, " in str(err.value)
    # Labels under _MAX_BITS keep their bytes.
    assert [from_slope(Fraction(*x)).label() for x in ((-1, 2), (3, 1), (7, 5))] == [
        "E(-1/2)",
        "O(3)",
        "E(7/5)",
    ]
    line = ex._bundle(1, 1 << 2000, 1 << 4000)
    assert line.label() == "O(<2001 bits>)"


def test_reprs_and_the_no_prioritary_message_do_not_depend_on_the_int_to_str_limit(
    default_digit_limit,
):
    # repr and the NoPrioritarySheafError message name a long integer by its
    # bit length, so a huge input keeps its typed error outside the CLI.
    from prioritaire.decompose import generic_prioritary
    from prioritaire.frontier import RegionTag, classify

    f = from_dyadic(Dyadic(-349525, 20))
    assert repr(f) == "ExceptionalBundle(rank=<22876 bits>, c1=-<22875 bits>)"
    r = 2**15000 + 1
    for cd, text in (
        (chern.ChernData(r, 0, -r), "c1=0, c2=-<15001 bits>): discriminant -1 below the existence bound 0"),
        (
            chern.ChernData(r, 1, -r),
            "c1=1, c2=-<15001 bits>): discriminant -<30001 bits>/<30001 bits> "
            "below the existence bound <15000 bits>/<30001 bits>",
        ),
    ):
        assert classify(cd).tag is RegionTag.NO_PRIORITARY
        with pytest.raises(NoPrioritarySheafError) as err:
            generic_prioritary(cd)
        prefix = "no prioritary sheaf with invariants ChernData(rank=<15001 bits>, "
        assert str(err.value) == prefix + text
    # Under _MAX_BITS a repr keeps its bytes.
    n = 1 << 1999
    assert repr(chern.ChernData(n, -n, 3)) == f"ChernData(rank={n}, c1={-n}, c2=3)"


def test_fraction_fields_and_chern_messages_do_not_depend_on_the_int_to_str_limit(
    default_digit_limit,
):
    # A Fraction field names each long term by its bit length, and so do the
    # errors of the Chern records built from outside.
    big = 2**15000 + 1
    with pytest.raises(ValueError, match=r"^ch2 must be a half-integer, got <1 bits>/<15001 bits>$"):
        chern.ChernCharacter(big, 1, Fraction(1, big))
    ch = chern.ChernCharacter(big, 1, Fraction(big, 2))
    assert repr(ch) == "ChernCharacter(rank=<15001 bits>, c1=1, ch2=Fraction(<15001 bits>, 2))"
    with pytest.raises(ValueError, match=r"^rank must be >= 1, got -<15001 bits>$"):
        chern.ChernData(-big, 0, 0)
    with pytest.raises(InternalInconsistencyError) as err:
        chern.ChernCharacter(1, big, 0).to_data()
    assert str(err.value) == (
        "character ChernCharacter(rank=1, c1=<15001 bits>, ch2=Fraction(0, 1)) "
        "has non-integral c2 = <30001 bits>/<2 bits>"
    )
    # Under _MAX_BITS a Fraction field keeps its bytes.
    n = 1 << 1999
    for ch2 in (Fraction(-3), Fraction(n + 1, 2), Fraction(-n - 1, 2)):
        assert repr(chern.ChernCharacter(1, 0, ch2)) == f"ChernCharacter(rank=1, c1=0, ch2={ch2!r})"
    with pytest.raises(ValueError, match=r"^ch2 must be a half-integer, got 1/3$"):
        chern.ChernCharacter(1, 0, Fraction(1, 3))


def _point_in(t):
    """A point strictly inside the tile of t, and so in no shallower tile."""
    mu = (t.e.slope + 2 * t.f.slope) / 3
    return mu, (t.side_eg(mu) + t.side_ef(mu)) / 2


def test_every_descent_exhausts_alike(monkeypatch):
    # dyadic_of, locate_many and locate_triangle exhaust a cap alike: a walk
    # with cap N fetches N mids, and point location enters N triads, read
    # off the kept tree with no fetch.  Past them the error names what was
    # sought and the pair of neighbours the descent would have entered next.
    list(helix.iterate_triads(7))
    rng = random.Random(9709)
    queries = []
    for _ in range(12):
        f = from_dyadic(Dyadic(rng.randrange(1, 1 << 7, 2), 7)).twist(rng.randint(-3, 2))
        queries.append((f"slope {f.slope}", lambda cap, f=f: dyadic_of(f, cap), None))
        mu = Fraction(-rng.randint(1, 10**4 - 1), 10**4)
        queries.append((f"slope {mu}", lambda cap, mu=mu: locate_many([mu], cap), None))
        path = [helix.root()]
        for _ in range(rng.randint(2, 7)):
            path.append(helix.children(path[-1])[rng.random() < 0.5])
        mu, disc = _point_in(path[-1])
        point = lambda cap, mu=mu, disc=disc: helix.locate_triangle(mu, disc, cap)  # noqa: E731
        queries.append((f"point ({mu}, {disc})", point, path))
    fetched, entered = [], []
    middle, contains = ex._middle, helix.Triad._contains
    monkeypatch.setattr(ex, "_middle", lambda *args: fetched.append(args) or middle(*args))
    monkeypatch.setattr(
        helix.Triad, "_contains", lambda t, *args: entered.append(t) or contains(t, *args)
    )
    exhausted = 0
    for what, query, path in queries:
        with pytest.raises(ValueError, match=r"^depth must be >= 0, got -1$"):
            query(-1)
        for cap in range(7):
            fetched.clear()
            entered.clear()
            try:
                query(cap)
            except DepthExhaustedError as err:
                assert str(err) == f"{what} not resolved within depth {cap}"
                if path is None:
                    assert (len(fetched), entered) == (cap, [])
                else:
                    assert (fetched, entered) == ([], path[:cap])
                    assert err.bracket == (path[cap].e, path[cap].g)
                compose(*err.bracket)  # neighbours, or compose raises ValueError
                exhausted += 1
    assert exhausted > 3 * len(queries)


def test_point_location_past_the_kept_tree_builds_and_drops(monkeypatch):
    # Past MAX_TILE_DEPTH each level builds its triad with one _child, by
    # mutation with no compose, and keeps none; the cap still counts triads
    # entered.
    path = [helix.root()]
    for right in (0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1):
        path.append(helix.children(path[-1])[right])
    mu, disc = _point_in(path[-1])
    what = "point ({}, {})".format(*(ex._ratio(x.numerator, x.denominator) for x in (mu, disc)))
    kept = helix.MAX_TILE_DEPTH + 1
    list(helix.iterate_triads(kept - 1))
    composed, built, entered = [], [], []
    original, child, contains = ex.compose, helix._child, helix.Triad._contains
    monkeypatch.setattr(ex, "compose", lambda a, b: composed.append(a) or original(a, b))
    monkeypatch.setattr(helix, "_child", lambda t, right: built.append(t) or child(t, right))
    monkeypatch.setattr(
        helix.Triad, "_contains", lambda t, *args: entered.append(t) or contains(t, *args)
    )
    for cap in (kept, kept + 1, kept + 2):
        composed.clear()
        built.clear()
        entered.clear()
        with pytest.raises(DepthExhaustedError) as err:
            helix.locate_triangle(mu, disc, cap)
        assert str(err.value) == f"{what} not resolved within depth {cap}"
        assert err.value.bracket == (path[cap].e, path[cap].g)
        assert (composed, len(built), entered) == ([], cap - kept, path[:cap])
    found = helix.locate_triangle(mu, disc, len(path))
    assert found == path[-1] and found.level == len(path) - 1
    assert sum(t is not None for slots in helix._levels for t in slots) <= (1 << kept) - 1


def test_one_raise_site_and_one_cap_resolution():
    # Every descent raises DepthExhaustedError through exceptional._exhausted.
    # A query's cap is its max_depth argument, which _cap only checks: no
    # module names a default depth, and None leaves each walk bounded by
    # its input.
    package = Path(ex.__file__).parent
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py")))
    assert text.count("raise DepthExhaustedError") == 1
    assert "_cap(None)" not in text
    assert "DEFAULT_MAX_DEPTH" not in text
    assert ex._cap(None) is None and ex._cap(0) == 0
    with pytest.raises(ValueError, match=r"^depth must be >= 0, got -1$"):
        ex._cap(-1)


def test_no_module_reads_the_environment():
    # A query's answer depends on its arguments alone: no module reads
    # os.environ or getenv (the CLI's help formatter reads COLUMNS through
    # argparse, outside the package).
    import ast

    package = Path(ex.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(n, "attr", getattr(n, "id", getattr(n, "name", None))) for n in ast.walk(tree)}
        assert not names & {"environ", "environb", "getenv", "getenvb"}, path.name


def test_no_assert_statement_in_the_package():
    # A check must survive python -O, so it raises (selfcheck._require) instead.
    import ast

    package = Path(ex.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)], path.name


def test_compose_is_called_only_by_the_walker_and_the_tree():
    # Paths go through exceptional._walk, which fetches each level's middle
    # with _middle, as helix.enumerate_to_level does; _middle builds it with
    # _build_middle, which composes a middle of level 0 only and mutates
    # below it.  The triad tree composes only its root's middle
    # (helix.root), each child's middle being a mutation.  selfcheck
    # recomposes every middle, as the oracle of the mutations.
    import ast

    package = Path(ex.__file__).parent
    users = {"compose": set(), "_middle": set()}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            for ref in ast.walk(node):
                name = getattr(ref, "attr", None) or getattr(ref, "id", None)
                if isinstance(ref, (ast.Attribute, ast.Name)) and name in users:
                    users[name].add((path.stem, node.name))
    assert users == {
        "compose": {("exceptional", "_build_middle"), ("helix", "root"), ("selfcheck", "_check_lattice")},
        "_middle": {("exceptional", "_walk"), ("helix", "enumerate_to_level")},
    }


def test_enumerate_levels():
    for level in range(0, 7):
        bundles = enumerate_to_level(level)
        assert len(bundles) == (1 << level) + 1
        slopes = [b.slope for b in bundles]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == len(slopes)


def test_twist_and_dual_bundles():
    f = from_slope(Fraction(-2, 5))
    assert f.twist(1).slope == Fraction(3, 5)
    assert f.twist(1).rank == 5
    assert f.dual().slope == Fraction(2, 5)
    assert f.dual().delta == f.delta


def _surd_contains(f, mu: Fraction) -> bool:
    """Reference membership test: the exact surd comparison x_F > |mu - mu(F)|."""
    return f.half_width().compare(abs(mu - f.slope)) > 0


def _root_approx(r: int, digits: int, smaller: bool) -> Fraction:
    """A rational within about 10^-digits of a root (3r -+ sqrt(9r^2 - 4))/(2r)."""
    scale = 10 ** (digits + 2)
    s = Fraction(math.isqrt((9 * r * r - 4) * scale * scale), scale)
    return (3 * r - s) / (2 * r) if smaller else (3 * r + s) / (2 * r)


def test_contains_slope_matches_surd_reference_at_endpoints():
    bundles = enumerate_to_level(5) + [from_slope(Fraction(-2, 5)).twist(2)]
    bundles.append(from_dyadic(Dyadic(-1, 30)))  # a rank far beyond the others
    outcomes = set()
    for f in bundles:
        for k in range(1, 41):
            eps = Fraction(1, 10**k)
            for smaller in (True, False):  # x_F, and the other root 3 - x_F
                root = _root_approx(f.rank, k, smaller)
                for d in (root - 2 * eps, root - eps, root, root + eps, root + 2 * eps):
                    for mu in (f.slope - d, f.slope + d):
                        inside = f.contains_slope(mu)
                        assert inside == _surd_contains(f, mu), (f.label(), mu)
                        outcomes.add(inside)
    assert outcomes == {True, False}


def test_contains_slope_matches_surd_reference_far_out():
    # d >= 3/2: beyond the larger root the quadratic is positive again, but
    # the point is outside the interval.
    rng = random.Random(9709014)
    for f in enumerate_to_level(4):
        for _ in range(40):
            d = Fraction(3, 2) + Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4))
            for mu in (f.slope - d, f.slope + d):
                assert not f.contains_slope(mu)
                assert not _surd_contains(f, mu)
    for f in enumerate_to_level(4):
        for _ in range(40):
            mu = Fraction(rng.randint(-3 * 10**5, 10**5), rng.randint(1, 10**5))
            assert f.contains_slope(mu) == _surd_contains(f, mu)


# Deep bundles: the one-sided runs of -1/2^1500 towards O and of
# (1 - 2^1500)/2^1500 towards O(-1), of 2 083-bit ranks, and the
# alternating dyadics near -1/3 and -2/3 at level 18, of 8 737-bit ranks.
_DEEP = [
    from_dyadic(d)
    for d in (
        Dyadic(-1, 1500),
        Dyadic(1 - (1 << 1500), 1500),
        Dyadic(-(4**9 - 1) // 3, 18),
        Dyadic(-(2 * 4**9 + 1) // 3, 18),
    )
]


def _interval_end(f, k: int, upper: bool) -> Fraction:
    """A rational bound on x_F = 2/(r(3r + sqrt(9r^2 - 4))) from the integer
    square root of (9r^2 - 4) 4^k: below x_F, or not below it if upper."""
    r, scale = f.rank, 1 << k
    s = math.isqrt((9 * r * r - 4) * scale * scale) + (0 if upper else 1)
    return Fraction(2 * scale, r * (3 * r * scale + s))


def _reciprocal_half_width(f) -> QuadSurd:
    """1/x_F = (3r^2 + r sqrt(9r^2 - 4))/2, checked against half_width() by
    multiplying out: (a + b sqrt(D))(a' + b' sqrt(D)) = 1."""
    r = f.rank
    x, inv = f.half_width(), QuadSurd(Fraction(3 * r * r, 2), Fraction(r, 2), 9 * r * r - 4)
    assert x.a * inv.a + x.b * inv.b * x.d == 1 and x.a * inv.b + x.b * inv.a == 0
    return inv


@settings(max_examples=40, deadline=None)
@given(
    index=st.integers(0, len(_DEEP) - 1),
    k=st.integers(0, 80),
    upper=st.booleans(),
    far=st.booleans(),
    nudge=st.integers(-2, 2),
    side=st.sampled_from((1, -1)),
    scale=st.integers(1, 7),
)
def test_ownership_and_conic_terms_of_deep_bundles(index, k, upper, far, nudge, side, scale):
    # Near either root of X^2 - 3X + 1/r^2 (x_F, or 3 - x_F when far), the
    # one ownership test agrees with the surd comparison x_F > d, and the
    # two numerators of _conic_terms are delta and delta_prime, built here
    # from hirzebruch_p and QuadSurd, in any terms of the slope.
    f = _DEEP[index]
    end = _interval_end(f, k, upper)
    d = (3 - end if far else end) + Fraction(nudge, f.rank**3 << k)
    mu = f.slope + side * d
    num, den = mu.numerator * scale, mu.denominator * scale
    r, c1 = f.rank, f.c1
    inside = ex._inside(abs(num * r - c1 * den), den * r, den * den)
    assert inside == _surd_contains(f, mu) == f.contains_slope(mu)
    dist = abs(mu - f.slope)
    big_n, rational, n, m = frontier._conic_terms(num, den, f)
    assert Fraction(n, m) == dist
    expected = hirzebruch_p(-dist) - f.delta
    assert Fraction(big_n, 2 * m * m) == expected
    inv = _reciprocal_half_width(f)
    # delta - (1/r^2)(1 - d/x_F)
    shift = QuadSurd(inv.a * dist / (r * r), inv.b * dist / (r * r), inv.d)
    prime = QuadSurd.from_rational(expected - Fraction(1, r * r)) + shift
    assert QuadSurd(Fraction(rational, 2 * m * m), Fraction(n, 2 * m * r), 9 * r * r - 4) == prime


def _reference_locate(mu: Fraction, cap: int):
    """The descent testing the two ends, then each of at most ``cap`` mids,
    by equality or surd containment; returns the owner, or the bracket it
    would have entered next when the cap runs out."""
    lo, hi = from_slope(Fraction(-1)), from_slope(Fraction(0))
    for end in (lo, hi):
        if mu == end.slope or _surd_contains(end, mu):
            return end
    for _ in range(cap):
        mid = compose(lo, hi)
        if mu == mid.slope or _surd_contains(mid, mu):
            return mid
        if mu < mid.slope:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def test_locate_matches_reference_at_every_depth():
    rng = random.Random(1997)
    slopes = [Fraction(0), Fraction(-1), Fraction(-9, 20), Fraction(-2, 5), Fraction(-12, 29)]
    slopes += [Fraction(-rng.randint(0, 10**4), 10**4) for _ in range(60)]
    for mu in slopes:
        for cap in range(0, 9):
            expected = _reference_locate(mu, cap)
            if isinstance(expected, tuple):
                with pytest.raises(DepthExhaustedError) as err:
                    locate_exceptional(mu, max_depth=cap)
                assert err.value.bracket == expected
            else:
                assert locate_exceptional(mu, max_depth=cap) == expected


_SLOPES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(-1, 2), Fraction(-2, 5), Fraction(-12, 29)]),
    st.fractions(min_value=-1, max_value=0, max_denominator=10**4),
)


@settings(max_examples=60, deadline=None)
@given(
    slopes=st.lists(_SLOPES, max_size=12),
    repeats=st.lists(st.integers(0, 11), max_size=4),
    seed=st.integers(0, 2**32),
)
def test_locate_many_matches_one_slope_descents(slopes, repeats, seed):
    # Shuffled, with duplicates: each owner (or the first failure's
    # bracket) is what the one-slope descent gives.
    slopes = slopes + [slopes[i % len(slopes)] for i in repeats if slopes]
    random.Random(seed).shuffle(slopes)
    for cap in range(1, 10):
        expected = [_reference_locate(mu, cap) for mu in slopes]
        failed = [e for e in expected if isinstance(e, tuple)]
        if failed:
            with pytest.raises(DepthExhaustedError) as err:
                locate_many(slopes, max_depth=cap)
            first = next(i for i, e in enumerate(expected) if isinstance(e, tuple))
            assert err.value.bracket == failed[0]
            with pytest.raises(DepthExhaustedError) as single:
                locate_exceptional(slopes[first], max_depth=cap)
            assert str(err.value) == str(single.value)
        else:
            assert locate_many(slopes, max_depth=cap) == expected
            assert [locate_exceptional(mu, max_depth=cap) for mu in slopes] == expected


def test_locate_many_edges():
    assert locate_many([]) == []
    assert locate_many(iter([Fraction(-1, 3), Fraction(-1, 3)])) == [from_slope(Fraction(0))] * 2
    for bad in (Fraction(1, 7), Fraction(-8, 7)):
        with pytest.raises(ValueError, match="outside"):
            locate_many([Fraction(-1, 2), bad])
