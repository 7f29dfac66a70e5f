"""Triads, triangle tiles, orthogonal series, and Ext dimensions.

Series values frozen below follow the two-term recurrence
ch(G_{n+1}) = c*ch(G_n) - ch(G_{n-1}) with c = 3*rank(F), started from
the initial pair; each member is independently rebuilt from its rank and
c1 and checked against the recurrence inside the library, so the tests
here pin the externally visible numbers.
"""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prioritaire import helix
from prioritaire.chern import ChernData, euler_pairing, hirzebruch_p
from prioritaire.errors import InternalInconsistencyError, NotCoveredError
from prioritaire.exceptional import Dyadic, from_dyadic, from_slope
from prioritaire.helix import (
    ExtDims,
    TriState,
    children,
    enumerate_to_level,
    ext_dims,
    is_prioritary_sum,
    iterate_triads,
    left_series,
    locate_triangle,
    right_series,
    root,
)


def test_a_wrong_mutation_is_refused_by_the_triad_checks(monkeypatch, fresh_lattice):
    # A child's middle is its parent's mutation and nothing else; Triad's own
    # checks refuse a wrong one, and the kept tree keeps no child.
    from prioritaire import exceptional

    t = helix._kept(0, 0)
    qstar = from_slope(Fraction(-1, 2))
    monkeypatch.setattr(exceptional, "_mutation", lambda a, b, c: qstar)
    with pytest.raises(InternalInconsistencyError, match="^triad slopes out of order: "):
        children(t)
    with pytest.raises(InternalInconsistencyError, match="^triad slopes out of order: "):
        helix._kept(1, 0)
    assert helix._levels[0] == [t] and helix._levels[1] == [None, None]


def test_every_kept_middle_is_the_composition_of_its_ends(fresh_lattice):
    # Reference: the mutation that builds each middle agrees with compose's
    # cross product of the two ends, on every triad of the kept tree.
    from prioritaire import exceptional

    triads = list(iterate_triads(helix.MAX_TILE_DEPTH))
    assert len(triads) == 2047
    assert [t for t in triads if t.f != exceptional.compose(t.e, t.g)] == []


def test_a_negative_level_is_refused_at_the_call():
    # Level counts are the package's only depth arguments, and each refuses
    # a negative level as render's entry points do, before anything is built.
    from prioritaire import render

    for levels in (iterate_triads, enumerate_to_level, render.tile_csv, render.tile_svg):
        with pytest.raises(ValueError, match=r"^(max_level|level_max) must be >= 0"):
            levels(-1)
    with pytest.raises(ValueError, match=r"^max_level must be >= 0, got -1$"):
        iterate_triads(-1)


def test_root_triad():
    t = root()
    assert [b.label() for b in (t.e, t.f, t.g)] == ["O(-1)", "E(-1/2)", "O(0)"]
    assert (t.e.rank, t.f.rank, t.g.rank) == (1, 2, 1)
    assert t.h.slope == Fraction(-2)
    assert (t.level, t.index) == (0, 0)
    assert t.mid_dyadic().value() == Fraction(-1, 2)


def test_root_children():
    left, right = children(root())
    assert left.f.slope == Fraction(-3, 5)
    assert right.f.slope == Fraction(-2, 5)
    assert (left.level, left.index) == (1, 0)
    assert (right.level, right.index) == (1, 1)
    # Shared vertices with the parent.
    assert left.e.slope == Fraction(-1) and left.g.slope == Fraction(-1, 2)
    assert right.e.slope == Fraction(-1, 2) and right.g.slope == Fraction(0)


def test_triad_and_dual_basis_identities_on_every_kept_triad():
    # The pairings with h make (e, -h, g) the dual basis of (e, f, g), so
    # the multiplicities of a splitting are Euler pairings.
    count = 0
    for t in iterate_triads(helix.MAX_TILE_DEPTH):
        re, rf, rg = t.e.rank, t.f.rank, t.g.rank
        e, f, g, h = t.e.chern, t.f.chern, t.g.chern, t.h.chern
        assert re * re + rf * rf + rg * rg == 3 * re * rf * rg
        assert euler_pairing(e, f) == 3 * rg
        assert euler_pairing(f, g) == 3 * re
        assert euler_pairing(f, e) == 0
        assert euler_pairing(g, f) == 0
        assert euler_pairing(g, e) == 0
        assert euler_pairing(e, h) == 0
        assert euler_pairing(f, h) == -1
        assert euler_pairing(g, h) == 0
        count += 1
    assert count == 2047


def test_triangle_membership_root():
    t = root()
    assert t.side_ef(Fraction(-1, 2)) == Fraction(3, 8)
    assert t.side_fg(Fraction(-1, 2)) == Fraction(3, 8)
    assert t.side_eg(Fraction(-1, 2)) == Fraction(-1, 8)
    assert t.contains(Fraction(-1, 2), Fraction(0))
    assert t.contains(Fraction(-1, 2), Fraction(3, 8))  # vertex, closed tile
    assert not t.contains(Fraction(-1, 2), Fraction(2, 5))
    assert t.contains(Fraction(-1, 2), Fraction(1, 8), strict=True)
    assert not t.contains(Fraction(-1, 2), Fraction(3, 8), strict=True)
    assert t.contains(Fraction(-1, 4), Fraction(0))


def test_locate_triangle():
    t = locate_triangle(Fraction(-1, 2), Fraction(5, 24))
    assert (t.level, t.index) == (0, 0)
    t = locate_triangle(Fraction(-3, 7), Fraction(37, 98))
    assert (t.level, t.index) == (1, 1)
    # A vertex belongs to the shallowest tile that touches it.
    t = locate_triangle(Fraction(-1, 2), Fraction(3, 8))
    assert (t.level, t.index) == (0, 0)
    with pytest.raises(NotCoveredError) as info:
        locate_triangle(Fraction(-1, 2), Fraction(2, 5))
    assert str(info.value) == (
        "(-1/2, 2/5) sits above the vertex of (O(-1), E(-1/2), O(0)) and is not covered"
    )


def test_locate_triangle_in_any_terms():
    # The descent decides on integers (n, d, a, b) in any terms; messages
    # print the reduced fractions.
    # The private descent takes a rank at which the point is integral
    # (2 b d^2 in lowest terms) and a slope in [-1, 0]; locate_triangle
    # refuses any other slope.
    for k in (1, 2, 7):
        for j in (1, 3, 10):
            t = helix._locate(-3 * k, 7 * k, 37 * j, 98 * j, 2 * 98 * 7**2)
            assert (t.level, t.index) == (1, 1)
            with pytest.raises(NotCoveredError) as info:
                helix._locate(-1 * k, 2 * k, 2 * j, 5 * j, 2 * 5 * 2**2)
            assert str(info.value).startswith("(-1/2, 2/5) sits above")
    with pytest.raises(NotCoveredError, match=r"^\(-1/2, 2/5\) sits above"):
        helix._locate(-2, 4, 4, 10, 40)
    for n, d in ((2, 6), (-14, 12)):
        slope = Fraction(n, d)
        with pytest.raises(ValueError, match=rf"^slope {slope} outside \[-1, 0\]$"):
            locate_triangle(slope, Fraction(0))


def test_a_point_in_no_tile_up_to_its_rank_is_not_covered():
    # (-1/7, 29/100) is integral at rank 2 * 100 * 7^2: no tile whose middle
    # has at most that rank holds it, so none does.
    with pytest.raises(NotCoveredError, match=r"^\(-1/7, 29/100\) is in no tile up to its rank$"):
        locate_triangle(Fraction(-1, 7), Fraction(29, 100))


_POINTS = st.tuples(
    st.fractions(min_value=-1, max_value=0, max_denominator=60),
    st.fractions(min_value=0, max_value=Fraction(7, 10), max_denominator=1000),
)


@settings(max_examples=200, deadline=None)
@given(point=_POINTS)
def test_locate_triangle_enters_no_middle_above_the_rank_of_the_point(point):
    # The point (n/d, a/b) is integral at rank 2 b d^2, and the shallowest
    # tile holding it has a middle of at most that rank: the descent answers
    # that tile, or refuses the point without testing a deeper triad.  A
    # descent with no rank bound finds no tile among its first 12 levels.
    mu, disc = point
    bound = 2 * disc.denominator * mu.denominator**2
    tested = []
    original = helix.Triad._contains
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helix.Triad, "_contains", lambda t, *a: tested.append(t) or original(t, *a))
        try:
            found = locate_triangle(mu, disc)
        except NotCoveredError:
            found = None
    assert all(t.f.rank <= bound for t in tested)
    if found is not None:
        assert found is tested[-1] and found.contains(mu, disc)
        return
    # No deeper tile lies above the vertex at mu, if there is one.
    t = root()
    for _ in range(12):
        assert not t.contains(mu, disc)
        if mu == t.f.slope:
            break
        t = children(t)[mu > t.f.slope]


def test_triad_refuses_slopes_out_of_order():
    t = root()
    for e, f, g in ((t.e, t.g, t.f), (t.f, t.e, t.g)):
        with pytest.raises(InternalInconsistencyError, match="^triad slopes out of order: "):
            helix.Triad(e, f, g, 0, 0)


def test_triad_derives_h():
    t = root()
    built = helix.Triad(t.e, t.f, t.g, 0, 0)
    assert built.h == t.h and built.h.slope == Fraction(-2)
    assert built == t and "h" not in built._fields
    assert pickle.loads(pickle.dumps(built)).h == t.h


def _kept_count() -> int:
    return sum(t is not None for slots in helix._levels for t in slots)


def test_locate_builds_one_triad_per_level(monkeypatch, fresh_lattice):
    # A cold descent builds at most the one triad it enters at each level,
    # and keeps it: a repeated or warm descent builds none.  Below the root
    # every triad is a child (``_child``).
    points = []
    for t in iterate_triads(5):
        mu = (t.e.slope + 2 * t.f.slope) / 3
        disc = (t.side_eg(mu) + t.side_ef(mu)) / 2
        assert t.contains(mu, disc, strict=True)
        points.append((t, mu, disc))
    for slots in helix._levels:
        slots[:] = [None] * len(slots)
    built = []
    original = helix._child

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(helix, "_child", counted)
    cold = []
    for t, mu, disc in reversed(points):
        built.clear()
        found = locate_triangle(mu, disc)
        assert (found.level, found.index) == (t.level, t.index)
        assert len(built) <= t.level
        cold.append(len(built))
        built.clear()
        assert locate_triangle(mu, disc) is found and built == []
    # Deepest points first: each level-5 point builds its own leaf and
    # whichever of its ancestors no earlier point entered; the first one
    # also builds the root, which is no child.
    assert sum(cold) + 1 == _kept_count() == len(points)
    assert cold[0] == 5 and cold[-1] == 0
    built.clear()
    assert list(iterate_triads(5)) == [t for t, _, _ in points] and built == []


def test_left_series_of_o():
    members = left_series(from_slope(Fraction(0)), 0, 5)
    assert [g.rank for g in members] == [1, 1, 2, 5, 13, 34]
    assert [g.slope for g in members] == [
        Fraction(-2),
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(-2, 5),
        Fraction(-5, 13),
        Fraction(-13, 34),
    ]
    for g in members:
        assert euler_pairing(from_slope(Fraction(0)).chern, g.chern) == 0


def test_left_series_of_qstar():
    members = left_series(from_slope(Fraction(-1, 2)), 0, 2)
    assert [g.label() for g in members] == ["O(-3)", "O(-1)", "E(-3/5)"]


def test_series_negative_index():
    g = left_series(from_slope(Fraction(0)), -1, -1)[0]
    assert (g.rank, g.c1, g.c2) == (2, -5, 7)
    assert g.slope == Fraction(-5, 2)


def test_right_series_mirrors_left():
    f = from_slope(Fraction(0))
    lefts = left_series(f, 0, 6)
    rights = right_series(f, 0, 6)
    for g, h in zip(lefts, rights):
        assert h.slope == g.slope + 3
        assert h.rank == g.rank
        assert euler_pairing(h.chern, f.chern) == 0


def test_series_stays_on_the_orthogonal_conic():
    f = from_slope(Fraction(0))
    for g in left_series(f, -5, 12):
        assert euler_pairing(f.chern, g.chern) == 0


def test_series_below_the_default_depth():
    # The descent to f's neighbours ends by f's rank, and no depth bounds
    # it: 1/2^70 lies 70 levels down, past the 64 levels of an old default.
    d = Dyadic(1, 70)
    f = from_dyadic(d)
    assert f.rank.bit_length() == 97
    lo, hi = d.neighbors()
    assert left_series(f, 0, 1) == [from_dyadic(hi).twist(-3), from_dyadic(lo)]


def test_ext_dims_line_bundles():
    o = from_slope(Fraction(0))
    assert ext_dims(from_slope(Fraction(-1)), o) == ExtDims(3, 0, 0)
    assert ext_dims(o, from_slope(Fraction(-3))) == ExtDims(0, 0, 1)
    assert ext_dims(o, from_slope(Fraction(-2))) == ExtDims(0, 0, 0)
    assert ext_dims(o, from_slope(Fraction(2))) == ExtDims(6, 0, 0)


def test_ext_dims_mixed():
    qstar = from_slope(Fraction(-1, 2))
    assert ext_dims(from_slope(Fraction(-1)), qstar) == ExtDims(3, 0, 0)
    assert ext_dims(qstar, from_slope(Fraction(-2))) == ExtDims(0, 1, 0)
    assert ext_dims(qstar, qstar) == ExtDims(1, 0, 0)
    # Consistency with the Euler pairing in every case above.
    for a, b in [
        (from_slope(Fraction(-1)), qstar),
        (qstar, from_slope(Fraction(-2))),
        (qstar, qstar),
    ]:
        d = ext_dims(a, b)
        assert d.hom - d.ext1 + d.ext2 == euler_pairing(a.chern, b.chern)


def _reference_vanishing(a, b):
    """(hom, ext1, ext2) from the vanishing rules, comparing slopes as
    Fractions, with Ext^2(a, b) = Hom(b, a(-3))* read off chi(b, a(-3))
    where mu(b) <= mu(a) - 3; None where chi(a, b) decides."""
    hom = 0 if a.slope > b.slope else None
    ext1 = 0 if a.slope <= b.slope or b.slope <= a.slope - 3 else None
    if b.slope > a.slope - 3:
        ext2 = 0
    else:
        ext2 = euler_pairing(b.chern, a.twist(-3).chern)
    return hom, ext1, ext2


def test_ext_dims_matches_the_fraction_slope_rules():
    # Every ordered pair of level-3 bundles and their translates -4..3,
    # line bundles included, which meets slope gaps below, at and above -3.
    bundles = [b.twist(k) for b in enumerate_to_level(3) for k in range(-4, 4)]
    at_minus_three = below = 0
    for a in bundles:
        for b in bundles:
            d = ext_dims(a, b)
            got = (d.hom, d.ext1, d.ext2)
            assert all(type(v) is int and v >= 0 for v in got), (a, b)
            if a.slope == b.slope:
                assert d == ExtDims(1, 0, 0)
            for value, rule in zip(got, _reference_vanishing(a, b)):
                assert rule is None or value == rule, (a, b)
            chi = euler_pairing(a.chern, b.chern)
            assert d.hom - d.ext1 + d.ext2 == chi
            if b.slope == a.slope - 3:
                at_minus_three += 1
                assert d == ExtDims(0, 0, 1)
            elif b.slope < a.slope - 3:
                below += 1
                assert d == ExtDims(0, 0, chi)
    assert at_minus_three > 0 and below > 0
    qstar = from_slope(Fraction(-1, 2))
    assert ext_dims(qstar, qstar.twist(-3)) == ExtDims(0, 0, 1)


def test_prioritary_sum_pattern():
    o = from_slope(Fraction(0))
    series = left_series(o, 0, 4)
    verdicts = [
        is_prioritary_sum([series[n], series[n + 1], o]) for n in range(4)
    ]
    assert verdicts == [TriState.NO, TriState.YES, TriState.YES, TriState.YES]


def test_prioritary_sum_with_multiplicities():
    o = from_slope(Fraction(0))
    qstar = from_slope(Fraction(-1, 2))
    assert is_prioritary_sum([(qstar, 2), (o, 1)]) is TriState.YES
    assert is_prioritary_sum([qstar, o]) is TriState.YES


def test_prioritary_sum_below_minus_three_is_no():
    # mu drops by 4 > 3 from E(5/2) to E(-3/2) = E(-1/2)(-1), so
    # Ext^2(E(5/2), E(-3/2)) = Hom(E(-3/2), E(-1/2))* has dim chi = 9.
    qstar = from_slope(Fraction(-1, 2))
    assert ext_dims(qstar.twist(3), qstar.twist(-1)) == ExtDims(0, 0, 9)
    assert is_prioritary_sum([qstar.twist(3), qstar]) is TriState.NO
    assert is_prioritary_sum([qstar.twist(3), qstar.twist(-1)]) is TriState.NO
    assert is_prioritary_sum([qstar.twist(3).dual(), qstar.dual()]) is TriState.NO


def test_prioritary_sum_reads_ext2_without_ext_records(monkeypatch):
    built, paired = [], []

    def record(*args):
        built.append(args)
        return ExtDims(*args)

    def pairing(a, b):
        paired.append((a, b))
        return euler_pairing(a, b)

    monkeypatch.setattr(helix, "ExtDims", record)
    monkeypatch.setattr(helix, "euler_pairing", pairing)
    o = from_slope(Fraction(0))
    qstar = from_slope(Fraction(-1, 2))
    series = left_series(o, 0, 4)
    paired.clear()
    verdicts = [is_prioritary_sum([series[n], series[n + 1], o]) for n in range(4)]
    assert verdicts == [TriState.NO, TriState.YES, TriState.YES, TriState.YES]
    assert is_prioritary_sum([qstar.twist(3), qstar, o]) is TriState.NO
    assert built == []
    # Only a pair at or below mu(a) - 3 reads chi(a, b); the slopes decide the rest.
    assert paired and all(b.slope() <= a.slope() - 3 for a, b in paired)


def test_negative_completed_dimension_is_an_inconsistency(monkeypatch):
    # O(-1) -> E(-1/2): mu rises, so Ext^1 = Ext^2 = 0 and Hom = chi = 3;
    # a chi of -1 would leave Hom = -1.
    a, b = from_slope(Fraction(-1)), from_slope(Fraction(-1, 2))
    monkeypatch.setattr(helix, "euler_pairing", lambda x, y: -1)
    with pytest.raises(InternalInconsistencyError, match="negative"):
        ext_dims(a, b)
    # E(7/2) -> O(-1): mu drops by 4.5 > 3, so Ext^2 = chi, which is never negative.
    with pytest.raises(InternalInconsistencyError, match=r"Ext\^2.* < 0"):
        ext_dims(b.twist(4), a)
    with pytest.raises(InternalInconsistencyError, match=r"Ext\^2.* < 0"):
        is_prioritary_sum([b.twist(4), a])


def _reference_contains(t, mu, disc, strict):
    """Triangle membership through Fraction values of the three conics."""
    ef = hirzebruch_p(mu - t.g.slope) - t.g.delta
    fg = hirzebruch_p(t.e.slope - mu) - t.e.delta
    eg = hirzebruch_p(t.h.slope - mu) - t.h.delta
    if strict:
        return disc < ef and disc < fg and disc > eg
    return disc <= ef and disc <= fg and disc >= eg


def test_contains_matches_fraction_form():
    rng = random.Random(1709)
    outcomes = set()
    for t in iterate_triads(4):
        lo, hi = t.e.slope, t.g.slope
        points = []
        for _ in range(30):
            mu = lo + (hi - lo) * Fraction(rng.randint(0, 1000), 1000)
            points.append((mu, Fraction(rng.randint(-200, 700), rng.randint(1, 999))))
        for i in range(9):
            mu = lo + (hi - lo) * Fraction(i, 8)
            for side in (t.side_ef, t.side_fg, t.side_eg):
                points.append((mu, side(mu)))  # on a side, or off it elsewhere
        for v in (t.e, t.f, t.g):
            points.append((v.slope, v.delta))
        for mu, disc in points:
            for strict in (False, True):
                got = t.contains(mu, disc, strict)
                assert got == _reference_contains(t, mu, disc, strict), (t.label(), mu, disc)
                outcomes.add((strict, got))
    assert outcomes == {(False, True), (False, False), (True, True), (True, False)}


def test_five_euler_pairings_per_triad(monkeypatch, fresh_lattice):
    # Triad.__init__ computes five pairings; children and the kernel
    # bundle take chi(e,f) = 3 rank(g) and chi(f,g) = 3 rank(e) from it.
    # An empty kept tree makes iterate_triads build every triad it yields.
    calls = []
    original = helix.euler_pairing

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(helix, "euler_pairing", counted)
    triads = list(iterate_triads(4))
    assert len(triads) == 31
    assert len(calls) == 5 * len(triads)


def test_repeated_renders_build_each_triad_once(monkeypatch, fresh_lattice):
    from prioritaire import render

    built = []
    original = helix._child

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(helix, "_child", counted)
    counts = []
    for _ in range(2):
        render.tile_csv(6)
        counts.append(len(built))
        built.clear()
    # The 127 triads of levels 0-6 are the root and 126 children.
    assert counts == [126, 0]


def test_kept_tree_matches_a_fresh_build_and_stays_bounded():
    fresh, level = [], [root()]
    for _ in range(13):
        fresh += level
        level = [c for t in level for c in children(t)]
    assert list(iterate_triads(12)) == fresh
    # Levels 0..MAX_TILE_DEPTH are kept, each slot filled; 11 and 12 are not.
    levels = range(helix.MAX_TILE_DEPTH + 1)
    assert [len(slots) for slots in helix._levels] == [1 << k for k in levels]
    assert [t for slots in helix._levels for t in slots] == fresh[: (1 << 11) - 1]
    assert _kept_count() == 2047


def test_whole_levels_are_read_off_the_kept_tree(monkeypatch):
    # The kept middles of exceptional._mids, which the first call filled.
    from prioritaire import exceptional

    enumerate_to_level(10)
    calls = []
    original = exceptional.compose

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(exceptional, "compose", counted)
    bundles = enumerate_to_level(10)
    assert calls == []
    assert len(bundles) == (1 << 10) + 1


def test_enumeration_builds_no_triad_from_a_fresh_lattice(monkeypatch, fresh_lattice):
    # Each level fetches its middles from exceptional._mids, composed on
    # first use, whatever the kept triad tree holds.
    from prioritaire import exceptional

    built = []
    init = helix.Triad.__init__
    monkeypatch.setattr(
        helix.Triad, "__init__", lambda t, *args: built.append(args) or init(t, *args)
    )
    bundles = enumerate_to_level(12)
    assert (len(bundles), built, _kept_count()) == ((1 << 12) + 1, [], 0)
    assert sum(m is not None for m in exceptional._mids) == 2047
    # The same middles as the kept tree's, which is built only now.
    triads = list(iterate_triads(helix.MAX_TILE_DEPTH))
    assert [bundles[(2 * t.index + 1) << (11 - t.level)] for t in triads] == [t.f for t in triads]


def test_levels_past_the_kept_tree_are_built_and_dropped():
    assert enumerate_to_level(12)[::4] == enumerate_to_level(10)
    assert len(helix._levels) == helix.MAX_TILE_DEPTH + 1


def test_levels_past_the_kept_tree_mutate_only_their_middles(monkeypatch):
    from prioritaire import exceptional

    enumerate_to_level(helix.MAX_TILE_DEPTH + 1)
    calls = {"compose": [], "_mutation": [], "_child": []}
    for module, name in ((exceptional, "compose"), (exceptional, "_mutation"), (helix, "_child")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, c=calls[name], f=original: c.append(a) or f(*a))
    level12 = enumerate_to_level(12)
    composed, mutated, made = calls.values()
    assert (len(made), len(composed), len(mutated)) == (0, 0, 2048)
    monkeypatch.undo()
    assert enumerate_to_level(13)[::2] == level12
    rng = random.Random(12)
    for p in [0, 1, 4095, 4096] + rng.sample(range(4097), 46):
        assert level12[p] == from_dyadic(Dyadic(p - 4096, 12))


def test_a_raise_keeps_no_unchecked_triad_and_the_next_call_completes_the_level(
    monkeypatch, fresh_lattice
):
    original = helix._child

    def failing(parent, right):
        t = original(parent, right)
        if (t.level, t.index) == (3, 5):
            raise InternalInconsistencyError("check failed halfway through level 3")
        return t

    monkeypatch.setattr(helix, "_child", failing)
    with pytest.raises(InternalInconsistencyError, match="halfway"):
        list(iterate_triads(4))
    # Levels 0-2 and the first five triads of level 3 passed their checks.
    assert [sum(t is not None for t in slots) for slots in helix._levels[:5]] == [1, 2, 4, 5, 0]
    assert helix._levels[3][5] is None
    monkeypatch.setattr(helix, "_child", original)
    first, second = iterate_triads(5), iterate_triads(5)
    a, b = [], []
    for x, y in zip(first, second):
        a.append(x)
        b.append(y)
    assert a == b == list(iterate_triads(5))
    assert [(t.level, t.index) for t in a] == [(k, i) for k in range(6) for i in range(1 << k)]
    assert _kept_count() == (1 << 6) - 1


def test_series_takes_its_bracket_from_one_walk(monkeypatch):
    # The initial pair comes from the walk that finds f's dyadic: one
    # middle fetched per level, and the same pair as the dyadic's neighbours.
    from prioritaire import exceptional

    for text, level in (("-5/16", 4), ("-1/2", 1), ("11/4", 2), ("-23/8", 3)):
        d = exceptional.parse_dyadic(text)
        f = exceptional.from_dyadic(d)
        lo, hi = d.neighbors()
        expected = [exceptional.from_dyadic(hi).twist(-3), exceptional.from_dyadic(lo)]
        calls = []
        original = exceptional._middle

        def counted(*args, _original=original):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(exceptional, "_middle", counted)
        assert left_series(f, 0, 1) == expected
        assert len(calls) == level
        monkeypatch.undo()
