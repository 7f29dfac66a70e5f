"""Splittings of the generic prioritary sheaf, all regions.

Every expected multiplicity below was recomputed by hand from the
character equations; the library reads the multiplicities below
delta_prime off Euler pairings and proves them by the character balance,
and the tests re-add the summand characters independently.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from prioritaire import helix
from prioritaire.chern import ChernData, twist
from prioritaire.decompose import (
    KIND_EXCEPTIONAL,
    KIND_GENERIC,
    KIND_POINT_EXT,
    Summand,
    generic_prioritary,
    stable_presentation,
)
from prioritaire.errors import InternalInconsistencyError, NoPrioritarySheafError
from prioritaire.exceptional import from_slope
from prioritaire.frontier import RegionTag, classify, delta
from prioritaire.surd import QuadSurd


def summand_map(result):
    return {(s.label(), s.kind): s.multiplicity for s in result.summands}


def assert_characters_add_up(result):
    total = (Fraction(0), Fraction(0), Fraction(0))
    for s in result.summands:
        ch = s.character()
        total = (
            total[0] + s.multiplicity * ch.rank,
            total[1] + s.multiplicity * ch.c1,
            total[2] + s.multiplicity * ch.ch2,
        )
    expect = result.input.character()
    assert total == (expect.rank, expect.c1, expect.ch2)


def test_below_unit_triangle():
    r = generic_prioritary(ChernData(4, -2, 2))
    assert r.region.tag is RegionTag.BELOW_DELTA_PRIME
    assert summand_map(r) == {
        ("O(-1)", KIND_EXCEPTIONAL): 1,
        ("E(-1/2)", KIND_EXCEPTIONAL): 1,
        ("O(0)", KIND_EXCEPTIONAL): 1,
    }
    assert_characters_add_up(r)


def test_below_with_multiplicities():
    r = generic_prioritary(ChernData(6, -3, 5))
    assert summand_map(r) == {
        ("O(-1)", KIND_EXCEPTIONAL): 1,
        ("E(-1/2)", KIND_EXCEPTIONAL): 2,
        ("O(0)", KIND_EXCEPTIONAL): 1,
    }
    assert_characters_add_up(r)


def test_below_zero_multiplicity_dropped():
    # The point sits exactly on one side of the tile, so one corner drops.
    r = generic_prioritary(ChernData(5, -2, 3))
    assert summand_map(r) == {
        ("E(-1/2)", KIND_EXCEPTIONAL): 2,
        ("O(0)", KIND_EXCEPTIONAL): 1,
    }
    assert r.verification["multiplicities"] == [0, 2, 1]
    assert r.verification["dropped_zero_multiplicities"] == 1
    assert_characters_add_up(r)


def test_below_deeper_tile():
    r = generic_prioritary(ChernData(14, -6, 22))
    assert r.verification["triangle"] == {"level": 1, "index": 1}
    assert summand_map(r) == {
        ("E(-1/2)", KIND_EXCEPTIONAL): 4,
        ("E(-2/5)", KIND_EXCEPTIONAL): 1,
        ("O(0)", KIND_EXCEPTIONAL): 1,
    }
    assert_characters_add_up(r)


def test_above_left_side():
    r = generic_prioritary(ChernData(8, -4, 11))
    assert r.region.tag is RegionTag.ABOVE_DELTA_PRIME
    assert r.verification["side"] == "left"
    assert summand_map(r) == {
        ("E(-1/2)", KIND_EXCEPTIONAL): 2,
        ("generic(4,-2,4)", KIND_GENERIC): 1,
    }
    generic = next(s for s in r.summands if s.kind == KIND_GENERIC)
    assert generic.data == ChernData(4, -2, 4)
    assert generic.data.discriminant() == delta(generic.data.slope())
    assert_characters_add_up(r)


def test_above_left_side_near_o():
    r = generic_prioritary(ChernData(9, -3, 8))
    assert summand_map(r) == {
        ("O(0)", KIND_EXCEPTIONAL): 1,
        ("generic(8,-3,8)", KIND_GENERIC): 1,
    }
    assert_characters_add_up(r)


def test_above_right_side_via_twist():
    r = generic_prioritary(ChernData(9, 3, 8))
    assert r.region.tag is RegionTag.ABOVE_DELTA_PRIME
    assert r.twist == -1
    assert r.verification["side"] == "right"
    assert summand_map(r) == {
        ("O(0)", KIND_EXCEPTIONAL): 1,
        ("generic(8,3,8)", KIND_GENERIC): 1,
    }
    assert_characters_add_up(r)


def test_exceptional_point_power():
    r = generic_prioritary(ChernData(4, -2, 3))
    assert r.region.tag is RegionTag.SEMISTABLE_EXCEPTIONAL
    assert summand_map(r) == {("E(-1/2)", KIND_EXCEPTIONAL): 2}
    r = generic_prioritary(ChernData(3, 0, 0))
    assert summand_map(r) == {("O(0)", KIND_EXCEPTIONAL): 3}
    assert_characters_add_up(r)


def test_special_pair():
    r = generic_prioritary(ChernData(3, 0, 1))
    assert r.region.tag is RegionTag.SPECIAL_C0_C21
    assert summand_map(r) == {
        ("O(0)", KIND_EXCEPTIONAL): 1,
        ("V", KIND_POINT_EXT): 1,
    }
    assert_characters_add_up(r)
    # Rank 2 leaves no line-bundle part at all.
    r = generic_prioritary(ChernData(2, 0, 1))
    assert summand_map(r) == {("V", KIND_POINT_EXT): 1}
    assert_characters_add_up(r)


def test_positive_dim_gives_no_splitting():
    r = generic_prioritary(ChernData(1, 0, 1))
    assert r.region.tag is RegionTag.SEMISTABLE_POSITIVE_DIM
    assert r.summands is None
    assert r.total_character() is None


def test_no_prioritary_raises():
    with pytest.raises(NoPrioritarySheafError) as err:
        generic_prioritary(ChernData(2, -1, 0))
    assert err.value.region.tag is RegionTag.NO_PRIORITARY


def test_a_refusal_holds_its_data():
    # The input, the normalized integers and the region are the error's
    # args and attributes; the message is written from them when read.
    cd = ChernData(5, 3, -7)
    with pytest.raises(NoPrioritarySheafError) as err:
        generic_prioritary(cd)
    exc = err.value
    assert exc.args == (cd, (5, -2, -9), exc.region)
    assert (exc.input, exc.normalized) == (cd, (5, -2, -9))
    assert exc.region == classify(cd)
    assert twist(cd, -1) == ChernData(*exc.normalized)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_refusal_survives_copy_and_pickle(clone):
    with pytest.raises(NoPrioritarySheafError) as err:
        generic_prioritary(ChernData(29, -12, 0))
    exc = err.value
    again = clone(exc)
    assert type(again) is NoPrioritarySheafError and again is not exc
    assert str(again) == str(exc)
    assert again.region == exc.region and again.region.tag is RegionTag.NO_PRIORITARY
    assert again.args == exc.args


_HUGE = 2**2100 + 3
# The refusal texts of the commit before the error kept its data, when it
# formatted two Fractions on raising; the lazy message keeps these bytes.
_REFUSALS = [
    ((2, -1, 0), "ChernData(rank=2, c1=-1, c2=0): discriminant -1/8 below the existence bound 1/8"),
    ((1, 0, -1), "ChernData(rank=1, c1=0, c2=-1): discriminant -1 below the existence bound 0"),
    ((8, -4, 2), "ChernData(rank=8, c1=-4, c2=2): discriminant -5/8 below the existence bound 1/8"),
    ((5, 3, -7), "ChernData(rank=5, c1=3, c2=-7): discriminant -53/25 below the existence bound 3/25"),
    (
        (29, -12, 0),
        "ChernData(rank=29, c1=-12, c2=0): discriminant -2016/841 below the existence bound 102/841",
    ),
    (
        (30, 41, 17),
        "ChernData(rank=30, c1=41, c2=17): discriminant -47729/1800 below the existence bound 209/1800",
    ),
    (
        (3, 2**2001, 0),
        "ChernData(rank=3, c1=<2002 bits>, c2=0): discriminant -<4003 bits>/<4 bits> "
        "below the existence bound 1/9",
    ),
    (
        (_HUGE, -1, -2),
        "ChernData(rank=<2101 bits>, c1=-1, c2=-2): discriminant -<2102 bits>/<4201 bits> "
        "below the existence bound <2100 bits>/<4201 bits>",
    ),
]


@pytest.mark.parametrize("point, text", _REFUSALS)
def test_the_refusal_text_keeps_its_bytes(point, text):
    with pytest.raises(NoPrioritarySheafError) as err:
        generic_prioritary(ChernData(*point))
    assert str(err.value) == "no prioritary sheaf with invariants " + text


def _band():
    """Every region: -2r <= c1 <= r, c2 from -3 to 8, r < 8."""
    for r in range(1, 8):
        for c1 in range(-2 * r, r + 1):
            for c2 in range(-3, 9):
                yield ChernData(r, c1, c2)


def _tag(cd):
    try:
        return generic_prioritary(cd).region.tag
    except NoPrioritarySheafError:
        return RegionTag.NO_PRIORITARY


def test_normalizes_once_per_query(monkeypatch):
    # generic_prioritary normalizes its input and hands the normalized
    # data on; classify does not normalize it a second time.
    from prioritaire import chern

    calls = []
    original = chern.normalize

    def counted(cd):
        calls.append(cd)
        return original(cd)

    monkeypatch.setattr(chern, "normalize", counted)
    seen = set()
    for cd in _band():
        calls.clear()
        seen.add(_tag(cd))
        assert len(calls) == 1
    assert seen == set(RegionTag)


def test_no_quadsurd_on_any_region(monkeypatch):
    # Every region decision is an integer sign; delta_prime is never built.
    built = []
    original = QuadSurd.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(QuadSurd, "__init__", counted)
    seen = {_tag(cd) for cd in _band()}
    assert seen == set(RegionTag)
    assert built == []


def test_no_fraction_comparison_decides_a_region(monkeypatch):
    # No region compares a Fraction, the triangle descent below
    # delta_prime included.
    compared = []
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        original = getattr(Fraction, name)

        def counted(a, b, _original=original):
            compared.append((a, b))
            return _original(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    seen = set()
    for cd in _band():
        tag = classify(cd).tag
        assert compared == [], cd
        assert _tag(cd) is tag
        assert compared == [], cd
        seen.add(tag)
    assert seen == set(RegionTag)


def test_above_delta_prime_finds_its_owner_once(monkeypatch):
    # The residual is checked at the owner already found: no second descent.
    import prioritaire.exceptional as ex

    calls = []
    original = ex._owners

    def counted(pairs):
        calls.append(pairs)
        return original(pairs)

    monkeypatch.setattr(ex, "_owners", counted)
    above = 0
    for cd in _band():
        calls.clear()
        if _tag(cd) is RegionTag.ABOVE_DELTA_PRIME:
            assert len(calls) == 1, cd
            above += 1
    assert above > 20


@pytest.mark.parametrize("shift", [-1, 1])
def test_residual_off_the_frontier_is_an_inconsistency(monkeypatch, shift):
    # (8, -4, 11) leaves the residual (4, -2, 4); pretend it is off delta.
    from prioritaire import frontier

    original = frontier._frontier_gaps

    def shifted(r, c1, c2, f):
        gaps = original(r, c1, c2, f)
        return ((gaps[0] + shift,) + gaps[1:]) if (r, c1, c2) == (4, -2, 4) else gaps

    monkeypatch.setattr(frontier, "_frontier_gaps", shifted)
    with pytest.raises(InternalInconsistencyError, match="not on the semistability frontier"):
        generic_prioritary(ChernData(8, -4, 11))


SPLITTING = (ChernData(4, -2, 2), ChernData(8, -4, 11), ChernData(3, 0, 1), ChernData(4, -2, 3))


def test_unbalanced_summands_are_an_inconsistency(monkeypatch):
    # The first summand keeps its rank and c1 but gains one in c2.
    import prioritaire.decompose as dec

    built = []

    def off_by_one_c2(*args, **kwargs):
        s = Summand(*args, **kwargs)
        built.append(s)
        if len(built) > 1:
            return s
        d = s.chern_data()
        return Summand(KIND_GENERIC, s.multiplicity, data=ChernData(d.rank, d.c1, d.c2 + 1))

    monkeypatch.setattr(dec, "Summand", off_by_one_c2)
    for cd in SPLITTING:
        built.clear()
        with pytest.raises(InternalInconsistencyError, match="do not add up"):
            generic_prioritary(cd)


def test_an_euler_pairing_one_too_large_fails_the_character_balance(monkeypatch):
    # The pairings are the answer and the balance their proof: m on
    # (14, -5, 18), the first pairing of the splitting, comes out one too
    # large, and the summands no longer add up.
    import prioritaire.decompose as dec

    cd = ChernData(14, -5, 18)
    assert generic_prioritary(cd).verification["multiplicities"] == [0, 1, 1]
    pairing, calls = dec.euler_pairing, []

    def first_one_too_large(a, b):
        calls.append((a, b))
        return pairing(a, b) + (len(calls) == 1)

    monkeypatch.setattr(dec, "euler_pairing", first_one_too_large)
    with pytest.raises(InternalInconsistencyError, match="do not add up"):
        generic_prioritary(cd)
    assert calls[0][0] == cd


def test_each_summand_is_built_once_in_the_callers_frame(monkeypatch):
    # Every region that splits, at twists away from the normalized band:
    # one Summand is built per summand of the answer.
    import prioritaire.decompose as dec

    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return Summand(*args, **kwargs)

    monkeypatch.setattr(dec, "Summand", counted)
    tags = set()
    for cd in SPLITTING:
        for k in (2, -3):
            built.clear()
            result = generic_prioritary(twist(cd, k))
            assert result.twist == -k
            assert len(built) == len(result.summands)
            tags.add(result.region.tag)
    assert tags == {
        RegionTag.BELOW_DELTA_PRIME,
        RegionTag.ABOVE_DELTA_PRIME,
        RegionTag.SPECIAL_C0_C21,
        RegionTag.SEMISTABLE_EXCEPTIONAL,
    }


def test_twist_equivariance():
    rng = random.Random(5)
    cases = 0
    for _ in range(300):
        cd = ChernData(rng.randint(1, 8), rng.randint(-8, 0), rng.randint(-2, 8))
        k = rng.randint(-3, 3)
        try:
            base = generic_prioritary(cd)
        except NoPrioritarySheafError:
            continue
        shifted = generic_prioritary(twist(cd, k))
        assert shifted.region.tag is base.region.tag
        if base.summands is None:
            assert shifted.summands is None
            continue
        cases += 1

        def key(kind, mult, ch):
            return (kind, mult, ch.rank, ch.c1, ch.ch2)

        lhs = sorted(
            key(s.kind, s.multiplicity, s.character().twist(k)) for s in base.summands
        )
        rhs = sorted(key(s.kind, s.multiplicity, s.character()) for s in shifted.summands)
        assert lhs == rhs
    assert cases > 20


def test_summand_validation():
    with pytest.raises(ValueError):
        Summand(KIND_EXCEPTIONAL, 0, bundle=from_slope(Fraction(0)))
    with pytest.raises(ValueError):
        Summand("mystery", 1)


def test_presentation_on_frontier():
    qstar = from_slope(Fraction(-1, 2))
    rep = stable_presentation(ChernData(4, -2, 4), qstar)
    assert (rep.k, rep.m1, rep.m2) == (0, 1, 5)
    assert rep.g0_3.label() == "O(0)" and rep.g1_3.label() == "O(2)"
    balance = (
        rep.f.character().scale(rep.k)
        + rep.g0_3.character().scale(rep.m2)
        - rep.g1_3.character().scale(rep.m1)
    )
    assert balance == ChernData(4, -2, 4).character()


def test_presentation_near_o():
    rep = stable_presentation(ChernData(8, -3, 8), from_slope(Fraction(0)))
    assert (rep.k, rep.m1, rep.m2) == (9, 2, 1)
    assert rep.describe() == "0 -> E -> O(0)^9 + O(1)^1 -> O(2)^2 -> 0"


def test_presentation_degenerate_point():
    qstar = from_slope(Fraction(-1, 2))
    rep = stable_presentation(ChernData(2, -1, 1), qstar)
    assert (rep.k, rep.m1, rep.m2) == (1, 0, 0)


def test_presentation_preconditions():
    qstar = from_slope(Fraction(-1, 2))
    with pytest.raises(ValueError):
        stable_presentation(ChernData(1, 0, 0), qstar)  # rank too small
    with pytest.raises(ValueError):
        stable_presentation(ChernData(9, -3, 8), qstar)  # slope right of f
    with pytest.raises(ValueError):
        stable_presentation(ChernData(4, -2, 5), qstar)  # off the frontier


def _count_fractions(monkeypatch, fn, items):
    """Number of ``Fraction`` objects built while fn runs over items, after a
    first pass that warms the caches."""
    for item in items:
        fn(item)
    built = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", staticmethod(counted))
        if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+ arithmetic
            create = Fraction._from_coprime_ints

            def counted_coprime(cls, *args):
                built[0] += 1
                return create(*args)

            m.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
        for item in items:
            fn(item)
    return built[0]


def _refusal_text(cd):
    try:
        generic_prioritary(cd)
    except NoPrioritarySheafError as exc:
        return str(exc)
    raise AssertionError(f"{cd} was not refused")


def test_warm_queries_build_no_fraction(monkeypatch):
    # A warm pass decides in integers: classify, left_series and
    # generic_prioritary build no Fraction, nor does a refusal, raised or
    # read: NoPrioritarySheafError writes its text in integers.
    from prioritaire.helix import left_series

    points = [
        ChernData(r, c1, c2)
        for r in range(1, 25)
        for c1 in range(-r - 2, r + 3)
        for c2 in range(-3, 15)
    ]
    assert len(points) == 12960
    prioritary, rejected = [], []
    for cd in points:
        (rejected if classify(cd).tag is RegionTag.NO_PRIORITARY else prioritary).append(cd)
    assert prioritary and rejected
    bundles = [from_slope(Fraction(p, q)) for p, q in ((0, 1), (-1, 2), (-2, 5), (-12, 29))]
    assert _count_fractions(monkeypatch, lambda f: left_series(f, -2, 4), bundles) == 0
    assert _count_fractions(monkeypatch, classify, points) == 0
    assert _count_fractions(monkeypatch, generic_prioritary, prioritary) == 0
    assert _count_fractions(monkeypatch, _tag, rejected) == 0
    assert _count_fractions(monkeypatch, _refusal_text, rejected) == 0
    # The counter does count: one slope, one Fraction.
    assert _count_fractions(monkeypatch, ChernData.slope, rejected[:10]) == 10


def _det3(u: tuple, v: tuple, w: tuple) -> int:
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - v[0] * (u[1] * w[2] - u[2] * w[1])
        + w[0] * (u[1] * v[2] - u[2] * v[1])
    )


@st.composite
def _normalized_band(draw):
    """(r, c1, c2) with r < 40, -r < c1 <= 0 and c2 from the prioritary
    bound, 2r c2 >= (r - 2) c1^2 - r c1, to twelve above it."""
    r = draw(st.integers(1, 39))
    c1 = draw(st.integers(-r + 1, 0))
    floor = -(((r - 2) * c1 * c1 - r * c1) // (-2 * r))
    return r, c1, floor + draw(st.integers(0, 12))


@given(_normalized_band(), st.integers(-3, 3))
def test_below_delta_prime_matches_a_cramer_solve_at_every_twist(point, k):
    norm = ChernData(*point)
    assume(classify(norm).tag is RegionTag.BELOW_DELTA_PRIME)
    result = generic_prioritary(twist(norm, k))
    assert result.twist == -k
    v = result.verification
    t = helix._levels[v["triangle"]["level"]][v["triangle"]["index"]]
    a, b, c, x = t.e.chern._vec, t.f.chern._vec, t.g.chern._vec, norm._vec
    det = _det3(a, b, c)
    cramer = [Fraction(_det3(*col), det) for col in ((x, b, c), (a, x, c), (a, b, x))]
    assert v["multiplicities"] == cramer
    bundles = [s.bundle for s in result.summands]
    assert v["prioritary_sum"] == helix.is_prioritary_sum(bundles).value
    assert_characters_add_up(result)
