"""Frontier profiles and the region classification.

Frozen values were recomputed by hand: the frontier over the interval
of F is P(-|mu - mu(F)|) - Delta(F), so for example at mu = -1/3 the
owner is O and delta = P(-1/3) = (2/3)(5/3)/2 = 5/9; the rigidity
value there is 1/18 + sqrt(5)/6, confirmed against a 50-digit decimal
evaluation (0.42823355...).
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prioritaire import exceptional, frontier, helix
from prioritaire.chern import ChernData, dual, hirzebruch_p, normalize, twist
from prioritaire.errors import InternalInconsistencyError
from prioritaire.frontier import (
    RegionTag,
    classify,
    delta,
    delta_prime,
    prioritary_exists,
    semistable_exists,
)
from prioritaire.surd import QuadSurd


def test_delta_values():
    assert delta(Fraction(0)) == 1
    assert delta(Fraction(-1)) == 1
    assert delta(Fraction(-1, 2)) == Fraction(5, 8)
    assert delta(Fraction(-1, 3)) == Fraction(5, 9)
    assert delta(Fraction(-2, 5)) == Fraction(13, 25)
    assert delta(Fraction(-3, 8)) == Fraction(65, 128)
    assert delta(Fraction(-5, 8)) == Fraction(65, 128)
    assert delta(Fraction(-9, 20)) == Fraction(441, 800)


def test_delta_periodic():
    for mu in (Fraction(-1, 3), Fraction(-9, 20), Fraction(0)):
        for k in (-3, -1, 1, 5):
            assert delta(mu + k) == delta(mu)


def test_delta_symmetric_on_band():
    # mu -> -1 - mu fixes the frontier, by the mirror symmetry of the lattice.
    for mu in (Fraction(-1, 3), Fraction(-2, 7), Fraction(-9, 20), Fraction(-1, 8)):
        assert delta(mu) == delta(-1 - mu)


def test_delta_prime_values():
    assert delta_prime(Fraction(0)) == QuadSurd.from_rational(Fraction(0))
    assert delta_prime(Fraction(-1, 2)) == QuadSurd.from_rational(Fraction(3, 8))
    assert delta_prime(Fraction(-2, 5)) == QuadSurd.from_rational(Fraction(12, 25))
    assert delta_prime(Fraction(-1, 3)) == QuadSurd(Fraction(1, 18), Fraction(1, 6), 5)
    assert delta_prime(Fraction(-9, 20)) == QuadSurd(Fraction(301, 800), Fraction(1, 80), 32)


def test_delta_prime_below_delta():
    for mu in (Fraction(-1, 3), Fraction(-9, 20), Fraction(-4, 11), Fraction(-1, 7)):
        gap = QuadSurd.from_rational(delta(mu)) - delta_prime(mu)
        assert gap.sign() == 1


def test_prioritary_exists():
    assert not prioritary_exists(ChernData(2, -1, 0))
    assert prioritary_exists(ChernData(4, -2, 2))  # boundary included
    assert prioritary_exists(ChernData(1, 0, 0))


def test_semistable_exists():
    assert semistable_exists(ChernData(1, 0, 1)) is RegionTag.SEMISTABLE_POSITIVE_DIM
    assert semistable_exists(ChernData(2, -1, 1)) is RegionTag.SEMISTABLE_EXCEPTIONAL
    assert semistable_exists(ChernData(4, -2, 2)) is None
    assert semistable_exists(ChernData(4, -2, 3)) is RegionTag.SEMISTABLE_EXCEPTIONAL


def test_classify_examples():
    assert classify(ChernData(4, -2, 2)).tag is RegionTag.BELOW_DELTA_PRIME
    assert classify(ChernData(8, -4, 11)).tag is RegionTag.ABOVE_DELTA_PRIME
    assert classify(ChernData(3, 0, 1)).tag is RegionTag.SPECIAL_C0_C21
    assert classify(ChernData(2, -1, 1)).tag is RegionTag.SEMISTABLE_EXCEPTIONAL
    assert classify(ChernData(2, -1, 0)).tag is RegionTag.NO_PRIORITARY
    assert classify(ChernData(1, 0, 1)).tag is RegionTag.SEMISTABLE_POSITIVE_DIM
    assert classify(ChernData(2, 0, 1)).tag is RegionTag.SPECIAL_C0_C21


def test_classify_witnesses():
    r = classify(ChernData(8, -4, 11))
    assert r.witness is not None and r.witness.slope == Fraction(-1, 2)
    r = classify(ChernData(2, -1, 1))
    assert r.witness is not None and r.witness.rank == 2


def test_classify_twist_and_dual_invariant():
    rng = random.Random(11)
    for _ in range(200):
        cd = ChernData(rng.randint(1, 8), rng.randint(-8, 8), rng.randint(-6, 10))
        tag = classify(cd).tag
        assert classify(twist(cd, rng.randint(-3, 3))).tag is tag
        assert classify(dual(cd)).tag is tag


def test_classify_partition_small_sweep():
    # Exactly one tag fires; classify never raises on integral input.
    count = {tag: 0 for tag in RegionTag}
    cases = 0
    for r in range(1, 7):
        for c1 in range(-r, 1):
            for c2 in range(-3, 8):
                count[classify(ChernData(r, c1, c2)).tag] += 1
                cases += 1
    assert sum(count.values()) == cases == 297
    for tag in RegionTag:
        assert count[tag] > 0, tag


def test_one_owner_descent_per_query(monkeypatch):
    # classify, delta and delta_prime each walk the lattice once, through
    # the integer walk; classify stops before it below the prioritary bound.
    calls = []
    original = exceptional._owners

    def counted(pairs, max_depth):
        calls.append(pairs)
        return original(pairs, max_depth)

    monkeypatch.setattr(exceptional, "_owners", counted)
    seen = set()
    for r in range(1, 9):
        for c1 in range(-r, r + 1):
            for c2 in range(-3, 9):
                calls.clear()
                tag = classify(ChernData(r, c1, c2)).tag
                seen.add(tag)
                assert len(calls) == (0 if tag is RegionTag.NO_PRIORITARY else 1)
    assert seen == set(RegionTag)
    for mu in (Fraction(-1, 3), Fraction(-9, 20), Fraction(7, 5), Fraction(0)):
        for fn in (delta, delta_prime):
            calls.clear()
            fn(mu)
            assert len(calls) == 1


def _reference_delta(mu0, f):
    return hirzebruch_p(-abs(mu0 - f.slope)) - f.delta


def _reference_delta_prime(mu0, f):
    # delta - (1/r^2)(1 - dist/x_F), with 1/x_F = r(3r + sqrt(9r^2 - 4))/2.
    r = f.rank
    dist = abs(f.slope - mu0)
    base = _reference_delta(mu0, f) - Fraction(1, r * r)
    return QuadSurd(base + Fraction(3, 2) * dist, dist / (2 * r), 9 * r * r - 4)


def _endpoint_neighbours(f, digits):
    """Rationals within about 10^-digits of both ends of f's interval."""
    scale = 10 ** (digits + 2)
    root = Fraction(math.isqrt((9 * f.rank**2 - 4) * scale * scale), scale)
    x_f = (3 * f.rank - root) / (2 * f.rank)
    eps = Fraction(1, 10**digits)
    for d in (x_f - eps, x_f, x_f + eps):
        yield f.slope - d
        yield f.slope + d


def test_closed_forms_match_the_reference_formulas():
    rng = random.Random(2024)
    slopes = [f.slope for f in helix.enumerate_to_level(5)]  # mu = mu(F)
    for f in helix.enumerate_to_level(4):
        for digits in (1, 3, 8, 20):
            slopes += [mu for mu in _endpoint_neighbours(f, digits) if -1 <= mu <= 0]
    slopes += [Fraction(-rng.randint(0, 10**6), rng.randint(1, 10**6)) for _ in range(300)]
    slopes = [mu for mu in slopes if -1 <= mu <= 0]
    peaks = 0
    for mu0, f in zip(slopes, exceptional.locate_many(slopes)):
        terms = frontier._conic_terms(mu0.numerator, mu0.denominator, f)
        assert frontier._delta_of(terms) == _reference_delta(mu0, f), mu0
        dp = frontier._delta_prime_of(terms, f.rank)
        ref = _reference_delta_prime(mu0, f)
        # Same presentation, not only the same value: the renderer's
        # floats are read from (a, b, d).
        assert (dp.a, dp.b, dp.d) == (ref.a, ref.b, ref.d), mu0
        if mu0 == f.slope:
            peaks += 1
            assert dp.is_rational and dp.a == f.delta
    assert peaks == len(helix.enumerate_to_level(5))


def test_delta_many_matches_one_slope_queries():
    rng = random.Random(1997)
    slopes = [Fraction(rng.randint(-4000, 4000), rng.randint(1, 900)) for _ in range(200)]
    slopes += [Fraction(7, 5), Fraction(-12, 29) + 3, Fraction(2), Fraction(-5)]
    slopes += slopes[:20]  # duplicates
    got = frontier.delta_many(slopes)
    assert len(got) == len(slopes)
    for mu, (owner, d, dp) in zip(slopes, got):
        mu0 = mu - math.ceil(mu)
        assert owner == exceptional.locate_exceptional(mu0)
        assert d == delta(mu)
        assert dp == delta_prime(mu)
    assert frontier.delta_many([]) == []


def test_surd_sign_matches_quadsurd():
    for rf in (1, 2, 5, 13):
        for a in range(-60, 61):
            for b in range(8):
                expected = QuadSurd(a, -b, 9 * rf * rf - 4).sign()
                assert frontier._surd_sign(a, b, rf) == expected, (a, b, rf)


def _reference_region(cd, f):
    """The classification in Fraction and QuadSurd values, at the owner f of
    the normalized slope: the reference for the integer signs."""
    norm = normalize(cd)[0]
    mu, disc = norm.slope(), norm.discriminant()
    if disc < -mu * (mu + 1) / 2:
        return RegionTag.NO_PRIORITARY
    terms = frontier._conic_terms(norm.c1, norm.rank, f)
    if disc >= frontier._delta_of(terms):
        return RegionTag.SEMISTABLE_POSITIVE_DIM
    if (mu, disc) == (f.slope, f.delta):
        return RegionTag.SEMISTABLE_EXCEPTIONAL
    if (norm.c1, norm.c2) == (0, 1):
        return RegionTag.SPECIAL_C0_C21
    side = frontier._delta_prime_of(terms, f.rank).compare(disc)
    assert side != 0
    return RegionTag.ABOVE_DELTA_PRIME if side < 0 else RegionTag.BELOW_DELTA_PRIME


def _c2_at(r, c1, value):
    """c2 of (r, c1) with Delta = value, or None when it is not an integer."""
    num = 2 * r * r * value + (r - 1) * c1 * c1  # = 2 r c2
    if num.denominator != 1 or num.numerator % (2 * r):
        return None
    return num.numerator // (2 * r)


def _assert_integer_tags_match(points):
    cds = [ChernData(*p) for p in points]
    norms = [normalize(cd)[0] for cd in cds]
    owners = exceptional.locate_many([n.slope() for n in norms])
    tags = {tag: 0 for tag in RegionTag}
    for cd, f in zip(cds, owners):
        expected = _reference_region(cd, f)
        region = classify(cd)
        assert region.tag is expected, cd
        if expected is not RegionTag.NO_PRIORITARY:
            assert region.witness == f, cd
        # None below the prioritary bound too: semistable sheaves are prioritary.
        assert semistable_exists(cd) is (
            expected if expected.name.startswith("SEMISTABLE") else None
        ), cd
        assert prioritary_exists(cd) is (expected is not RegionTag.NO_PRIORITARY), cd
        tags[expected] += 1
    return tags


def test_integer_tags_match_the_surd_reference_on_the_band():
    # Every (r, c1) with r <= 40 and -r < c1 <= 0; c2 from two below the
    # prioritary bound to 13 above it, so every region is crossed.
    points = []
    for r in range(1, 41):
        for c1 in range(-r + 1, 1):
            floor = ((r - 2) * c1 * c1 - r * c1) // (2 * r)
            points += [(r, c1, c2) for c2 in range(floor - 2, floor + 14)]
    tags = _assert_integer_tags_match(points)
    assert all(tags.values()), tags


def test_integer_tags_match_on_the_bound_and_on_delta():
    # Every point with r <= 60 exactly on the prioritary bound or exactly
    # on delta, with its neighbours one c2 above and below.
    pairs = [(r, c1) for r in range(1, 61) for c1 in range(-r + 1, 1)]
    slopes = [Fraction(c1, r) for r, c1 in pairs]
    points = []
    found = [0, 0]
    for (r, c1), mu, f in zip(pairs, slopes, exceptional.locate_many(slopes)):
        delta = frontier._delta_of(frontier._conic_terms(c1, r, f))
        for i, value in enumerate((-mu * (mu + 1) / 2, delta)):
            c2 = _c2_at(r, c1, value)
            if c2 is not None:
                found[i] += 1
                points += [(r, c1, c2 + j) for j in (-1, 0, 1)]
    assert min(found) >= 100, found
    _assert_integer_tags_match(points)


def test_integer_tags_match_at_every_exceptional_point():
    # (mu(F), Delta(F)) for every F to level 5 and its multiples, each also
    # one c2 above and below, and twisted off the band.
    points = []
    for f in helix.enumerate_to_level(5):
        for k in (1, 2, 3):
            c2 = _c2_at(k * f.rank, k * f.c1, f.delta)
            assert c2 is not None
            for j in (-1, 0, 1):
                moved = twist(ChernData(k * f.rank, k * f.c1, c2 + j), 2)
                points += [(k * f.rank, k * f.c1, c2 + j), (moved.rank, moved.c1, moved.c2)]
    tags = _assert_integer_tags_match(points)
    assert tags[RegionTag.SEMISTABLE_EXCEPTIONAL] == 2 * 3 * len(helix.enumerate_to_level(5))


def test_integer_tags_match_on_random_invariants():
    rng = random.Random(8808)
    points = []
    for _ in range(2000):
        r = rng.randint(1, 400)
        c1 = rng.randint(-5 * r, 5 * r)
        # Delta = (2r c2 - (r-1) c1^2)/(2r^2) then lies in about [-1, 2],
        # which every region meets.
        points.append((r, c1, (r - 1) * c1 * c1 // (2 * r) + rng.randint(-r, 2 * r)))
    tags = _assert_integer_tags_match(points)
    assert sum(1 for t in tags.values() if t >= 100) == 4, tags


@given(
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**30),
    st.integers(1, 10**30),
)
@example(7, 0, 3, 1)  # n = 0: a rational, b and d both 0
@example(-5, 1, 1, 1)  # r = 1: the radicand 5
def test_the_trusted_delta_prime_is_the_checked_surd(rational, n, m, r):
    # _delta_prime_of builds its surd unchecked: 9r^2 - 4 is never a square.
    got = frontier._delta_prime_of((0, rational, n, m), r)
    want = QuadSurd(Fraction(rational, 2 * m * m), Fraction(n, 2 * m * r), 9 * r * r - 4)
    assert (type(got.a), type(got.b), type(got.d)) == (Fraction, Fraction, int)
    assert (got.a, got.b, got.d) == (want.a, want.b, want.d)

