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

from prioritaire import exceptional, frontier
from prioritaire.chern import ChernData, dual, hirzebruch_p, twist
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
    # classify, delta and delta_prime each find the owner once; classify
    # stops before the descent below the prioritary bound.
    calls = []
    original = exceptional.locate_exceptional

    def counted(mu, max_depth=None):
        calls.append(mu)
        return original(mu, max_depth)

    monkeypatch.setattr(exceptional, "locate_exceptional", counted)
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
    slopes = [f.slope for f in exceptional.enumerate_to_level(5)]  # mu = mu(F)
    for f in exceptional.enumerate_to_level(4):
        for digits in (1, 3, 8, 20):
            slopes += [mu for mu in _endpoint_neighbours(f, digits) if -1 <= mu <= 0]
    slopes += [Fraction(-rng.randint(0, 10**6), rng.randint(1, 10**6)) for _ in range(300)]
    slopes = [mu for mu in slopes if -1 <= mu <= 0]
    peaks = 0
    for mu0, f in zip(slopes, exceptional.locate_many(slopes)):
        assert frontier._delta_at(mu0, f) == _reference_delta(mu0, f), mu0
        dp = frontier._delta_prime_at(mu0, f)
        ref = _reference_delta_prime(mu0, f)
        # Same presentation, not only the same value: the renderer's
        # floats are read from (a, b, d).
        assert (dp.a, dp.b, dp.d) == (ref.a, ref.b, ref.d), mu0
        if mu0 == f.slope:
            peaks += 1
            assert dp.is_rational and dp.a == f.delta
    assert peaks == len(exceptional.enumerate_to_level(5))


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
