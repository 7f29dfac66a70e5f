"""Frontier profiles and the region classification.

Frozen values were recomputed by hand: the frontier over the interval
of F is P(-|mu - mu(F)|) - Delta(F), so for example at mu = -1/3 the
owner is O and delta = P(-1/3) = (2/3)(5/3)/2 = 5/9; the rigidity
value there is 1/18 + sqrt(5)/6, confirmed against a 50-digit decimal
evaluation (0.42823355...).
"""

import random
from fractions import Fraction

import pytest

from prioritaire import exceptional
from prioritaire.chern import ChernData, dual, twist
from prioritaire.errors import InternalInconsistencyError
from prioritaire.frontier import (
    RegionTag,
    SemistableKind,
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
    assert semistable_exists(ChernData(1, 0, 1)) is SemistableKind.POSITIVE_DIM
    assert semistable_exists(ChernData(2, -1, 1)) is SemistableKind.EXCEPTIONAL_POINT
    assert semistable_exists(ChernData(4, -2, 2)) is SemistableKind.NONE
    assert semistable_exists(ChernData(4, -2, 3)) is SemistableKind.EXCEPTIONAL_POINT


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
