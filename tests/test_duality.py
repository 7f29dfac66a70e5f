"""Duality: (r, c1, c2) -> (r, -c1, c2) and mu -> -mu give the same answers.

After normalization the dual query walks the mirror path x -> -1 - x of
the lattice, to another owner by another descent, so each pair checks
one derivation against an independent one, and an answer read from the
stores against one computed afresh.
"""

import random
from collections import Counter
from fractions import Fraction

from prioritaire import decompose, frontier
from prioritaire.chern import ChernData
from prioritaire.errors import NoPrioritarySheafError


def _band() -> list[tuple[int, int, int]]:
    """0 <= c1 <= r < 28, with the discriminant from about -1/4 to 1."""
    band = []
    for r in range(1, 28):
        for c1 in range(r + 1):
            base = (r - 1) * c1 * c1 // (2 * r)
            band += [(r, c1, c2) for c2 in range(base - r // 4 - 1, base + r + 2)]
    return band


def _counted(decomposition) -> Counter:
    """The summands by (kind, r, c1, c2), with multiplicity."""
    count = Counter()
    for s in decomposition.summands or ():
        d = s.chern_data()
        count[s.kind, d.rank, d.c1, d.c2] += s.multiplicity
    return count


def _dual(count: Counter) -> Counter:
    return Counter({(kind, r, -c1, c2): m for (kind, r, c1, c2), m in count.items()})


def test_dual_invariants_have_the_same_region(fresh_lattice):
    for r, c1, c2 in _band():
        tag = frontier.classify(ChernData(r, c1, c2)).tag
        assert frontier.classify(ChernData(r, -c1, c2)).tag is tag, (r, c1, c2)


def test_dual_invariants_split_into_dual_summands(fresh_lattice):
    split = refused = 0
    for r, c1, c2 in _band():
        try:
            ours = decompose.generic_prioritary(ChernData(r, c1, c2))
        except NoPrioritarySheafError:
            try:
                decompose.generic_prioritary(ChernData(r, -c1, c2))
            except NoPrioritarySheafError:
                refused += 1
                continue
            raise AssertionError(f"only ({r}, {-c1}, {c2}) has a prioritary sheaf")
        theirs = decompose.generic_prioritary(ChernData(r, -c1, c2))
        assert ours.region.tag is theirs.region.tag
        assert _counted(theirs) == _dual(_counted(ours)), (r, c1, c2)
        split += ours.summands is not None
    assert (split, refused) == (4503, 2962)


def test_frontiers_are_even(fresh_lattice):
    rng = random.Random(1401)
    for _ in range(3000):
        mu = Fraction(rng.randint(-400, 400), rng.randint(1, 150))
        assert frontier.delta(-mu) == frontier.delta(mu), mu
        assert frontier.delta_prime(-mu) == frontier.delta_prime(mu), mu
