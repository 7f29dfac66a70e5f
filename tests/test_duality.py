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
from prioritaire.chern import ChernData, euler_pairing
from prioritaire.errors import NoPrioritarySheafError
from prioritaire.helix import enumerate_to_level, ext_dims, is_prioritary_sum


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


def test_duality_reverses_the_euler_pairing():
    # chi(a*, b*) = chi(b, a) on the lattice to level 4 and its twists.
    bundles = enumerate_to_level(4)
    twisted = [b.twist(k) for b in bundles for k in range(-3, 4)]
    assert len(bundles) * len(twisted) == 2023
    for a in bundles:
        for b in twisted:
            assert euler_pairing(a.dual().chern, b.dual().chern) == euler_pairing(b.chern, a.chern)


def _h0_line(t: int) -> int:
    """h^0(O(t)) on the projective plane."""
    return (t + 1) * (t + 2) // 2 if t >= 0 else 0


def test_ext_dims_obey_serre_duality_and_dualization():
    # Every ordered pair of the lattice to level 4 without O, twisted by
    # -7..6: 50 176 pairs, with slope gaps from -8 to 8.
    bundles = [b.twist(k) for b in enumerate_to_level(4)[:-1] for k in range(-7, 7)]
    assert len(bundles) ** 2 == 50176
    dual = [a.dual() for a in bundles]
    dims = [[ext_dims(a, b) for b in bundles] for a in bundles]
    lines = 0
    for i, a in enumerate(bundles):
        down = a.twist(-3)
        for j, b in enumerate(bundles):
            d = dims[i][j]
            got = (d.hom, d.ext1, d.ext2)
            assert all(type(v) is int and v >= 0 for v in got), (a, b)
            assert d.hom - d.ext1 + d.ext2 == euler_pairing(a.chern, b.chern), (a, b)
            # Serre duality: Ext^i(a, b) = Ext^(2-i)(b, a(-3))*.
            serre = ext_dims(b, down)
            assert got == (serre.ext2, serre.ext1, serre.hom), (a, b)
            # Dualization: Ext^i(a*, b*) = Ext^i(b, a).
            assert ext_dims(dual[i], dual[j]) == dims[j][i], (a, b)
            assert is_prioritary_sum([dual[i], dual[j]]) is is_prioritary_sum([a, b]), (a, b)
            if a.rank == b.rank == 1:
                t = b.c1 - a.c1
                assert got == (_h0_line(t), 0, _h0_line(-t - 3)), (a, b)
                lines += 1
    assert lines == 14 * 14


def test_frontiers_are_even(fresh_lattice):
    rng = random.Random(1401)
    for _ in range(3000):
        mu = Fraction(rng.randint(-400, 400), rng.randint(1, 150))
        assert frontier.delta(-mu) == frontier.delta(mu), mu
        assert frontier.delta_prime(-mu) == frontier.delta_prime(mu), mu
