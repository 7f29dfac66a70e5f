"""Chern data, characters, and the Euler pairing.

The pairing is computed in integers by the library and checked here
against two Fraction references (the slope/discriminant form and the
bilinear form on characters); they must agree everywhere, and the
duality relation chi(A,B) = chi(B, A(-3)) must hold exactly.  Twists
and normalization are checked against the route through characters.
"""

import math
import random
from fractions import Fraction

import pytest

from prioritaire.chern import (
    ChernCharacter,
    ChernData,
    character_pairing,
    dual,
    euler_char,
    euler_pairing,
    hirzebruch_p,
    normalize,
    twist,
)
from prioritaire.errors import InternalInconsistencyError


def test_hirzebruch_polynomial():
    assert hirzebruch_p(Fraction(0)) == 1
    assert hirzebruch_p(Fraction(-1)) == 0
    assert hirzebruch_p(Fraction(-2)) == 0
    assert hirzebruch_p(Fraction(-3)) == 1
    assert hirzebruch_p(Fraction(-1, 2)) == Fraction(3, 8)
    for x in (Fraction(1, 3), Fraction(-5, 7), Fraction(2)):
        assert hirzebruch_p(x - 3) == hirzebruch_p(-x)


def test_slope_and_discriminant():
    assert ChernData(2, -1, 1).slope() == Fraction(-1, 2)
    assert ChernData(2, -1, 1).discriminant() == Fraction(3, 8)
    assert ChernData(4, -2, 2).discriminant() == Fraction(1, 8)
    assert ChernData(1, 0, 0).slope() == 0
    assert ChernData(1, 0, 0).discriminant() == 0
    with pytest.raises(ValueError):
        ChernData(0, 1, 1)


def test_euler_characteristic_line_bundles():
    # chi(O(k)) = (k+1)(k+2)/2 by Riemann-Roch on the plane.
    for k in range(-6, 7):
        assert euler_char(ChernData(1, k, 0)) == (k + 1) * (k + 2) // 2
    assert euler_char(ChernData(2, -1, 1)) == 0


def test_euler_char_and_discriminant_match_the_fraction_forms():
    # Both are integer closed forms; the references are the Riemann-Roch
    # form r*(P(mu) - Delta) and Delta = (c2 - ((r-1)/(2r)) c1^2)/r.
    o = ChernData(1, 0, 0)
    for r in range(1, 13):
        for c1 in range(-12, 13):
            for c2 in range(-20, 41):
                cd = ChernData(r, c1, c2)
                disc = (Fraction(c2) - Fraction(r - 1, 2 * r) * c1 * c1) / r
                assert cd.discriminant() == disc
                chi = r * (hirzebruch_p(Fraction(c1, r)) - disc)
                assert chi.denominator == 1
                assert euler_char(cd) == chi == euler_pairing(o, cd)


def test_euler_pairing_spot_values():
    o = ChernData(1, 0, 0)
    qstar = ChernData(2, -1, 1)
    assert euler_pairing(o, o) == 1
    assert euler_pairing(ChernData(1, -1, 0), qstar) == 3
    assert euler_pairing(o, ChernData(1, -3, 0)) == 1
    assert euler_pairing(qstar, qstar) == 1


def test_character_roundtrip():
    cd = ChernData(5, -2, 3)
    ch = cd.character()
    assert ch.rank == 5 and ch.c1 == -2
    assert ch.to_data() == cd
    # ch2 must be a half-integer and must give back an integral c2.
    with pytest.raises(ValueError):
        ChernCharacter(2, 1, Fraction(1, 3))
    with pytest.raises(InternalInconsistencyError):
        ChernCharacter(2, 1, Fraction(0)).to_data()


def test_character_arithmetic():
    a = ChernData(2, -1, 1).character()
    b = ChernData(3, 1, 2).character()
    s = a + b
    assert s.rank == 5 and s.c1 == 0 and s.ch2 == a.ch2 + b.ch2
    assert (s - b) == a
    assert a.scale(3).rank == 6
    assert a.twist(2).to_data() == twist(ChernData(2, -1, 1), 2)


def test_twist_and_dual():
    cd = ChernData(5, -2, 3)
    assert twist(twist(cd, 4), -4) == cd
    assert twist(cd, 1).slope() == cd.slope() + 1
    assert twist(cd, 7).discriminant() == cd.discriminant()
    assert dual(cd).slope() == -cd.slope()
    assert dual(cd).discriminant() == cd.discriminant()
    assert dual(dual(cd)) == cd


def test_normalize():
    cd = ChernData(5, -2, 3)
    norm, k = normalize(twist(cd, 6))
    assert k == -6
    assert norm == cd
    for c1 in range(-7, 8):
        n, _ = normalize(ChernData(3, c1, 1))
        assert Fraction(-1) < n.slope() <= 0


def test_serre_duality_random_pairs():
    rng = random.Random(20260823)
    for _ in range(1000):
        a = ChernData(rng.randint(1, 12), rng.randint(-15, 15), rng.randint(-15, 15))
        b = ChernData(rng.randint(1, 12), rng.randint(-15, 15), rng.randint(-15, 15))
        assert euler_pairing(a, b) == euler_pairing(b, twist(a, -3))


def test_pairing_forms_agree():
    rng = random.Random(7)
    for _ in range(500):
        a = ChernData(rng.randint(1, 10), rng.randint(-12, 12), rng.randint(-12, 12))
        b = ChernData(rng.randint(1, 10), rng.randint(-12, 12), rng.randint(-12, 12))
        assert character_pairing(a.character(), b.character()) == euler_pairing(a, b)


def test_pairing_biadditive_in_characters():
    a = ChernData(2, -1, 1).character()
    b = ChernData(3, -2, 2).character()
    c = ChernData(4, 1, 3).character()
    assert character_pairing(a + b, c) == character_pairing(a, c) + character_pairing(b, c)
    assert character_pairing(c, a + b) == character_pairing(c, a) + character_pairing(c, b)


# -- the integer kernel against the Fraction formulas it replaced ----------


def _slope_form_pairing(a: ChernData, b: ChernData) -> Fraction:
    """Reference: r_a * r_b * (P(mu_b - mu_a) - Delta_a - Delta_b) in Fractions."""
    return a.rank * b.rank * (
        hirzebruch_p(b.slope() - a.slope()) - a.discriminant() - b.discriminant()
    )


def _random_data(rng: random.Random, bound: int) -> ChernData:
    c = 3 * bound
    return ChernData(rng.randint(1, bound), rng.randint(-c, c), rng.randint(-c, c))


def test_integer_pairing_matches_fraction_references():
    rng = random.Random(20261018)
    for bound in (3, 30, 10**6):
        for _ in range(700):
            a, b = _random_data(rng, bound), _random_data(rng, bound)
            chi = euler_pairing(a, b)
            assert type(chi) is int
            assert chi == _slope_form_pairing(a, b)
            assert chi == character_pairing(a.character(), b.character())


def test_integer_twist_and_normalize_match_character_route():
    rng = random.Random(31)
    for bound in (4, 50, 10**5):
        for _ in range(60):
            cd = _random_data(rng, bound)
            for k in range(-5, 6):
                shifted = twist(cd, k)
                assert shifted == cd.character().twist(k).to_data()
                k_ref = -math.ceil(shifted.slope())
                assert normalize(shifted) == (shifted.character().twist(k_ref).to_data(), k_ref)
