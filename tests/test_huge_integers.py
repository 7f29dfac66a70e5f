"""Integers of up to 20 000 bits under Python's default int-to-str limit.

Python refuses to write an integer of more than 4 300 digits (about
14 000 bits) with ``str()``, and raises a bare ``ValueError`` instead.  No
message or label of the library may depend on that limit: each error stays the
library's own, with its own text, which names a term past 2 000 bits by
its bit length (``_record._ratio``).
"""

from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prioritaire.chern import ChernCharacter, ChernData
from prioritaire.decompose import (
    KIND_EXCEPTIONAL,
    KIND_GENERIC,
    KIND_POINT_EXT,
    Summand,
    generic_prioritary,
    stable_presentation,
)
from prioritaire.errors import NoPrioritarySheafError, ParseError, PrioritaireError
from prioritaire.exceptional import (
    Dyadic,
    ExceptionalBundle,
    compose,
    from_dyadic,
    from_slope,
    parse_dyadic,
)
from prioritaire.frontier import Region, RegionTag

BIG = 2**15000 + 1  # 4 516 digits


def test_summand_multiplicity_message(default_digit_limit):
    with pytest.raises(ValueError, match=r"^multiplicity must be >= 1, got -<15001 bits>$"):
        Summand(KIND_EXCEPTIONAL, -BIG)


def test_stable_presentation_messages(default_digit_limit):
    o = from_slope(Fraction(0))
    for cd, text in (
        (ChernData(BIG, 1, 0), r"^slope <1 bits>/<15001 bits> right of mu\(f\) = 0$"),
        (
            ChernData(BIG, 1 - BIG, 0),
            r"^slope -<15001 bits>/<15001 bits> outside the interval of O\(0\)$",
        ),
        (
            ChernData(BIG, -1, 0),
            r"^discriminant -<15000 bits>/<30001 bits> not on the semistability frontier "
            r"at -<1 bits>/<15001 bits>$",
        ),
    ):
        with pytest.raises(ValueError, match=text):
            stable_presentation(cd, o)
    # Under 2 000 bits the terms keep their digits.
    with pytest.raises(ValueError, match=r"^slope 1/3 right of mu\(f\) = 0$"):
        stable_presentation(ChernData(3, 1, 0), o)


def test_summand_labels(default_digit_limit):
    assert Summand(KIND_POINT_EXT, 1, twist=BIG).label() == "V(<15001 bits>)"
    data = ChernData(BIG, -BIG, BIG)
    label = Summand(KIND_GENERIC, 1, data=data).label()
    assert label == "generic(<15001 bits>,-<15001 bits>,<15001 bits>)"
    # Under 2 000 bits the terms keep their digits.
    assert Summand(KIND_POINT_EXT, 1, twist=-3).label() == "V(-3)"
    assert Summand(KIND_GENERIC, 1, data=ChernData(2, -1, 5)).label() == "generic(2,-1,5)"


HUGE = 10**5000 + 1  # 16 610 bits


def test_lattice_and_dyadic_refusals(default_digit_limit):
    for call, error, text in (
        (
            lambda: ExceptionalBundle(-HUGE, 1),
            ValueError,
            r"^rank -<16610 bits> of \(-<16610 bits>, 1\) is not positive$",
        ),
        (
            lambda: from_slope(Fraction(1, HUGE)),
            ValueError,
            r"^1/<16610 bits> is not an exceptional slope \(c2 not integral\)$",
        ),
        (lambda: Dyadic(1, -HUGE), ValueError, r"^negative level -<16610 bits>$"),
        (
            lambda: Dyadic(HUGE, 0).neighbors(),
            ValueError,
            r"^<16610 bits> is an integer and has no bracketing pair$",
        ),
        (
            lambda: Dyadic.from_fraction(Fraction(1, 3 * HUGE)),
            ParseError,
            r"^<1 bits>/<16612 bits> is not dyadic \(denominator <16612 bits>\)$",
        ),
    ):
        with pytest.raises(error, match=text):
            call()
    # Under 2 000 bits the terms keep their digits, unreduced where given so.
    with pytest.raises(ValueError, match=r"^2/4 is not an exceptional slope"):
        ExceptionalBundle(4, 2)
    with pytest.raises(ParseError, match=r"^1/6 is not dyadic \(denominator 6\)$"):
        Dyadic.from_fraction(Fraction(1, 6))


def test_compose_refusals(default_digit_limit):
    # Alternating dyadics at levels 18 and 20: ranks of 8 737 and 22 876 bits.
    a = from_dyadic(Dyadic(-(4**10 - 1) // 3, 20))
    b = from_dyadic(Dyadic(-(4**9 - 1) // 3, 18))
    order = r"^compose needs slope\(a\) < slope\(b\), got "
    slopes = r"-<8736 bits>/<8737 bits>, -<22875 bits>/<22876 bits>$"
    with pytest.raises(ValueError, match=order + slopes):
        compose(b, a)
    with pytest.raises(ValueError, match=r"^slope gap <31614 bits>/<31613 bits> too wide"):
        compose(a, b.twist(3))
    # Under 2 000 bits the slopes keep their digits.
    o, e = from_slope(Fraction(0)), from_slope(Fraction(-1, 2))
    with pytest.raises(ValueError, match=order + r"0, -1/2$"):
        compose(o, e)
    with pytest.raises(ValueError, match=r"^slope gap 7/2 too wide for composition$"):
        compose(e, o.twist(3))


def test_a_deep_dyadic_writes_its_level(default_digit_limit):
    # Once 2^q passes 2 000 bits the denominator is written as 2^q: exact,
    # and read back by parse_dyadic.
    for d, text in (
        (Dyadic(1, 20000), "1/2^20000"),
        (Dyadic(-3, 2000), "-3/2^2000"),
        (Dyadic(-3, 4), "-3/16"),
        (Dyadic(5, 0), "5"),
    ):
        assert str(d) == text
        assert parse_dyadic(text) == d
    assert str(Dyadic(-1, 1999)) == f"-1/{1 << 1999}"


@st.composite
def _integers(draw):
    """An integer of up to 20 000 bits, of either sign: short ones, ones
    near the 2 000 bits past which a message names a term by its length,
    and ones past the limit's 14 000 bits."""
    low, high = draw(st.sampled_from(((0, 8), (1995, 2005), (14_000, 20_000))))
    bits = draw(st.integers(low, high))
    low = draw(st.integers(0, 7))
    return draw(st.sampled_from((1, -1))) * ((1 << bits) + low)


def _own(call, *texts):
    """call(), or None when it raises the library's own error, whose text
    begins with one of texts and was written under the limit."""
    try:
        return call()
    except (ValueError, PrioritaireError) as exc:
        text = str(exc)
        assert "Exceeds the limit" not in text
        assert text.startswith(texts), text
        return None


_OWNERS = [from_slope(Fraction(*s)) for s in ((0, 1), (-1, 2), (-2, 5))]
_SETTINGS = settings(
    max_examples=60,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_SETTINGS
@given(_integers(), _integers(), _integers(), st.sampled_from(_OWNERS))
def test_records_and_presentations_take_huge_integers(default_digit_limit, r, c1, c2, f):
    cd = _own(lambda: ChernData(r, c1, c2), "rank must be >= 1, got ")
    # An odd c2 over 2 is a half-integer, an even one over 3 is not.
    ch2 = Fraction(c2, 2 if c2 & 1 else 3)
    ch = _own(lambda: ChernCharacter(r, c1, ch2), "ch2 must be a half-integer, got ")
    for record in (cd, ch):
        assert "Exceeds the limit" not in repr(record)
    payloads = [(KIND_EXCEPTIONAL, {"bundle": f}), (KIND_POINT_EXT, {})]
    if cd is not None:
        payloads.append((KIND_GENERIC, {"data": cd}))
        report = _own(lambda: stable_presentation(cd, f), "rank 1 < 2", "slope ", "discriminant ")
        assert report is None or report.input is cd
    for kind, payload in payloads:
        s = _own(lambda: Summand(kind, c1, twist=r, **payload), "multiplicity must be >= 1, got ")
        assert s is None or (s.multiplicity, s.twist) == (c1, r)
        assert s is None or "Exceeds the limit" not in s.label()


@_SETTINGS
@given(_integers(), _integers(), _integers())
def test_a_refusal_writes_huge_integers(default_digit_limit, r, c1, c2):
    r, c2 = abs(r) or 1, -abs(c2) or -1
    # c2 < 0 puts the discriminant below 0, which no prioritary sheaf has.
    with pytest.raises(NoPrioritarySheafError) as err:
        generic_prioritary(ChernData(r, c1, c2))
    text = str(err.value)
    assert text.startswith("no prioritary sheaf with invariants ChernData(rank=")
    assert "below the existence bound" in text and "Exceeds the limit" not in text
    # Built from outside with any normalized integers, it writes them too.
    exc = NoPrioritarySheafError(None, (r, c1, c2), Region(RegionTag.NO_PRIORITARY))
    assert "Exceeds the limit" not in str(exc)
