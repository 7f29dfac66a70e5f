"""Built-in consistency checks.

Each check exercises one family of invariants and reports a
(name, ok, detail) record; ``run_selfcheck`` runs them all.  The
``depth`` knob bounds the enumeration depth of the lattice and tiling
checks so the suite stays fast at the default.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from . import decompose, exceptional, frontier, helix
from ._record import Record
from .chern import ChernData, character_pairing, euler_pairing, twist
from .errors import InternalInconsistencyError, NoPrioritarySheafError
from .surd import (
    QuadSurd,
    compare_sqrt_sum,
    decimal_str,
    format_rational,
    format_surd,
    parse_rational,
    parse_surd,
)


def _require(ok: bool, what: str) -> None:
    """Raise InternalInconsistencyError unless ok.  Unlike ``assert``,
    this check is not stripped by ``python -O``."""
    if not ok:
        raise InternalInconsistencyError(what)


class CheckResult(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


def _decimal_sign(s: QuadSurd) -> int:
    value = Decimal(decimal_str(s, 60))
    if abs(value) < Decimal("1e-40"):
        return 0
    return 1 if value > 0 else -1


def _check_surds() -> str:
    from random import Random  # here, not at the top: other commands should not import it

    rng = Random(20260823)
    samples = []
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        d = rng.choice([0, 2, 3, 5, 77, 9 * 25 - 4, 9 * 169 - 4])
        samples.append(QuadSurd(a, b, d))
    for s in samples:
        _require(s.sign() == _decimal_sign(s), f"sign mismatch for {s}")
    for x in samples[:60]:
        for y in samples[:60]:
            if x.d and y.d and x.d != y.d:
                continue
            _require((x + y) - y == x, f"({x} + {y}) - {y} != {x}")
    _require(compare_sqrt_sum(Fraction(2), Fraction(8), Fraction(5)) < 0, "sqrt 2 + sqrt 8 < 5")
    _require(compare_sqrt_sum(Fraction(4), Fraction(9), Fraction(5)) == 0, "sqrt 4 + sqrt 9 = 5")
    _require(compare_sqrt_sum(Fraction(4), Fraction(9), Fraction(4)) > 0, "sqrt 4 + sqrt 9 > 4")
    return f"{len(samples)} surds against 60-digit decimal evaluation"


def _check_pairings() -> str:
    from random import Random

    rng = Random(97)
    count = 0
    for _ in range(300):
        a = ChernData(rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        b = ChernData(rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        chi = euler_pairing(a, b)
        by_character = character_pairing(a.character(), b.character())
        _require(chi == by_character, f"chi({a}, {b}) forms differ")
        _require(chi == euler_pairing(b, twist(a, -3)), f"chi({a}, {b}) breaks duality")
        count += 1
    return f"{count} pairs: integer form vs character form, and the duality relation"


def _check_lattice(depth: int) -> str:
    finer = helix.enumerate_to_level(depth + 1)
    bundles = finer[::2]
    for f in bundles:
        _require(exceptional._c2(f.rank, f.c1) == (f.c2, 0), f"c2 of {f.label()}")
    for left, m, right in zip(bundles, finer[1::2], bundles[1:]):
        # Intervals (slope - x, slope + x) of consecutive bundles must not
        # overlap.  The middle m between them lies in neither open interval,
        # so mu(left) + x_left <= mu(m) <= mu(right) - x_right: in integers.
        _require(
            not (left._contains(m.c1, m.rank) or right._contains(m.c1, m.rank)),
            f"intervals of {left.label()} and {right.label()} overlap",
        )
    return f"{len(bundles)} bundles to level {depth}: integrality, rigidity, disjoint intervals"


def _check_frontier(depth: int) -> str:
    for f in helix.enumerate_to_level(depth):
        _require(
            frontier.delta(f.slope) - f.delta == Fraction(1, f.rank**2),
            f"peak height at {f.label()}",
        )
    for mu in (Fraction(-1, 3), Fraction(-2, 5), Fraction(0), Fraction(-17, 24)):
        d = frontier.delta(mu)
        _require(d == frontier.delta(mu + 1), f"delta not 1-periodic at {mu}")
        _require(d == frontier.delta(mu - 3), f"delta not 1-periodic at {mu}")
        dp = frontier.delta_prime(mu)
        _require((dp - QuadSurd.from_rational(d)).sign() <= 0, f"delta' > delta at {mu}")
    return "peak heights 1/r^2, period one, delta' <= delta"


def _check_triads(depth: int) -> str:
    # Breadth-first: the children of triads[k] are triads[2k + 1] and triads[2k + 2].
    triads = list(helix.iterate_triads(depth))
    for k, t in enumerate(triads):
        d = t.mid_dyadic()  # the (level, index) bookkeeping
        _require(exceptional.from_dyadic(d) == t.f, f"middle of {t.label()} is not at {d}")
        for side, ends in (
            (t.side_ef, (t.e, t.f)),
            (t.side_fg, (t.f, t.g)),
            (t.side_eg, (t.e, t.g)),
        ):
            for v in ends:
                _require(side(v.slope) == v.delta, f"vertex {v.label()} off a side of {t.label()}")
        if t.level < depth:
            left, right = triads[2 * k + 1], triads[2 * k + 2]
            for i in range(1, 4):
                mu = t.e.slope + (t.f.slope - t.e.slope) * Fraction(i, 4)
                _require(left.side_eg(mu) == t.side_ef(mu), f"left child of {t.label()}")
                mu = t.f.slope + (t.g.slope - t.f.slope) * Fraction(i, 4)
                _require(right.side_eg(mu) == t.side_fg(mu), f"right child of {t.label()}")
    count = len(triads)
    expected = (1 << (depth + 1)) - 1
    _require(count == expected, f"{count} tiles, expected {expected}")
    return f"{count} tiles to level {depth}: vertices on sides, children share sides"


def _check_series(depth: int) -> str:
    checked = 0
    for f in (
        exceptional.from_slope(Fraction(0)),
        exceptional.from_slope(Fraction(-1, 2)),
        exceptional.from_slope(Fraction(-2, 5)),
    ):
        members = helix.left_series(f, -3, depth + 4)
        checked += len(members)
        mirrored = helix.right_series(f, -3, depth + 4)
        for g, h in zip(members, mirrored):
            _require(h.slope == g.slope + 3, f"series of {f.label()} not mirrored")
    return f"{checked} series members orthogonal to their source"


def _check_decompose(depth: int) -> str:
    fixed = [
        ChernData(8, -4, 11),
        ChernData(9, -3, 8),
        ChernData(9, 3, 8),
        ChernData(5, -2, 3),
        ChernData(4, -2, 2),
        ChernData(10, -4, 8),
        ChernData(4, 0, 2),
        ChernData(6, -3, 5),
        ChernData(1, 0, 0),
        ChernData(2, -1, 1),
    ]
    split = 0
    refused = 0
    for r in range(1, depth + 3):
        for c1 in range(-r, 1):
            for c2 in range(-2, 7):
                fixed.append(ChernData(r, c1, c2))
    for cd in fixed:
        try:
            result = decompose.generic_prioritary(cd)
        except NoPrioritarySheafError:
            refused += 1
            continue
        if result.summands is not None:
            split += 1
    return f"{split} splittings verified, {refused} below the existence bound"


def _check_roundtrip() -> str:
    values = [Fraction(0), Fraction(-3, 8), Fraction(22, 7), Fraction(5)]
    for v in values:
        _require(parse_rational(format_rational(v)) == v, f"rational {v}")
    surds = [
        QuadSurd(Fraction(1, 2), Fraction(-1, 10), 221),
        QuadSurd(Fraction(-3), Fraction(0), 0),
        QuadSurd(Fraction(0), Fraction(7, 3), 5),
    ]
    for s in surds:
        _require(parse_surd(format_surd(s)) == s, f"surd {s}")
    return "rational and surd strings round-trip"


CHECKS = (
    ("surd arithmetic and signs", lambda depth: _check_surds()),
    ("euler pairing forms", lambda depth: _check_pairings()),
    ("exceptional lattice", _check_lattice),
    ("frontier profile", _check_frontier),
    ("triangle tiling", _check_triads),
    ("orthogonal series", _check_series),
    ("generic splittings", _check_decompose),
    ("string round-trips", lambda depth: _check_roundtrip()),
)


def run_selfcheck(depth: int = 4) -> list[CheckResult]:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn(depth)
            results.append(CheckResult(name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report, do not mask, failures
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
