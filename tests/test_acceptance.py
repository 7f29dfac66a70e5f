"""Ten end-to-end acceptance checks.

Each check prints one summary line and re-derives its expected values
with oracles local to this file: the closed-form character pairing, a
hand-rolled Cramer solve, residual searches, and exact surd bounds.
Nothing here trusts the library's own internal verification records
except where the record itself is the object under test.
"""

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from prioritaire import frontier
from prioritaire.chern import (
    ChernCharacter,
    ChernData,
    character_pairing,
    euler_pairing,
)
from prioritaire.cli import main as cli_main
from prioritaire.decompose import KIND_EXCEPTIONAL, KIND_GENERIC, generic_prioritary
from prioritaire.exceptional import (
    Dyadic,
    compose,
    from_dyadic,
    from_slope,
    locate_exceptional,
)
from prioritaire.frontier import RegionTag
from prioritaire.helix import (
    TriState,
    enumerate_to_level,
    is_prioritary_sum,
    iterate_triads,
    left_series,
    locate_triangle,
)
from prioritaire.surd import QuadSurd, compare_sqrt_sum


@contextmanager
def report(num, slug):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d} {slug}: FAIL")
        raise
    print(f"acceptance {num:02d} {slug}: PASS")


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _solve3(columns, rhs):
    m = [[columns[j][i] for j in range(3)] for i in range(3)]
    d = _det3(m)
    assert d != 0
    out = []
    for j in range(3):
        mj = [row[:] for row in m]
        for i in range(3):
            mj[i][j] = rhs[i]
        out.append(Fraction(_det3(mj), d))
    return out


def _ch_tuple(b):
    ch = b.character()
    return (ch.rank, ch.c1, ch.ch2)


def test_acceptance_01_bisection_matches_composition():
    with report(1, "bisection matches composition with exact orthogonality"):
        t0 = time.perf_counter()
        seen = 0
        for q in range(1, 9):
            for num in range(-(1 << q) + 1, 0, 2):
                d = Dyadic(num, q)
                a, b = d.neighbors()
                ga, gb, gd = from_dyadic(a), from_dyadic(b), from_dyadic(d)
                gc = compose(ga, gb)
                assert (gc.rank, gc.c1, gc.c2) == (gd.rank, gd.c1, gd.c2)
                assert character_pairing(gd.character(), ga.character()) == 0
                assert character_pairing(gb.character(), gd.character()) == 0
                seen += 1
        assert seen == 255
        assert time.perf_counter() - t0 < 2.0


def test_acceptance_02_triad_tree_invariants():
    with report(2, "triad tree invariants to depth 8"):
        seen = 0
        for t in iterate_triads(8):
            re_, rf, rg = t.e.rank, t.f.rank, t.g.rank
            assert re_ * re_ + rf * rf + rg * rg == 3 * re_ * rf * rg
            assert euler_pairing(t.e.chern, t.f.chern) == 3 * rg
            assert euler_pairing(t.f.chern, t.g.chern) == 3 * re_
            for f in (t.e, t.f, t.g):
                assert math.gcd(f.rank, abs(f.c1)) == 1
                assert f.delta == Fraction(f.rank * f.rank - 1, 2 * f.rank * f.rank)
                c2 = Fraction((f.rank - 1) * (f.rank + 1 + f.c1 * f.c1), 2 * f.rank)
                assert c2.denominator == 1 and c2 == f.c2
            seen += 1
        assert seen == 2**9 - 1


def test_acceptance_03_location_and_interval_disjointness():
    with report(3, "rational slopes locate, intervals stay disjoint"):
        rng = random.Random(2026)
        for _ in range(500):
            den = rng.randint(1, 200)
            mu = Fraction(rng.randint(-den, 0), den)
            f = locate_exceptional(mu)
            margin = f.half_width() - abs(mu - f.slope)
            assert margin.compare(0) > 0

        bundles = enumerate_to_level(12)
        assert len(bundles) == 2**12 + 1
        slopes = [b.slope for b in bundles]
        assert slopes == sorted(slopes) and len(set(slopes)) == len(slopes)
        for left, right in zip(bundles, bundles[1:]):
            gap = right.slope - left.slope
            u2 = Fraction(9 * left.rank**2 - 4, 4 * left.rank**2)
            v2 = Fraction(9 * right.rank**2 - 4, 4 * right.rank**2)
            # sqrt(u2) + sqrt(v2) > 3 - gap <=> the half-widths sum below
            # the distance between the two centres.
            assert compare_sqrt_sum(u2, v2, 3 - gap) > 0


def test_acceptance_04_tiling_disjoint_interiors_shared_sides():
    with report(4, "tiles have disjoint interiors and shared sides"):
        tiles = list(iterate_triads(6))
        per_level = Counter(t.level for t in tiles)
        running = 0
        for n in range(7):
            running += per_level[n]
            assert running == 2 ** (n + 1) - 1

        for t in tiles:
            span = t.g.slope - t.e.slope
            for i in range(1, 11):
                mu = t.e.slope + span * Fraction(i, 11)
                bottom = t.side_eg(mu)
                top = min(t.side_ef(mu), t.side_fg(mu))
                assert bottom < top
                point = (bottom + top) / 2
                assert t.contains(mu, point, strict=True)
                hits = sum(1 for o in tiles if o.contains(mu, point, strict=True))
                assert hits == 1

        # Breadth-first order puts the children of tiles[k] at 2k+1, 2k+2.
        for k, t in enumerate(tiles):
            if t.level == 6:
                continue
            for child, parent_side, lo, hi in (
                (tiles[2 * k + 1], t.side_ef, t.e.slope, t.f.slope),
                (tiles[2 * k + 2], t.side_fg, t.f.slope, t.g.slope),
            ):
                assert child.level == t.level + 1
                assert child.index in (2 * t.index, 2 * t.index + 1)
                for j in (1, 2, 3):
                    mu = lo + (hi - lo) * Fraction(j, 4)
                    assert child.side_eg(mu) == parent_side(mu)


def _sweep_case(cd):
    res = generic_prioritary(cd)
    assert res.twist == 0
    assert res.summands
    total = ChernCharacter(Fraction(0), Fraction(0), Fraction(0))
    for s in res.summands:
        assert isinstance(s.multiplicity, int) and s.multiplicity >= 1
        total = total + s.character().scale(s.multiplicity)
    want = cd.character()
    assert (total.rank, total.c1, total.ch2) == (want.rank, want.c1, want.ch2)

    tag = res.region.tag
    if tag is RegionTag.ABOVE_DELTA_PRIME:
        exc = [s for s in res.summands if s.kind == KIND_EXCEPTIONAL]
        gen = [s for s in res.summands if s.kind == KIND_GENERIC]
        assert len(exc) == 1 and len(gen) == 1
        p = exc[0].multiplicity
        assert res.verification["p"] == p > 0
        assert p * exc[0].chern_data().rank < cd.rank
        u = gen[0].data
        assert u.discriminant() == frontier.delta(u.slope())
    elif tag is RegionTag.BELOW_DELTA_PRIME:
        t = locate_triangle(cd.slope(), cd.discriminant())
        ch = cd.character()
        expected = {
            t.e.label(): character_pairing(ch, t.e.character()),
            t.f.label(): -character_pairing(ch, t.h.character()),
            t.g.label(): character_pairing(t.g.character(), ch),
        }
        got = {s.label(): s.multiplicity for s in res.summands}
        for label, m in expected.items():
            assert m == got.get(label, 0)
    elif tag is RegionTag.SEMISTABLE_EXCEPTIONAL:
        (s,) = res.summands
        assert s.multiplicity * s.chern_data().rank == cd.rank
    elif tag is RegionTag.SPECIAL_C0_C21:
        assert any(s.label().startswith("V") for s in res.summands)
    else:
        raise AssertionError(f"unexpected region {tag} for {cd}")
    return tag


def test_acceptance_05_sweep_below_the_frontier():
    with report(5, "rank sweep below the frontier"):
        t0 = time.perf_counter()
        tags = Counter()
        for r in range(2, 11):
            for c1 in range(-r + 1, 1):
                mu = Fraction(c1, r)
                bound = -mu * (mu + 1) / 2
                dlim = frontier.delta(mu)
                base = Fraction((r - 1) * c1 * c1, 2 * r)
                c2 = math.ceil(r * bound + base)
                while True:
                    cd = ChernData(r, c1, c2)
                    if cd.discriminant() >= dlim:
                        break
                    tags[_sweep_case(cd)] += 1
                    c2 += 1
        assert sum(tags.values()) > 150
        assert tags[RegionTag.ABOVE_DELTA_PRIME] > 0
        assert tags[RegionTag.BELOW_DELTA_PRIME] > 0
        assert tags[RegionTag.SEMISTABLE_EXCEPTIONAL] > 0
        assert tags[RegionTag.SPECIAL_C0_C21] > 0
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_06_named_values_against_local_oracles():
    with report(6, "named values match local oracles"):
        o_minus = from_slope(Fraction(-1))
        qstar = from_slope(Fraction(-1, 2))
        o = from_slope(Fraction(0))
        columns = [_ch_tuple(o_minus), _ch_tuple(qstar), _ch_tuple(o)]

        res = generic_prioritary(ChernData(4, -2, 2))
        mults = _solve3(columns, (4, -2, Fraction(0)))
        assert mults == [1, 1, 1]
        assert [(s.label(), s.multiplicity) for s in res.summands] == [
            ("O(-1)", 1),
            ("E(-1/2)", 1),
            ("O(0)", 1),
        ]

        res = generic_prioritary(ChernData(5, -2, 3))
        mults = _solve3(columns, (5, -2, Fraction(-1)))
        assert mults == [0, 2, 1]
        assert [(s.label(), s.multiplicity) for s in res.summands] == [
            ("E(-1/2)", 2),
            ("O(0)", 1),
        ]

        # For (8,-4,11) search the copy count p directly: the residual
        # after removing p copies of E(-1/2) must land on the frontier.
        found = []
        for p in range(1, 4):
            rk = 8 - 2 * p
            c1 = -4 + p
            ch2 = Fraction(-3) + Fraction(p, 2)
            c2 = Fraction(c1 * c1, 2) - ch2
            if c2.denominator != 1:
                continue
            cand = ChernData(rk, c1, int(c2))
            if cand.discriminant() == frontier.delta(cand.slope()):
                found.append((p, cand))
        assert found == [(2, ChernData(4, -2, 4))]
        res = generic_prioritary(ChernData(8, -4, 11))
        assert [(s.label(), s.multiplicity) for s in res.summands] == [
            ("E(-1/2)", 2),
            ("generic(4,-2,4)", 1),
        ]

        res = generic_prioritary(ChernData(3, 0, 1))
        labels = [(s.label(), s.multiplicity) for s in res.summands]
        assert labels == [("O(0)", 1), ("V", 1)]
        v = next(s for s in res.summands if s.label() == "V").character()
        assert (v.rank, v.c1, v.ch2) == (2, 0, -1)

        region = frontier.classify(ChernData(2, -1, 1))
        assert region.tag is RegionTag.SEMISTABLE_EXCEPTIONAL
        assert (region.witness.rank, region.witness.c1, region.witness.c2) == (
            qstar.rank,
            qstar.c1,
            qstar.c2,
        )
        cd = ChernData(2, -1, 0)
        mu = cd.slope()
        assert cd.discriminant() < -mu * (mu + 1) / 2
        assert frontier.classify(cd).tag is RegionTag.NO_PRIORITARY


def test_acceptance_07_series_limit_bounds():
    with report(7, "series discriminants and slopes squeeze the endpoint"):
        members = left_series(from_slope(Fraction(0)), 0, 20)
        deltas = [g.delta for g in members]
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))
        g20 = members[-1]
        assert abs(g20.delta - Fraction(1, 2)) < Fraction(1, 10**6)
        endpoint = QuadSurd(Fraction(-3, 2), Fraction(1, 2), 5)
        diff = QuadSurd.from_rational(g20.slope) - endpoint
        assert diff.compare(0) < 0
        assert diff.compare(Fraction(-1, 10**6)) > 0


def test_acceptance_08_priority_of_consecutive_sums():
    with report(8, "priority of consecutive series sums"):
        o = from_slope(Fraction(0))
        g = left_series(o, 0, 4)
        assert is_prioritary_sum([g[0], g[1], o]) is TriState.NO
        for n in (1, 2, 3):
            assert is_prioritary_sum([g[n], g[n + 1], o]) is TriState.YES


def test_acceptance_09_frontier_gap_above_vertices():
    with report(9, "frontier sits 1/r^2 above each vertex"):
        for f in enumerate_to_level(8):
            gap = frontier.delta(f.slope) - f.delta
            assert gap == Fraction(1, f.rank * f.rank)


def test_acceptance_10_deterministic_outputs(capsys):
    with report(10, "byte-identical renders and JSON re-verification"):
        svgs = []
        for _ in range(2):
            assert cli_main(["tile", "--depth", "5"]) == 0
            svgs.append(capsys.readouterr().out)
        assert svgs[0] == svgs[1] and svgs[0].startswith("<?xml")

        csvs = []
        for _ in range(2):
            assert cli_main(["tile", "--depth", "5", "--format", "csv"]) == 0
            csvs.append(capsys.readouterr().out)
        assert csvs[0] == csvs[1]
        assert len(csvs[0].split("\r\n")) == 65

        assert cli_main(["decompose", "--json", "--", "6", "-3", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        total = [Fraction(0), Fraction(0), Fraction(0)]
        for s in payload["summands"]:
            m = s["multiplicity"]
            total[0] += m * s["rank"]
            total[1] += m * s["c1"]
            total[2] += m * (Fraction(s["c1"] * s["c1"], 2) - s["c2"])
        assert total == [6, -3, Fraction(9, 2) - 5]
