"""Renderings of the tiling: pinned bytes, and the integer sampling
against the Fraction computation it replaces.

The digests were taken from the renderer that sampled every side with
``Fraction`` arithmetic and printed ``float()`` of each value; those of
SVG levels 6-10, of 256 samples and of CSV levels 7-10 from the one that
rebuilt the triads on every call and printed the frontier curves from
``Fraction`` and ``QuadSurd`` values; those of SVG (6, 7), (8, 64) and
(10, 16) from the one that sampled all three sides of every tile, before
a tile took its bottom side from its parent's top.  The integer renderer
prints the same text because int/int true division is correctly rounded, as
``Fraction.__float__`` is.
"""

import hashlib
import math
from fractions import Fraction

import pytest

from prioritaire import helix, render
from prioritaire.chern import hirzebruch_p
from prioritaire.errors import InternalInconsistencyError
from prioritaire.surd import format_rational

SVG_SHA256 = {
    (0, 1): "50dbef84ea3b45d3a3768c4d6b5b6a3d8a8ef1d46e3415db6adcf9916be9b557",
    (0, 2): "3897fe765f268cc0aa4001ddfee713c3fcce7c1a4c323613d97204f40bdf8cfe",
    (0, 7): "aa0c2547bf4af3cf2df7def587876c794928ecc0449acaf77d1b6ccba46f2895",
    (0, 64): "a478a18cff442a90adbe6f3d3118afa4d67d9181c91253b65452509ed72fdf91",
    (1, 1): "39de5b2983064ee0a1c064ee96126ec352238596019f63bd81a807d3567b5f44",
    (1, 2): "8fa203483db1110833922f535355ad881e578e18b276ab50a5bf24982055cf4e",
    (1, 7): "4372d8bebf128516a3e6bf5fd70de595a4c80f235ef33d0560bbb6c55e05578c",
    (1, 64): "f797ebbf4bfe4a9e917fa7c65e57a5698d1c19036cbd562c1374f90d1872f0de",
    (2, 1): "99b84b0e22f1963545b26fd3dab5d1501047912c41a4d6db1015d4544b80039e",
    (2, 2): "91aca0540ded0136a7cdfb5a9cd8586b0feab3a956bf829e46547ff65fdb4f36",
    (2, 7): "9cd2082d2d99142ff2aec7419e1c33848ebe2a9d652178f2bfcfe04189986a4f",
    (2, 64): "d78bf4e257fda8ba1ce2b3e59eee08c8d454af80c13a655ad29d7d1d05bac1b1",
    (3, 1): "f126e3848496bd8000db47bc0b8d38812df6c52e02de3bbd065d9eb7abd7dc39",
    (3, 2): "88f05d3fd1140e2dff663e9be17a8ef4adeba8db482ce58f9e37efa3f9ecf463",
    (3, 7): "ae0db5872e6c419dd461d1ee538505e438d75743efa2c5cc35199095da80ef43",
    (3, 64): "8adec92c602104bd0553bd4ae55cdc4dc1fdb89023ffffae228107396937628d",
    (4, 1): "8791ef350df9b6561769d3e45969c5b870780d70f3ced0691335b25f0df96697",
    (4, 2): "d32302f7459585e5ad52834e79a322d1b32da8a2c7e58dab0ef54d5d2693f52e",
    (4, 7): "232536c62a909637e33a63b444e9d401ea650f1c470f007bb71be140b847fd83",
    (4, 64): "ee4d2198882194bb617e590da94b33d4a9c429bde58a7102462d548387ec80f8",
    (5, 1): "353b297ed3895a6742dd687fc198e84987ddc9064b6b1770c3361e37dd65c1ca",
    (5, 2): "74067633e70ab1c697d6d1325f9e043d530c8dbcafbb5f021fb4c9fb1d18a798",
    (5, 7): "abf067d25c2d71cb11d50a459a3e18fd283ae8968759d7f100575c69a67f6889",
    (5, 64): "cb8de4b5460ea3aedaab87ba7a90f22a5754414b00439aafd3cf9dd8c5ec891c",
    (6, 1): "a20b2f934d5784d9573372470d0cf3d69b9cf337b8aab5c3990fb48d786e7393",
    (7, 1): "609e7ae15eb2054483a5c416921e6f3762364ed81af64108f3be681f785426a2",
    (8, 1): "240fe774a725e39dbe046322b06d07afcad9eee3e54131adae186ad02bd2557a",
    (9, 1): "a86a2652c597f0213b2e2d3c5d7cd761b5672c9b5bd3b2e18474b1b197051082",
    (10, 1): "9529a13a6c7dbfb8341c7c367e19d9835511086147751f939111485ad90ffc1c",
    (6, 7): "ff582079fd077a083d5227b5a6d10c25cd23bddf05da9ec02560622609c711c4",
    (8, 64): "7825aba876a9c98da881e8ec5253a82fc8e06c96125a2eae1e7968597b06ff34",
    (10, 16): "dd1e3eb61d5e36e5d98734e15418f61b1828199d899a324440afdeedd0c73508",
    (2, 256): "55e398c9b04e6b810bd56411ff10584306fd07a538f210b655c45180cdc35a62",
}

CSV_SHA256 = {
    0: "c5536965d50768ea6d0c1089e003a508a7961c4dd1a7cb20458dfe34d875533e",
    1: "924492c90cd9f882cb7b1d32a8c986bcb55b24d6554315e03044cd6a69ea8d95",
    2: "40eb2a498ae28156e3c3d405f273a3c642d41d515b660ae35c6eb177d81145d4",
    3: "57aa0fd9b09931e5c21a314aa9f2fdfd578849efdabd4d83c1cf94ed4c397408",
    4: "26d992ac77b3f224c7fffaaeac1442296062f20014d70b3133f55c277f4c6e65",
    5: "22d61c3c3614d022d9dba5b9132ee293f3626bfbcc98b8bb55479fe013949895",
    6: "0ee7125696cc3380f7a0da86c0d2bfac4ce550a06a3063304c0fb3d8cbd8b0fe",
    7: "cfdc33c490342da921001f88870a0bfcf3f4220b2782886337a1e9ae929c97c2",
    8: "f0add2107723eb37b32b24c3d6cfbdc9b4b0b6b897ebff696faa31ed98519529",
    9: "1ecf3395e22456143dc6f58339d4f9d1f8c82ddb0fc619279d7bab97985dd230",
    10: "f5be3e6ff73289f919e414df2f4891522d6941b382db38a288b4c4442a3ba011",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("level, samples", sorted(SVG_SHA256))
def test_tile_svg_bytes_pinned(level, samples):
    assert _sha256(render.tile_svg(level, samples)) == SVG_SHA256[level, samples]


def test_tile_csv_bytes_pinned():
    assert {level: _sha256(render.tile_csv(level)) for level in CSV_SHA256} == CSV_SHA256


def test_csv_cells_are_the_fraction_text():
    # tile_csv writes each cell from the vertex's integers; the Fraction
    # route is the reference.
    rows = render.tile_csv(10).split("\r\n")
    triads = list(helix.iterate_triads(10))
    assert rows[-1] == "" and len(rows) == len(triads) + 2
    for row, t in zip(rows[1:], triads):
        cells = [str(t.level), str(t.index)]
        for b in (t.e, t.f, t.g):
            cells += [format_rational(b.slope), format_rational(b.delta)]
        assert row.split(",") == cells


def _reference_side(x, sign):
    """P(sign * (mu - mu(x))) - Delta(x) through Fraction arithmetic."""
    return lambda mu: hirzebruch_p(sign * (mu - x.slope)) - x.delta


def _reference_path(t: helix.Triad, samples: int) -> str:
    """The tile outline as the Fraction renderer printed it."""
    sides = (
        (t.e.slope, t.f.slope, _reference_side(t.g, 1)),
        (t.f.slope, t.g.slope, _reference_side(t.e, -1)),
        (t.g.slope, t.e.slope, _reference_side(t.h, -1)),
    )
    pts = []
    for k, (a, b, side) in enumerate(sides):
        run = [a + (b - a) * Fraction(i, samples) for i in range(samples + 1)]
        run = run if k == 0 else run[1:] if k == 1 else run[1:-1]
        pts += [(mu, side(mu)) for mu in run]
    coords = [
        f"{float(mu + 1) * 1000:.3f},{700 - float(d) / float(Fraction(7, 10)) * 700:.3f}"
        for mu, d in pts
    ]
    return "M " + " L ".join(coords) + " Z"


def test_sampled_side_points_match_the_fraction_sides():
    triads = list(helix.iterate_triads(4))
    for t in triads:
        sides = (
            (t.e.slope, t.f.slope, t.side_ef, _reference_side(t.g, 1)),
            (t.f.slope, t.g.slope, t.side_fg, _reference_side(t.e, -1)),
            (t.g.slope, t.e.slope, t.side_eg, _reference_side(t.h, -1)),
        )
        for samples in (1, 2, 3, 7, 10):
            for a, b, side, reference in sides:
                for i in range(samples + 1):
                    mu = a + (b - a) * Fraction(i, samples)
                    assert side(mu) == reference(mu), (t.label(), mu)
    # Every outline, its bottom side shared with the parent's top, against
    # the tile's own Fraction sides.
    for samples in (1, 2, 3, 7, 10):
        drawn = list(render._tiles(triads, render._draw_path, samples))
        assert [t for t, _ in drawn] == triads
        for t, path in drawn:
            assert path == _reference_path(t, samples), (t.label(), samples)


def test_a_child_that_does_not_share_its_parents_side_raises():
    # The children of the root, with their indices swapped: each takes the
    # slot of the other, whose side its h does not carry.
    root, left, right = helix.iterate_triads(1)
    swapped = [root, *(helix.Triad(c.e, c.f, c.g, 1, 1 - c.index) for c in (right, left))]
    with pytest.raises(InternalInconsistencyError, match="does not carry its parent's side"):
        list(render._tiles(swapped, render._draw_path, 2))


def test_frontier_polylines_match_the_fraction_frontiers():
    for samples in (1, 3, 16):
        n = 8 * samples
        upper, lower = render._frontier_polylines(samples)
        assert len(upper.split()) == len(lower.split()) == n + 1
        for i, (up, low) in enumerate(zip(upper.split(), lower.split())):
            mu = Fraction(i - n, n)
            d = render.frontier.delta(mu)
            dp = render.frontier.delta_prime(mu)
            x = f"{float(mu + 1) * 1000:.3f}"
            assert up == f"{x},{700 - float(d) / 0.7 * 700:.3f}"
            dp_float = float(dp.a) + float(dp.b) * math.sqrt(dp.d)
            assert low == f"{x},{700 - dp_float / 0.7 * 700:.3f}"
