"""Renderings of the tiling: pinned bytes, and the integer arithmetic
against the Fraction computation it replaces.

The SVG digests were taken from the renderer that draws each tile side
as one quadratic Bezier, after ``test_bezier_sides_are_the_fraction_sides``
had checked every vertex and control point against its Fraction value
rounded once; the frontier polylines in them are those of the earlier
sampling renderers, whose bytes ``test_frontier_polylines_match_the_fraction_frontiers``
still pins.  The integer renderer prints the Fraction text because
int/int true division is correctly rounded, as ``Fraction.__float__`` is.
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
    (0, 1): "721d2c27af0febddbdcda7fab4ac0e2695f9c08ff10b4270e9ac907598176b8a",
    (0, 2): "10d2a4a3ec29eb473f59b224198b3cb5db9ea1a9256ef22a12d5d3401bee0c6e",
    (0, 7): "89ef348946cb9257e27c581337fa3f7778ad3530aaebfe0f8c08bdd6d68e7a74",
    (0, 64): "89ad8d99ad675e98df20c26a3b1eae4a3b4ceae2b9ee1facb04e6db76e43037e",
    (1, 1): "8c00d97484b94fe8838f4a49bd849cdaccec9df31dc890c369f6e09ccc31b682",
    (1, 2): "a00df81885f2313badcb48c174ba97b48cd06af27844cf7d8f68a4def7d912ea",
    (1, 7): "555c32538ea2a1a4383a8d4fc2fbf8dd4876876fb778d3732dc4df12322100df",
    (1, 64): "ab1faaced1c01de5b3915c182c5a8d9e953655743c90fbf188db051c536d1c58",
    (2, 1): "c007ac269798dfdb6dd1db35979a2cbacde8d3294211f477806fe1a79d079244",
    (2, 2): "368b3e722f68678ad1d331d63ab38b861366e0061c6c89e97edc326e2c5085f9",
    (2, 7): "73851e4199755175a305836d76d9de93ef7edd320cd880e198c8d937c5c0da27",
    (2, 64): "ffff0654a26b8eeaed572e4bb9d286847629f7b86e072949fdaa1df11f9881d6",
    (3, 1): "01b6b237f18c059f40f8ee7c6c21f993159d266b95f5dd81f5c563efcda8a2b6",
    (3, 2): "36c9aec64ef284280815c568a611ccbf4d170b85af5926e4b8791ff4479d6576",
    (3, 7): "7961ebc1586b7d30e5f73c0d76dbbe2c77b8db2b73a3056ac5b740f259716404",
    (3, 64): "cac71abd7fd6d475008e26984034d5e4e4db5c1841dd91f5306ccc20b220ecad",
    (4, 1): "6214314bf23c8fe7cf5214cf7d8f090b72ab76ea4c20268e11e47a4a67434e88",
    (4, 2): "92f05080f85e511d159dfe0e7801bff38e347578987b5f5f6bd1978ce025d876",
    (4, 7): "26db1f2ac80fd2ef090a8e567b8cc86078ba6a12fd55d9eb83435b148c97ea97",
    (4, 64): "4cff0616f0582f7779e920077f44c05aa450dc2150a382250fd6d8af6870df95",
    (5, 1): "13695afc135b18a7163ac2c5555dd992e41b7c494ba369d1c8d2fba6a8271edc",
    (5, 2): "88cdc6acb8e2f837431284ac8487c454e1e618bc510c0046a2f562d46ad9c59f",
    (5, 7): "a21a8e2c0169178fd6e7f87c641bdff03dcb326cf6570e510ae2fb97bbaa1fe2",
    (5, 64): "bc75f9851052f93428d44f4673fae9f4b481fd6ad365bec940109b912d1b9b22",
    (6, 1): "5c58a53a0f3bb30e3b4cb61fd6edf236e0dd62e35a5b570b9ef5aad3f000d618",
    (7, 1): "04013318218dea2fa8bae534bd483595f9ee386d45271fe0dc62b46412b80223",
    (8, 1): "e2d6310eeb92f90070d70b20fa4b048a2f8f43bfbb2e7a8b931564a13f34c750",
    (9, 1): "0867ae0f4319db8ef6128cb3a93c82de10a7370e983c92d21ed82db1558bc397",
    (10, 1): "17377e1f8f4fac5c2a715aa968b291fbc91003f08b6140c181c426b986be2f8a",
    (6, 7): "e1a116010e78cd244fbb96cc9d01b1d6e838f4544d56454941bb8bc217bf5b7b",
    (8, 64): "25478880c9e55063163cb5cdc62b1a0475c1d5f7bce9673a568330bb4686be97",
    (10, 16): "fb855f6ed81d3bdd6f04e17327f1d63c5fd2ec3e59b1f0ea500bc37d34d13b87",
    (2, 256): "8e6b19352def86d5656a080d2e9f8d6286ee28be4dd727b094c6de42eb4fdddd",
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


def _reference_beziers(t: helix.Triad) -> list:
    """The sides ef, fg and ge of tile t as (start, control, end, conic) in
    Fractions: the control point is where the tangent of the conic at the
    start meets the middle slope, from P'(X) = X + 3/2."""
    sides = []
    for a, b, x, sign in ((t.e, t.f, t.g, 1), (t.f, t.g, t.e, -1), (t.g, t.e, t.h, -1)):
        conic = _reference_side(x, sign)
        mid = (a.slope + b.slope) / 2
        slope = sign * (sign * (a.slope - x.slope) + Fraction(3, 2))
        control = (mid, conic(a.slope) + slope * (mid - a.slope))
        sides.append(((a.slope, a.delta), control, (b.slope, b.delta), conic))
    return sides


def _text(point) -> str:
    """The pixel text of an exact point, rounded once by float()."""
    mu, d = point
    return f"{float(mu + 1) * 1000:.3f},{700 - float(d) / float(Fraction(7, 10)) * 700:.3f}"


def _reference_path(t: helix.Triad) -> str:
    """The tile outline, each vertex and control point rounded once."""
    (e, ef, f, _), (_, fg, g, _), (_, ge, _, _) = _reference_beziers(t)
    return "M {} Q {} {} Q {} {} Q {} {} Z".format(*map(_text, (e, ef, f, fg, g, ge, e)))


def test_bezier_sides_are_the_fraction_sides():
    # Each side, as a quadratic Bezier, lies on its conic at t = i/8, and
    # each outline, its bottom side shared with the parent's top, prints
    # its vertices and control points rounded once.
    triads = list(helix.iterate_triads(6))
    points = 0
    for t in triads:
        sides = zip(_reference_beziers(t), (t.side_ef, t.side_fg, t.side_eg))
        for (p0, p1, p2, conic), side in sides:
            assert conic(p0[0]) == p0[1] and conic(p2[0]) == p2[1], t.label()
            for i in range(9):
                s = Fraction(i, 8)
                mu, d = ((1 - s) ** 2 * u + 2 * s * (1 - s) * v + s * s * w
                         for u, v, w in zip(p0, p1, p2))
                assert d == conic(mu) == side(mu), (t.label(), i)
                points += 1
    assert points == 3 * 127 * 9
    drawn = list(render._tiles(triads, render._draw_path))
    assert [t for t, _ in drawn] == triads
    for t, path in drawn:
        assert path == _reference_path(t), t.label()


def _mirror(point):
    mu, d = point
    return -1 - mu, d


def test_the_tiling_is_mirror_symmetric():
    # Triad (k, i) mirrors triad (k, 2^k - 1 - i): e and g swap, and each
    # vertex maps by mu -> -1 - mu, c1 -> -c1 - r, on the exact cells.
    rows = [row.split(",") for row in render.tile_csv(10).split("\r\n")[1:-1]]
    cells = {(int(row[0]), int(row[1])): row[2:] for row in rows}
    assert len(cells) == 2047
    for (k, i), (mu_e, d_e, mu_f, d_f, mu_g, d_g) in cells.items():
        ends = ((mu_g, d_g), (mu_f, d_f), (mu_e, d_e))
        mirrored = [(-1 - Fraction(mu), Fraction(d)) for mu, d in ends]
        other = cells[k, (1 << k) - 1 - i]
        assert mirrored == [(Fraction(mu), Fraction(d)) for mu, d in zip(other[::2], other[1::2])]
    # And so is each Bezier's exact control point: the mirror of side ef is
    # side fg of the mirror tile, reversed, and the bottom side its bottom.
    controls = {
        (t.level, t.index): [side[1] for side in _reference_beziers(t)]
        for t in helix.iterate_triads(10)
    }
    for (k, i), (ef, fg, ge) in controls.items():
        assert [_mirror(fg), _mirror(ef), _mirror(ge)] == controls[k, (1 << k) - 1 - i], (k, i)


def test_a_child_that_does_not_share_its_parents_side_raises():
    # The children of the root, with their indices swapped: each takes the
    # slot of the other, whose side its h does not carry.
    root, left, right = helix.iterate_triads(1)
    swapped = [root, *(helix.Triad(c.e, c.f, c.g, 1, 1 - c.index) for c in (right, left))]
    with pytest.raises(InternalInconsistencyError, match="does not carry its parent's side"):
        list(render._tiles(swapped, render._draw_path))


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
