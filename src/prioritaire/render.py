"""Deterministic renderings of the triangle tiling of the (mu, delta) strip.

``tile_svg`` draws every tile down to a given level as a closed path
whose curved sides are sampled exactly and formatted with three
decimals; the output is a pure function of the arguments, so repeated
runs are byte-identical.  ``tile_csv`` lists the tile vertices with
exact rational coordinates, one row per tile, RFC 4180 line endings.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import exceptional, frontier, helix
from .exceptional import ExceptionalBundle

# The view spans the slopes [-1, 0] across its width and the
# discriminants [0, DELTA_MAX] up its height.
VIEW_W = 1000
VIEW_H = 700
DELTA_MAX = Fraction(7, 10)
_DELTA_MAX_FLOAT = float(DELTA_MAX)

_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#76b7b2",
    "#edc948",
    "#b07aa1",
    "#9c755f",
)


def _py(delta: float) -> float:
    return VIEW_H - delta / _DELTA_MAX_FLOAT * VIEW_H


def _side_coords(
    a: ExceptionalBundle, b: ExceptionalBundle, x: ExceptionalBundle, sign: int, samples: int
) -> list[str]:
    """Pixel text of the conic side P(sign*(mu - mu(x))) - Delta(x) at the
    samples + 1 evenly spaced slopes from mu(a) to mu(b).

    The slopes share the denominator r_a r_b samples, and each coordinate
    is one int/int true division of exact integers.  That division is
    correctly rounded, like ``float()`` of the same value as a Fraction,
    so the text is what the Fraction computation would print.
    """
    pa, qa, pb, qb = a.c1, a.rank, b.c1, b.rank
    d = qa * qb * samples
    start, step = pa * qb * samples, pb * qa - pa * qb
    coords = []
    for i in range(samples + 1):
        n = start + step * i
        num, den = exceptional._conic_side(x, sign, n, d)
        # n/d + 1 is the fraction of the width, num/den the discriminant.
        coords.append(f"{(n + d) / d * VIEW_W:.3f},{_py(num / den):.3f}")
    return coords


def _tile_path(t: helix.Triad, samples: int) -> str:
    coords = _side_coords(t.e, t.f, t.g, 1, samples)  # side_ef
    coords += _side_coords(t.f, t.g, t.e, -1, samples)[1:]  # side_fg
    coords += _side_coords(t.g, t.e, t.h, -1, samples)[1:-1]  # side_eg, back to e
    return "M " + " L ".join(coords) + " Z"


def _frontier_polylines(samples: int) -> tuple[str, str]:
    """Point lists for the semistability and rigidity frontier curves at
    the slopes (i - n)/n, i = 0..n, n = 8 samples.

    The owners come from one ``exceptional._owners`` call, and each point
    from ``frontier._conic_terms`` (N, N', k, m) of its owner F of rank r:
    delta = N/(2m^2) and delta_prime = N'/(2m^2) + k/(2mr) sqrt(9r^2 - 4).
    Each division is one int/int true division, correctly rounded like
    ``float()`` of the reduced Fraction, and 9r^2 - 4 is never a square,
    so the text is ``float(a) + float(b) * sqrt(d)`` of the exact values.
    """
    n = 8 * samples
    pairs = [(i - n, n) for i in range(n + 1)]
    upper = []
    lower = []
    for i, f in enumerate(exceptional._owners(pairs, None)):
        big_n, rational, k, m = frontier._conic_terms(i - n, n, f)
        r, den = f.rank, 2 * m * m
        x = f"{i / n * VIEW_W:.3f}"
        upper.append(f"{x},{_py(big_n / den):.3f}")
        dp = rational / den + k / (2 * m * r) * math.sqrt(9 * r * r - 4)
        lower.append(f"{x},{_py(dp):.3f}")
    return " ".join(upper), " ".join(lower)


def tile_svg(max_level: int, samples: int = 64) -> str:
    """SVG 1.1 document of the tiling down to ``max_level``.

    Tiles are filled paths; the semistability frontier is the solid
    curve above them and the rigidity frontier the dashed one.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {VIEW_W} {VIEW_H}">',
        f"<title>triangle tiling, levels 0..{max_level}, {samples} samples per side</title>",
        f'<rect x="0" y="0" width="{VIEW_W}" height="{VIEW_H}" fill="#ffffff"/>',
    ]
    for t in helix.iterate_triads(max_level):
        fill = _PALETTE[t.level % len(_PALETTE)]
        lines.append(
            f'<path d="{_tile_path(t, samples)}" fill="{fill}" fill-opacity="0.55" '
            f'stroke="#000000" stroke-width="0.6"/>'
        )
    upper, lower = _frontier_polylines(samples)
    lines.append(
        f'<polyline points="{upper}" fill="none" stroke="#1f1f1f" stroke-width="1.5"/>'
    )
    lines.append(
        f'<polyline points="{lower}" fill="none" stroke="#7a1fa2" stroke-width="1.2" '
        f'stroke-dasharray="6 4"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _vertex_cells(b: ExceptionalBundle) -> str:
    """The cells mu, delta of a vertex in lowest terms, from its integers:
    mu = c1/r (gcd 1, as chi(F,F) = 1) and delta = (r^2 - 1)/(2 r^2), whose
    terms share the factor gcd(r^2 - 1, 2) only."""
    r, c1 = b.rank, b.c1
    if r == 1:
        return f"{c1},0"
    g = 1 + (r & 1)
    return f"{c1}/{r},{(r * r - 1) // g}/{2 * r * r // g}"


def tile_csv(max_level: int) -> str:
    """CSV of tile vertices, exact rationals, CRLF line endings."""
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    rows = ["level,index,mu_e,delta_e,mu_f,delta_f,mu_g,delta_g"]
    for t in helix.iterate_triads(max_level):
        cells = [str(t.level), str(t.index), *map(_vertex_cells, (t.e, t.f, t.g))]
        rows.append(",".join(cells))
    return "\r\n".join(rows) + "\r\n"
