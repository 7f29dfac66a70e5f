"""Deterministic renderings of the triangle tiling of the (mu, delta) strip.

``tile_svg`` draws every tile down to a given level as a closed path
whose curved sides are sampled exactly and formatted with three
decimals; the output is a pure function of the arguments, so repeated
runs are byte-identical.  ``tile_csv`` lists the tile vertices with
exact rational coordinates, one row per tile, RFC 4180 line endings.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from . import frontier, helix
from .surd import QuadSurd, format_rational

VIEW_W = 1000
VIEW_H = 700
MU_MIN = Fraction(-1)
MU_MAX = Fraction(0)
DELTA_MAX = Fraction(7, 10)

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


def _px(mu: Fraction) -> float:
    return float((mu - MU_MIN) / (MU_MAX - MU_MIN)) * VIEW_W


def _py(delta: Fraction | float) -> float:
    return VIEW_H - float(delta) / float(DELTA_MAX) * VIEW_H


def _surd_float(s: QuadSurd) -> float:
    return float(s.a) + float(s.b) * math.sqrt(s.d)


def _sample(
    mu_a: Fraction,
    mu_b: Fraction,
    curve: Callable[[Fraction], Fraction],
    samples: int,
) -> list[tuple[Fraction, Fraction]]:
    pts = []
    for i in range(samples + 1):
        mu = mu_a + (mu_b - mu_a) * Fraction(i, samples)
        pts.append((mu, curve(mu)))
    return pts


def _tile_path(t: helix.Triad, samples: int) -> str:
    tri = t.triangle()
    mu_e, mu_f, mu_g = t.e.slope, t.f.slope, t.g.slope
    pts = _sample(mu_e, mu_f, tri.side_ef, samples)
    pts += _sample(mu_f, mu_g, tri.side_fg, samples)[1:]
    pts += _sample(mu_g, mu_e, tri.side_eg, samples)[1:-1]
    coords = [f"{_px(mu):.3f},{_py(d):.3f}" for mu, d in pts]
    return "M " + " L ".join(coords) + " Z"


def _frontier_polylines(samples: int) -> tuple[str, str]:
    """Point lists for the semistability and rigidity frontier curves."""
    n = 8 * samples
    upper = []
    lower = []
    for i in range(n + 1):
        mu = MU_MIN + (MU_MAX - MU_MIN) * Fraction(i, n)
        upper.append(f"{_px(mu):.3f},{_py(frontier.delta(mu)):.3f}")
        lower.append(f"{_px(mu):.3f},{_py(_surd_float(frontier.delta_prime(mu))):.3f}")
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


def tile_csv(max_level: int) -> str:
    """CSV of tile vertices, exact rationals, CRLF line endings."""
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    rows = ["level,index,mu_e,delta_e,mu_f,delta_f,mu_g,delta_g"]
    for t in helix.iterate_triads(max_level):
        cells = [str(t.level), str(t.index)]
        for b in (t.e, t.f, t.g):
            cells.append(format_rational(b.slope))
            cells.append(format_rational(b.delta))
        rows.append(",".join(cells))
    return "\r\n".join(rows) + "\r\n"
