"""Deterministic renderings of the triangle tiling of the (mu, delta) strip.

``tile_svg`` draws every tile down to a given level as a closed path of
three quadratic Beziers, one per curved side, which draw the sides
exactly, and the two frontier curves as polylines through 8 * samples
+ 1 exact points; every point is rounded once to three decimals, and the
output is a pure function of the arguments, so repeated runs are
byte-identical.  ``tile_csv`` lists the tile vertices with exact
rational coordinates, one row per tile, RFC 4180 line endings.

Each side and each vertex is formatted once per document.  A tile's
bottom side is its parent's top side through the same two vertices (the
parent's side ef for a left child, whose h is the parent's g(-3), as
P(-3 - x) = P(x); the side fg for a right child, whose h is the
parent's e), so a tile computes only the control points of its two top
sides and formats only its middle vertex.  The shared identity is
checked at each reuse.  Both documents are made line by line
(``_svg_lines``, ``_csv_lines``), which the CLI writes as they come and
the two functions join.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

from . import exceptional, frontier, helix
from .errors import InternalInconsistencyError
from .exceptional import ExceptionalBundle

# The view spans the slopes [-1, 0] across its width and the
# discriminants [0, 7/10] up its height: DELTA_MAX is that bound as
# (numerator, denominator), and its float is their correctly rounded quotient.
VIEW_W = 1000
VIEW_H = 700
DELTA_MAX = (7, 10)
_DELTA_MAX_FLOAT = DELTA_MAX[0] / DELTA_MAX[1]

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


def _vertex_at(b: ExceptionalBundle) -> str:
    """Pixel text of the vertex of b, (mu, Delta) = (c1/r, (r^2 - 1)/(2 r^2)).

    Each coordinate is one int/int true division of exact integers.  That
    division is correctly rounded, like ``float()`` of the same value as a
    Fraction, so the text is what the Fraction computation would print.
    """
    r = b.rank
    return f"{(b.c1 + r) / r * VIEW_W:.3f},{_py((r * r - 1) / (2 * r * r)):.3f}"


def _control_at(
    a: ExceptionalBundle, b: ExceptionalBundle, x: ExceptionalBundle, sign: int
) -> str:
    """Pixel text of the control point of the quadratic Bezier from vertex a
    to vertex b that is the conic side P(sign*(mu - mu(x))) - Delta(x).

    The side is a parabola in mu and the pixel map is affine, so the Bezier
    whose control point is the tangent point ((mu_a + mu_b)/2, Delta(mu_a)
    + Delta'(mu_a)(mu_b - mu_a)/2) draws it exactly.  With X_j = sign *
    (mu_j - mu_x) = sign k_j/(r_j r_x), k_j = c1_j r_x - c1_x r_j, and
    P(X) = (X^2 + 3X + 2)/2, that Delta is (X_a X_b + 3(X_a + X_b)/2 + 2)/2
    - Delta(x), symmetric in a and b: a side and its reverse share it.  Over
    d = 2 r_a r_b it is (2 k_a k_b + 3 sign r_x (k_a r_b + k_b r_a) + (r_x^2
    + 1) d) / (2 d r_x^2).  Each coordinate is one correctly rounded int/int
    division, as in ``_vertex_at``.
    """
    ra, rb, r = a.rank, b.rank, x.rank
    ka, kb = a.c1 * r - x.c1 * ra, b.c1 * r - x.c1 * rb
    d = 2 * ra * rb
    delta = (2 * ka * kb + 3 * sign * r * (ka * rb + kb * ra) + (r * r + 1) * d) / (2 * d * r * r)
    return f"{(a.c1 * rb + b.c1 * ra + d) / d * VIEW_W:.3f},{_py(delta):.3f}"


def _tiles(triads: list[helix.Triad], draw: Callable) -> Iterator[tuple[helix.Triad, str]]:
    """Each triad t of the breadth-first list ``triads`` with its text.

    ``draw(t, slot)`` returns the text and the slots of t's left and right
    children: what a child shares with its parent, its two ends and its
    bottom side among them, is made once, in the parent.  The root gets
    the slot None.  A slot is dropped once its child has used it, and none
    is kept at the last level.
    """
    last = triads[-1].level
    slots: list = [None]
    below: list = []
    for t in triads:
        if t.index == 0 and t.level > 0:
            slots, below = below, []
        text, left, right = draw(t, slots[t.index])
        slots[t.index] = None
        if t.level < last:
            below += (left, right)
        yield t, text


def _draw_path(t: helix.Triad, slot: tuple | None) -> tuple:
    """The outline "M e Q c f Q c g Q c e Z" of tile t, one exact quadratic
    Bezier per side (``_control_at``), and the slots of its children.

    A child's bottom side is its parent's top side through the same two
    vertices: a left child's h is the parent's g(-3), and P(-3 - x) = P(x),
    so that side is the parent's side ef; a right child's h is the parent's
    e, and it is the side fg.  Reversing a Bezier keeps its control point,
    so a slot holds the rank and c1 of the h it expects, the text of the
    child's two ends and that side's control point; the child checks its
    own h against it before use.
    """
    e, f, g, h = t.e, t.f, t.g, t.h
    if slot is None:
        e_at, g_at, ge = _vertex_at(e), _vertex_at(g), _control_at(g, e, h, -1)
    else:
        rank, c1, e_at, g_at, ge = slot
        if h.rank != rank or h.c1 != c1:
            raise InternalInconsistencyError(
                f"tile {t.label()} at level {t.level}, index {t.index}: its h {h} "
                "does not carry its parent's side"
            )
    f_at, ef, fg = _vertex_at(f), _control_at(e, f, g, 1), _control_at(f, g, e, -1)
    path = f"M {e_at} Q {ef} {f_at} Q {fg} {g_at} Q {ge} {e_at} Z"
    return path, (g.rank, g.c1 - 3 * g.rank, e_at, f_at, ef), (e.rank, e.c1, f_at, g_at, fg)


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
    for i, f in enumerate(exceptional._owners(pairs)):
        big_n, rational, k, m = frontier._conic_terms(i - n, n, f)
        r, den = f.rank, 2 * m * m
        x = f"{i / n * VIEW_W:.3f}"
        upper.append(f"{x},{_py(big_n / den):.3f}")
        dp = rational / den + k / (2 * m * r) * math.sqrt(9 * r * r - 4)
        lower.append(f"{x},{_py(dp):.3f}")
    return " ".join(upper), " ".join(lower)


def _check(max_level: int, samples: int) -> None:
    """Refuse a negative level or fewer than one frontier sample."""
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _svg_lines(max_level: int, samples: int) -> Iterator[str]:
    """The lines of ``tile_svg``, each with its newline, as they are made;
    the arguments are those ``_check`` passed.  Every triad is built and
    checked before the first line."""
    triads = list(helix.iterate_triads(max_level))
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {VIEW_W} {VIEW_H}">\n'
    )
    yield (
        f"<title>triangle tiling, levels 0..{max_level}, exact tile sides, "
        f"frontiers through {8 * samples + 1} points</title>\n"
    )
    yield f'<rect x="0" y="0" width="{VIEW_W}" height="{VIEW_H}" fill="#ffffff"/>\n'
    for t, path in _tiles(triads, _draw_path):
        fill = _PALETTE[t.level % len(_PALETTE)]
        yield (
            f'<path d="{path}" fill="{fill}" fill-opacity="0.55" '
            f'stroke="#000000" stroke-width="0.6"/>\n'
        )
    upper, lower = _frontier_polylines(samples)
    yield f'<polyline points="{upper}" fill="none" stroke="#1f1f1f" stroke-width="1.5"/>\n'
    yield (
        f'<polyline points="{lower}" fill="none" stroke="#7a1fa2" stroke-width="1.2" '
        f'stroke-dasharray="6 4"/>\n'
    )
    yield "</svg>\n"


def tile_svg(max_level: int, samples: int = 64) -> str:
    """SVG 1.1 document of the tiling down to ``max_level``.

    Tiles are filled paths of exact quadratic Beziers; the semistability
    frontier is the solid polyline above them and the rigidity frontier
    the dashed one, each through 8 * samples + 1 points.
    """
    _check(max_level, samples)
    return "".join(_svg_lines(max_level, samples))


def _vertex_cells(b: ExceptionalBundle) -> str:
    """The cells mu, delta of a vertex in lowest terms, from its integers:
    mu = c1/r (gcd 1, as chi(F,F) = 1) and delta = (r^2 - 1)/(2 r^2), whose
    terms share the factor gcd(r^2 - 1, 2) only."""
    r, c1 = b.rank, b.c1
    if r == 1:
        return f"{c1},0"
    g = 1 + (r & 1)
    return f"{c1}/{r},{(r * r - 1) // g}/{2 * r * r // g}"


def _csv_row(t: helix.Triad, slot: tuple | None) -> tuple:
    """The row of triad t, and the cells of its children's ends: a child's
    e and g are its parent's (e, f) or (f, g)."""
    e_at, g_at = slot or (_vertex_cells(t.e), _vertex_cells(t.g))
    f_at = _vertex_cells(t.f)
    return f"{t.level},{t.index},{e_at},{f_at},{g_at}\r\n", (e_at, f_at), (f_at, g_at)


def _csv_lines(max_level: int) -> Iterator[str]:
    """The lines of ``tile_csv``, each with its CRLF, as they are made;
    max_level is one that ``_check`` passed.  Every triad is built and
    checked before the first line."""
    triads = list(helix.iterate_triads(max_level))
    yield "level,index,mu_e,delta_e,mu_f,delta_f,mu_g,delta_g\r\n"
    for _, row in _tiles(triads, _csv_row):
        yield row


def tile_csv(max_level: int) -> str:
    """CSV of tile vertices, exact rational coordinates, CRLF line endings."""
    _check(max_level, 1)
    return "".join(_csv_lines(max_level))
