"""Deterministic renderings of the triangle tiling of the (mu, delta) strip.

``tile_svg`` draws every tile down to a given level as a closed path
whose curved sides are sampled exactly and formatted with three
decimals; the output is a pure function of the arguments, so repeated
runs are byte-identical.  ``tile_csv`` lists the tile vertices with
exact rational coordinates, one row per tile, RFC 4180 line endings.

Each edge and each vertex is formatted once per document.  A tile's
bottom side is its parent's top side through the same two vertices (the
parent's side ef for a left child, whose h is the parent's g(-3), as
P(-3 - x) = P(x); the side fg for a right child, whose h is the
parent's e), so a tile samples only its two top sides and formats only
its middle vertex.  The shared identity is checked at each reuse.  Both
documents are made line by line (``_svg_lines``, ``_csv_lines``), which
the CLI writes as they come and the two functions join.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from fractions import Fraction

from . import exceptional, frontier, helix
from .errors import InternalInconsistencyError
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
    a: ExceptionalBundle,
    b: ExceptionalBundle,
    x: ExceptionalBundle,
    sign: int,
    samples: int,
    lo: int,
    hi: int,
) -> list[str]:
    """Pixel text of the conic side P(sign*(mu - mu(x))) - Delta(x) at the
    slopes mu_i = mu(a) + (mu(b) - mu(a)) i / samples, lo <= i < hi.

    The slopes share the denominator d = r_a r_b samples, and the argument
    of P is t_i/w with w = d r_x and t_i linear in i (the kernel
    ``exceptional._conic_side``, inlined).  Each coordinate is one int/int
    true division of exact integers.  That division is correctly rounded,
    like ``float()`` of the same value as a Fraction, so the text is what
    the Fraction computation would print.
    """
    pa, qa, pb, qb, r = a.c1, a.rank, b.c1, b.rank, x.rank
    d = qa * qb * samples
    step = pb * qa - pa * qb
    n = pa * qb * samples + step * lo  # mu_lo = n/d
    t, dt = sign * (n * r - x.c1 * d), sign * step * r
    w = d * r
    w3, c, den, count = 3 * w, (r * r + 1) * d * d, 2 * w * w, hi - lo
    # (n + d)/d is the fraction of the width, (t^2 + 3tw + c)/den the discriminant.
    return [
        f"{u / d * VIEW_W:.3f},"
        f"{VIEW_H - (t * (t + w3) + c) / den / _DELTA_MAX_FLOAT * VIEW_H:.3f}"
        for u, t in zip(range(n + d, n + d + step * count, step), range(t, t + dt * count, dt))
    ]


def _tiles(
    triads: list[helix.Triad], draw: Callable, *args
) -> Iterator[tuple[helix.Triad, str]]:
    """Each triad t of the breadth-first list ``triads`` with its text.

    ``draw(t, slot, *args)`` returns the text and the slots of t's left and
    right children: what a child shares with its parent, its two ends among
    them, is made once, in the parent.  The root gets the slot None.  A slot
    is dropped once its child has used it, and none is kept at the last
    level.
    """
    last = triads[-1].level
    slots: list = [None]
    below: list = []
    for t in triads:
        if t.index == 0 and t.level > 0:
            slots, below = below, []
        text, left, right = draw(t, slots[t.index], *args)
        slots[t.index] = None
        if t.level < last:
            below += (left, right)
        yield t, text


def _draw_path(t: helix.Triad, slot: tuple | None, samples: int) -> tuple:
    """The outline "M ... Z" of tile t, and the slots of its children.

    A child's bottom side is its parent's top side through the same two
    vertices: a left child's h is the parent's g(-3), and P(-3 - x) = P(x),
    so that side is the parent's side ef; a right child's h is the parent's
    e, and it is the side fg.  A slot holds the rank and c1 of the h it
    expects, the text of the child's two ends and the interior of that
    side, reversed; the child checks its own h against it before use.
    """
    e, f, g, h = t.e, t.f, t.g, t.h
    if slot is None:
        (e_at,) = _side_coords(e, f, g, 1, samples, 0, 1)
        (g_at,) = _side_coords(f, g, e, -1, samples, samples, samples + 1)
        bottom = " L ".join(_side_coords(g, e, h, -1, samples, 1, samples))
    else:
        rank, c1, e_at, g_at, bottom = slot
        if h.rank != rank or h.c1 != c1:
            raise InternalInconsistencyError(
                f"tile {t.label()} at level {t.level}, index {t.index}: its h {h} "
                "does not carry its parent's side"
            )
    ef = _side_coords(e, f, g, 1, samples, 1, samples + 1)
    f_at = ef.pop()
    fg = _side_coords(f, g, e, -1, samples, 1, samples)
    path = " L ".join([e_at, *ef, f_at, *fg, g_at])
    path = f"M {path} L {bottom} Z" if bottom else f"M {path} Z"
    left = (g.rank, g.c1 - 3 * g.rank, e_at, f_at, " L ".join(reversed(ef)))
    return path, left, (e.rank, e.c1, f_at, g_at, " L ".join(reversed(fg)))


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


def _check(max_level: int, samples: int) -> None:
    """Refuse a negative level or fewer than one sample per side."""
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
    yield f"<title>triangle tiling, levels 0..{max_level}, {samples} samples per side</title>\n"
    yield f'<rect x="0" y="0" width="{VIEW_W}" height="{VIEW_H}" fill="#ffffff"/>\n'
    for t, path in _tiles(triads, _draw_path, samples):
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

    Tiles are filled paths; the semistability frontier is the solid
    curve above them and the rigidity frontier the dashed one.
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
