"""Two-dimensional rendering of tile approximations.

A level-r box is a real interval of width alpha^(-r) times a product of
p-adic balls.  The ball factor is flattened onto a second real axis through
a digit expansion of its center (see fiber_coordinate), under which each
ball becomes an aligned dyadic-style interval.  The result is a list of
axis-parallel rectangles, one per box, suitable for SVG or CSV output.
Interiors of rectangles from a single tiling are pairwise disjoint.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Sequence

from .adelic import (AdeleContext, _check_budget, _csv, _level, _Strict,
                     fiber_interval, in_z_alpha, tile_corners)

# SVG scale: pixels per real unit, the fiber axis's height, and the margin
_PX_PER_UNIT, _FIBER_PX, _PAD = 160, 360, 12
_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
            "#aa3377", "#bbbbbb", "#222255", "#225555", "#552255")


class TileRect(_Strict, namedtuple(
        "_Fields", "translate digit real_lo real_hi fiber_lo fiber_hi")):
    """One box as a rectangle: an immutable 6-tuple equal only to another TileRect."""

    __slots__ = ()


def render_tiles(ctx: AdeleContext, r: int, translates: Iterable,
                 scheme: str = "alpha-digits") -> list[TileRect]:
    """Rectangles for every digit tile, shifted by each lattice translate.

    Translates must lie in Z[alpha] = Z[1/b] so the shifted boxes stay on
    the level-r corner grid.  Output order is deterministic: sorted by
    (translate, digit, real corner).
    """
    shifts = [Fraction(t) for t in translates]
    for t in shifts:
        if not in_z_alpha(ctx, t):
            raise ValueError(f"translate {t} is not in Z[alpha]")
    ar, br = _level(ctx, r, charged=r)
    _check_budget(max(len(shifts), 1) * ar)
    width = Fraction(br, ar)
    corners = [tile_corners(ctx, d, r) for d in range(ctx.base.a)] if shifts else []
    rects = []
    for t in shifts:
        for d, ds in enumerate(corners):
            for c in ds:
                cc = c + t
                lo, hi = fiber_interval(ctx, cc, r, scheme)
                rects.append(TileRect(t, d, cc, cc + width, lo, hi))
    # every box has the same width, so real_hi never breaks a tie of real_lo
    rects.sort()
    return rects


def tiles_csv(rects: Sequence[TileRect]) -> str:
    return _csv(TileRect._fields, rects)


def tiles_svg(rects: Sequence[TileRect]) -> str:
    """Deterministic SVG: one rect per box, colored by digit class.

    The real axis runs left to right, the fiber axis bottom to top.  All
    coordinates are formatted to fixed precision so identical inputs yield
    byte-identical output.
    """
    if not rects:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="1" height="1" '
                'viewBox="0 0 1 1"></svg>\n')
    # Coordinates go over one common denominator per axis, so each output
    # float is a single int / int division, rounded as float(Fraction) is.
    dx = math.lcm(*{v.denominator for R in rects for v in (R.real_lo, R.real_hi)})
    dy = math.lcm(*{v.denominator for R in rects for v in (R.fiber_lo, R.fiber_hi)})

    def over(v: Fraction, den: int) -> int:
        return v.numerator * (den // v.denominator)

    x0 = min(over(R.real_lo, dx) for R in rects)
    x1 = max(over(R.real_hi, dx) for R in rects)
    y0 = min(over(R.fiber_lo, dy) for R in rects)
    y1 = max(over(R.fiber_hi, dy) for R in rects)
    # on a flat fiber range every y offset is 0, so any scale will do
    span = (y1 - y0) or 1
    width = (x1 - x0) * _PX_PER_UNIT / dx + 2 * _PAD
    height = (y1 - y0) * _FIBER_PX / span + 2 * _PAD

    def fx(v: Fraction) -> str:
        return format((over(v, dx) - x0) * _PX_PER_UNIT / dx + _PAD, ".3f")

    def fy(v: Fraction) -> str:
        # flip: larger fiber values sit higher on the canvas
        return format((y1 - over(v, dy)) * _FIBER_PX / span + _PAD, ".3f")

    digits = sorted({R.digit for R in rects})
    style = "".join(
        f".d{d}{{fill:{_PALETTE[d % len(_PALETTE)]};stroke:none}}" for d in digits)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.3f}" '
        f'height="{height:.3f}" viewBox="0 0 {width:.3f} {height:.3f}">',
        f"<style>{style}</style>",
    ]
    for R in rects:
        w = format((over(R.real_hi, dx) - over(R.real_lo, dx)) * _PX_PER_UNIT / dx, ".3f")
        h = format((over(R.fiber_hi, dy) - over(R.fiber_lo, dy)) * _FIBER_PX / span, ".3f")
        out.append(f'<rect class="d{R.digit}" x="{fx(R.real_lo)}" '
                   f'y="{fy(R.fiber_hi)}" width="{w}" height="{h}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
