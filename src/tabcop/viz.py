"""Deterministic figure emitters: confetti plots (SVG) and heat maps (PPM).

A confetti plot draws one dot per cell with dot *area* proportional to the
cell probability (the proportionality law is fixed here; radius-encoding
would exaggerate small differences) and color interpolated along a ramp.
Structural zeros stay visible as 1-pixel outline circles, since the zero
pattern is the dominant feature of a dependence structure.  Output bytes
are identical across runs for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tabcop.errors import ValidationError, check_positive
from tabcop.infinite import DensityGrid
from tabcop.pmf_core import JointPmf

#: Default color ramp: light gray to dark red.
DEFAULT_RAMP = ((211, 211, 211), (139, 0, 0))


def _check_ramp(ramp) -> None:
    """Raise ``ValidationError`` unless both ramp ends are integer RGB in 0..255."""
    lo, hi = ramp
    for c in (*lo, *hi):
        if not (isinstance(c, (int, np.integer)) and 0 <= c <= 255):
            raise ValidationError("ramp colors must be integer RGB in 0..255")


@dataclass(frozen=True)
class ConfettiOptions:
    cell_size: float = 48.0
    color_ramp_ends: tuple = DEFAULT_RAMP
    show_margins: bool = True
    dot_area_scale: float = 1.0

    def __post_init__(self):
        for name in ("cell_size", "dot_area_scale"):
            # stored as floats, so a NumPy scalar is not drawn in its own precision
            object.__setattr__(self, name,
                               check_positive(getattr(self, name), name, ValidationError))
        _check_ramp(self.color_ramp_ends)


def _fmt(x: float) -> str:
    # repr keeps full double precision, so equal inputs give equal bytes
    # and area ratios survive a round trip through the SVG text
    return repr(float(x))


def _radii(mass: np.ndarray, opts: ConfettiOptions) -> list:
    """Dot radii sqrt(dot_area_scale * mass) * cell / 2, as Python floats."""
    return (np.sqrt(opts.dot_area_scale * mass) * opts.cell_size / 2.0).tolist()


def confetti_svg(p: JointPmf, opts: ConfettiOptions | None = None) -> str:
    """Render a probability table as an SVG confetti plot.

    One circle per cell, radius sqrt(dot_area_scale * p[x, y]) * cell/2,
    at matrix orientation (row 0 on top).  With ``show_margins`` the row
    margins appear as black dots in a right gutter and the column margins
    in a bottom gutter, on the same area scale.

    Radii and ramp colours come from one array pass over the flattened
    table, in the same double operations as a per-cell evaluation: the
    radii are formatted by ``repr`` and the colours rounded half to even
    by ``np.rint``, as Python's ``round`` rounds them.  Each row's cy and
    column's cx is formatted once, so the bytes equal those of
    formatting cell by cell.
    """
    if opts is None:
        opts = ConfettiOptions()
    values = p.values
    n_rows, n_cols = p.shape
    cell = opts.cell_size
    width = (n_cols + (1 if opts.show_margins else 0)) * cell
    height = (n_rows + (1 if opts.show_margins else 0)) * cell
    cys = [_fmt((x + 0.5) * cell) for x in range(n_rows)]
    cxs = [_fmt((y + 0.5) * cell) for y in range(n_cols)]
    flat = values.ravel()
    radii = list(map(repr, _radii(flat, opts)))
    t = flat / flat.max()
    (r0, g0, b0), (r1, g1, b1) = opts.color_ramp_ends
    reds, greens, blues = (np.rint(lo + t * (hi - lo)).astype(np.int64).tolist()
                           for lo, hi in ((r0, r1), (g0, g1), (b0, b1)))
    positive = (flat > 0.0).tolist()

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    i = 0
    for cy in cys:
        for cx in cxs:
            if positive[i]:
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="{radii[i]}" '
                             f'fill="rgb({reds[i]},{greens[i]},{blues[i]})"/>')
            else:
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="1" '
                             f'fill="none" stroke="black" stroke-width="1"/>')
            i += 1
    if opts.show_margins:
        gx = _fmt((n_cols + 0.5) * cell)
        for cy, radius in zip(cys, _radii(values.sum(axis=1), opts)):
            parts.append(f'<circle cx="{gx}" cy="{cy}" r="{radius!r}" fill="black"/>')
        gy = _fmt((n_rows + 0.5) * cell)
        for cx, radius in zip(cxs, _radii(values.sum(axis=0), opts)):
            parts.append(f'<circle cx="{cx}" cy="{gy}" r="{radius!r}" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_ppm(grid: DensityGrid, gamma: float = 1.0,
                ramp=DEFAULT_RAMP) -> bytes:
    """Render a density grid as a binary P6 PPM image, one pixel per cell.

    Colors follow (height/max)**gamma along the ramp; gamma < 1 lifts the
    low end, which helps when a grid has a sharp ridge.
    """
    gamma = check_positive(gamma, "gamma", ValidationError)
    _check_ramp(ramp)
    h = grid.heights
    peak = h.max()
    scaled = (h / peak) ** gamma if peak > 0 else np.zeros_like(h)
    (r0, g0, b0), (r1, g1, b1) = ramp
    rgb = np.empty((grid.n, grid.n, 3), dtype=np.uint8)
    rgb[:, :, 0] = np.round(r0 + scaled * (r1 - r0))
    rgb[:, :, 1] = np.round(g0 + scaled * (g1 - g0))
    rgb[:, :, 2] = np.round(b0 + scaled * (b1 - b0))
    header = f"P6\n{grid.n} {grid.n}\n255\n".encode("ascii")
    return header + rgb.tobytes()
