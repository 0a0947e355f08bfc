import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabcop.errors import ValidationError
from tabcop.infinite import DensityGrid, geometric_copula_grid
from tabcop.pmf_core import JointPmf, from_counts
from tabcop.scaling import copula_pmf
from tabcop.viz import DEFAULT_RAMP, ConfettiOptions, confetti_svg, heatmap_ppm

from conftest import GRAUBARD_COUNTS, LIN_COUNTS

SVG_NS = "{http://www.w3.org/2000/svg}"


def circles_of(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG_NS}circle")


def _fmt(x):
    return repr(float(x))


def confetti_svg_per_cell(p, opts):
    """The confetti renderer evaluated and formatted one cell at a time."""
    n_rows, n_cols = p.shape
    cell = opts.cell_size
    width = (n_cols + (1 if opts.show_margins else 0)) * cell
    height = (n_rows + (1 if opts.show_margins else 0)) * cell
    peak = p.values.max()
    (r0, g0, b0), (r1, g1, b1) = opts.color_ramp_ends

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    for x in range(n_rows):
        cy = (x + 0.5) * cell
        for y in range(n_cols):
            cx = (y + 0.5) * cell
            mass = p.values[x, y]
            if mass > 0.0:
                radius = math.sqrt(opts.dot_area_scale * mass) * cell / 2.0
                t = mass / peak
                fill = (f"rgb({round(r0 + t * (r1 - r0))},{round(g0 + t * (g1 - g0))},"
                        f"{round(b0 + t * (b1 - b0))})")
                parts.append(
                    f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                    f'r="{_fmt(radius)}" fill="{fill}"/>'
                )
            else:
                parts.append(
                    f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="1" '
                    f'fill="none" stroke="black" stroke-width="1"/>'
                )
    if opts.show_margins:
        row_sums = p.values.sum(axis=1)
        col_sums = p.values.sum(axis=0)
        gx = (n_cols + 0.5) * cell
        for x in range(n_rows):
            radius = math.sqrt(opts.dot_area_scale * row_sums[x]) * cell / 2.0
            parts.append(
                f'<circle cx="{_fmt(gx)}" cy="{_fmt((x + 0.5) * cell)}" '
                f'r="{_fmt(radius)}" fill="black"/>'
            )
        gy = (n_rows + 0.5) * cell
        for y in range(n_cols):
            radius = math.sqrt(opts.dot_area_scale * col_sums[y]) * cell / 2.0
            parts.append(
                f'<circle cx="{_fmt((y + 0.5) * cell)}" cy="{_fmt(gy)}" '
                f'r="{_fmt(radius)}" fill="black"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def confetti_table(seed, n_rows, n_cols, zero_share):
    """A pmf with about ``zero_share`` zero cells, none in a whole line,
    and positive cells spread over 15 orders of magnitude."""
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(-12.0, 3.0, size=(n_rows, n_cols))
    weights[rng.random((n_rows, n_cols)) < zero_share] = 0.0
    weights[np.arange(n_rows), np.arange(n_rows) % n_cols] += 1.0
    weights[np.arange(n_cols) % n_rows, np.arange(n_cols)] += 1.0
    return JointPmf(weights / weights.sum())


@st.composite
def confetti_cases(draw):
    """A table of up to 64 x 64 with zero cells, and options."""
    p = confetti_table(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 64)),
                       draw(st.integers(2, 64)), draw(st.sampled_from([0.0, 0.1, 0.5, 0.9])))
    color = st.tuples(*[st.integers(0, 255)] * 3)
    opts = ConfettiOptions(
        cell_size=draw(st.one_of(st.floats(0.01, 500.0), st.integers(1, 100))),
        color_ramp_ends=draw(st.one_of(st.just(DEFAULT_RAMP), st.tuples(color, color))),
        show_margins=draw(st.booleans()),
        dot_area_scale=draw(st.floats(1e-3, 1e3)),
    )
    return p, opts


class TestConfettiSvg:
    def test_well_formed_with_margin_dots(self):
        p = JointPmf(np.full((3, 4), 1 / 12))
        circles = circles_of(confetti_svg(p))
        assert len(circles) == 3 * 4 + 3 + 4

    def test_circle_count_without_margins(self):
        p = JointPmf(np.full((2, 2), 0.25))
        svg = confetti_svg(p, ConfettiOptions(show_margins=False))
        assert len(circles_of(svg)) == 4

    def test_uniform_table_identical_circles(self):
        p = JointPmf(np.full((2, 2), 0.25))
        radii = {c.get("r") for c in circles_of(
            confetti_svg(p, ConfettiOptions(show_margins=False)))}
        assert len(radii) == 1

    def test_areas_proportional_to_probability(self):
        cop, _ = copula_pmf(from_counts(LIN_COUNTS))
        svg = confetti_svg(cop, ConfettiOptions(show_margins=False))
        radii = [float(c.get("r")) for c in circles_of(svg)]
        v = cop.values.ravel()
        for i in (1, 2, 3):
            assert (radii[i] / radii[0]) ** 2 == pytest.approx(
                v[i] / v[0], rel=1e-9
            )
        # diagonal-to-off-diagonal radius ratio ~ sqrt(0.453/0.047) ~ 3.1
        assert radii[0] / radii[1] == pytest.approx(
            math.sqrt(v[0] / v[1]), rel=1e-12
        )
        assert 3.0 < radii[0] / radii[1] < 3.2

    def test_zero_cells_render_as_unit_outlines(self):
        p = JointPmf([[0.5, 0.0], [0.0, 0.5]])
        svg = confetti_svg(p, ConfettiOptions(show_margins=False))
        outlines = [c for c in circles_of(svg) if c.get("fill") == "none"]
        assert len(outlines) == 2
        assert all(c.get("r") == "1" for c in outlines)

    def test_graubard_bottom_row_grows_left_to_right(self):
        # rising malformation risk with consumption: the bottom-row dots
        # grow toward the right (the first pair is near-flat, 0.063/0.060)
        cop, _ = copula_pmf(from_counts(GRAUBARD_COUNTS))
        svg = confetti_svg(cop, ConfettiOptions(show_margins=False))
        circles = circles_of(svg)
        bottom = [float(c.get("r")) for c in circles[5:10]]
        assert bottom[-1] == max(bottom)
        assert all(a < b for a, b in zip(bottom[1:], bottom[2:]))
        assert bottom[0] < bottom[2]

    def test_deterministic_bytes(self):
        cop, _ = copula_pmf(from_counts(LIN_COUNTS))
        assert confetti_svg(cop) == confetti_svg(cop)

    @settings(max_examples=200, deadline=None)
    @given(case=confetti_cases())
    def test_bytes_match_per_cell_renderer(self, case):
        p, opts = case
        assert confetti_svg(p, opts) == confetti_svg_per_cell(p, opts)

    @pytest.mark.parametrize("shape", [(64, 64), (64, 2), (2, 64), (61, 61)])
    @pytest.mark.parametrize("show_margins", [True, False])
    def test_large_tables_match_per_cell_renderer(self, shape, show_margins):
        p = confetti_table(sum(shape), *shape, zero_share=0.3)
        for opts in (ConfettiOptions(show_margins=show_margins),
                     ConfettiOptions(cell_size=7.3, color_ramp_ends=((0, 255, 13), (250, 1, 128)),
                                     show_margins=show_margins, dot_area_scale=37.5)):
            assert confetti_svg(p, opts) == confetti_svg_per_cell(p, opts)

    def test_colour_ties_round_half_to_even(self):
        # t = 1/2 puts the channels at 0.5, 1.5 and 2.5 exactly
        p = JointPmf([[0.4, 0.2], [0.2, 0.2]])
        opts = ConfettiOptions(color_ramp_ends=((0, 0, 0), (1, 3, 5)), show_margins=False)
        fills = [c.get("fill") for c in circles_of(confetti_svg(p, opts))]
        assert fills == ["rgb(1,3,5)"] + ["rgb(0,2,2)"] * 3
        assert confetti_svg(p, opts) == confetti_svg_per_cell(p, opts)

    def test_option_validation(self):
        with pytest.raises(ValidationError):
            ConfettiOptions(cell_size=0)
        with pytest.raises(ValidationError):
            ConfettiOptions(dot_area_scale=-1.0)
        with pytest.raises(ValidationError):
            ConfettiOptions(color_ramp_ends=((0, 0, 999), (1, 1, 1)))


class TestHeatmapPpm:
    def test_header_and_size(self):
        grid = geometric_copula_grid(1.0, 8)
        data = heatmap_ppm(grid)
        assert data.startswith(b"P6\n8 8\n255\n")
        assert len(data) == len(b"P6\n8 8\n255\n") + 8 * 8 * 3

    def test_flat_grid_single_color(self):
        grid = DensityGrid(np.ones((4, 4)))
        body = heatmap_ppm(grid)[len(b"P6\n4 4\n255\n"):]
        pixels = {body[i:i + 3] for i in range(0, len(body), 3)}
        assert len(pixels) == 1

    def test_ridge_brightest_on_diagonal(self):
        grid = geometric_copula_grid(2.0, 16)
        body = heatmap_ppm(grid)[len(b"P6\n16 16\n255\n"):]
        # the ramp runs toward dark red: the largest red-minus-green
        # separation marks the largest height, which sits on the diagonal
        reds = np.frombuffer(body, dtype=np.uint8).reshape(16, 16, 3).astype(int)
        intensity = reds[:, :, 0] - reds[:, :, 1]
        assert (intensity.argmax(axis=1) == np.arange(16)).all()

    def test_deterministic_bytes(self):
        grid = geometric_copula_grid(0.5, 8)
        assert heatmap_ppm(grid, gamma=0.7) == heatmap_ppm(grid, gamma=0.7)

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            heatmap_ppm(DensityGrid(np.ones((2, 2))), gamma=0.0)

    @pytest.mark.parametrize("red", [300, -5, 0.5])
    def test_ramp_validation(self, red):
        # the ramp ends go into uint8 pixels: 300 would draw 44, -5 draw 251
        grid = DensityGrid([[2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValidationError, match="ramp colors"):
            heatmap_ppm(grid, ramp=((211, 211, 211), (red, 0, 0)))
