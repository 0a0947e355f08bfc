"""Independent references for the benchmark's correctness gate.

Nothing here imports tabcop.  Each check restates the mathematics the
package implements by another route: null rectangles are enumerated
outright instead of found by max flow, dependence preservation is tested
as "log(after / before) is a row term plus a column term" by least
squares, and the parametric families are rebuilt from their generative
models (convolutions, Poisson sums, closed-form CDFs) rather than from
their odds-ratio matrices.  scipy is imported only inside the functions
that need it, so loading this module adds nothing to the measured set-up.
"""

from __future__ import annotations

import math

import numpy as np

#: Published 2x2 malpractice table and its copula pmf (three decimals).
LIN_COUNTS = ((26.0, 1.0), (5.0, 18.0))
LIN_COPULA = ((0.453, 0.047), (0.047, 0.453))

#: Published 2x5 malformation table and its copula pmf (three decimals).
GRAUBARD_COUNTS = (
    (17066.0, 14464.0, 788.0, 126.0, 37.0),
    (48.0, 38.0, 5.0, 1.0, 1.0),
)
GRAUBARD_COPULA = (
    (0.137, 0.140, 0.098, 0.087, 0.037),
    (0.063, 0.060, 0.102, 0.113, 0.163),
)

#: Tolerance on the three-decimal published tables.
PUBLISHED_ATOL = 5e-4
#: Tolerance on closed forms and exact margins.
CLOSED_FORM_ATOL = 1e-8
MARGIN_ATOL = 1e-10
#: Tolerance on the row-plus-column form of log(after / before).
SCALING_ATOL = 1e-7


def rectangle_class(mask, row_targets=None, col_targets=None, tol=0.0):
    """Classify (support, margins) by enumerating null rectangles.

    C when some null rectangle's target mass exceeds 1; otherwise B2 when
    a tight rectangle (mass exactly 1, within ``tol``) leaves support cells
    in its complement block, which every feasible table must zero; B1 when
    tight rectangles exist but force nothing; else A.  Only rectangles
    with a maximal row set for their column set are inspected: growing
    the row set keeps a rectangle null and its mass can only grow.  The
    smaller side is enumerated, so shapes up to 8 x n stay cheap.  Without
    targets the margins are uniform and the test runs in exact integers.

    Returns ``(tag, forced_cells)`` with ``forced_cells`` a frozenset of
    (row, col) pairs.
    """
    mask = np.asarray(mask, dtype=bool)
    transposed = mask.shape[1] > mask.shape[0]
    if transposed:
        mask = mask.T
        row_targets, col_targets = col_targets, row_targets
    n_rows, n_cols = mask.shape
    if row_targets is None:
        row_w = np.full(n_rows, n_cols, dtype=np.int64)
        col_w = np.full(n_cols, n_rows, dtype=np.int64)
        budget, slack = n_rows * n_cols, 0
    else:
        row_w = np.asarray(row_targets, dtype=float)
        col_w = np.asarray(col_targets, dtype=float)
        budget, slack = 1.0, tol

    subsets = np.arange(1, 1 << n_cols, dtype=np.int64)
    bits = (subsets[:, None] >> np.arange(n_cols)) & 1                  # (K, S)
    null_rows = ~((bits @ mask.T.astype(np.int64)) > 0)                  # (K, R)
    has_rows = null_rows.any(axis=1)
    total = null_rows @ row_w + bits @ col_w
    if (has_rows & (total > budget + slack)).any():
        return "C", frozenset()
    tight = has_rows & (total >= budget - slack)
    forced = np.zeros_like(mask)
    for k in np.flatnonzero(tight):
        forced |= np.outer(~null_rows[k], bits[k] == 0) & mask
    cells = frozenset(
        (int(y), int(x)) if transposed else (int(x), int(y))
        for x, y in np.argwhere(forced)
    )
    if cells:
        return "B2", cells
    return ("B1" if tight.any() else "A"), frozenset()


def margin_error(values, row_targets, col_targets):
    """Max absolute deviation of a table's margins from the targets."""
    v = np.asarray(values, dtype=float)
    return max(
        float(np.abs(v.sum(axis=1) - row_targets).max()),
        float(np.abs(v.sum(axis=0) - col_targets).max()),
    )


def scaling_residual(before, after):
    """How far ``after`` is from a row/column rescaling of ``before``.

    On the cells where ``after`` is positive (which must all be positive
    in ``before``), fits log(after / before) = a[x] + b[y] by least squares
    and returns the largest residual; every odds ratio on the surviving
    support is preserved exactly when the residual is zero.  Returns inf
    when ``after`` puts mass outside the support of ``before``.
    """
    before = np.asarray(before, dtype=float)
    after = np.asarray(after, dtype=float)
    cells = after > 0
    if (cells & ~(before > 0)).any():
        return math.inf
    xs, ys = np.nonzero(cells)
    n_rows, n_cols = before.shape
    design = np.zeros((xs.size, n_rows + n_cols))
    design[np.arange(xs.size), xs] = 1.0
    design[np.arange(xs.size), n_rows + ys] = 1.0
    target = np.log(after[cells]) - np.log(before[cells])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return float(np.abs(design @ coef - target).max())


def pearson_on_labels(values):
    """Pearson correlation of (X, Y) under a table on integer labels."""
    v = np.asarray(values, dtype=float)
    xs = np.arange(v.shape[0], dtype=float)
    ys = np.arange(v.shape[1], dtype=float)
    px, py = v.sum(axis=1), v.sum(axis=0)
    ex, ey = px @ xs, py @ ys
    cov = xs @ v @ ys - ex * ey
    return cov / math.sqrt((px @ (xs - ex) ** 2) * (py @ (ys - ey) ** 2))


def bernoulli_cells(omega):
    """Uniform-margin 2x2 table with odds ratio omega (finite, positive)."""
    s = math.sqrt(omega)
    diag, off = s / (2.0 * (1.0 + s)), 1.0 / (2.0 * (1.0 + s))
    return np.array([[diag, off], [off, diag]])


def binomial_pmf(n, omega):
    """Law of n-fold coordinate sums of a 2x2 table, by convolution."""
    base = bernoulli_cells(omega)
    pmf = np.ones((1, 1))
    for _ in range(n):
        grown = np.zeros((pmf.shape[0] + 1, pmf.shape[1] + 1))
        for i in range(2):
            for j in range(2):
                grown[i:i + pmf.shape[0], j:j + pmf.shape[1]] += base[i, j] * pmf
        pmf = grown
    return pmf


def poisson_interior(omega, n_levels):
    """Common-shock bivariate Poisson cells (x, y < N-1), rates (1, 1, omega).

    Direct sum over the shared count, P(x, y) = sum_k Pois(k; omega)
    Pois(x-k; 1) Pois(y-k; 1); the absorbing last row and column are left
    out.
    """
    m = n_levels - 1
    k = np.arange(m)
    log_fact = np.array([math.lgamma(i + 1) for i in range(m)])
    unit = np.exp(-1.0 - log_fact)
    if omega == 0.0:
        return np.outer(unit, unit)
    shock = np.exp(k * math.log(omega) - omega - log_fact)
    out = np.zeros((m, m))
    for s in range(m):
        out[s:, s:] += shock[s] * np.outer(unit[: m - s], unit[: m - s])
    return out


def geometric_pmf(n_levels, omega):
    """Joint law of two capped first-success counts from a shared stream.

    Built by walking the stream: after each draw from the uniform-margin
    2x2 table with odds ratio omega, the pair of counters either both
    keep running (draw (0, 0)), or one or both stop.  Accumulates the
    probability of every (x, y) stopping point, with both counters capped
    at N-1.
    """
    n = n_levels
    (p00, p01), (p10, p11) = bernoulli_cells(omega)
    row0, col0 = p00 + p01, p00 + p10
    out = np.zeros((n, n))
    both = 1.0  # probability both counters still run after t draws
    for t in range(n - 1):
        # Y stops now, X keeps counting from t+1 with per-draw stay prob row0
        x_tail = np.array([row0 ** (x - t - 1) * (1 - row0) for x in range(t + 1, n - 1)])
        out[t, t] += both * p11
        out[t + 1:n - 1, t] += both * p01 * x_tail
        out[n - 1, t] += both * p01 * row0 ** (n - 2 - t)
        y_tail = np.array([col0 ** (y - t - 1) * (1 - col0) for y in range(t + 1, n - 1)])
        out[t, t + 1:n - 1] += both * p10 * y_tail
        out[t, n - 1] += both * p10 * col0 ** (n - 2 - t)
        both *= p00
    out[n - 1, n - 1] += both
    return out


def binomial2_closed_form(w):
    """Printed 3x3 copula of the common-shock Binomial(2) model."""
    s = math.sqrt(w * (w + 2.0) * (2.0 * w + 1.0))
    a = w * (w + 1.0) / (w * w + w + 1.0 + s)
    c = (w + 1.0) / (w * w + w + 1.0 + s)
    b = (s - 3.0 * w) / ((w - 1.0) ** 2)
    m = (w * w + 4.0 * w + 1.0 - 2.0 * s) / ((w - 1.0) ** 2)
    return np.array([[a, b, c], [b, m, b], [c, b, a]]) / 3.0


def geometric3_closed_form(w):
    """Printed 3x3 copula of the standard truncated-Geometric model."""
    sq = math.sqrt(8.0 * w + 1.0)
    sw = math.sqrt(w)
    d = 2.0 * w + sq + 1.0
    a = 2.0 * w / d
    b = (sq + 1.0) / (2.0 * d)
    m = sw * (sq + 1.0) ** 2 / (4.0 * (sw + 1.0) * d)
    f = (4.0 * w - 1.0 - sq) / (4.0 * (sw - 1.0) * (sw + 1.0) ** 2)
    return np.array([[a, b, b], [b, m, f], [b, f, m]]) / 3.0


def goodman33_closed_form(th):
    """Printed 3x3 copula of the constant-local-odds-ratio model."""
    s = math.sqrt(th * (4.0 * th * th + th + 4.0))
    a = 2.0 * th * th / (th * (2.0 * th - 1.0) + 2.0 + s)
    c = 2.0 / (th * (2.0 * th - 1.0) + 2.0 + s)
    b = 2.0 * math.sqrt(th) / (3.0 * math.sqrt(th) + math.sqrt(4.0 * th * th + th + 4.0))
    m = (th * th + th + 1.0 - s) / ((th - 1.0) ** 2)
    return np.array([[a, b, c], [b, m, b], [c, b, a]]) / 3.0


def clayton_pmf(theta, n_rows, n_cols):
    """Mesh discretization of the Clayton copula from its closed-form CDF."""
    u = np.arange(n_rows + 1)[:, None] / n_rows
    v = np.arange(n_cols + 1)[None, :] / n_cols
    with np.errstate(divide="ignore"):
        base = u ** (-theta) + v ** (-theta) - 1.0
        cdf = np.where(base > 0, np.abs(base) ** (-1.0 / theta), 0.0)
    cdf[0, :] = 0.0
    cdf[:, 0] = 0.0
    cdf[-1, :] = v[0]
    cdf[:, -1] = u[:, 0]
    return np.diff(np.diff(cdf, axis=0), axis=1)


def gaussian_cdf(u, v, rho):
    """Bivariate normal copula C(u, v) from scipy's multivariate normal."""
    from scipy.stats import multivariate_normal, norm

    cov = [[1.0, rho], [rho, 1.0]]
    return float(multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf(
        [norm.ppf(u), norm.ppf(v)]))


def copula_pmf_problems(values, n_rows=None, n_cols=None):
    """Basic contract of a copula pmf: shape, nonnegative, uniform margins."""
    v = np.asarray(values, dtype=float)
    problems = []
    if n_rows is not None and v.shape != (n_rows, n_cols):
        problems.append(f"shape {v.shape} != {(n_rows, n_cols)}")
        return problems
    if not np.isfinite(v).all() or (v < 0).any():
        problems.append("negative or non-finite cells")
    r, s = v.shape
    err = margin_error(v, np.full(r, 1.0 / r), np.full(s, 1.0 / s))
    if err > 1e-9:
        problems.append(f"margins off uniform by {err:.3g}")
    return problems


def grid_problems(heights):
    """A density grid averages to 1 overall and along every row and column."""
    h = np.asarray(heights, dtype=float)
    problems = []
    if abs(h.mean() - 1.0) > 1e-9:
        problems.append(f"grid mean {h.mean()!r} != 1")
    dev = max(np.abs(h.mean(axis=0) - 1.0).max(), np.abs(h.mean(axis=1) - 1.0).max())
    if dev > 1e-6:
        problems.append(f"grid row/column means off 1 by {dev:.3g}")
    return problems


def ppm_problems(data, n):
    """A binary P6 image of n x n pixels with an 8-bit channel."""
    header = f"P6\n{n} {n}\n255\n".encode("ascii")
    if not data.startswith(header):
        return ["PPM header mismatch"]
    if len(data) != len(header) + 3 * n * n:
        return [f"PPM payload of {len(data) - len(header)} bytes, expected {3 * n * n}"]
    return []


def svg_problems(text, n_rows, n_cols):
    """A well-formed SVG with at least one circle per table cell."""
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    if len(circles) < n_rows * n_cols:
        return [f"SVG has {len(circles)} circles for {n_rows * n_cols} cells"]
    return []
