"""Copula grids for countably supported distributions.

A distribution on N x N integer pairs is approached through its
truncations min(X, N-1), min(Y, N-1): each truncation has a unique
uniform-margin representative, and as N grows those tables, scaled by
N^2, approximate the density of a continuous copula -- the margin-free
dependence structure of the infinite-support law.  This module builds
the truncated bivariate Poisson, the resulting Poisson and Geometric
copula density grids, and couples truncated countable margins with
arbitrary copula pmfs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tabcop import scaling
from tabcop.errors import (
    DimensionMismatchError,
    ParamError,
    ValidationError,
    check_nonnegative,
)
from tabcop.pmf_core import JointPmf, MarginPair

_GRID_MASS_TOL = 1e-9
_GRID_MARGIN_TOL = 1e-6


@dataclass(frozen=True)
class DensityGrid:
    """N x N copula-density heights at the cell centers.

    ``heights[u, v]`` approximates the copula density: N^2 times the
    copula-pmf mass of the cell, so the grid averages to 1 and every row
    and column of heights averages to 1 (uniform margins).
    """

    heights: np.ndarray

    def __post_init__(self):
        h = np.array(self.heights, dtype=float, copy=True)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
            raise ValidationError(f"heights must be a square matrix, got {h.shape}")
        if (h < 0).any() or not np.isfinite(h).all():
            raise ValidationError("heights must be finite and nonnegative")
        n = h.shape[0]
        if abs(h.mean() - 1.0) > _GRID_MASS_TOL:
            raise ValidationError(f"grid mean must be 1, got {h.mean()!r}")
        if (np.abs(h.mean(axis=1) - 1.0).max() > _GRID_MARGIN_TOL
                or np.abs(h.mean(axis=0) - 1.0).max() > _GRID_MARGIN_TOL):
            raise ValidationError("grid rows/columns must average to 1")
        h.flags.writeable = False
        object.__setattr__(self, "heights", h)

    @property
    def n(self) -> int:
        return self.heights.shape[0]

    def cell_centers(self) -> np.ndarray:
        """Grid coordinates (u+1)/(N+1) of the cell centers."""
        return (np.arange(self.n) + 1.0) / (self.n + 1.0)


def _poisson_log_pmf(lam: float, count: int) -> float:
    return count * math.log(lam) - lam - math.lgamma(count + 1)


def truncated_poisson_margin(lam: float, n_levels: int) -> np.ndarray:
    """Poisson(lam) pmf over {0..N-1} with the tail absorbed at N-1."""
    if lam <= 0 or not math.isfinite(lam):
        raise ParamError(f"lam must be a positive real, got {lam!r}")
    if n_levels < 2:
        raise ParamError("n_levels must be at least 2")
    pmf = np.array([math.exp(_poisson_log_pmf(lam, k)) for k in range(n_levels)])
    pmf[n_levels - 1] = max(1.0 - pmf[: n_levels - 1].sum(), 0.0)
    return pmf


class _BivariatePoissonCells:
    """Log-space evaluator for common-shock bivariate Poisson cells."""

    # relative cutoff exp(-46) ~ 1e-20 for adaptive tail sums
    _LOG_CUT = 46.0
    _HARD_CAP = 100_000

    def __init__(self, lam10, lam01, lam11):
        from scipy.special import logsumexp

        self.logsumexp = logsumexp
        self.lam10, self.lam01, self.lam11 = lam10, lam01, lam11
        self.log_rate = (math.log(lam11 / (lam10 * lam01)) if lam11 > 0
                         else -math.inf)
        self.base = -(lam10 + lam01 + lam11)

    def log_cell(self, x: int, y: int) -> float:
        lx = x * math.log(self.lam10) - math.lgamma(x + 1)
        ly = y * math.log(self.lam01) - math.lgamma(y + 1)
        if self.lam11 == 0.0:
            log_series = 0.0
        else:
            terms = [
                math.lgamma(i + 1) + _log_comb(x, i) + _log_comb(y, i)
                + i * self.log_rate
                for i in range(min(x, y) + 1)
            ]
            log_series = self.logsumexp(terms)
        return self.base + lx + ly + log_series

    def _adaptive_logsum(self, log_term, start: int) -> float:
        """logsumexp of log_term(k) for k >= start, stopping in the tail."""
        logs = []
        best = -math.inf
        k = start
        while k < start + self._HARD_CAP:
            lp = log_term(k)
            logs.append(lp)
            best = max(best, lp)
            if lp < best - self._LOG_CUT and k > start + 3:
                break
            k += 1
        return float(self.logsumexp(logs))

    def log_row_tail(self, y: int, start: int) -> float:
        """log P(X >= start, Y = y)."""
        return self._adaptive_logsum(lambda x: self.log_cell(x, y), start)

    def log_col_tail(self, x: int, start: int) -> float:
        """log P(X = x, Y >= start)."""
        return self._adaptive_logsum(lambda y: self.log_cell(x, y), start)

    def log_corner(self, start: int) -> float:
        """log P(X >= start, Y >= start)."""
        return self._adaptive_logsum(lambda x: self.log_col_tail(x, start), start)


def bivariate_poisson_pmf(lam10: float, lam01: float, lam11: float,
                          n_levels: int) -> JointPmf:
    """Truncated common-shock bivariate Poisson on {0..N-1}^2.

    (X, Y) = (Z10 + Z11, Z01 + Z11) for independent Poisson components;
    interior cells come from the shared-count series and the last row and
    column absorb the tail sums.  Everything is evaluated in log space,
    tails included: the boundary cells shrink super-exponentially with N
    and would otherwise drown in the rounding noise of a complement
    subtraction, corrupting any later rescaling of the boundary.  Margins
    are the truncated Poisson(lam10+lam11) and Poisson(lam01+lam11) laws.
    """
    if lam10 <= 0 or lam01 <= 0 or not (math.isfinite(lam10) and math.isfinite(lam01)):
        raise ParamError("lam10 and lam01 must be positive reals")
    if lam11 < 0 or not math.isfinite(lam11):
        raise ParamError("lam11 must be a nonnegative real")
    if not isinstance(n_levels, (int, np.integer)) or n_levels < 2:
        raise ParamError(f"n_levels must be an integer >= 2, got {n_levels!r}")

    n = int(n_levels)
    cells = _BivariatePoissonCells(lam10, lam01, lam11)
    out = np.zeros((n, n))
    for x in range(n - 1):
        for y in range(n - 1):
            out[x, y] = math.exp(cells.log_cell(x, y))
    for y in range(n - 1):
        out[n - 1, y] = math.exp(cells.log_row_tail(y, n - 1))
    for x in range(n - 1):
        out[x, n - 1] = math.exp(cells.log_col_tail(x, n - 1))
    out[n - 1, n - 1] = math.exp(cells.log_corner(n - 1))
    return JointPmf(out)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def poisson_copula_grid(omega: float, n_levels: int, eps: float = 1e-6,
                        tol: float = scaling.DEFAULT_TOL) -> DensityGrid:
    """Density grid of the bivariate Poisson dependence structure.

    Only the ratio omega = lam11/(lam10*lam01) matters for the copula, so
    the construction fixes lam10 = lam01 = 1 and lam11 = omega.  ``eps``
    guards the truncation: the marginal mass absorbed into the boundary
    level N-1 must stay below it, otherwise ParamError asks for a larger N.
    """
    from scipy import special

    omega = check_nonnegative(omega, "omega", ParamError, allow_inf=False)
    if not 0.0 < eps <= 1e-6:
        raise ParamError(f"eps must lie in (0, 1e-6], got {eps!r}")

    lam = 1.0 + omega
    tail = float(special.pdtrc(n_levels - 2, lam))  # mass absorbed at level N-1
    if tail >= eps:
        raise ParamError(
            f"marginal tail mass {tail:.3g} beyond level {n_levels - 1} exceeds "
            f"eps={eps:g}; increase n_levels"
        )
    pmf = bivariate_poisson_pmf(1.0, 1.0, omega, n_levels)
    cop, _diag = scaling.copula_pmf(pmf, tol=tol)
    return DensityGrid(n_levels**2 * cop.values)


def geometric_copula_grid(omega: float, n_levels: int,
                          tol: float = scaling.DEFAULT_TOL) -> DensityGrid:
    """Density grid of the standard truncated-Geometric copula.

    Scaled uniform-margin representative of the first-success model at
    the given odds ratio; for omega > 1 the density ridges along the main
    diagonal, for omega < 1 it vanishes there in the limit.
    """
    from tabcop.families import truncated_geometric_copula

    cop = truncated_geometric_copula(n_levels, omega, tol=tol)
    return DensityGrid(n_levels**2 * cop.values)


def couple_countable_margins(margin_x, margin_y, copula: JointPmf,
                             tol: float = scaling.DEFAULT_TOL) -> JointPmf:
    """Attach truncated countable margins to a copula pmf.

    ``margin_x`` and ``margin_y`` are pmf vectors over {0..N-1} (for
    example from :func:`truncated_poisson_margin`); the result is the
    member of the copula's dependence class with those margins.
    """
    mx = np.asarray(margin_x, dtype=float)
    my = np.asarray(margin_y, dtype=float)
    if mx.size != copula.R or my.size != copula.S:
        raise DimensionMismatchError(
            f"margins of lengths ({mx.size}, {my.size}) do not match "
            f"copula shape {copula.shape}"
        )
    coupled, _diag = scaling.couple(copula, MarginPair(mx, my), tol=tol)
    return coupled


def upsilon_truncation_drift(omega: float, n_levels: int, eps: float = 1e-6) -> float:
    """Self-convergence diagnostic for the Poisson copula truncation.

    Absolute change of the copula's Yule coefficient when the truncation
    level doubles.  No convergence rate in N is asserted anywhere; this
    diagnostic lets callers judge whether a grid resolution has stabilized
    the summaries they care about.
    """
    from tabcop.dependence import yule_upsilon

    cop_small, _ = scaling.copula_pmf(bivariate_poisson_pmf(1.0, 1.0, omega, n_levels))
    cop_large, _ = scaling.copula_pmf(
        bivariate_poisson_pmf(1.0, 1.0, omega, 2 * n_levels)
    )
    return abs(yule_upsilon(cop_large) - yule_upsilon(cop_small))
