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
    check_positive,
    check_size,
)
from tabcop.pmf_core import JointPmf, MarginPair, _wrap

_GRID_MASS_TOL = 1e-9
_GRID_MARGIN_TOL = 1e-6
#: Largest marginal mass a Poisson grid may absorb into its boundary level.
_GRID_TAIL_TOL = 1e-6


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
    """Poisson(lam) pmf over {0..N-1} with the tail absorbed at N-1.

    The absorbed tail P(X >= N-1) is evaluated directly rather than as a
    complement, so it stays positive and relatively accurate however far
    below rounding noise it falls.
    """
    from scipy.special import pdtrc

    lam = check_positive(lam, "lam", ParamError)
    n_levels = check_size(n_levels, "n_levels", 2, ParamError)
    pmf = np.array([math.exp(_poisson_log_pmf(lam, k)) for k in range(n_levels)])
    pmf[n_levels - 1] = pdtrc(n_levels - 2, lam)
    return pmf


#: Tail sums stop once their last term is this far below their largest,
#: a relative cutoff of exp(-46) ~ 1e-20.
_LOG_CUT = 46.0
#: Most levels past N-1 the tail sums may run over.
_MAX_TAIL_LEVELS = 2048


def _bivariate_poisson_log_grid(lam10, lam01, lam11, size: int) -> np.ndarray:
    """log P(X = x, Y = y) for x, y < size, summed over the shared count.

    P(x, y) = sum_i Pois(x-i; lam10) Pois(y-i; lam01) Pois(i; lam11); the
    term of shared count i fills the block [i:, i:], so one pass over i
    accumulates every cell in log space with (size, size) work arrays.
    """
    k = np.arange(size)
    log_fact = np.array([math.lgamma(j + 1) for j in range(size)])
    base = -(lam10 + lam01 + lam11)
    log_x = k * math.log(lam10) - log_fact
    log_y = k * math.log(lam01) - log_fact
    out = base + log_x[:, None] + log_y[None, :]
    if lam11 > 0.0:
        log_shared = k * math.log(lam11) - log_fact
        for i in range(1, size):
            block = out[i:, i:]
            np.logaddexp(block, base + log_shared[i] + log_x[: size - i, None]
                         + log_y[None, : size - i], out=block)
    return out


def _tails_converged(log_grid: np.ndarray, start: int) -> bool:
    """Whether every tail sum of the grid past ``start`` has died out.

    Each of the sums the boundary cells absorb -- over rows >= start for a
    column below start, over columns >= start for a row below start, and
    over the corner block -- must end in a term _LOG_CUT below its largest.
    """
    row_tails = log_grid[start:, :start]
    col_tails = log_grid[:start, start:]
    corner = log_grid[start:, start:]
    corner_edge = max(corner[-1].max(), corner[:, -1].max())
    return bool((row_tails[-1] < row_tails.max(axis=0) - _LOG_CUT).all()
                and (col_tails[:, -1] < col_tails.max(axis=1) - _LOG_CUT).all()
                and corner_edge < corner.max() - _LOG_CUT)


def bivariate_poisson_pmf(lam10: float, lam01: float, lam11: float,
                          n_levels: int) -> JointPmf:
    """Truncated common-shock bivariate Poisson on {0..N-1}^2.

    (X, Y) = (Z10 + Z11, Z01 + Z11) for independent Poisson components;
    interior cells come from the shared-count series and the last row and
    column absorb the tail sums.  Everything is evaluated in log space,
    tails included: the boundary cells shrink super-exponentially with N
    and would otherwise drown in the rounding noise of a complement
    subtraction, corrupting any later rescaling of the boundary.  The
    tails are sums over the same log grid extended past N-1 until their
    terms die out.  Margins are the truncated Poisson(lam10+lam11) and
    Poisson(lam01+lam11) laws.
    """
    lam10 = check_positive(lam10, "lam10", ParamError)
    lam01 = check_positive(lam01, "lam01", ParamError)
    lam11 = check_nonnegative(lam11, "lam11", ParamError, allow_inf=False)
    n = check_size(n_levels, "n_levels", 2, ParamError)

    from scipy.special import logsumexp

    extra = 8
    while True:
        if extra > _MAX_TAIL_LEVELS:
            raise ParamError(
                f"tail sums of rates ({lam10}, {lam01}, {lam11}) past level {n - 1} "
                f"need more than {_MAX_TAIL_LEVELS} terms; increase n_levels"
            )
        log_grid = _bivariate_poisson_log_grid(lam10, lam01, lam11, n - 1 + extra)
        if _tails_converged(log_grid, n - 1):
            break
        extra *= 2

    out = np.empty((n, n))
    out[: n - 1, : n - 1] = np.exp(log_grid[: n - 1, : n - 1])
    out[n - 1, : n - 1] = np.exp(logsumexp(log_grid[n - 1:, : n - 1], axis=0))
    out[: n - 1, n - 1] = np.exp(logsumexp(log_grid[: n - 1, n - 1:], axis=1))
    out[n - 1, n - 1] = np.exp(logsumexp(log_grid[n - 1:, n - 1:]))
    return JointPmf(out)


def poisson_copula_grid(omega: float, n_levels: int) -> DensityGrid:
    """Density grid of the bivariate Poisson dependence structure.

    Only the ratio omega = lam11/(lam10*lam01) matters for the copula, so
    the construction fixes lam10 = lam01 = 1 and lam11 = omega.  The
    marginal mass absorbed into the boundary level N-1 must stay below
    1e-6, otherwise ParamError asks for a larger N.
    """
    from scipy import special

    omega = check_nonnegative(omega, "omega", ParamError, allow_inf=False)
    n_levels = check_size(n_levels, "n_levels", 2, ParamError)

    lam = 1.0 + omega
    tail = float(special.pdtrc(n_levels - 2, lam))  # mass absorbed at level N-1
    if tail >= _GRID_TAIL_TOL:
        raise ParamError(
            f"marginal tail mass {tail:.3g} beyond level {n_levels - 1} exceeds "
            f"{_GRID_TAIL_TOL:g}; increase n_levels"
        )
    pmf = bivariate_poisson_pmf(1.0, 1.0, omega, n_levels)
    cop, _diag = scaling.copula_pmf(pmf)
    # N^2 times a fitted copula pmf: the grid's invariants hold by construction
    return _wrap(DensityGrid, heights=n_levels**2 * cop.values)


def geometric_copula_grid(omega: float, n_levels: int) -> DensityGrid:
    """Density grid of the standard truncated-Geometric copula.

    Scaled uniform-margin representative of the first-success model at
    the given odds ratio; for omega > 1 the density ridges along the main
    diagonal, for omega < 1 it vanishes there in the limit.
    """
    from tabcop.families import truncated_geometric_copula

    cop = truncated_geometric_copula(n_levels, omega)
    return _wrap(DensityGrid, heights=n_levels**2 * cop.values)


def couple_countable_margins(margin_x, margin_y, copula: JointPmf) -> JointPmf:
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
    coupled, _diag = scaling.couple(copula, MarginPair(mx, my))
    return coupled


def upsilon_truncation_drift(omega: float, n_levels: int) -> float:
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
