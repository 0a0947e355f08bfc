"""Copula grids for countably supported distributions.

A distribution on N x N integer pairs is approached through its
truncations min(X, N-1), min(Y, N-1): each truncation has a unique
uniform-margin representative, and as N grows those tables, scaled by
N^2, approximate the density of a continuous copula -- the margin-free
dependence structure of the infinite-support law.  This module builds
the truncated bivariate Poisson, the resulting Poisson and Geometric
copula density grids, and couples truncated countable margins with
arbitrary copula pmfs.  The boundary level N-1 absorbs each Poisson tail,
which past the mean is taken directly, as the pmf at its first level
times a series of nonnegative terms, never as a complement, so it keeps
its relative accuracy however small it is.  The pmf is Loader's (2000)
saddle-point form, so the Poisson tables need ``math`` and numpy alone.
The Poisson copula is fitted from the log of the truncated table with
its margins taken out (:func:`tabcop.families._fit_log_seed`), so its
cells underflow only where the dependence passes the doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tabcop import scaling
from tabcop.dependence import yule_upsilon
from tabcop.errors import (
    DimensionMismatchError,
    ParamError,
    ValidationError,
    check_nonnegative,
    check_positive,
    check_size,
)
from tabcop.families import _fit_log_seed, truncated_geometric_copula
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


#: stirlerr(k) = log k! - (k + 1/2) log k + k - log(2 pi) / 2 for k = 0..15, correctly
#: rounded (0 at k = 0, where the saddle-point form is not used)
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(k: int) -> float:
    """log k! minus its Stirling approximation: tabulated to k = 15, then five terms of its series."""
    if k < 16:
        return _STIRLERR[k]
    kk = float(k) * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k


def _bd0(k: int, lam: float) -> float:
    """k log(k / lam) + lam - k, the deviance term of the Poisson log pmf.

    With v = (k - lam) / (k + lam) it is (k - lam) v + 2k (v^3/3 + v^5/5 +
    ...), a series without cancellation, taken wherever |v| < 1/2; past
    that the direct form keeps at least 0.3 of its largest term.  Loader
    (2000) takes the series only below 1/10, where the direct form keeps a
    tenth: the log pmf then read up to 65 units of 2^-53 max(1, |log P|)
    off at lam = 1000, against 9.  Below lam = 1, log(k / lam) is taken as
    log k - log lam, a sum of two nonnegative terms, since k / lam
    overflows where lam is subnormal.
    """
    if abs(k - lam) >= 0.5 * (k + lam):
        log_ratio = math.log(k) - math.log(lam) if lam < 1.0 else math.log(k / lam)
        return k * log_ratio + lam - k
    v = (k - lam) / (k + lam)
    s = (k - lam) * v
    term = 2.0 * k * v
    v *= v
    j = 3
    while True:
        term *= v
        s_next = s + term / j
        if s_next == s:
            return s
        s, j = s_next, j + 2


def _poisson_log_level(k: int, lam: float) -> float:
    """log P(Z = k) for Z ~ Poisson(lam), in Loader's (2000) saddle-point form.

    log P = -stirlerr(k) - bd0(k, lam) - log(2 pi k) / 2, whose parts are
    each accurate to a few ulps at any k, where k log lam - lam - lgamma(k+1)
    cancels three terms of up to k log k.
    """
    if k == 0:
        return -lam
    return -_stirlerr(k) - _bd0(k, lam) - 0.5 * math.log(2.0 * math.pi * k)


def _poisson_log_pmf(lam: float, n_levels: int) -> np.ndarray:
    """log P(Z = k) for Z ~ Poisson(lam) and k = 0..N-1."""
    return np.array([_poisson_log_level(k, lam) for k in range(n_levels)])


def _poisson_log_tails(lam: float, log_pmf: np.ndarray) -> np.ndarray:
    """log P(Z >= m) for Z ~ Poisson(lam) and m = 0..N-1, given ``log_pmf`` over 0..N-1.

    Above the mean, P(Z >= m) = P(Z = m) S(m) with S(m) = sum_j lam^j /
    ((m+1)...(m+j)); at or below it, P(Z >= m) = 1 - P(Z = m-1) L(m) with
    L(m) = sum_j (m-1)...(m-j) / lam^j, taken by log1p.  Each sum runs
    through its damped recurrence: S(m) = 1 + lam/(m+1) S(m+1) down from
    S = 1 at the first level past N-1 where the product of the factors
    from N-1 on falls below 2^-60, and L(m) = 1 + (m-1)/lam L(m-1) up from
    L(1) = 1.  Every term is nonnegative and every factor is below 1, so
    each tail keeps its relative accuracy at any depth.
    """
    log_pmf = log_pmf.tolist()
    n = len(log_pmf)
    out = [0.0] * n  # P(Z >= 0) = 1
    split = min(math.floor(lam), n - 1)  # the last m at or below the mean
    below = 1.0
    for m in range(1, split + 1):
        below = 1.0 + (m - 1) / lam * below
        out[m] = math.log1p(-math.exp(log_pmf[m - 1]) * below)
    if split < n - 1:
        top, rest = n - 1, 1.0
        while rest > 2.0**-60:
            top += 1
            rest *= lam / top
        above = 1.0
        for m in range(top - 1, split, -1):
            above = 1.0 + lam / (m + 1) * above
            if m < n:
                out[m] = log_pmf[m] + math.log(above)
    return np.array(out)


def _poisson_log_margin(lam: float, n_levels: int) -> np.ndarray:
    """log of :func:`truncated_poisson_margin`: log P(Z = k) for k < N-1, then log P(Z >= N-1).

    The levels 0..N-2 are exp of the log pmf (:func:`_poisson_log_level`),
    which is concave in k, so the least of them is at an end, k = 0 or
    N-2 (past N = 2**53 the level 2**53, which rounds to 0 at any lam,
    stands for the far end).  So two values decide in O(1), before
    anything is built, whether one of them rounds to 0.  The last level is
    the last tail of :func:`_poisson_log_tails`.  ParamError names lam and
    N where a level rounds to 0.
    """
    far = min(n_levels - 2, 2**53)
    if all(math.exp(_poisson_log_level(k, lam)) > 0.0 for k in (0, far)):
        log_margin = _poisson_log_pmf(lam, n_levels)
        log_margin[-1] = _poisson_log_tails(lam, log_margin)[-1]
        if math.exp(log_margin[-1]) > 0.0:
            return log_margin
    raise ParamError(
        f"a level of the Poisson(lam={lam}) margin on n_levels={n_levels} levels "
        "rounds to 0 in doubles"
    )


def truncated_poisson_margin(lam: float, n_levels: int) -> np.ndarray:
    """Poisson(lam) pmf over {0..N-1} with the tail absorbed at N-1.

    The absorbed tail P(X >= N-1) is evaluated directly rather than as a
    complement (:func:`_poisson_log_tails`), so it stays positive and
    relatively accurate however far below rounding noise it falls.  Where
    a level rounds to 0 in doubles, as every level from k = 177 on does at
    lam = 1, ParamError names lam and N before anything is built
    (:func:`_poisson_log_margin`).
    """
    lam = check_positive(lam, "lam", ParamError)
    n_levels = check_size(n_levels, "n_levels", 2, ParamError)
    return np.array([math.exp(v) for v in _poisson_log_margin(lam, n_levels).tolist()])


def _bivariate_poisson_log_pmf(lam10: float, lam01: float, lam11: float,
                               n: int) -> np.ndarray:
    """log of :func:`bivariate_poisson_pmf`'s cells, for checked arguments."""
    log_x, log_y = _poisson_log_pmf(lam10, n), _poisson_log_pmf(lam01, n)
    tail_x, tail_y = _poisson_log_tails(lam10, log_x), _poisson_log_tails(lam01, log_y)
    log_shared = _poisson_log_pmf(lam11, n) if lam11 > 0.0 else np.zeros(1)
    out = np.full((n, n), -np.inf)
    for i, log_p in enumerate(log_shared[: n - 1]):
        last = n - 1 - i  # the boundary level, counted from the block's corner
        fx = np.append(log_x[:last], tail_x[last])
        fy = np.append(log_y[:last], tail_y[last])
        block = out[i:, i:]
        np.logaddexp(block, log_p + fx[:, np.newaxis] + fy[np.newaxis, :], out=block)
    if lam11 > 0.0:
        out[-1, -1] = np.logaddexp(out[-1, -1], _poisson_log_tails(lam11, log_shared)[-1])
    return out


def bivariate_poisson_pmf(lam10: float, lam01: float, lam11: float,
                          n_levels: int) -> JointPmf:
    """Truncated common-shock bivariate Poisson on {0..N-1}^2.

    (X, Y) = (Z10 + Z11, Z01 + Z11) for independent Poisson components.
    Given the shared count Z11 = i < N-1, min(X, N-1) - i follows the
    Poisson(lam10) margin truncated to N-i levels, and likewise for Y, so
    term i is the outer product of those margins on the block [i:, i:];
    a shared count of N-1 or more adds P(Z11 >= N-1) to the corner.  The
    terms are summed in log space and every tail is taken directly
    (:func:`_poisson_log_tails`), never as a complement: the boundary cells
    shrink super-exponentially with N and would otherwise drown in rounding
    noise or underflow, corrupting any later rescaling of the boundary.
    Margins are the truncated Poisson(lam10+lam11) and Poisson(lam01+lam11)
    laws.
    """
    lam10 = check_positive(lam10, "lam10", ParamError)
    lam01 = check_positive(lam01, "lam01", ParamError)
    lam11 = check_nonnegative(lam11, "lam11", ParamError, allow_inf=False)
    n = check_size(n_levels, "n_levels", 2, ParamError)
    return JointPmf(np.exp(_bivariate_poisson_log_pmf(lam10, lam01, lam11, n)))


def _poisson_copula(omega: float, n: int) -> JointPmf:
    """The copula pmf of the truncated bivariate Poisson at lam10 = lam01 = 1, lam11 = omega.

    Only the ratio omega = lam11 / (lam10 lam01) matters for the copula.
    The log table is fitted with the Poisson margins taken out
    (:func:`tabcop.families._fit_log_seed`), so a cell underflows only
    where the dependence, not a margin level, passes the doubles;
    ParamError names omega and N where the fit fails.
    """
    return _fit_log_seed(_bivariate_poisson_log_pmf(1.0, 1.0, omega, n),
                         f"omega={omega} for n_levels={n}", "Poisson")


def poisson_copula_grid(omega: float, n_levels: int) -> DensityGrid:
    """Density grid of the bivariate Poisson dependence structure.

    Only the ratio omega = lam11/(lam10*lam01) matters for the copula, so
    the construction fixes lam10 = lam01 = 1 and lam11 = omega, and fits
    the log table with the margins taken out (:func:`_poisson_copula`).
    The marginal mass absorbed into the boundary level N-1 must stay below
    1e-6, otherwise ParamError asks for a larger N; and no level of the
    Poisson(1 + omega) margin may round to 0 (:func:`_poisson_log_margin`).
    """
    omega = check_nonnegative(omega, "omega", ParamError, allow_inf=False)
    n_levels = check_size(n_levels, "n_levels", 2, ParamError)

    lam = 1.0 + omega
    tail = math.exp(_poisson_log_margin(lam, n_levels)[-1])  # mass absorbed at level N-1
    if tail >= _GRID_TAIL_TOL:
        raise ParamError(
            f"marginal tail mass {tail:.3g} beyond level {n_levels - 1} exceeds "
            f"{_GRID_TAIL_TOL:g}; increase n_levels"
        )
    cop = _poisson_copula(omega, n_levels)
    # N^2 times a fitted copula pmf: the grid's invariants hold by construction
    return _wrap(DensityGrid, heights=n_levels**2 * cop.values)


def geometric_copula_grid(omega: float, n_levels: int) -> DensityGrid:
    """Density grid of the standard truncated-Geometric copula.

    Scaled uniform-margin representative of the first-success model at
    the given odds ratio; for omega > 1 the density ridges along the main
    diagonal, for omega < 1 it vanishes there in the limit.
    """
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
    the summaries they care about.  Both copulas are fitted as the grid's
    are (:func:`_poisson_copula`), without its bound on the tail mass.
    """
    omega = check_nonnegative(omega, "omega", ParamError, allow_inf=False)
    n_levels = check_size(n_levels, "n_levels", 2, ParamError)
    small = yule_upsilon(_poisson_copula(omega, n_levels))
    return abs(yule_upsilon(_poisson_copula(omega, 2 * n_levels)) - small)
