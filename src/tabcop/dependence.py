"""Margin-free dependence summaries for R x S tables.

The odds-ratio matrix anchored at cell (0, 0) carries, together with the
support pattern, the entire dependence structure of a table: it is
invariant under row/column rescaling.  Yule's coefficient generalizes the
2x2 colligation coefficient as the Pearson correlation of the
uniform-margin representative, the discrete counterpart of Spearman's rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tabcop import pmf_core
from tabcop.errors import (
    NotACopulaError,
    UndefinedEntryError,
    ValidationError,
    check_nonnegative,
    check_size,
)
from tabcop.pmf_core import JointPmf


@dataclass(frozen=True)
class OddsRatioMatrix:
    """(R-1) x (S-1) matrix of odds ratios; entries in [0, inf] or NaN.

    NaN marks the 0/0 cells, which arise only when both the numerator and
    denominator products vanish; such entries are treated as equal to
    anything during comparisons.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float, copy=True)
        if e.ndim != 2:
            raise ValidationError("odds-ratio entries must form a matrix")
        with np.errstate(invalid="ignore"):
            if (e < 0).any():
                raise ValidationError("odds ratios must be nonnegative")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def shape(self):
        return self.entries.shape

    @property
    def n_undefined(self) -> int:
        return int(np.isnan(self.entries).sum())


def odds_ratio_matrix(p: JointPmf) -> OddsRatioMatrix:
    """Odds ratios p00*pxy / (p0y*px0) for x in 1..R-1, y in 1..S-1.

    Ratio conventions: 0/positive = 0, positive/0 = inf, 0/0 = NaN
    (undefined).
    """
    v = p.values
    num = v[0, 0] * v[1:, 1:]
    den = np.multiply.outer(v[1:, 0], v[0, 1:])
    if np.count_nonzero(den) == den.size:  # no 0 denominator: nothing to silence
        entries = num / den
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            entries = num / den
    # a quotient of nonnegative products: entries in [0, inf] or NaN
    return pmf_core._wrap(OddsRatioMatrix, entries=entries)


def omega_matrices_agree(m1: OddsRatioMatrix, m2: OddsRatioMatrix,
                         tol: float = 1e-9):
    """Compare two odds-ratio matrices under the 0/0-matches-anything rule.

    Finite entries agree when |a - b| <= tol * max(1, |a|, |b|); infinite
    entries only match infinite entries.  Returns ``(agree, n_undefined)``
    where the count covers entries undefined in either matrix.  ``tol``
    must be a finite real of at least 0; ValidationError says otherwise.
    """
    tol = check_nonnegative(tol, "tol", ValidationError, allow_inf=False)
    a, b = m1.entries, m2.entries
    if a.shape != b.shape:
        return False, 0
    skip = np.isnan(a) | np.isnan(b)
    n_undefined = int(skip.sum())
    a, b = a[~skip], b[~skip]
    inf_a, inf_b = np.isinf(a), np.isinf(b)
    if (inf_a != inf_b).any():
        return False, n_undefined
    fin = ~inf_a
    a, b = a[fin], b[fin]
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool((np.abs(a - b) <= tol * scale).all()), n_undefined


def completed_odds_matrix(omega: OddsRatioMatrix) -> np.ndarray:
    """R x S matrix with an all-ones first row and column around ``omega``.

    Normalized to unit total mass this is a table whose odds-ratio matrix
    is ``omega`` again, which makes it the canonical seed for fitting a
    parametric odds-ratio model to uniform margins.  The caller performs
    the normalization; the raw matrix is returned here.
    """
    if omega.n_undefined:
        raise UndefinedEntryError(
            f"cannot complete a matrix with {omega.n_undefined} undefined entries"
        )
    r1, s1 = omega.shape
    out = np.ones((r1 + 1, s1 + 1))
    out[1:, 1:] = omega.entries
    return out


def yule_upsilon(cop: JointPmf) -> float:
    """Pearson correlation of a copula pmf over its uniform grid points.

    Requires uniform margins within ``pmf_core.COPULA_TOL``.  Evaluated as a centered
    covariance over integer labels (affine changes of the support points
    cancel in a correlation), summed exactly, so the diagonal and
    anti-diagonal tables score exactly +/-1 and the uniform table exactly
    0.  Equals
    3*sqrt((R-1)(S-1)/((R+1)(S+1))) * (4/((R-1)(S-1)) * sum(u*v*p[u,v]) - 1)
    when the margins are exactly uniform.

    For R != S the extreme values +/-1 are unattainable (no diagonal
    table exists); the attainable maximum is not computed here.
    """
    values = cop.values
    # the line sums serve both the copula check and the variances; the
    # labels and the variance terms are formed on Python floats, which
    # round each product as NumPy's elementwise loops do
    row_sums, col_sums = values.sum(axis=1).tolist(), values.sum(axis=0).tolist()
    if not pmf_core._has_uniform_lines(row_sums, col_sums, pmf_core.COPULA_TOL):
        raise NotACopulaError("Yule's coefficient is defined on copula pmfs; margins deviate "
                              f"from uniform by more than {pmf_core.COPULA_TOL:g}")
    n_rows, n_cols = cop.shape
    a = [x - (n_rows - 1) / 2.0 for x in range(n_rows)]
    b = [y - (n_cols - 1) / 2.0 for y in range(n_cols)]
    cov = math.fsum((np.multiply.outer(a, b) * values).ravel().tolist())
    var_u = math.fsum([x * x * s for x, s in zip(a, row_sums)])
    var_v = math.fsum([y * y * s for y, s in zip(b, col_sums)])
    if cov == 0.0:
        return 0.0
    ratio = min((cov * cov) / (var_u * var_v), 1.0)
    return math.copysign(math.sqrt(ratio), cov)


def frechet_bounds(size: int):
    """Diagonal and anti-diagonal uniform-margin tables of a given size.

    Returns ``(upper, lower)``: the comonotone table (mass 1/size on the
    diagonal, Yule coefficient +1) and the countermonotone table (mass on
    the anti-diagonal, Yule coefficient -1).
    """
    size = check_size(size, "size", 2, ValidationError)
    upper = np.eye(size) / size
    return JointPmf(upper), JointPmf(np.fliplr(upper))
