"""Closed-form dependence analytics for 2x2 tables.

Everything here is exact arithmetic on the four cells: the odds ratio and
its [-1, 1] rescaling (Yule's colligation coefficient), the uniform-margin
representative of a dependence class, reconstruction of the full table
from (odds ratio, margins), the tie-corrected Kendall correlation, and the
entrywise perturbation operator.

The odds ratio lives on [0, inf]; ``math.inf`` is the accepted and
returned representation of the upper endpoint, and all formulas take their
analytic limits there rather than evaluating float arithmetic on inf.
"""

from __future__ import annotations

import math

import numpy as np

from tabcop.errors import (
    DegenerateError,
    DimensionMismatchError,
    DomainError,
    ValidationError,
    check_nonnegative,
    check_positive,
)
from tabcop.pmf_core import JointPmf, _wrap


def _require_2x2(p: JointPmf, name: str = "table"):
    if p.shape != (2, 2):
        raise DimensionMismatchError(f"{name} must be 2x2, got {p.shape}")


def odds_ratio(p: JointPmf) -> float:
    """p00*p11 / (p10*p01), with 0 and inf for tables carrying a zero cell.

    Positive margins rule out 0/0, so the value is always well defined.
    """
    _require_2x2(p)
    v = p.values
    num = v[0, 0] * v[1, 1]
    den = v[1, 0] * v[0, 1]
    if den > 0.0:
        return num / den
    return math.inf


def upsilon_from_omega(omega: float) -> float:
    """Yule's colligation coefficient (sqrt(w) - 1) / (sqrt(w) + 1).

    Strictly increasing from -1 at w = 0 to +1 at w = inf, with 0 at
    independence; odd under w -> 1/w.
    """
    omega = check_nonnegative(omega, "odds ratio", DomainError)
    if math.isinf(omega):
        return 1.0
    s = math.sqrt(omega)
    return (s - 1.0) / (s + 1.0)


def bernoulli_copula(omega: float) -> JointPmf:
    """The unique 2x2 table with uniform margins and the given odds ratio.

    Diagonal entries sqrt(w)/(2(1+sqrt(w))), off-diagonal 1/(2(1+sqrt(w)));
    equivalently (1 +/- upsilon)/4.  The endpoints w = 0 and w = inf give
    the anti-diagonal and diagonal Frechet tables.
    """
    omega = check_nonnegative(omega, "odds ratio", DomainError)
    if math.isinf(omega):
        return JointPmf([[0.5, 0.0], [0.0, 0.5]])
    s = math.sqrt(omega)
    diag = s / (2.0 * (1.0 + s))
    off = 1.0 / (2.0 * (1.0 + s))
    # off > 0 puts mass on every line, and the four cells sum to 1 up to rounding
    return _wrap(JointPmf, values=np.array([[diag, off], [off, diag]]))


def reconstruct(omega: float, pi_x: float, pi_y: float) -> JointPmf:
    """The 2x2 table with margins P(X=1)=pi_x, P(Y=1)=pi_y and odds ratio omega.

    For finite positive omega != 1 the (1,1) cell solves a quadratic; the
    evaluation switches to the conjugate form when the linear term is
    positive so that cancellation never costs accuracy (stable up to
    omega ~ 1e8 and beyond).  The endpoints are the Frechet tables for the
    given margins: p11 = max(0, pi_x + pi_y - 1) at omega = 0 and
    p11 = min(pi_x, pi_y) at omega = inf.
    """
    omega = check_nonnegative(omega, "odds ratio", DomainError)
    for name, v in (("pi_x", pi_x), ("pi_y", pi_y)):
        if not (0.0 < v < 1.0):
            raise DomainError(f"{name} must lie strictly inside (0, 1), got {v!r}")

    if omega == 0.0:
        if pi_x + pi_y > 1.0:
            p11 = pi_x + pi_y - 1.0
            return JointPmf([[0.0, 1.0 - pi_x], [1.0 - pi_y, p11]])
        return JointPmf([[1.0 - pi_x - pi_y, pi_y], [pi_x, 0.0]])
    if math.isinf(omega):
        if pi_x <= pi_y:
            return JointPmf([[1.0 - pi_y, pi_y - pi_x], [0.0, pi_x]])
        return JointPmf([[1.0 - pi_x, 0.0], [pi_x - pi_y, pi_y]])
    if omega == 1.0:
        return JointPmf([
            [(1.0 - pi_x) * (1.0 - pi_y), (1.0 - pi_x) * pi_y],
            [pi_x * (1.0 - pi_y), pi_x * pi_y],
        ])

    # each cell is the (1,1) entry of a relabeled problem (flipping a margin
    # label inverts omega), so all four get their own cancellation-safe
    # quadratic instead of inheriting cancellation from subtractions
    p11 = _corner_cell(omega, pi_x, pi_y)
    p10 = _corner_cell(1.0 / omega, pi_x, 1.0 - pi_y)
    p01 = _corner_cell(1.0 / omega, 1.0 - pi_x, pi_y)
    p00 = _corner_cell(omega, 1.0 - pi_x, 1.0 - pi_y)
    return JointPmf([[p00, p01], [p10, p11]])


def _corner_cell(omega: float, a: float, b: float) -> float:
    """Root of p^2*(w-1) - p*(1+(w-1)(a+b)) + w*a*b = 0 inside [0, min(a,b)].

    Uses the conjugate form when the linear coefficient is positive, which
    is where the direct subtraction would cancel.
    """
    lin = 1.0 + (omega - 1.0) * (a + b)
    disc = lin * lin - 4.0 * omega * (omega - 1.0) * a * b
    root = math.sqrt(max(disc, 0.0))
    if lin >= 0.0:
        return 2.0 * omega * a * b / (lin + root)
    return (lin - root) / (2.0 * (omega - 1.0))


def tau_b_2x2(p: JointPmf) -> float:
    """Kendall's correlation corrected for ties on a 2x2 table.

    (p00 - p0.*p.0) / sqrt(p0.*p.0*p1.*p.1); on a uniform-margin table this
    collapses to the colligation coefficient.
    """
    _require_2x2(p)
    v = p.values
    row0, row1 = v[0].sum(), v[1].sum()
    col0, col1 = v[:, 0].sum(), v[:, 1].sum()
    return (v[0, 0] - row0 * col0) / math.sqrt(row0 * col0 * row1 * col1)


def perturb(p: JointPmf, q: JointPmf) -> JointPmf:
    """Entrywise product of two tables, renormalized (simplex perturbation).

    Commutative; the uniform table is its neutral element.  Marginal
    distortions are perturbations by rank-one tables, which is how the
    helpers below reproduce row/column rescaling.
    """
    if p.shape != q.shape:
        raise DimensionMismatchError(f"shapes {p.shape} and {q.shape} differ")
    prod = p.values * q.values
    total = prod.sum()
    if total <= 0.0:
        raise DegenerateError("entrywise product has zero total mass")
    return JointPmf(prod / total)


def row_perturbation_table(phi: float) -> JointPmf:
    """Independent 2x2 table that rescales only the X margin by ``phi``."""
    phi = check_positive(phi, "phi", ValidationError)
    c = 1.0 / (2.0 * (1.0 + phi))
    return JointPmf(np.array([[c, c], [phi * c, phi * c]]))


def col_perturbation_table(psi: float) -> JointPmf:
    """Independent 2x2 table that rescales only the Y margin by ``psi``."""
    psi = check_positive(psi, "psi", ValidationError)
    c = 1.0 / (2.0 * (1.0 + psi))
    return JointPmf(np.array([[c, psi * c], [c, psi * c]]))
