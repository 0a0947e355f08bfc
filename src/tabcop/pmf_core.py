"""Core data model for bivariate discrete distributions.

A joint pmf is an R x S table of cell probabilities: rows index the first
variable X in {0..R-1}, columns the second variable Y in {0..S-1}, and
entry (x, y) is P(X = x, Y = y).  All CSV input and output follows the
same rows-equal-X convention.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from tabcop.errors import (
    EmptyTableError,
    ParseError,
    ValidationError,
    ZeroMarginError,
)

#: Absolute tolerance on "probabilities sum to one" checks.
SUM_TOL = 1e-12


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class JointPmf:
    """An R x S probability table with strictly positive margins.

    Invariants, enforced at construction: every entry is nonnegative, the
    entries sum to 1 within ``SUM_TOL``, and every row and column carries
    positive mass (non-degenerate margins).  The wrapped array is made
    read-only, so instances are immutable and safe to share.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise ValidationError(
                f"joint pmf must be a matrix with at least 2 rows and 2 "
                f"columns, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValidationError("joint pmf entries must be finite")
        if (v < 0).any():
            raise ValidationError("joint pmf entries must be nonnegative")
        if abs(v.sum() - 1.0) > SUM_TOL:
            raise ValidationError(
                f"joint pmf entries must sum to 1 (got {v.sum()!r})"
            )
        if (v.sum(axis=1) <= 0).any():
            raise ZeroMarginError("joint pmf has an all-zero row")
        if (v.sum(axis=0) <= 0).any():
            raise ZeroMarginError("joint pmf has an all-zero column")
        object.__setattr__(self, "values", _as_readonly(v))

    @property
    def R(self) -> int:
        return self.values.shape[0]

    @property
    def S(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class MarginPair:
    """Target marginal distributions for the rows (X) and columns (Y)."""

    row_margins: np.ndarray
    col_margins: np.ndarray

    def __post_init__(self):
        for name, m in (("row", self.row_margins), ("col", self.col_margins)):
            v = np.asarray(m, dtype=float)
            if v.ndim != 1 or v.size < 2:
                raise ValidationError(f"{name} margins must be a vector of length >= 2")
            if not np.isfinite(v).all() or (v <= 0).any():
                raise ValidationError(f"{name} margins must be strictly positive")
            if abs(v.sum() - 1.0) > SUM_TOL:
                raise ValidationError(
                    f"{name} margins must sum to 1 (got {v.sum()!r})"
                )
            object.__setattr__(self, f"{name}_margins", _as_readonly(v))


@dataclass(frozen=True)
class SupportPattern:
    """Boolean mask of the strictly positive cells of a table.

    The null rectangles (row-set x column-set blocks with zero total mass)
    that drive copula-pmf existence are never enumerated here -- they are
    exponential in number.  Decisions that need them go through the
    flow-based checks in :mod:`tabcop.scaling`.
    """

    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 2:
            raise ValidationError("support mask must be a matrix")
        if not m.any(axis=1).all() or not m.any(axis=0).all():
            raise ZeroMarginError("support mask has an empty row or column")
        mm = m.copy()
        mm.flags.writeable = False
        object.__setattr__(self, "mask", mm)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape


def from_counts(counts) -> JointPmf:
    """Normalize an observed contingency table into a joint pmf.

    Accepts any matrix of nonnegative reals (at least 2x2) and divides by
    the grand total, so ``from_counts(k * c)`` equals ``from_counts(c)``
    for any k > 0.

    Raises
    ------
    EmptyTableError
        if the grand total is zero.
    ZeroMarginError
        if some row or column total is zero.
    """
    c = np.asarray(counts, dtype=float)
    if c.ndim != 2 or c.shape[0] < 2 or c.shape[1] < 2:
        raise ValidationError(
            f"count table must have at least 2 rows and 2 columns, got {c.shape}"
        )
    if not np.isfinite(c).all() or (c < 0).any():
        raise ValidationError("counts must be finite and nonnegative")
    total = c.sum()
    if total <= 0:
        raise EmptyTableError("count table has grand total 0")
    if (c.sum(axis=1) <= 0).any() or (c.sum(axis=0) <= 0).any():
        raise ZeroMarginError("count table has an all-zero row or column")
    return JointPmf(c / total)


def margins(p: JointPmf) -> MarginPair:
    """Row and column marginal distributions of ``p``."""
    return MarginPair(p.values.sum(axis=1), p.values.sum(axis=0))


def support(p: JointPmf) -> SupportPattern:
    """Support pattern of ``p``: the cells with positive mass.

    Tables are taken as exact.  A fitted table needs no threshold either:
    fits put exact zeros on the cells that every feasible table leaves
    empty, so tiny positive mass is mass.
    """
    return SupportPattern(p.values > 0)


def is_copula_pmf(p: JointPmf, tol: float = 1e-9) -> bool:
    """True when every row sums to 1/R and every column to 1/S within tol."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    r, s = p.shape
    return bool(
        np.abs(p.values.sum(axis=1) - 1.0 / r).max() <= tol
        and np.abs(p.values.sum(axis=0) - 1.0 / s).max() <= tol
    )


def parse_table(text, fmt: str = "csv_counts") -> np.ndarray:
    """Parse comma-separated numeric rows into a matrix.

    ``fmt`` is ``"csv_counts"`` (raw nonnegative counts) or ``"csv_probs"``
    (probabilities, validated to sum to 1 within 1e-9 and then rescaled to
    sum exactly).  Rows are X categories, columns Y categories.  ``text``
    may be a string or any object with ``read()``.

    Returns the raw matrix; feed it to :func:`from_counts` or
    :class:`JointPmf` to build a distribution.
    """
    if fmt not in ("csv_counts", "csv_probs"):
        raise ValidationError(f"unknown table format {fmt!r}")
    if hasattr(text, "read"):
        text = text.read()
    rows = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line:
            continue
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"line {lineno}: cannot parse cell {cell.strip()!r}"
                ) from None
        rows.append(cells)
    if not rows:
        raise ParseError("empty table")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("ragged rows: all rows must have the same length")
    m = np.array(rows, dtype=float)
    if (m < 0).any():
        raise ValidationError("table entries must be nonnegative")
    if fmt == "csv_probs":
        total = m.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"probability table sums to {total!r}, expected 1 within 1e-9"
            )
        m = m / total
    return m
