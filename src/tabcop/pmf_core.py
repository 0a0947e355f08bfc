"""Core data model for bivariate discrete distributions.

A joint pmf is an R x S table of cell probabilities: rows index the first
variable X in {0..R-1}, columns the second variable Y in {0..S-1}, and
entry (x, y) is P(X = x, Y = y).  All CSV input and output follows the
same rows-equal-X convention.

Public constructors validate and copy what they are given.  Valid input
is accepted by the fewest whole-array reductions that imply every
invariant (:func:`_holds_pmf`); only input that fails them goes through
the ordered checks, which name the first invariant it breaks, so every
error is the one the ordered checks alone would raise.  Values tabcop
builds from inputs it has already validated are not validated again:
they go through the private :func:`_wrap`, which only makes them
read-only.  A fitted table goes through :func:`_wrap_fitted`, which
first checks what a fit does not guarantee.

On short vectors (margins, the line sums of a small table) the checks
read Python floats from ``tolist()``: a loop over a few floats costs
less than the microsecond of fixed cost of each NumPy call, and its
elementwise operations round as NumPy's do.  Every NumPy sum whose bits
reach an output or an accept/reject decision is kept.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from tabcop.errors import (
    EmptyTableError,
    ParseError,
    ValidationError,
    ZeroMarginError,
    check_positive,
)

#: Absolute tolerance on "probabilities sum to one" checks.
SUM_TOL = 1e-12
#: Absolute tolerance on the uniform line sums 1/R and 1/S of a copula pmf.
COPULA_TOL = 1e-9


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _wrap(cls, **arrays):
    """An instance of the dataclass ``cls`` around arrays tabcop built.

    For values derived from validated inputs, which hold their invariants
    by construction and which nothing else references: the public
    constructor's O(RS) checks and copy are skipped, and the arrays are
    only made read-only.  The caller passes every field, each an array of
    the field's dtype.
    """
    obj = object.__new__(cls)
    for name, a in arrays.items():
        a.setflags(write=False)
        object.__setattr__(obj, name, a)
    return obj


def _holds_pmf(v: np.ndarray) -> bool:
    """Whether the float matrix ``v`` passes every entry check of :class:`JointPmf`.

    ``min >= 0`` rules out NaN and negative entries and a sum within
    ``SUM_TOL`` of 1 rules out infinite ones; on finite nonnegative
    entries a line has positive mass iff it has a nonzero entry.  So
    four reductions decide what the ordered checks of
    :class:`JointPmf` decide, and where this is False those checks raise.
    """
    with np.errstate(over="ignore"):  # the ordered checks warn where they sum
        return bool(v.min() >= 0.0 and abs(v.sum() - 1.0) <= SUM_TOL
                    and v.any(axis=1).all() and v.any(axis=0).all())


def _wrap_fitted(values: np.ndarray, row_sums: np.ndarray, col_sums: np.ndarray) -> "JointPmf":
    """A :class:`JointPmf` around a table that a fit built from a valid pmf.

    A fit keeps the table's shape and its entries nonnegative, but not
    unit mass or a positive entry on every line.  ``row_sums`` and
    ``col_sums`` are the line sums of ``values`` in any summation order, as
    the fit formed them: a finite total shows every entry finite, and then
    a positive line sum a nonzero entry.  Where the checks hold the table
    is wrapped as by :func:`_wrap`; where one fails, the public constructor
    raises as it does for any input.
    """
    cols = col_sums.tolist()
    if abs(sum(cols) - 1.0) <= SUM_TOL and min(cols) > 0.0 and min(row_sums.tolist()) > 0.0:
        return _wrap(JointPmf, values=values)
    return JointPmf(values)


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
        # valid tables pass on four reductions; the rest are checked in
        # order, so that the first broken rule is the one named
        if not _holds_pmf(v):
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
            # entries in (0, 1] cannot overflow the sum, and a NaN, which
            # Python's min and max may step over, makes it NaN; so valid
            # margins pass on one reduction and two passes over a short
            # list, and the rest are checked in order, so that the first
            # broken rule is the one named
            entries = v.tolist()
            if not (min(entries) > 0.0 and max(entries) <= 1.0
                    and abs(v.sum() - 1.0) <= SUM_TOL):
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
    # valid counts: min >= 0 rules out NaN and negative counts (taken on
    # the counts, as a count of -5e-324 divides to -0.0), a finite positive
    # total rules out inf and an empty table, and the lines of c / total,
    # whose sum JointPmf would check, cover those of c; where no entry of
    # c / total is 0, as in a dense table, every line is covered at once
    if c.min() >= 0.0:
        with np.errstate(over="ignore"):  # the ordered checks warn where they sum
            total = c.sum()
        if 0.0 < total < math.inf:
            p = c / total
            if abs(p.sum() - 1.0) <= SUM_TOL and (
                    np.count_nonzero(p) == p.size
                    or p.any(axis=1).all() and p.any(axis=0).all()):
                return _wrap(JointPmf, values=p)
    # otherwise the ordered checks name what is wrong
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
    # a valid pmf has a positive entry in every row and column
    return _wrap(SupportPattern, mask=p.values > 0)


def is_copula_pmf(p: JointPmf, tol: float = COPULA_TOL) -> bool:
    """True when every row sums to 1/R and every column to 1/S within tol.

    ``tol`` must be a finite real above 0; ValidationError says otherwise.
    """
    tol = check_positive(tol, "tol", ValidationError)
    v = p.values
    return _has_uniform_lines(v.sum(axis=1).tolist(), v.sum(axis=0).tolist(), tol)


def _has_uniform_lines(row_sums: list, col_sums: list, tol: float) -> bool:
    """:func:`is_copula_pmf` on a table's row and column sums, ``tol`` taken as valid.

    The sums come as lists of floats: on lines this short a loop over
    Python floats costs less than the NumPy calls it replaces, and each
    deviation ``abs(s - 1/n)`` is the double NumPy would form.  A NaN sum
    fails, as it fails NumPy's max.
    """
    for sums in (row_sums, col_sums):
        uniform = 1.0 / len(sums)
        for s in sums:
            if not abs(s - uniform) <= tol:
                return False
    return True


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
