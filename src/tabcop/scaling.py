"""Iterative proportional fitting and margin-feasibility classification.

Fitting a table to target margins by alternately rescaling rows and
columns preserves all odds ratios on the surviving support, so the fixed
point is the unique member of the input's dependence class carrying the
requested margins (when one exists).  Whether one exists is decided here
without enumerating null rectangles: a maximum-flow feasibility check on
the bipartite transportation network, plus per-cell lower-bound probes to
find cells that every feasible table must set to zero.

A forest support (no cycle, hence no odds ratio) is fitted exactly by
leaf peeling instead of sweeping.  The sweep kernel is compiled (Cython)
when available, with a NumPy fallback selected at import; set
``TABCOP_PURE_PYTHON=1`` to force the fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from tabcop import dependence, pmf_core
from tabcop._flow import max_transport_flow
from tabcop.errors import (
    DimensionMismatchError,
    InfeasibleError,
    NonConvergenceError,
    NotACopulaError,
    ValidationError,
)
from tabcop.pmf_core import JointPmf, MarginPair, SupportPattern

if os.environ.get("TABCOP_PURE_PYTHON"):
    from tabcop import _ipf_py as _kernel

    IPF_BACKEND = "python"
else:
    try:
        from tabcop import _ipf_cy as _kernel

        IPF_BACKEND = "cython"
    except ImportError:
        from tabcop import _ipf_py as _kernel

        IPF_BACKEND = "python"

#: Default convergence tolerance (max absolute margin deviation).
DEFAULT_TOL = 1e-12

#: Default sweep budgets; forced-zero cases get the larger one.
DEFAULT_MAX_ITER = 10**6
DEFAULT_MAX_ITER_FORCED = 10**7

#: Residual slack below which the transportation flow counts as saturated.
FEASIBILITY_TOL = 1e-12

#: Mass routed through a support cell when probing whether some feasible
#: table keeps it positive.
FORCED_ZERO_DELTA = 1e-9

_RING_LEN = 16


@dataclass(frozen=True)
class FeasibilityClass:
    """Existence/uniqueness classification of a (support, margins) pair.

    ``tag`` is one of:

    * ``"A"``  -- a fit exists, is unique, and keeps the full support;
    * ``"B1"`` -- same, but the support splits into independent blocks
      (each block's mass is pinned by the targets);
    * ``"B2"`` -- a fit exists only in the closure of the class: the cells
      in ``forced_zero_cells`` receive zero mass in every feasible table;
    * ``"C"``  -- no nonnegative table with this support achieves the
      margins.

    ``tight_rectangles`` lists witnessing (row-set, column-set) null
    blocks where the analysis produced them: blocks whose combined target
    mass equals 1 (B2, and the component separators for B1) or exceeds 1
    (C).
    """

    tag: str
    forced_zero_cells: tuple = ()
    tight_rectangles: tuple = ()

    def __post_init__(self):
        if self.tag not in ("A", "B1", "B2", "C"):
            raise ValidationError(f"unknown feasibility tag {self.tag!r}")
        if self.tag == "B2" and not self.forced_zero_cells:
            raise ValidationError("B2 classification requires forced zeros")
        if self.tag != "B2" and self.forced_zero_cells:
            raise ValidationError(f"{self.tag} classification cannot carry forced zeros")


@dataclass(frozen=True)
class ScalingDiagnostics:
    """Fitting run report.

    ``margin_error`` is the max absolute deviation of the achieved margins
    from the targets.  ``rate_estimate`` is the geometric mean of the last
    10 per-sweep error ratios (a proxy for the geometric convergence rate),
    or None when fewer than 11 sweeps ran.  The error histories are kept
    only when the fit was run with ``keep_history=True``.

    ``method`` is ``"exact"`` when the support graph is a forest and the
    table was solved from the margins by leaf peeling; then ``iterations``
    is 0 and the kept histories are empty.  It is ``"sweeps"`` otherwise,
    where ``iterations == 0`` means the input already had the margins.
    """

    iterations: int
    margin_error: float
    classification: FeasibilityClass
    rate_estimate: float | None = None
    error_history: np.ndarray | None = field(default=None, repr=False)
    l1_error_history: np.ndarray | None = field(default=None, repr=False)
    method: str = "sweeps"

    def to_wire(self) -> dict:
        """JSON-ready dict in the documented diagnostics schema."""
        return {
            "iterations": self.iterations,
            "margin_error": self.margin_error,
            "class": self.classification.tag,
            "rate": self.rate_estimate,
            "forced_zeros": [list(c) for c in self.classification.forced_zero_cells],
        }


def _check_pair_shapes(shape, t: MarginPair):
    if t.row_margins.size != shape[0] or t.col_margins.size != shape[1]:
        raise DimensionMismatchError(
            f"margins of lengths ({t.row_margins.size}, {t.col_margins.size}) "
            f"do not match table shape {shape}"
        )


def _cut_rectangle(net, source, mask):
    """Null rectangle witnessed by the min cut of a saturated-flow run.

    Rows on the source side of the cut can only reach their adjacent
    columns, so (source-side rows) x (non-adjacent columns) carries no
    support and its combined target mass is what made the cut short.
    """
    n_rows, n_cols = mask.shape
    side = net.source_side(source)
    rows = tuple(x for x in range(n_rows) if side[1 + x])
    if not rows:
        return None
    adjacent = np.zeros(n_cols, dtype=bool)
    for x in rows:
        adjacent |= mask[x]
    cols = tuple(y for y in range(n_cols) if not adjacent[y])
    if not cols:
        return None
    return rows, cols


def _support_components(mask):
    """Connected components of the bipartite support graph."""
    n_rows, n_cols = mask.shape
    row_comp = [-1] * n_rows
    col_comp = [-1] * n_cols
    n_comp = 0
    for start in range(n_rows):
        if row_comp[start] >= 0:
            continue
        row_comp[start] = n_comp
        stack = [("r", start)]
        while stack:
            kind, idx = stack.pop()
            if kind == "r":
                for y in range(n_cols):
                    if mask[idx, y] and col_comp[y] < 0:
                        col_comp[y] = n_comp
                        stack.append(("c", y))
            else:
                for x in range(n_rows):
                    if mask[x, idx] and row_comp[x] < 0:
                        row_comp[x] = n_comp
                        stack.append(("r", x))
        n_comp += 1
    return n_comp, row_comp, col_comp


def classify_existence(s: SupportPattern, t: MarginPair) -> FeasibilityClass:
    """Classify whether tables with support ``s`` can reach margins ``t``.

    Total over all inputs: every (support, margins) pair lands in exactly
    one of the four cases documented on :class:`FeasibilityClass`.
    """
    mask = s.mask
    _check_pair_shapes(mask.shape, t)
    n_rows, n_cols = mask.shape
    rt, ct = t.row_margins, t.col_margins

    if mask.all():
        return FeasibilityClass("A")

    flow, net, source, _sink = max_transport_flow(mask, rt, ct)
    if flow < 1.0 - FEASIBILITY_TOL:
        rect = _cut_rectangle(net, source, mask)
        return FeasibilityClass("C", tight_rectangles=(rect,) if rect else ())

    # Cell (x, y) is forced to zero iff no feasible table puts mass >= delta
    # on it, i.e. routing delta through (x, y) up front leaves an infeasible
    # residual problem.  Cells already carrying flow in the max-flow solution
    # are settled without a probe, and each failed probe's min cut yields a
    # tight rectangle that settles its whole complement block at once.
    forced = np.zeros_like(mask)
    decided = ~mask
    for x in range(n_rows):
        for edge in net.adj[1 + x]:
            target, _cap, rev = edge
            if n_rows + 1 <= target <= n_rows + n_cols:
                y = target - n_rows - 1
                if net.adj[target][rev][1] > FORCED_ZERO_DELTA:
                    decided[x, y] = True  # carries mass in one feasible table

    tight = []
    for x in range(n_rows):
        for y in range(n_cols):
            if decided[x, y]:
                continue
            delta = min(FORCED_ZERO_DELTA, 0.5 * rt[x], 0.5 * ct[y])
            rt2 = rt.copy()
            ct2 = ct.copy()
            rt2[x] -= delta
            ct2[y] -= delta
            probe_flow, probe_net, probe_source, _ = max_transport_flow(mask, rt2, ct2)
            if probe_flow >= (1.0 - delta) - FEASIBILITY_TOL:
                decided[x, y] = True
                continue
            rect = _cut_rectangle(probe_net, probe_source, mask)
            if rect is not None:
                rect_rows, rect_cols = rect
                if rect not in tight:
                    tight.append(rect)
                out_rows = [i for i in range(n_rows) if i not in rect_rows]
                out_cols = [j for j in range(n_cols) if j not in rect_cols]
                block = np.ix_(out_rows, out_cols)
                forced[block] |= mask[block]
                decided[block] = True
            else:
                forced[x, y] = True
                decided[x, y] = True

    if forced.any():
        cells = tuple((int(x), int(y)) for x, y in np.argwhere(forced))
        return FeasibilityClass("B2", forced_zero_cells=cells,
                                tight_rectangles=tuple(tight))

    n_comp, row_comp, col_comp = _support_components(mask)
    if n_comp > 1:
        rects = []
        for c in range(n_comp):
            comp_rows = tuple(x for x in range(n_rows) if row_comp[x] == c)
            other_cols = tuple(y for y in range(n_cols) if col_comp[y] != c)
            if comp_rows and other_cols:
                rects.append((comp_rows, other_cols))
        return FeasibilityClass("B1", tight_rectangles=tuple(rects))
    return FeasibilityClass("A")


def _rate_from_ring(err_ring, iterations):
    if iterations < 11:
        return None
    n_hist = err_ring.shape[0]
    last = err_ring[(iterations - 1) % n_hist]
    base = err_ring[(iterations - 11) % n_hist]
    if not (last > 0.0 and base > 0.0):
        return None
    return float(min((last / base) ** 0.1, 1.0))


def _margin_error(values, rt, ct):
    return max(
        np.abs(values.sum(axis=1) - rt).max(),
        np.abs(values.sum(axis=0) - ct).max(),
    )


def _peel_forest(values, rt, ct):
    """The table on the support of ``values`` with margins (rt, ct), by peeling.

    A support graph without a cycle carries no odds ratio, so the margins
    alone fix the table.  A row or column with one open cell puts its
    remaining target on that cell and takes the same mass from the cell's
    other line; on a forest this closes every cell.  Returns None when
    the support has a cycle.  The caller checks the leftover margin error
    and the sign of the peeled cells.
    """
    n_rows, n_cols = values.shape
    n_open = int(np.count_nonzero(values))
    if n_open > n_rows + n_cols - 1:
        return None
    open_cells = values > 0
    peeled = np.zeros_like(values)
    # index 0 addresses rows, index 1 columns (through transposed views)
    cells, out, left = (open_cells, open_cells.T), (peeled, peeled.T), (rt.copy(), ct.copy())
    leaves = [(axis, int(i)) for axis in (0, 1)
              for i in np.flatnonzero(cells[axis].sum(axis=1) == 1)]
    while leaves:
        axis, i = leaves.pop()
        line = np.flatnonzero(cells[axis][i])
        if line.size == 0:
            continue  # a component's last cell, already taken from its other end
        j, other = int(line[0]), 1 - axis
        mass = left[axis][i]
        out[axis][i, j] = mass
        cells[axis][i, j] = False
        left[other][j] -= mass
        n_open -= 1
        if np.count_nonzero(cells[other][j]) == 1:
            leaves.append((other, j))
    return peeled if n_open == 0 else None


def _sweep(work, rt, ct, tol, max_iter, keep_history):
    """Run the kernel on ``work`` in doubling chunks of 16, 32, 64, ... sweeps.

    Sweeping is stateless apart from ``work`` and every chunk starts at a
    multiple of the ring length, so the tables, the 16-slot error rings
    and the kept histories (which grow with the sweeps actually run) are
    those of one uninterrupted run.  The run stops early when a chunk
    ends with a max error no lower than the previous chunk's: the fit has
    stalled at a floor above ``tol``.

    Returns ``(sweeps, error, err_max, err_l1, stalled)``; the error
    arrays are the full histories when ``keep_history`` is set, else the
    rings.
    """
    err_max, err_l1 = np.empty(_RING_LEN), np.empty(_RING_LEN)
    maxes, l1s = [], []
    done, err, previous, chunk, stalled = 0, np.inf, np.inf, _RING_LEN, False
    while done < max_iter:
        n = min(chunk, max_iter - done)
        if keep_history:
            err_max, err_l1 = np.empty(n), np.empty(n)
        sweeps, err = _kernel.ipf_sweeps(work, rt, ct, tol, n, err_max, err_l1)
        done += sweeps
        if keep_history:
            maxes.append(err_max[:sweeps])
            l1s.append(err_l1[:sweeps])
        if sweeps < n or err <= tol:
            break
        if err >= previous:
            stalled = True
            break
        previous, chunk = err, 2 * chunk
    if keep_history:
        err_max, err_l1 = np.concatenate(maxes), np.concatenate(l1s)
    return done, err, err_max, err_l1, stalled


def _solve_exact(values, rt, ct, tol, classification, keep_history):
    """Fit a forest support by :func:`_peel_forest`; None on a cycle."""
    peeled = _peel_forest(values, rt, ct)
    if peeled is None:
        return None
    err = float(_margin_error(peeled, rt, ct))
    diag = ScalingDiagnostics(
        iterations=0,
        margin_error=err,
        classification=classification,
        error_history=np.empty(0) if keep_history else None,
        l1_error_history=np.empty(0) if keep_history else None,
        method="exact",
    )
    if err > tol:
        raise NonConvergenceError(
            f"margin error {err:g} above tolerance {tol:g} after the exact "
            f"forest solve (class {classification.tag})",
            diagnostics=diag,
        )
    if (peeled[values > 0] <= 0.0).any():
        raise NonConvergenceError(
            "the exact forest solve puts mass <= 0 on a support cell "
            f"(class {classification.tag})",
            diagnostics=diag,
        )
    return peeled, diag


def _run_ipf(values, rt, ct, tol, max_iter, classification, keep_history):
    init_dev = _margin_error(values, rt, ct)
    if init_dev <= tol:
        diag = ScalingDiagnostics(0, float(init_dev), classification)
        return values, diag

    solved = _solve_exact(values, rt, ct, tol, classification, keep_history)
    if solved is not None:
        return solved

    work = np.ascontiguousarray(values)
    rt, ct = np.ascontiguousarray(rt), np.ascontiguousarray(ct)
    iterations, err, err_max, err_l1, stalled = _sweep(
        work, rt, ct, tol, max_iter, keep_history)
    diag = ScalingDiagnostics(
        iterations=int(iterations),
        margin_error=float(err),
        classification=classification,
        rate_estimate=_rate_from_ring(err_max, int(iterations)),
        error_history=err_max if keep_history else None,
        l1_error_history=err_l1 if keep_history else None,
    )
    if err > tol:
        raise NonConvergenceError(
            f"{'fit stalled: ' if stalled else ''}margin error {err:g} above "
            f"tolerance {tol:g} after {iterations} sweeps "
            f"(class {classification.tag})",
            diagnostics=diag,
        )
    return work, diag


def ipf_fit(p: JointPmf, t: MarginPair, tol: float = DEFAULT_TOL,
            max_iter: int | None = None, keep_history: bool = False):
    """Fit ``p`` to target margins ``t`` by row/column rescaling.

    Returns ``(fitted, diagnostics)``.  The fit preserves every odds ratio
    on the surviving support and the support itself in cases A and B1; in
    case B2 the forced cells are zeroed before sweeping, which lands on
    the same limit (zero-mass cells contribute nothing to the fitting
    objective) while keeping convergence geometric instead of the
    O(1/sweeps) crawl of raw fitting through a forced zero.

    When the remaining support graph is a forest, the margins alone fix
    the table and it is solved exactly by leaf peeling: the diagnostics
    then read ``method == "exact"`` and ``iterations == 0`` (with
    ``method == "sweeps"``, ``iterations == 0`` means ``p`` already had
    the margins).

    Raises InfeasibleError for class C and NonConvergenceError, with
    diagnostics attached, when the exact solve misses the margins or
    leaves a support cell without mass, when a chunk of sweeps ends no
    closer to the margins than the chunk before it (the fit stalled), or
    when the budget runs out first.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    classification = classify_existence(pmf_core.support(p), t)
    if classification.tag == "C":
        raise InfeasibleError(
            "no table with this support pattern achieves the requested "
            f"margins (witness rectangles: {classification.tight_rectangles})",
            classification=classification,
        )
    if max_iter is None:
        max_iter = (DEFAULT_MAX_ITER_FORCED if classification.tag == "B2"
                    else DEFAULT_MAX_ITER)
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")

    values = p.values.copy()
    if classification.tag == "B2":
        for x, y in classification.forced_zero_cells:
            values[x, y] = 0.0
    fitted, diag = _run_ipf(values, t.row_margins, t.col_margins,
                            tol, max_iter, classification, keep_history)
    return JointPmf(fitted), diag


def copula_pmf(p: JointPmf, tol: float = DEFAULT_TOL,
               max_iter: int | None = None, keep_history: bool = False):
    """The member of ``p``'s dependence class with uniform margins.

    Fits to row sums 1/R and column sums 1/S; exists and is unique exactly
    when :func:`classify_existence` does not report class C (uniqueness in
    the closure of the class for B2).
    """
    n_rows, n_cols = p.shape
    uniform = MarginPair(np.full(n_rows, 1.0 / n_rows),
                         np.full(n_cols, 1.0 / n_cols))
    return ipf_fit(p, uniform, tol=tol, max_iter=max_iter,
                   keep_history=keep_history)


def apply_marginal_distortion(p: JointPmf, row_factors, col_factors) -> JointPmf:
    """Rescale rows and columns by positive factors and renormalize.

    This is the group action that moves a table around inside its
    dependence class: entry (x, y) becomes proportional to
    ``row_factors[x] * p[x, y] * col_factors[y]``.  Only the ratios of the
    factors matter (a common scale cancels in the renormalization), so the
    conventional normalization ``factors[0] == 1`` is not enforced.
    """
    rf = np.asarray(row_factors, dtype=float)
    cf = np.asarray(col_factors, dtype=float)
    if rf.shape != (p.R,) or cf.shape != (p.S,):
        raise DimensionMismatchError(
            f"factor lengths ({rf.size}, {cf.size}) do not match shape {p.shape}"
        )
    if not (np.isfinite(rf).all() and np.isfinite(cf).all()):
        raise ValidationError("distortion factors must be finite")
    if (rf <= 0).any() or (cf <= 0).any():
        raise ValidationError("distortion factors must be strictly positive")
    scaled = rf[:, np.newaxis] * p.values * cf[np.newaxis, :]
    return JointPmf(scaled / scaled.sum())


def same_nucleus(p1: JointPmf, p2: JointPmf, tol: float = 1e-9) -> bool:
    """Whether two tables share a dependence class.

    True iff the support patterns are identical and the odds-ratio
    matrices agree within ``tol`` (undefined 0/0 entries compare equal to
    anything, matching the identification used throughout).
    """
    if p1.shape != p2.shape:
        raise DimensionMismatchError(
            f"shapes {p1.shape} and {p2.shape} differ"
        )
    if not np.array_equal(p1.values > 0, p2.values > 0):
        return False
    m1 = dependence.odds_ratio_matrix(p1)
    m2 = dependence.odds_ratio_matrix(p2)
    agree, _n_undefined = dependence.omega_matrices_agree(m1, m2, tol)
    return agree


def couple(copula: JointPmf, t: MarginPair, tol: float = DEFAULT_TOL,
           max_iter: int | None = None):
    """Build the table with margins ``t`` and dependence given by ``copula``.

    The copula pmf supplies the dependence class; fitting it to the
    requested margins produces the unique member of that class (closure
    in case B2) carrying them.  Returns ``(table, diagnostics)``.
    """
    if not pmf_core.is_copula_pmf(copula, tol=1e-9):
        raise NotACopulaError(
            "coupling requires a table with uniform margins within 1e-9"
        )
    return ipf_fit(copula, t, tol=tol, max_iter=max_iter)
