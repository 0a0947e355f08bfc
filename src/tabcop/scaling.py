"""Iterative proportional fitting and margin-feasibility classification.

Fitting a table to target margins by alternately rescaling rows and
columns preserves all odds ratios on the surviving support, so the fixed
point is the unique member of the input's dependence class carrying the
requested margins (when one exists).  Whether one exists is decided here
without enumerating null rectangles: a maximum-flow feasibility check on
the bipartite transportation network, plus per-cell lower-bound probes to
find cells that every feasible table must set to zero.

A forest support (no cycle, hence no odds ratio) is fitted exactly by
leaf peeling instead of sweeping.  Other supports are swept; a fit whose
sweeps converge slowly, as next to a tight null rectangle, is finished
by damped Newton steps on the log scalings, which rescale the same
rows and columns.  The sweep kernel is compiled (Cython) when available,
with a NumPy fallback selected at import; set ``TABCOP_PURE_PYTHON=1``
to force the fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

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

#: Default sweep budget.  A fit whose sweeps slow down is handed to
#: Newton steps long before it, so only an unusually slow start spends it.
DEFAULT_MAX_ITER = 10**4

#: Per-sweep error ratio (the ring's rate estimate at the end of a full
#: chunk) above which the sweeps hand the fit to Newton steps.  Measured
#: on the benchmark workloads: ordinary fits stay at or below 0.88 from
#: chunk to chunk, while fits near a tight null rectangle read 0.89-0.91
#: after their first chunk and 0.93-0.98 after their second.
NEWTON_SWITCH_RATE = 0.9

#: Newton step cap; the slow fits of the benchmark finish in 2-21 steps.
NEWTON_MAX_STEPS = 100

#: Largest change of a log cell scaling tried in one Newton step: far
#: from the fit a full step can shrink a cell by e^-40 and leave the next
#: Jacobian nearly singular.  It also keeps every trial table finite.
_NEWTON_MAX_LOG_STEP = 4.0

#: Step halvings tried before a Newton step counts as failed.
_NEWTON_HALVINGS = 30

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
    or None when fewer than 11 sweeps ran.

    ``method`` is ``"exact"`` when the support graph is a forest and the
    table was solved from the margins by leaf peeling; then ``iterations``
    is 0.  It is ``"sweeps"`` otherwise, where ``iterations == 0`` means
    the input already had the margins.  ``newton_steps`` counts the Newton
    steps run after the sweeps slowed down; it is 0 when the sweeps ran
    alone.  ``iterations`` and the rate describe the sweeps only, and
    ``margin_error`` the table the fit ended with.
    """

    iterations: int
    margin_error: float
    classification: FeasibilityClass
    rate_estimate: float | None = None
    method: str = "sweeps"
    newton_steps: int = 0

    def to_wire(self) -> dict:
        """JSON-ready dict in the documented diagnostics schema."""
        return {
            "iterations": self.iterations,
            "margin_error": self.margin_error,
            "class": self.classification.tag,
            "rate": self.rate_estimate,
            "forced_zeros": [list(c) for c in self.classification.forced_zero_cells],
            "method": self.method,
            "newton_steps": self.newton_steps,
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


def _margin_residual(values, rt, ct):
    return np.concatenate((values.sum(axis=1) - rt, values.sum(axis=0) - ct))


def _margin_error(values, rt, ct):
    return np.abs(_margin_residual(values, rt, ct)).max()


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


def _sweep(work, rt, ct, tol, max_iter):
    """Run the kernel on ``work`` in doubling chunks of 16, 32, 64, ... sweeps.

    Sweeping is stateless apart from ``work`` and every chunk starts at a
    multiple of the ring length, so the table and the 16-slot ring of max
    errors are those of one uninterrupted run, and memory does not grow
    with the sweeps.  The run stops early, as slow, when a full chunk ends
    above ``tol`` with a rate estimate above :data:`NEWTON_SWITCH_RATE` or
    with a max error no lower than the previous chunk's (the sweeps have
    stalled).

    Returns ``(sweeps, error, rate, slow)``, the rate as in
    :class:`ScalingDiagnostics`.
    """
    # the kernel also fills an L1 ring, which nothing reads
    err_max, err_l1 = np.empty(_RING_LEN), np.empty(_RING_LEN)
    done, err, previous, chunk, slow = 0, np.inf, np.inf, _RING_LEN, False
    while done < max_iter:
        n = min(chunk, max_iter - done)
        sweeps, err = _kernel.ipf_sweeps(work, rt, ct, tol, n, err_max, err_l1)
        done += sweeps
        if sweeps < n or err <= tol:
            break
        if err >= previous or (n == chunk
                               and _rate_from_ring(err_max, n) > NEWTON_SWITCH_RATE):
            slow = True
            break
        previous, chunk = err, 2 * chunk
    return done, err, _rate_from_ring(err_max, done), slow


def _newton_direction(x, f_long, f_short, free):
    """Newton step on the log scalings of the rows and columns of ``x``.

    The rows are the longer side: their unknowns are eliminated, leaving
    the Schur complement of the margin Jacobian on the columns, which is
    solved with the columns outside ``free`` pinned at 0.  The products go
    through ``einsum``, which never calls the threaded BLAS, and the solve
    has fewer than 100 unknowns for tables up to 100 on a side, where
    OpenBLAS solves on one thread; a threaded call can stall for tens of
    milliseconds on a host with little CPU to spare.

    Returns ``(d_long, d_short)``; raises LinAlgError on a singular system.
    """
    long_sums = x.sum(axis=1)
    scaled = x / long_sums[:, np.newaxis]
    schur = np.diag(x.sum(axis=0)) - np.einsum("ij,ik->jk", scaled, x)
    rhs = np.einsum("ij,i->j", scaled, f_long) - f_short
    d_short = np.zeros(x.shape[1])
    d_short[free] = np.linalg.solve(schur[np.ix_(free, free)], rhs[free])
    d_long = -(f_long + np.einsum("ij,j->i", x, d_short)) / long_sums
    return d_long, d_short


def _newton_finish(work, rt, ct, tol):
    """Finish a slow fit of ``work`` in place by damped Newton steps.

    The unknowns are log scalings a (rows) and b (columns) with
    diag(e^a) work diag(e^b) on the margins, so the support and every
    odds ratio stay those of ``work``.  Each connected component of the
    support has one gauge: one line's scaling on the shorter side is
    pinned and its margin equation, implied by the component's others, is
    dropped, which leaves a positive definite Jacobian (Knight & Ruiz
    2013, IMA J. Numer. Anal. 33(3)).  The table, and each trial table,
    is rescaled to the column targets, as a sweep ends, so it keeps unit
    mass and its error is that of its rows.  Steps are backtracked until
    the 2-norm of the margin residual falls by the Armijo factor.  Stops
    within ``tol``, at the step cap, or when no step length decreases the
    residual or the linear solve fails, as at an unreachable target.

    Returns ``(steps, error)``, error the max margin deviation of ``work``.
    """
    n_rows, n_cols = work.shape
    mask = work > 0
    swap = n_rows < n_cols
    _n_comp, row_comp, col_comp = _support_components(mask)
    short_comp = row_comp if swap else col_comp
    free = np.ones(len(short_comp), dtype=bool)
    free[np.unique(short_comp, return_index=True)[1]] = False
    work *= ct / work.sum(axis=0)
    resid = _margin_residual(work, rt, ct)
    norm = np.linalg.norm(resid)
    steps = 0
    while np.abs(resid).max() > tol and steps < NEWTON_MAX_STEPS:
        try:
            # a nearly singular system can overflow the step; the
            # finiteness check below stops there
            with np.errstate(all="ignore"):
                if swap:
                    d_col, d_row = _newton_direction(work.T, resid[n_rows:],
                                                     resid[:n_rows], free)
                else:
                    d_row, d_col = _newton_direction(work, resid[:n_rows],
                                                     resid[n_rows:], free)
                expo = np.where(mask, d_row[:, np.newaxis] + d_col[np.newaxis, :], 0.0)
        except np.linalg.LinAlgError:
            break
        size = np.abs(expo).max()
        if not np.isfinite(size):
            break
        t = min(1.0, _NEWTON_MAX_LOG_STEP / size) if size > 0.0 else 1.0
        for _halving in range(_NEWTON_HALVINGS):
            trial = work * np.exp(t * expo)
            trial *= ct / trial.sum(axis=0)
            trial_resid = _margin_residual(trial, rt, ct)
            trial_norm = np.linalg.norm(trial_resid)
            if trial_norm <= (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
        else:
            break
        work[...] = trial
        resid, norm = trial_resid, trial_norm
        steps += 1
    return steps, float(np.abs(resid).max())


def _solve_exact(values, rt, ct, tol, classification):
    """Fit a forest support by :func:`_peel_forest`; None on a cycle."""
    peeled = _peel_forest(values, rt, ct)
    if peeled is None:
        return None
    err = float(_margin_error(peeled, rt, ct))
    diag = ScalingDiagnostics(0, err, classification, method="exact")
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


def _run_ipf(values, rt, ct, tol, max_iter, classification):
    init_dev = _margin_error(values, rt, ct)
    if init_dev <= tol:
        diag = ScalingDiagnostics(0, float(init_dev), classification)
        return values, diag

    solved = _solve_exact(values, rt, ct, tol, classification)
    if solved is not None:
        return solved

    work = np.ascontiguousarray(values)
    rt, ct = np.ascontiguousarray(rt), np.ascontiguousarray(ct)
    iterations, err, rate, slow = _sweep(work, rt, ct, tol, max_iter)
    newton_steps = 0
    if slow:
        newton_steps, err = _newton_finish(work, rt, ct, tol)
    diag = ScalingDiagnostics(
        iterations=int(iterations),
        margin_error=float(err),
        classification=classification,
        rate_estimate=rate,
        newton_steps=newton_steps,
    )
    if err > tol:
        raise NonConvergenceError(
            f"{'fit stalled: ' if slow else ''}margin error {err:g} above "
            f"tolerance {tol:g} after {iterations} sweeps"
            f"{f' and {newton_steps} Newton steps' if slow else ''} "
            f"(class {classification.tag})",
            diagnostics=diag,
        )
    return work, diag


def ipf_fit(p: JointPmf, t: MarginPair, tol: float = DEFAULT_TOL,
            max_iter: int = DEFAULT_MAX_ITER):
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

    Otherwise the table is swept in doubling chunks of 16, 32, 64, ...
    sweeps.  When a full chunk ends with a per-sweep error ratio above
    :data:`NEWTON_SWITCH_RATE`, or no closer to the margins than the chunk
    before it, damped Newton steps on the log row and column scalings
    finish the fit; they rescale the same table, so the support and the
    odds ratios are kept, and ``diagnostics.newton_steps`` counts them.
    ``max_iter`` budgets the sweeps; the sweeps keep only a 16-slot error
    ring, so memory does not grow with the budget or the sweeps run.

    Raises InfeasibleError for class C and NonConvergenceError, with
    diagnostics attached, when the exact solve misses the margins or
    leaves a support cell without mass, when the Newton steps stop short
    of ``tol`` (the fit stalled, as at a target no rescaling reaches), or
    when the sweep budget runs out first.
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
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")

    values = p.values.copy()
    if classification.tag == "B2":
        for x, y in classification.forced_zero_cells:
            values[x, y] = 0.0
    fitted, diag = _run_ipf(values, t.row_margins, t.col_margins,
                            tol, max_iter, classification)
    return JointPmf(fitted), diag


def copula_pmf(p: JointPmf, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER):
    """The member of ``p``'s dependence class with uniform margins.

    Fits to row sums 1/R and column sums 1/S; exists and is unique exactly
    when :func:`classify_existence` does not report class C (uniqueness in
    the closure of the class for B2).  Returns ``(copula, diagnostics)``
    and raises as :func:`ipf_fit`.
    """
    n_rows, n_cols = p.shape
    uniform = MarginPair(np.full(n_rows, 1.0 / n_rows),
                         np.full(n_cols, 1.0 / n_cols))
    return ipf_fit(p, uniform, tol=tol, max_iter=max_iter)


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
           max_iter: int = DEFAULT_MAX_ITER):
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
