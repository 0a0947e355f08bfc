"""Iterative proportional fitting and margin-feasibility classification.

Fitting a table to target margins by alternately rescaling rows and
columns preserves all odds ratios on the surviving support, so the fixed
point is the unique member of the input's dependence class carrying the
requested margins (when one exists).  Whether one exists is decided here
without enumerating null rectangles: a maximum-flow feasibility check on
the bipartite transportation network, plus per-cell lower-bound probes to
find cells that every feasible table must set to zero.  Each flow comes
from :func:`tabcop._flow.max_transport_flow` as its value and the rows on
the source side of its min cut, which give the witness rectangles; the
first, where it saturates, also gives the flow on every cell, which
settles the cells carrying mass without a probe.

A forest support (no cycle, hence no odds ratio) is fitted exactly by
leaf peeling instead of sweeping.  Other supports are swept; a fit whose
sweeps converge slowly, as next to a tight null rectangle, is finished
by damped Newton steps on the log scalings, which rescale the same
rows and columns.  The sweeps run in a small C kernel (``_ipf.c``),
compiled on the first import into ``__pycache__`` next to this module and
loaded from there afterwards.  It is built with ``-O3
-ffp-contract=off``: the compiler vectorises and interleaves its loops
but neither reassociates nor fuses a sum, so its tables, sweep counts and
errors equal those of plain in-order loops over doubles bit for bit.
Where no C compiler, writable cache or loadable library is at hand, the
NumPy kernel (``_ipf_py``) runs instead.  :data:`IPF_BACKEND` reads
``"c"`` or ``"python"``.

Every fit, the family constructors' too, runs through :func:`_fit` in
one float64 buffer of the table, its targets, the error ring and the line
sums, with the kernel bound to it once and one kernel call per chunk of
sweeps.  The first call also measures whether the table already fits,
and :func:`~tabcop.pmf_core._wrap_fitted` checks the kernel's line sums
before it wraps a copy of the fitted table, which owns its memory.  On a
small table this bookkeeping, not the sweeps, is most of a fit, so it is
kept to one split of the buffer, one bind that slices the ring and
converts the kernel's fixed arguments once, the rate read from Python
floats, and diagnostics filled in one update.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sysconfig
import zlib
from dataclasses import dataclass

import numpy as np

from tabcop import _ipf_py, dependence, pmf_core
from tabcop._flow import max_transport_flow
from tabcop.errors import (
    DimensionMismatchError,
    InfeasibleError,
    NonConvergenceError,
    NotACopulaError,
    ValidationError,
    check_nonnegative,
    check_positive,
    check_size,
)
from tabcop.pmf_core import JointPmf, MarginPair, SupportPattern

#: Seconds the C compiler may take on a cold cache (it takes about 0.2 s).
_BUILD_TIMEOUT_S = 60

#: Compiler flags of the C kernel.  -O3 vectorises its column sums across
#: columns; -ffp-contract=off forbids fused multiply-adds, so every sum
#: keeps the roundings of an in-order loop over doubles.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _lib_path(cache_dir, source, flags):
    """Where the library built from ``source`` bytes with ``flags`` is cached.

    The name holds the platform and a CRC-32 over the source and the
    flags, so a library built from other source or with other flags is
    never loaded in its place.
    """
    key = zlib.crc32(" ".join(flags).encode(), zlib.crc32(source))
    return os.path.join(cache_dir, f"_ipf.{sysconfig.get_platform()}.{key:08x}.so")


def _build(source, lib_path):
    """Compile ``source`` with :data:`_CFLAGS` into the shared library ``lib_path``.

    The library is written under a per-process name and renamed into
    place, so a concurrent import never loads a half-written file.
    Raises OSError when the build fails.
    """
    import subprocess  # only a cold cache builds, so keep it off the import path

    os.makedirs(os.path.dirname(lib_path), exist_ok=True)
    tmp = f"{lib_path}.{os.getpid()}.tmp"
    try:
        subprocess.run(["cc", *_CFLAGS, "-o", tmp, source],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=_BUILD_TIMEOUT_S)
        os.replace(tmp, lib_path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cc could not build {source}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _remove_stale(lib_path):
    """Delete this platform's other kernel libraries from the directory of ``lib_path``.

    Each source or flag set builds a library under its own name, and none
    is loaded again once another replaces it.  A file that cannot be
    removed, as one another process removed first, is left.
    """
    cache_dir, name = os.path.split(lib_path)
    prefix = f"_ipf.{sysconfig.get_platform()}."
    for other in os.listdir(cache_dir):
        if other != name and other.startswith(prefix) and other.endswith(".so"):
            with contextlib.suppress(OSError):
                os.remove(os.path.join(cache_dir, other))


def _load_kernel(cache_dir):
    """The sweep kernel's bind function and its backend, ``"c"`` or ``"python"``.

    The C kernel is built once into ``cache_dir``, under the name
    :func:`_lib_path` gives it, and loaded from there afterwards; a build
    removes the libraries that earlier sources or flags left there.  When
    it cannot be built or loaded the NumPy kernel's
    :func:`tabcop._ipf_py.bind`, which has the same contract, is returned.
    """
    source = os.path.join(os.path.dirname(__file__), "_ipf.c")
    try:
        with open(source, "rb") as fh:
            lib_path = _lib_path(cache_dir, fh.read(), _CFLAGS)
        if not os.path.exists(lib_path):
            _build(source, lib_path)
            _remove_stale(lib_path)
        c_sweeps = ctypes.CDLL(lib_path).ipf_sweeps
    except OSError:
        return _ipf_py.bind, "python"
    c_long = ctypes.c_long
    c_sweeps.argtypes = (ctypes.c_void_p, c_long, c_long, c_long, ctypes.c_double, c_long)
    c_sweeps.restype = c_long

    def bind(buf, n_rows, n_cols):
        """:func:`tabcop._ipf_py.bind`, run by the C kernel.

        The buffer is checked and its address taken here, once, and the
        ring is sliced from it where :func:`tabcop._ipf_py.split` puts it;
        each call of the returned function is one call into the library.
        """
        ring_start = n_rows * n_cols + n_rows + n_cols
        n_ring = buf.shape[0] - ring_start - n_rows - n_cols if buf.ndim == 1 else 0
        try:  # from_buffer raises TypeError unless the buffer is writable and C-contiguous
            if n_ring < 1 or buf.dtype != np.float64:
                raise TypeError
            address = ctypes.addressof(ctypes.c_char.from_buffer(buf))
        except TypeError:
            raise ValueError("the C kernel takes a writable C-contiguous float64 vector "
                             "of a table, its targets, a nonempty ring and its sums") from None
        err_ring = buf[ring_start:ring_start + n_ring]
        # converted once here, not on every call
        args = (ctypes.c_void_p(address), c_long(n_rows), c_long(n_cols), c_long(n_ring))

        def sweeps(tol, max_iter):
            done = c_sweeps(*args, tol, max_iter)
            return done, float(err_ring[(done - 1) % n_ring])

        return sweeps

    return bind, "c"


_bind, IPF_BACKEND = _load_kernel(os.path.join(os.path.dirname(__file__), "__pycache__"))

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


#: The class of every full support of at least 2 x 2 cells.
_FULL = FeasibilityClass("A")


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

    @classmethod
    def _of(cls, iterations, margin_error, classification, rate_estimate=None,
            method="sweeps", newton_steps=0):
        """An instance with these fields, which the fit has formed with their types.

        The generated ``__init__`` of a frozen dataclass sets each field
        through ``object.__setattr__``, which costs as much as a small
        fit's bookkeeping; this fills the instance dict in one update.
        """
        diag = object.__new__(cls)
        diag.__dict__.update(iterations=iterations, margin_error=margin_error,
                             classification=classification, rate_estimate=rate_estimate,
                             method=method, newton_steps=newton_steps)
        return diag

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


def _cut_rectangle(rows, mask):
    """Null rectangle witnessed by the min cut of a saturated-flow run.

    The rows on the source side of the cut, the list ``rows``, reach only
    their adjacent columns, so rows x (non-adjacent columns) carries no
    support and its combined target mass is what made the cut short.
    """
    if not rows:
        return None
    cols = np.flatnonzero(~mask[rows].any(axis=0))
    if not cols.size:
        return None
    return tuple(rows), tuple(cols.tolist())


def _support_components(mask):
    """Connected components of the bipartite support graph: ``(n_comp, row_comp, col_comp)``.

    The components are numbered in the order of their first rows.  Every
    line is labelled with the least row of its component by propagating
    least labels from the rows through the columns and back until none
    falls: two passes on a full support, and on any support no more than
    its components' diameter.  Every line of ``mask`` has a True.
    """
    row_label = np.arange(mask.shape[0])
    while True:
        col_label = np.where(mask, row_label[:, np.newaxis], mask.shape[0]).min(axis=0)
        lower = np.where(mask, col_label, mask.shape[0]).min(axis=1)
        if (lower == row_label).all():
            break
        row_label = lower
    firsts, row_comp = np.unique(row_label, return_inverse=True)
    return firsts.size, row_comp.tolist(), np.searchsorted(firsts, col_label).tolist()


def classify_existence(s: SupportPattern, t: MarginPair) -> FeasibilityClass:
    """Classify whether tables with support ``s`` can reach margins ``t``.

    Total over all inputs: every (support, margins) pair lands in exactly
    one of the four cases documented on :class:`FeasibilityClass`.
    """
    mask = s.mask
    _check_pair_shapes(mask.shape, t)
    n_rows, n_cols = mask.shape
    rt, ct = t.row_margins, t.col_margins

    if np.count_nonzero(mask) == mask.size:
        return _FULL

    flow = max_transport_flow(mask, rt, ct, cell_flows_from=1.0 - FEASIBILITY_TOL)
    if flow.value < 1.0 - FEASIBILITY_TOL:
        rect = _cut_rectangle(flow.cut_rows, mask)
        return FeasibilityClass("C", tight_rectangles=(rect,) if rect else ())

    # Cell (x, y) is forced to zero iff no feasible table puts mass >= delta
    # on it, i.e. routing delta through (x, y) up front leaves an infeasible
    # residual problem.  Cells already carrying flow in the max-flow solution
    # are settled without a probe, and each failed probe's min cut yields a
    # tight rectangle that settles its whole complement block at once.
    forced = np.zeros_like(mask)
    decided = ~mask | (flow.cell_flows > FORCED_ZERO_DELTA)
    tight = []
    for x, y in zip(*np.nonzero(~decided)):
        if decided[x, y]:
            continue
        delta = min(FORCED_ZERO_DELTA, 0.5 * rt[x], 0.5 * ct[y])
        rt2 = rt.copy()
        ct2 = ct.copy()
        rt2[x] -= delta
        ct2[y] -= delta
        probe = max_transport_flow(mask, rt2, ct2)
        if probe.value >= (1.0 - delta) - FEASIBILITY_TOL:
            decided[x, y] = True
            continue
        rect = _cut_rectangle(probe.cut_rows, mask)
        if rect is None:
            forced[x, y] = decided[x, y] = True
            continue
        if rect not in tight:
            tight.append(rect)
        block = np.ones_like(mask)  # the cells outside the rectangle's rows and columns
        block[probe.cut_rows] = False
        block[:, list(rect[1])] = False
        forced |= block & mask
        decided |= block

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
    last = float(err_ring[(iterations - 1) % n_hist])
    base = float(err_ring[(iterations - 11) % n_hist])
    if not (last > 0.0 and base > 0.0):
        return None
    return min((last / base) ** 0.1, 1.0)


def _margin_residual(values, rt, ct):
    return np.concatenate((values.sum(axis=1) - rt, values.sum(axis=0) - ct))


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


def _sweep(run, err_ring, tol, max_iter):
    """Run the bound kernel ``run`` in doubling chunks of 16, 32, 64, ... sweeps.

    Each chunk is one kernel call; the first returns at once where the
    table already fits.  Every chunk starts at a multiple of the length of
    the 16-slot ``err_ring``, so the table and the ring are those of one
    uninterrupted run, and memory does not grow with the sweeps.  The run
    stops early, as slow, when a full chunk ends above ``tol`` with a rate
    estimate above :data:`NEWTON_SWITCH_RATE` or with a max error no lower
    than the previous chunk's (the sweeps have stalled).  A NaN error, as
    from a line whose sum underflows, ends the run at once.

    Returns ``(sweeps, error, rate, slow)``, the rate as in
    :class:`ScalingDiagnostics`.
    """
    done, err, previous, chunk, slow = 0, np.inf, np.inf, _RING_LEN, False
    while done < max_iter:
        n = min(chunk, max_iter - done)
        sweeps, err = run(tol, n)
        done += sweeps
        if sweeps < n or not err > tol:  # done, or the error is NaN
            break
        if err >= previous or (n == chunk
                               and _rate_from_ring(err_ring, n) > NEWTON_SWITCH_RATE):
            slow = True
            break
        previous, chunk = err, 2 * chunk
    return done, err, _rate_from_ring(err_ring, done), slow


def _newton_direction(x, f_long, f_short, free):
    """Newton step on the log scalings of the rows and columns of ``x``.

    The rows are the longer side: their unknowns are eliminated, leaving
    the Schur complement of the margin Jacobian on the columns, which is
    solved with the columns outside ``free`` pinned at 0.  The products go
    through ``einsum``, which never calls the threaded BLAS.  The solve
    has fewer than 100 unknowns for tables up to 100 on a side, where
    OpenBLAS solves on one thread; larger systems take its threaded path,
    as the 179 unknowns of the Poisson grid at N = 180 do, and there a
    call stalled for 90-130 ms on a 2-core host with another process
    running, against 0.35 ms on one thread.

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

    Returns ``(steps, error)``, error the max margin deviation of ``work``
    (NaN, which stops the steps, where the residual is NaN).
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
    row_sums, col_sums = peeled.sum(axis=1), peeled.sum(axis=0)
    err = float(np.abs(np.concatenate((row_sums - rt, col_sums - ct))).max())
    diag = ScalingDiagnostics._of(0, err, classification, method="exact")
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
    return pmf_core._wrap_fitted(peeled, row_sums, col_sums), diag


def _fit(values, t=None, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Fit ``values`` to the margins ``t``, uniform where ``t`` is None, as :func:`ipf_fit`.

    The callers have checked the arguments: ``values`` has finite
    nonnegative entries and a positive entry in every line (its sum is
    not used), ``t`` its shape.  A full support of at least 2 x 2 cells is
    class A and has a cycle, so it is neither classified nor peeled.  Any
    other support is classified, its forced cells zeroed and the table
    measured; where it fits after a zeroing, its columns are rescaled to
    their targets, as a sweep ends, to restore the mass zeroed.
    """
    n_rows, n_cols = values.shape
    buf = _ipf_py.fit_buffer(n_rows, n_cols, _RING_LEN)
    table, rt, ct, err_ring, row_sums, col_sums = _ipf_py.split(buf, n_rows, n_cols)
    table[...] = values
    if t is None:
        rt.fill(1.0 / n_rows)
        ct.fill(1.0 / n_cols)
    else:
        rt[:], ct[:] = t.row_margins, t.col_margins
    run = _bind(buf, n_rows, n_cols)
    if np.count_nonzero(table) == table.size:
        classification = _FULL
    else:
        if t is None:
            t = pmf_core._wrap(MarginPair, row_margins=rt, col_margins=ct)
        classification = classify_existence(pmf_core._wrap(SupportPattern, mask=table > 0), t)
        if classification.tag == "C":
            raise InfeasibleError(
                "no table with this support pattern achieves the requested "
                f"margins (witness rectangles: {classification.tight_rectangles})",
                classification=classification,
            )
        for x, y in classification.forced_zero_cells:
            table[x, y] = 0.0
        if run(tol, 0)[1] <= tol:
            if classification.forced_zero_cells:
                table *= ct / col_sums
        else:
            solved = _solve_exact(table, rt, ct, tol, classification)
            if solved is not None:
                return solved

    iterations, err, rate, slow = _sweep(run, err_ring, tol, max_iter)
    newton_steps = 0
    if slow:
        newton_steps, err = _newton_finish(table, rt, ct, tol)
    diag = ScalingDiagnostics._of(iterations, err, classification, rate, newton_steps=newton_steps)
    if not err <= tol:  # a NaN error fails too
        raise NonConvergenceError(
            f"{'fit stalled: ' if slow else ''}margin error {err:g} above "
            f"tolerance {tol:g} after {iterations} sweeps"
            f"{f' and {newton_steps} Newton steps' if slow else ''} "
            f"(class {classification.tag})",
            diagnostics=diag,
        )
    if slow:
        run(tol, 0)  # the steps rescaled the table: measure its line sums again
    return pmf_core._wrap_fitted(table.copy(), row_sums, col_sums), diag


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

    ``tol`` must be a finite real above 0 and ``max_iter`` an integer of
    at least 1; ValidationError says otherwise before anything is fitted.
    Raises InfeasibleError for class C and NonConvergenceError, with
    diagnostics attached, when the exact solve misses the margins or
    leaves a support cell without mass, when the Newton steps stop short
    of ``tol`` (the fit stalled, as at a target no rescaling reaches), or
    when the sweep budget runs out first.
    """
    tol = check_positive(tol, "tol", ValidationError)
    max_iter = check_size(max_iter, "max_iter", 1, ValidationError)
    _check_pair_shapes(p.shape, t)
    return _fit(p.values, t, tol, max_iter)


def copula_pmf(p: JointPmf, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER):
    """The member of ``p``'s dependence class with uniform margins.

    Fits to row sums 1/R and column sums 1/S; exists and is unique exactly
    when :func:`classify_existence` does not report class C (uniqueness in
    the closure of the class for B2).  Returns ``(copula, diagnostics)``
    and raises as :func:`ipf_fit`.
    """
    tol = check_positive(tol, "tol", ValidationError)
    max_iter = check_size(max_iter, "max_iter", 1, ValidationError)
    return _fit(p.values, None, tol, max_iter)


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
    tol = check_nonnegative(tol, "tol", ValidationError, allow_inf=False)
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
    if not pmf_core.is_copula_pmf(copula):
        raise NotACopulaError(
            f"coupling requires a table with uniform margins within {pmf_core.COPULA_TOL:g}"
        )
    return ipf_fit(copula, t, tol=tol, max_iter=max_iter)
