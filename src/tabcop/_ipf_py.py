"""Pure-NumPy proportional-fitting kernel.

The reference for the compiled kernel (``_ipf.c``) and the kernel that
runs when that one cannot be built or loaded.  Both implement the bind
contract of :func:`bind` and are exercised by the same tests; NumPy sums
rows of fewer than 8 cells in index order, as the compiled kernel sums
every line, so on such tables the two leave the same bits.
"""

import numpy as np


def fit_buffer(n_rows, n_cols, n_ring):
    """A new, unset buffer for :func:`bind`, laid out as :func:`split` reads it."""
    return np.empty(n_rows * n_cols + 2 * (n_rows + n_cols) + n_ring)


def split(buf, n_rows, n_cols):
    """Views of the parts of ``buf``, in their order in it.

    They are ``(table, row_targets, col_targets, err_ring, row_sums,
    col_sums)``, the table ``n_rows x n_cols`` and row-major; the ring
    takes what the others leave.
    """
    size, n_lines = n_rows * n_cols, n_rows + n_cols
    ring_end = buf.shape[0] - n_lines
    return (buf[:size].reshape(n_rows, n_cols), buf[size:size + n_rows],
            buf[size + n_rows:size + n_lines], buf[size + n_lines:ring_end],
            buf[ring_end:ring_end + n_rows], buf[ring_end + n_rows:])


def bind(buf, n_rows, n_cols):
    """Bind rows-then-columns fitting sweeps to the table in the buffer ``buf``.

    ``buf`` is laid out as :func:`split` reads it.  A fit binds once and
    runs its sweeps in chunks: the returned ``sweeps(tol, max_iter)`` fits
    the table in place and returns ``(sweeps_done, max_error)``.  Each call
    first measures the table.  Where every row and column sum is within
    ``tol`` of its target, or ``max_iter < 1``, no sweep runs, and the max
    deviation of the line sums is returned and put in the last ring slot.
    Otherwise one sweep normalizes every row sum to its target and then
    every column sum to its target; after sweep ``k`` (1-based) the max
    deviation of the row sums is put at ring index ``(k - 1) % len(err_ring)``,
    and the call stops after ``max_iter`` sweeps or as soon as that error
    is within ``tol`` (a NaN error never is), returning the last one.  On
    return ``row_sums`` and ``col_sums`` hold the line sums of the table.
    Sweeping keeps no state outside the table, so calls of n and m sweeps,
    the first ending above ``tol``, leave the table of one call of n + m.

    The compiled kernel checks the buffer when it binds and raises
    ValueError unless it is a writable C-contiguous float64 vector with
    room for the table, the targets, the sums and at least one ring slot.
    """
    parts = split(buf, n_rows, n_cols)
    return lambda tol, max_iter: _sweeps(*parts, tol, max_iter)


def _measure(table, row_targets, col_targets, row_sums, col_sums):
    row_sums[:] = table.sum(axis=1)
    col_sums[:] = table.sum(axis=0)
    return np.maximum(np.abs(row_sums - row_targets).max(),
                      np.abs(col_sums - col_targets).max())


def _sweeps(table, row_targets, col_targets, err_ring, row_sums, col_sums, tol, max_iter):
    # silent, as the compiled kernel: an underflowing line sum shows as a NaN error
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        err = _measure(table, row_targets, col_targets, row_sums, col_sums)
        if err <= tol or max_iter < 1:
            err_ring[-1] = err
            return 0, float(err)
        for k in range(max_iter):
            table *= (row_targets / row_sums)[:, np.newaxis]
            table *= (col_targets / table.sum(axis=0))[np.newaxis, :]
            row_sums[:] = table.sum(axis=1)
            err = np.abs(row_sums - row_targets).max()
            err_ring[k % err_ring.shape[0]] = err
            if err <= tol:
                break
        col_sums[:] = table.sum(axis=0)
    return k + 1, float(err)
