"""Pure-NumPy proportional-fitting kernel.

The reference for the compiled kernel (``_ipf.c``) and the kernel that
runs when that one cannot be built or loaded.  Both implement the bind
contract of :func:`bind` and are exercised by the same tests.
"""

import numpy as np


def aux_buffer(row_targets, col_targets, n_ring):
    """A new second buffer for :func:`bind`: the targets, ``n_ring`` ring slots, scratch.

    Its layout is that of :func:`split_aux`; only the targets are set.
    """
    n_rows, n_cols = len(row_targets), len(col_targets)
    aux = np.empty(2 * (n_rows + n_cols) + n_ring)
    aux[:n_rows] = row_targets
    aux[n_rows:n_rows + n_cols] = col_targets
    return aux


def split_aux(aux, n_rows, n_cols):
    """Views of the parts of ``aux``: ``(row_targets, col_targets, err_ring, row_sums)``.

    ``aux`` is one float64 vector of the row targets, the column targets,
    the error ring and a scratch of ``n_rows + n_cols`` slots, in that
    order, so the ring takes what the other parts leave.  ``row_sums`` is
    the start of the scratch.
    """
    n_lines = n_rows + n_cols
    ring_end = aux.shape[0] - n_lines
    return (aux[:n_rows], aux[n_rows:n_lines], aux[n_lines:ring_end],
            aux[ring_end:ring_end + n_rows])


def bind(table, aux):
    """Bind rows-then-columns fitting sweeps to ``table`` and the buffer ``aux``.

    ``aux`` holds the targets, the error ring and the kernel's scratch as
    :func:`split_aux` lays them out; :func:`aux_buffer` makes one.  A fit
    binds once and runs its sweeps in chunks: the returned
    ``sweeps(tol, max_iter)`` runs up to ``max_iter`` sweeps on ``table``
    in place and returns ``(sweeps_done, last_max_error)``, with
    ``last_max_error`` inf when no sweep ran.  One sweep normalizes every
    row sum to its target and then every column sum to its target.  After
    sweep ``k`` (1-based) of a call, the maximum deviation of the row sums
    from their targets is recorded at index ``(k - 1) % len(err_ring)``;
    column sums are exact up to rounding at that point by construction.
    A call stops early as soon as the max error is within ``tol``; a NaN
    error never is.  On return ``row_sums`` holds the row sums of
    ``table``, in the kernel's own summation order.  Sweeping keeps no
    state outside ``table`` between calls, so calls of n and m sweeps
    leave the table of one call of n + m.

    The compiled kernel checks the buffers when it binds and raises
    ValueError unless both are writable C-contiguous float64 arrays,
    ``aux`` a vector with room for the targets, the scratch and at least
    one ring slot.
    """
    row_targets, col_targets, err_ring, row_sums = split_aux(aux, *table.shape)

    def sweeps(tol, max_iter):
        return _sweeps(table, row_targets, col_targets, err_ring, row_sums, tol, max_iter)

    return sweeps


def _sweeps(table, row_targets, col_targets, err_ring, row_sums, tol, max_iter):
    n_ring = err_ring.shape[0]
    row_sums[:] = table.sum(axis=1)
    err = np.inf
    done = 0
    # silent, as the compiled kernel: an underflowing line sum shows as a NaN error
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(max_iter):
            table *= (row_targets / row_sums)[:, np.newaxis]
            table *= (col_targets / table.sum(axis=0))[np.newaxis, :]
            row_sums[:] = table.sum(axis=1)
            err = np.abs(row_sums - row_targets).max()
            err_ring[k % n_ring] = err
            done = k + 1
            if err <= tol:
                break
    return done, float(err)
