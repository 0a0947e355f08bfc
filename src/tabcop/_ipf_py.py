"""Pure-NumPy proportional-fitting kernel.

The reference for the compiled kernel (``_ipf.c``) and the kernel that
runs when that one cannot be built or loaded.  Both implement the bind
contract of :func:`bind` and are exercised by the same tests.
"""

import numpy as np


def bind(table, row_targets, col_targets, err_ring):
    """Bind rows-then-columns fitting sweeps to ``table`` and its targets.

    A fit binds once and runs its sweeps in chunks: the returned
    ``sweeps(tol, max_iter)`` runs up to ``max_iter`` sweeps on ``table``
    in place and returns ``(sweeps_done, last_max_error)``, with
    ``last_max_error`` inf when no sweep ran.  One sweep normalizes every
    row sum to its target and then every column sum to its target.  After
    sweep ``k`` (1-based) of a call, the maximum deviation of the row sums
    from their targets is recorded at index ``(k - 1) % len(err_ring)``;
    column sums are exact up to rounding at that point by construction.
    A call stops early as soon as the max error is within ``tol``; a NaN
    error never is.  Sweeping keeps no state outside ``table``, so calls
    of n and m sweeps leave the table of one call of n + m.

    The compiled kernel checks the buffers when it binds and raises
    ValueError unless they are C-contiguous float64 arrays of matching
    lengths, the table and a nonempty ring writable.
    """
    def sweeps(tol, max_iter):
        return _sweeps(table, row_targets, col_targets, tol, max_iter, err_ring)

    return sweeps


def _sweeps(table, row_targets, col_targets, tol, max_iter, err_ring):
    n_ring = err_ring.shape[0]
    err = np.inf
    done = 0
    for k in range(max_iter):
        table *= (row_targets / table.sum(axis=1))[:, np.newaxis]
        table *= (col_targets / table.sum(axis=0))[np.newaxis, :]
        err = np.abs(table.sum(axis=1) - row_targets).max()
        err_ring[k % n_ring] = err
        done = k + 1
        if err <= tol:
            break
    return done, float(err)
