"""Pure-NumPy proportional-fitting kernel.

The reference for the compiled kernel (``_ipf.c``) and the kernel that
runs when that one cannot be built or loaded; both implement the same
contract and are exercised by the same tests.
"""

import numpy as np


def ipf_sweeps(table, row_targets, col_targets, tol, max_iter, err_ring):
    """Run rows-then-columns fitting sweeps on ``table`` in place.

    One sweep normalizes every row sum to its target and then every column
    sum to its target.  After sweep ``k`` (1-based) the maximum deviation
    of the row sums from their targets is recorded at index
    ``(k - 1) % len(err_ring)``; column sums are exact up to rounding at
    that point by construction.

    Returns ``(sweeps_done, last_max_error)``.  Stops early as soon as the
    max error is within ``tol``.
    """
    n_ring = err_ring.shape[0]
    err = np.inf
    sweeps = 0
    for k in range(max_iter):
        table *= (row_targets / table.sum(axis=1))[:, np.newaxis]
        table *= (col_targets / table.sum(axis=0))[np.newaxis, :]
        err = np.abs(table.sum(axis=1) - row_targets).max()
        err_ring[k % n_ring] = err
        sweeps = k + 1
        if err <= tol:
            break
    return sweeps, float(err)
