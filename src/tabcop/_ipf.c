/* Compiled proportional-fitting kernel.
 *
 * The sweeps behind tabcop._ipf_py.bind, whose contract they follow; built
 * and loaded by tabcop.scaling.  Sums run in index order, so the compiler
 * must not reassociate them: build without -ffast-math.
 */

#include <math.h>

/* Sweep the row-major n_rows x n_cols ``table`` in place: every row to
 * its target, then every column.  After sweep k (1-based) the max
 * deviation of the row sums from their targets goes to
 * err_ring[(k - 1) % n_ring].  Stops after max_iter sweeps or as soon as
 * that deviation is within tol; returns the number of sweeps run.  A NaN
 * deviation is kept, as NumPy's max keeps it, so it never passes tol.
 * ``scratch`` holds n_rows + n_cols doubles: the row sums, which the
 * next sweep reuses, and the column sums. */
long ipf_sweeps(double *table, long n_rows, long n_cols,
                const double *row_targets, const double *col_targets,
                double tol, long max_iter, double *err_ring, long n_ring,
                double *scratch)
{
    double *row_sums = scratch, *col_sums = scratch + n_rows;
    long k, x, y;
    for (x = 0; x < n_rows; x++) {
        row_sums[x] = 0.0;
        for (y = 0; y < n_cols; y++)
            row_sums[x] += table[x * n_cols + y];
    }
    for (k = 0; k < max_iter; k++) {
        double err = 0.0;
        for (y = 0; y < n_cols; y++)
            col_sums[y] = 0.0;
        for (x = 0; x < n_rows; x++) {
            double factor = row_targets[x] / row_sums[x];
            for (y = 0; y < n_cols; y++) {
                table[x * n_cols + y] *= factor;
                col_sums[y] += table[x * n_cols + y];
            }
        }
        for (y = 0; y < n_cols; y++)
            col_sums[y] = col_targets[y] / col_sums[y];
        for (x = 0; x < n_rows; x++) {
            double s = 0.0, dev;
            for (y = 0; y < n_cols; y++) {
                table[x * n_cols + y] *= col_sums[y];
                s += table[x * n_cols + y];
            }
            row_sums[x] = s;
            dev = fabs(s - row_targets[x]);
            if (dev > err || dev != dev)
                err = dev;
        }
        err_ring[k % n_ring] = err;
        if (err <= tol)
            return k + 1;
    }
    return k;
}
