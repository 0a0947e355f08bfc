/* Compiled proportional-fitting kernel.
 *
 * The sweeps behind tabcop._ipf_py.bind, whose contract they follow; built
 * and loaded by tabcop.scaling.  Every sum runs in index order, so the
 * compiler must neither reassociate nor fuse them: build with
 * -ffp-contract=off and without -ffast-math.  Then each operation is the
 * one a plain in-order loop over doubles performs, whatever the
 * optimisation level vectorises.
 */

#include <math.h>

/* Store the sum ``s`` of row x and fold its deviation into ``err``.  A NaN
 * deviation is kept, as NumPy's max keeps it, so it never passes tol. */
static double finish_row(double s, long x, double *row_sums,
                         const double *row_targets, double err)
{
    double dev = fabs(s - row_targets[x]);
    row_sums[x] = s;
    return (dev > err || dev != dev) ? dev : err;
}

/* Sweep the row-major n_rows x n_cols ``table`` in place: every row to
 * its target, then every column.  ``aux`` holds, in order, the n_rows row
 * targets, the n_cols column targets, the n_ring slots of the error ring
 * and n_rows + n_cols doubles of scratch.  After sweep k (1-based) the max
 * deviation of the row sums from their targets goes to ring slot
 * (k - 1) % n_ring.  Stops after max_iter sweeps or as soon as that
 * deviation is within tol; returns the number of sweeps run.  The scratch
 * holds the row sums, which the next sweep reuses and which on return
 * are those of the table, and the column sums.
 *
 * The column pass scales four rows per step: their four sums are
 * separate chains, each still added in column order, so they overlap
 * without changing a bit of any of them. */
long ipf_sweeps(double *table, long n_rows, long n_cols, double *aux, long n_ring,
                double tol, long max_iter)
{
    const double *row_targets = aux, *col_targets = aux + n_rows;
    double *err_ring = aux + n_rows + n_cols;
    double *row_sums = err_ring + n_ring, *col_sums = row_sums + n_rows;
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
            double *t = table + x * n_cols;
            for (y = 0; y < n_cols; y++) {
                t[y] *= factor;
                col_sums[y] += t[y];
            }
        }
        for (y = 0; y < n_cols; y++)
            col_sums[y] = col_targets[y] / col_sums[y];
        for (x = 0; x + 4 <= n_rows; x += 4) {
            double *t0 = table + x * n_cols, *t1 = t0 + n_cols,
                   *t2 = t1 + n_cols, *t3 = t2 + n_cols;
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (y = 0; y < n_cols; y++) {
                double c = col_sums[y];
                t0[y] *= c;
                s0 += t0[y];
                t1[y] *= c;
                s1 += t1[y];
                t2[y] *= c;
                s2 += t2[y];
                t3[y] *= c;
                s3 += t3[y];
            }
            err = finish_row(s0, x, row_sums, row_targets, err);
            err = finish_row(s1, x + 1, row_sums, row_targets, err);
            err = finish_row(s2, x + 2, row_sums, row_targets, err);
            err = finish_row(s3, x + 3, row_sums, row_targets, err);
        }
        for (; x < n_rows; x++) {
            double *t = table + x * n_cols, s = 0.0;
            for (y = 0; y < n_cols; y++) {
                t[y] *= col_sums[y];
                s += t[y];
            }
            err = finish_row(s, x, row_sums, row_targets, err);
        }
        err_ring[k % n_ring] = err;
        if (err <= tol)
            return k + 1;
    }
    return k;
}
