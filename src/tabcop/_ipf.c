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

/* Store the line sum s in *sum; return the larger of err and |s - target|,
 * keeping a NaN deviation, as NumPy's max does, so that it never passes tol. */
static double fold(double err, double s, double *sum, double target)
{
    double dev = fabs(s - target);
    *sum = s;
    return (dev > err || dev != dev) ? dev : err;
}

/* Set the row and column sums of the table; return their max deviation. */
static double measure(const double *table, long n_rows, long n_cols, const double *row_targets,
                      const double *col_targets, double *row_sums, double *col_sums)
{
    double err = 0.0;
    long x, y;
    for (y = 0; y < n_cols; y++)
        col_sums[y] = 0.0;
    for (x = 0; x < n_rows; x++) {
        double s = 0.0;
        for (y = 0; y < n_cols; y++) {
            s += table[x * n_cols + y];
            col_sums[y] += table[x * n_cols + y];
        }
        err = fold(err, s, row_sums + x, row_targets[x]);
    }
    for (y = 0; y < n_cols; y++)
        err = fold(err, col_sums[y], col_sums + y, col_targets[y]);
    return err;
}

/* The bound sweeps of _ipf_py.bind on the buffer ``buf``: the row-major
 * n_rows x n_cols table, its row and column targets, the n_ring slots of
 * the error ring, and its row and column sums, in that order.  Returns the
 * number of sweeps run; while sweeping, the column sums' slots hold the
 * column factors.
 *
 * The column pass scales four rows per step: their four sums are
 * separate chains, each still added in column order, so they overlap
 * without changing a bit of any of them. */
long ipf_sweeps(double *buf, long n_rows, long n_cols, long n_ring, double tol, long max_iter)
{
    double *table = buf;
    double *row_targets = table + n_rows * n_cols, *col_targets = row_targets + n_rows;
    double *err_ring = col_targets + n_cols;
    double *row_sums = err_ring + n_ring, *col_sums = row_sums + n_rows;
    double err = measure(table, n_rows, n_cols, row_targets, col_targets, row_sums, col_sums);
    long k = 0, x, y;
    if (err <= tol || max_iter < 1)
        err_ring[n_ring - 1] = err;
    else for (; k < max_iter; k++) {
        err = 0.0;
        for (y = 0; y < n_cols; y++)
            col_sums[y] = 0.0;
        for (x = 0; x < n_rows; x++) {
            double factor = row_targets[x] / row_sums[x];
            double *t = table + x * n_cols;
            for (y = 0; y < n_cols; y++)
                col_sums[y] += t[y] *= factor;
        }
        for (y = 0; y < n_cols; y++)
            col_sums[y] = col_targets[y] / col_sums[y];
        for (x = 0; x + 4 <= n_rows; x += 4) {
            double *t0 = table + x * n_cols, *t1 = t0 + n_cols,
                   *t2 = t1 + n_cols, *t3 = t2 + n_cols;
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (y = 0; y < n_cols; y++) {
                double c = col_sums[y];
                s0 += t0[y] *= c;
                s1 += t1[y] *= c;
                s2 += t2[y] *= c;
                s3 += t3[y] *= c;
            }
            err = fold(err, s0, row_sums + x, row_targets[x]);
            err = fold(err, s1, row_sums + x + 1, row_targets[x + 1]);
            err = fold(err, s2, row_sums + x + 2, row_targets[x + 2]);
            err = fold(err, s3, row_sums + x + 3, row_targets[x + 3]);
        }
        for (; x < n_rows; x++) {
            double *t = table + x * n_cols, s = 0.0;
            for (y = 0; y < n_cols; y++)
                s += t[y] *= col_sums[y];
            err = fold(err, s, row_sums + x, row_targets[x]);
        }
        err_ring[k % n_ring] = err;
        if (err <= tol) {
            k++;
            break;
        }
    }
    if (k > 0)
        measure(table, n_rows, n_cols, row_targets, col_targets, row_sums, col_sums);
    return k;
}
