/* Nearest neighbours both ways between (nx, d) and (ny, d) row-major
 * float64 point sets, in one pass over the rows of x.
 *
 * nn[i] is the nearest row of y to row i of x, and nn[nx + j] the nearest
 * row of x to row j of y; col_min is (ny,) scratch. Each pair's squared
 * distance lowers both the row's best and the column's minimum by a
 * branch-free select on a strict <, so ties go to the lowest index, as
 * with np.argmin. A NaN is never picked; a row or column with no finite
 * distance keeps index 0.
 *
 * Rounding contract: the squared distance is summed in column order, for
 * d = 3 (dx*dx + dy*dy) + dz*dz, as in numpy's ((x[:, None] - y[None])
 * ** 2).sum(-1), so the argmins are bit-equal to that dense matrix's.
 * Build with -ffp-contract=off, since a fused multiply-add changes the
 * bits; never with -ffast-math, which lets the compiler reorder the sum.
 */
#include <math.h>
#include <stddef.h>

static inline void nearest(const double *x, ptrdiff_t nx, const double *y,
                           ptrdiff_t ny, ptrdiff_t d, double *col_min,
                           ptrdiff_t *nn)
{
    for (ptrdiff_t j = 0; j < ny; j++) {
        col_min[j] = INFINITY;
        nn[nx + j] = 0;
    }
    for (ptrdiff_t i = 0; i < nx; i++) {
        double best = INFINITY;
        ptrdiff_t arg = 0;
        for (ptrdiff_t j = 0; j < ny; j++) {
            double s = 0.0;
            for (ptrdiff_t k = 0; k < d; k++) {
                const double t = x[d * i + k] - y[d * j + k];
                s += t * t;
            }
            const int row = s < best, col = s < col_min[j];
            best = row ? s : best;
            arg = row ? j : arg;
            col_min[j] = col ? s : col_min[j];
            nn[nx + j] = col ? i : nn[nx + j];
        }
        nn[i] = arg;
    }
}

void chamfer(const double *x, ptrdiff_t nx, const double *y, ptrdiff_t ny,
             ptrdiff_t d, double *col_min, ptrdiff_t *nn)
{
    if (d == 3)     /* a constant d lets the compiler unroll the sum */
        nearest(x, nx, y, ny, 3, col_min, nn);
    else
        nearest(x, nx, y, ny, d, col_min, nn);
}
