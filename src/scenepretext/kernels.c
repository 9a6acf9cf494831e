/* The package's compiled kernels, over row-major float64 point sets.
 *
 * Rounding contract: every squared distance is summed in column order,
 * (dx*dx + dy*dy) + dz*dz for three columns, the order of the numpy
 * expression each kernel replaces, and every comparison is strict. Build
 * with -ffp-contract=off, since a fused multiply-add changes the bits;
 * never with -ffast-math, which lets the compiler reorder the sum.
 * -fno-math-errno only lets sqrt inline; it is correctly rounded either
 * way.
 */
#include <math.h>
#include <stddef.h>

/* Greedy farthest point sampling of an (n, 3) cloud, the picks of the
 * np.linalg.norm(points - c, axis=1) loop, bit for bit.
 *
 * chosen[0] is set by the caller; picks 1 .. m-1 are written here. Each
 * pass over the cloud computes every point's distance to the last pick,
 * lowers the point's running minimum and tracks the largest minimum, so
 * the next pick falls out of the same pass. Ties go to the lowest index,
 * as with np.argmax. The points must be finite: a NaN compares false
 * here where np.argmax would pick it.
 */
void fps(const double *p, ptrdiff_t n, ptrdiff_t m, double *min_d,
         ptrdiff_t *chosen)
{
    for (ptrdiff_t j = 0; j < n; j++)
        min_d[j] = INFINITY;
    for (ptrdiff_t i = 1; i < m; i++) {
        const double *c = p + 3 * chosen[i - 1];
        const double cx = c[0], cy = c[1], cz = c[2];
        double best = -1.0;
        ptrdiff_t next = 0;
        for (ptrdiff_t j = 0; j < n; j++) {
            const double dx = p[3 * j] - cx;
            const double dy = p[3 * j + 1] - cy;
            const double dz = p[3 * j + 2] - cz;
            const double d = sqrt((dx * dx + dy * dy) + dz * dz);
            const double md = d < min_d[j] ? d : min_d[j];
            min_d[j] = md;
            if (md > best) {
                best = md;
                next = j;
            }
        }
        chosen[i] = next;
    }
}

/* Nearest neighbours both ways between (nx, d) and (ny, d) sets, in one
 * pass over the rows of x: the argmins of numpy's dense
 * ((x[:, None] - y[None]) ** 2).sum(-1), bit for bit.
 *
 * nn[i] is the nearest row of y to row i of x, and nn[nx + j] the nearest
 * row of x to row j of y; col_min is (ny,) scratch. Each pair's squared
 * distance lowers both the row's best and the column's minimum by a
 * branch-free select on a strict <, so ties go to the lowest index, as
 * with np.argmin. A NaN is never picked; a row or column with no finite
 * distance keeps index 0.
 */
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
