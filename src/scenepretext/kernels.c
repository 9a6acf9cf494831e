/* The package's compiled kernels, over row-major float64 point sets.
 *
 * Rounding contract: every squared distance is summed in column order,
 * (dx*dx + dy*dy) + dz*dz for three columns, the order of the numpy
 * expression each kernel replaces, and every comparison is strict. Build
 * with -ffp-contract=off, since a fused multiply-add changes the bits;
 * never with -ffast-math, which lets the compiler reorder the sum.
 * -fno-math-errno only lets sqrt inline; it is correctly rounded either
 * way.
 *
 * fps's pruning is exact only under the same contract: its box bound and
 * each distance are built by the same correctly rounded steps (subtract,
 * square, add in column order, sqrt), and monotone rounding keeps the
 * bound at or below every distance it stands for. A fused or reordered
 * sum would round the two differently.
 */
#include <math.h>
#include <stddef.h>

/* Rows per fps bucket; farthest_point_sample reads fps_bucket to size
 * the bucket scratch. */
#define BS 64
const ptrdiff_t fps_bucket = BS;

/* Greedy farthest point sampling of an (n, 3) cloud, the picks of the
 * np.linalg.norm(points - c, axis=1) loop, bit for bit.
 *
 * chosen[0] is set by the caller; picks 1 .. m-1 are written here. The
 * rows are cut into buckets of BS consecutive rows; bucket b keeps
 * its bounding box, box[6b .. 6b+2] low and box[6b+3 .. 6b+5] high, the
 * largest running minimum of its rows, best[b], and the lowest row holding
 * it, arg[b]. Clouds stored object by object make the boxes small; any
 * row order gives the same picks, only more slowly.
 *
 * For each pick c, the distance from c to a box is bounded below by the
 * per-axis gaps max(0, lo - c, c - hi), combined as a distance is. Every
 * point of the box has |fl(p - c)| >= the gap on each axis, by monotone
 * rounding, so its computed distance is >= the bound. A bucket whose
 * bound is >= best[b] therefore holds no running minimum that c lowers,
 * and is skipped. The others get one pass that computes each distance,
 * lowers the running minimum and refreshes the bucket's best. The next
 * pick is the best of the first bucket, in row order, with the largest
 * best, so ties go to the lowest index, as with np.argmax. The points must
 * be finite: a NaN compares false here where np.argmax would pick it.
 */
void fps(const double *p, ptrdiff_t n, ptrdiff_t m, double *min_d,
         ptrdiff_t *chosen, double *box, double *best, ptrdiff_t *arg)
{
    const ptrdiff_t nb = (n + BS - 1) / BS;
    for (ptrdiff_t b = 0; b < nb; b++) {
        const ptrdiff_t lo = b * BS, hi = lo + BS < n ? lo + BS : n;
        double *bx = box + 6 * b;
        for (ptrdiff_t k = 0; k < 3; k++)
            bx[k] = bx[3 + k] = p[3 * lo + k];
        for (ptrdiff_t j = lo; j < hi; j++) {
            for (ptrdiff_t k = 0; k < 3; k++) {
                const double v = p[3 * j + k];
                bx[k] = v < bx[k] ? v : bx[k];
                bx[3 + k] = v > bx[3 + k] ? v : bx[3 + k];
            }
            min_d[j] = INFINITY;
        }
        best[b] = INFINITY;
        arg[b] = lo;
    }
    for (ptrdiff_t i = 1; i < m; i++) {
        const double *c = p + 3 * chosen[i - 1];
        const double cx = c[0], cy = c[1], cz = c[2];
        double top = -1.0;
        ptrdiff_t next = 0;
        for (ptrdiff_t b = 0; b < nb; b++) {
            const double *bx = box + 6 * b;
            double g[3];
            for (ptrdiff_t k = 0; k < 3; k++) {
                const double below = bx[k] - c[k], above = c[k] - bx[3 + k];
                const double gap = below > above ? below : above;
                g[k] = gap > 0.0 ? gap : 0.0;
            }
            const double bound = sqrt((g[0] * g[0] + g[1] * g[1])
                                      + g[2] * g[2]);
            if (bound < best[b]) {
                const ptrdiff_t lo = b * BS, hi = lo + BS < n ? lo + BS : n;
                double bb = -1.0;
                ptrdiff_t ba = lo;
                for (ptrdiff_t j = lo; j < hi; j++) {
                    const double dx = p[3 * j] - cx;
                    const double dy = p[3 * j + 1] - cy;
                    const double dz = p[3 * j + 2] - cz;
                    const double d = sqrt((dx * dx + dy * dy) + dz * dz);
                    const double md = d < min_d[j] ? d : min_d[j];
                    min_d[j] = md;
                    if (md > bb) {
                        bb = md;
                        ba = j;
                    }
                }
                best[b] = bb;
                arg[b] = ba;
            }
            if (best[b] > top) {
                top = best[b];
                next = arg[b];
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
