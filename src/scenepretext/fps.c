/* Greedy farthest point sampling of an (n, 3) row-major float64 cloud.
 *
 * chosen[0] is set by the caller; picks 1 .. m-1 are written here. Each
 * pass over the cloud computes every point's distance to the last pick,
 * lowers the point's running minimum and tracks the largest minimum, so
 * the next pick falls out of the same pass. Ties go to the lowest index,
 * as with np.argmax. The points must be finite: a NaN compares false
 * here where np.argmax would pick it.
 *
 * Rounding contract: each distance is sqrt((dx*dx + dy*dy) + dz*dz), the
 * summation order of np.linalg.norm(points - c, axis=1), so the picks are
 * bit-equal to the norm-based loop. Build with -ffp-contract=off, since a
 * fused multiply-add changes the bits; never with -ffast-math, which lets
 * the compiler reorder the sum. -fno-math-errno only lets sqrt inline; it
 * is correctly rounded either way.
 */
#include <math.h>
#include <stddef.h>

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
