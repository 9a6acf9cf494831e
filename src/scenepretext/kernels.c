/* The package's compiled kernels, over row-major float64 point sets.
 *
 * Rounding contract: every squared distance is summed in column order,
 * (dx*dx + dy*dy) + dz*dz for three columns, the order of the numpy
 * expression each kernel replaces, and ties go to the lowest index. Build
 * with -ffp-contract=off, since a fused multiply-add changes the bits;
 * never with -ffast-math, which lets the compiler reorder the sum.
 * -fno-math-errno only lets sqrt inline; it is correctly rounded either
 * way.
 *
 * Both kernels prune by bounding boxes, and the pruning is exact only
 * under the same contract: a box bound and each distance are built by the
 * same correctly rounded steps (subtract, square, add in column order,
 * and for fps sqrt), and monotone rounding keeps the bound at or below
 * every distance it stands for. A fused or reordered sum would round the
 * two differently. fps skips the buckets of consecutive rows a pick cannot
 * change; chamfer searches a k-d tree (Friedman, Bentley and Finkel,
 * 1977) and skips the nodes that cannot hold a nearer or tied row.
 *
 * Each kernel takes its scratch as one malloc block, sized from its
 * inputs and freed before it returns. It returns 0, or -1 with no answer
 * written when the block cannot be had.
 */
#include <math.h>
#include <stddef.h>
#include <stdlib.h>

/* Rows per fps bucket; exported only so that tests can place cloud sizes
 * at bucket edges. */
#define BS 64
const ptrdiff_t fps_bucket = BS;

/* A lower bound on the squared distance from c to every row in the box
 * bx: the per-axis gaps max(0, lo - c, c - hi), squared and summed in
 * column order as a distance is. */
static inline double bound(const double *c, const double *bx, ptrdiff_t d)
{
    double s = 0.0;
    for (ptrdiff_t k = 0; k < d; k++) {
        const double below = bx[k] - c[k], above = c[k] - bx[d + k];
        const double gap = below > above ? below : above;
        const double g = gap > 0.0 ? gap : 0.0;
        s += g * g;
    }
    return s;
}

/* Greedy farthest point sampling of an (n, 3) cloud, the picks of the
 * np.linalg.norm(points - c, axis=1) loop, bit for bit.
 *
 * chosen[0] is set by the caller; picks 1 .. m-1 are written here. The
 * rows are cut into nb buckets of BS consecutive rows; bucket b keeps
 * its bounding box, box[6b .. 6b+2] low and box[6b+3 .. 6b+5] high, the
 * largest running minimum of its rows, best[b], and the lowest row holding
 * it, arg[b]. The scratch block holds min_d, each row's running minimum,
 * then box, best and arg. Clouds stored object by object make the boxes
 * small; any row order gives the same picks, only more slowly.
 *
 * For each pick c, the root of bound() to a bucket's box is at most the
 * computed distance to any of its points: each point has |fl(p - c)| >=
 * the gap on each axis, by monotone rounding, and bound's sum, started at
 * 0.0, rounds as a distance's does, since 0.0 + g*g is exactly g*g. A
 * bucket whose bound is >= best[b] therefore holds no running minimum
 * that c lowers, and is skipped. The others get one pass that computes
 * each distance, lowers the running minimum and refreshes the bucket's
 * best. The next pick is the best of the first bucket, in row order, with
 * the largest best, so ties go to the lowest index, as with np.argmax.
 * The points must be finite: a NaN compares false here where np.argmax
 * would pick it.
 */
int fps(const double *p, ptrdiff_t n, ptrdiff_t m, ptrdiff_t *chosen)
{
    const ptrdiff_t nb = (n + BS - 1) / BS;
    double *min_d = malloc((n + 7 * nb) * sizeof(double)
                           + nb * sizeof(ptrdiff_t));
    if (min_d == NULL)
        return -1;
    double *box = min_d + n, *best = box + 6 * nb;
    ptrdiff_t *arg = (ptrdiff_t *)(best + nb);
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
            if (sqrt(bound(c, box + 6 * b, 3)) < best[b]) {
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
    free(min_d);
    return 0;
}

/* Rows per Chamfer k-d tree leaf, at most; exported only so that tests
 * can place set sizes at leaf edges. */
#define LEAF 32
const ptrdiff_t chamfer_leaf = LEAF;

/* The Chamfer trees. A tree over n rows has P leaves, P the smallest
 * power of two with P * LEAF >= n, and 2P - 1 nodes in heap order: node k
 * has children 2k + 1 and 2k + 2, and the node at depth t and position l
 * (k = 2^t - 1 + l) holds rows [l*n >> t, (l+1)*n >> t) of perm, the
 * tree's order of the set's rows. Node k's bounding box is box[2dk ..
 * 2dk + d - 1] low and box[2dk + d .. 2dk + 2d - 1] high; pts holds the
 * rows themselves in perm's order. */
static inline ptrdiff_t leaves(ptrdiff_t n)
{
    ptrdiff_t p = 1;
    while (p * LEAF < n)
        p *= 2;
    return p;
}

/* Reorders perm[lo .. hi) so that the rows before mid have no larger
 * value on the axis than the row at mid, and those after it no smaller: a
 * quickselect whose rounds partition without branches, first into the
 * rows below the pivot and the rest, then, if mid lies in the rest, into
 * the rows not above it and those above. The pivot's own row never lies
 * below or above itself, so each round shrinks the range, and a NaN, like
 * a row equal to the pivot, cannot stall it. */
static inline void split(const double *p, ptrdiff_t d, ptrdiff_t axis,
                         ptrdiff_t *perm, ptrdiff_t lo, ptrdiff_t mid,
                         ptrdiff_t hi)
{
    while (hi - lo > 1) {
        const double v = p[d * perm[lo + (hi - lo) / 2] + axis];
        ptrdiff_t a = lo;
        for (ptrdiff_t i = lo; i < hi; i++) {
            const ptrdiff_t r = perm[i];
            const int below = p[d * r + axis] < v;
            perm[i] = perm[a];
            perm[a] = r;
            a += below;
        }
        if (mid < a) {
            hi = a;
            continue;
        }
        ptrdiff_t b = a;
        for (ptrdiff_t i = a; i < hi; i++) {
            const ptrdiff_t r = perm[i];
            const int above = p[d * r + axis] > v;
            perm[i] = perm[b];
            perm[b] = r;
            b += !above;
        }
        if (mid < b)
            return;
        lo = b;
    }
}

/* Builds the tree over the (n, d) rows p, top down: each node's box, then
 * a split at its median row on the box's widest axis. A NaN coordinate
 * never enters a box. */
static inline void build(const double *p, ptrdiff_t n, ptrdiff_t d,
                         ptrdiff_t *perm, double *pts, double *box)
{
    const ptrdiff_t np = leaves(n);
    for (ptrdiff_t j = 0; j < n; j++)
        perm[j] = j;
    for (ptrdiff_t t = 0, w = 1; w <= np; t++, w *= 2) {
        for (ptrdiff_t l = 0; l < w; l++) {
            const ptrdiff_t lo = l * n >> t, hi = (l + 1) * n >> t;
            double *bx = box + 2 * d * (w - 1 + l);
            for (ptrdiff_t k = 0; k < d; k++) {
                bx[k] = INFINITY;
                bx[d + k] = -INFINITY;
            }
            for (ptrdiff_t j = lo; j < hi; j++) {
                for (ptrdiff_t k = 0; k < d; k++) {
                    const double v = p[d * perm[j] + k];
                    bx[k] = v < bx[k] ? v : bx[k];
                    bx[d + k] = v > bx[d + k] ? v : bx[d + k];
                }
            }
            if (w == np)
                continue;
            ptrdiff_t axis = 0;
            for (ptrdiff_t k = 1; k < d; k++)
                if (bx[d + k] - bx[k] > bx[d + axis] - bx[axis])
                    axis = k;
            split(p, d, axis, perm, lo, (2 * l + 1) * n >> (t + 1), hi);
        }
    }
    for (ptrdiff_t j = 0; j < n; j++)
        for (ptrdiff_t k = 0; k < d; k++)
            pts[d * j + k] = p[d * perm[j] + k];
}

/* For each of the nq rows q, in tree order qperm, the nearest row of the
 * tree (perm, pts, box) over n rows: out[qperm[i]] is its index. The
 * search goes depth first, the child with the smaller bound first, and
 * skips a node only when its bound is strictly greater than the best
 * squared distance so far; candidates compare by (squared distance, row
 * index). */
static inline void query(const double *q, const ptrdiff_t *qperm,
                         ptrdiff_t nq, const double *pts,
                         const ptrdiff_t *perm, const double *box,
                         ptrdiff_t n, ptrdiff_t d, ptrdiff_t *out)
{
    const ptrdiff_t np = leaves(n);
    int depth = 0;
    while ((ptrdiff_t)1 << depth < np)
        depth++;
    for (ptrdiff_t i = 0; i < nq; i++) {
        const double *c = q + d * i;
        double best = INFINITY;
        ptrdiff_t arg = 0;
        ptrdiff_t stack[64];        /* a far child per level at most */
        double stack_bound[64];
        int top = 0;
        ptrdiff_t node = 0;
        for (;;) {
            while (node < np - 1) {
                const ptrdiff_t left = 2 * node + 1;
                const double bl = bound(c, box + 2 * d * left, d);
                const double br = bound(c, box + 2 * d * (left + 1), d);
                const int right_first = br < bl;
                const ptrdiff_t near = left + right_first;
                const double bn = right_first ? br : bl;
                const double bf = right_first ? bl : br;
                if (!(bf > best)) {
                    stack[top] = right_first ? left : left + 1;
                    stack_bound[top++] = bf;
                }
                if (bn > best) {
                    node = -1;
                    break;
                }
                node = near;
            }
            if (node >= 0) {
                const ptrdiff_t l = node - (np - 1);
                const ptrdiff_t hi = (l + 1) * n >> depth;
                for (ptrdiff_t j = l * n >> depth; j < hi; j++) {
                    double s = 0.0;
                    for (ptrdiff_t k = 0; k < d; k++) {
                        const double t = c[k] - pts[d * j + k];
                        s += t * t;
                    }
                    const int take = s < best
                                     || (s == best && perm[j] < arg);
                    best = take ? s : best;
                    arg = take ? perm[j] : arg;
                }
            }
            node = -1;
            while (top > 0 && node < 0) {
                top--;
                if (!(stack_bound[top] > best))
                    node = stack[top];
            }
            if (node < 0)
                break;
        }
        out[qperm[i]] = arg;
    }
}

/* Nearest neighbours both ways between (nx, d) and (ny, d) sets: the
 * argmins of numpy's dense ((x[:, None] - y[None]) ** 2).sum(-1), bit for
 * bit, ties to the lowest index.
 *
 * nn is (nx + ny,): nn[i] is the nearest row of y to row i of x, and
 * nn[nx + j] the nearest row of x to row j of y. The scratch block holds
 * both sets' pts, the boxes of the tree over x and of the tree over y,
 * 2d (2Px - 1 + 2Py - 1) doubles for the trees' leaf counts Px and Py,
 * and then both trees' perm. One tree is built over y, for x's queries,
 * and one over x, for y's; each set is queried in its own tree's order,
 * so consecutive queries are near each other.
 *
 * Exactness: a node's bound is built from per-axis gaps no larger than
 * any of its rows' differences, by the same rounded steps as a distance
 * (subtract, square, add in column order), so by monotone rounding it
 * never exceeds the computed distance to one of its rows. A node whose
 * bound is greater than the best distance so far holds no row that is
 * closer or tied; one whose bound equals it is still searched, so a tie in
 * another leaf is found and decided by index. A NaN is never picked; a
 * row with no finite distance keeps index 0.
 */
static inline void neighbours(const double *x, ptrdiff_t nx,
                              const double *y, ptrdiff_t ny, ptrdiff_t d,
                              double *work, ptrdiff_t *nn)
{
    double *pts_x = work, *pts_y = pts_x + d * nx, *box_x = pts_y + d * ny;
    double *box_y = box_x + 2 * d * (2 * leaves(nx) - 1);
    ptrdiff_t *perm_x = (ptrdiff_t *)(box_y + 2 * d * (2 * leaves(ny) - 1));
    ptrdiff_t *perm_y = perm_x + nx;
    build(x, nx, d, perm_x, pts_x, box_x);
    build(y, ny, d, perm_y, pts_y, box_y);
    query(pts_x, perm_x, nx, pts_y, perm_y, box_y, ny, d, nn);
    query(pts_y, perm_y, ny, pts_x, perm_x, box_x, nx, d, nn + nx);
}

int chamfer(const double *x, ptrdiff_t nx, const double *y, ptrdiff_t ny,
            ptrdiff_t d, ptrdiff_t *nn)
{
    const ptrdiff_t nodes = 2 * leaves(nx) - 1 + 2 * leaves(ny) - 1;
    double *work = malloc(d * (nx + ny + 2 * nodes) * sizeof(double)
                          + (nx + ny) * sizeof(ptrdiff_t));
    if (work == NULL)
        return -1;
    if (d == 3)     /* a constant d lets the compiler unroll the sums */
        neighbours(x, nx, y, ny, 3, work, nn);
    else
        neighbours(x, nx, y, ny, d, work, nn);
    free(work);
    return 0;
}
