"""Finite-difference verification of every autodiff primitive."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenepretext import autodiff as ad
from scenepretext import kernels
from scenepretext.errors import DimensionMismatch, EmptySet

from oracles import concat_rows, reference_fold, reference_linear


def numeric_grad(f, x, h=1e-6):
    """Central differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        g.ravel()[i] = (fp - fm) / (2 * h)
    return g


def check_unary(build, x0, h=1e-6, tol=1e-6):
    """Compare backward() against numeric_grad for scalar-valued build(x)."""
    v = ad.leaf(x0.copy())
    out = build(v)
    out.backward()
    analytic = v.grad.copy()
    numeric = numeric_grad(lambda x: build(ad.leaf(x)).item(), x0.copy(), h)
    np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


rng = np.random.default_rng(99)


def test_linear_grad():
    x0 = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(3, 5))
    b0 = rng.normal(size=5)
    target = ad.constant(np.zeros((1, 5)))
    # each argument in turn, the other two fixed
    check_unary(lambda x: ad.chamfer(
        ad.linear(x, ad.leaf(w0), ad.leaf(b0)), target), x0)
    check_unary(lambda w: ad.chamfer(
        ad.linear(ad.leaf(x0), w, ad.leaf(b0)), target), w0)
    check_unary(lambda b: ad.chamfer(
        ad.linear(ad.leaf(x0), ad.leaf(w0), b), target), b0)


def test_matmul_nt_matches_manual_transpose():
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(6, 3))
    out = ad.matmul_nt(ad.leaf(a), ad.leaf(b))
    np.testing.assert_allclose(out.data, a @ b.T)


def test_add_bias_broadcast_grad():
    x0 = rng.normal(size=(5, 4))
    b0 = rng.normal(size=4)
    x = ad.leaf(x0)
    b = ad.leaf(b0)
    out = ad.chamfer(ad.add(x, b), ad.constant(np.zeros((1, 4))))
    out.backward()
    numeric = numeric_grad(
        lambda bb: ad.chamfer(ad.add(ad.leaf(x0), ad.leaf(bb)),
                              ad.constant(np.zeros((1, 4)))).item(), b0.copy())
    np.testing.assert_allclose(b.grad, numeric, atol=1e-6)


def test_relu_concat_slice_gather_grads():
    x0 = rng.normal(size=(6, 3))

    def build(x):
        r = ad.relu(x)
        c = ad.concat_cols([r, x])
        s = ad.slice_cols(c, 1, 5)
        g = ad.gather_rows(s, np.array([0, 2, 2, 5]))
        return ad.chamfer(g, ad.constant(np.zeros((1, 4))))

    check_unary(build, x0)


def through_rows(op, n_out, d, seed=0):
    """Scalar builder: op(x) plus a fixed offset per output row, then
    chamfer to fixed targets, so every output row carries its own upstream
    gradient."""
    r = np.random.default_rng(seed)
    offset = ad.constant(r.normal(size=(n_out, d)))
    target = ad.constant(r.normal(size=(5, d)))
    return lambda x: ad.chamfer(ad.add(op(x), offset), target)


def assert_matches_reference(build, reference, x0):
    """Equal forward values and gradients within 1e-13 of the largest."""
    x, x_ref = ad.leaf(x0.copy()), ad.leaf(x0.copy())
    out, ref = build(x), reference(x_ref)
    assert abs(out.item() - ref.item()) <= 1e-13 * abs(ref.item())
    out.backward()
    ref.backward()
    assert np.abs(x.grad - x_ref.grad).max() \
        <= 1e-13 * np.abs(x_ref.grad).max()


# (n, r, d): r = 1, a single row, a small case, and the fold layer's
# full-scale feature term (256 coarse points, u = 3, 3 + 256 columns)
REPEAT_SHAPES = {"r=1": (5, 1, 3), "one-row": (1, 4, 3),
                 "small": (4, 3, 2), "full-scale": (256, 9, 259)}


@pytest.mark.parametrize("n,r,d", list(REPEAT_SHAPES.values()),
                         ids=list(REPEAT_SHAPES))
def test_repeat_rows_matches_gather_reference(n, r, d):
    a0 = np.random.default_rng(n + r + d).normal(size=(n, d))
    np.testing.assert_array_equal(ad.repeat_rows(ad.leaf(a0), r).data,
                                  np.repeat(a0, r, axis=0))
    rep = np.repeat(np.arange(n), r)
    assert_matches_reference(
        through_rows(lambda x: ad.repeat_rows(x, r), n * r, d),
        through_rows(lambda x: ad.gather_rows(x, rep), n * r, d), a0)


@pytest.mark.parametrize("n,r,d", [s for k, s in REPEAT_SHAPES.items()
                                   if k != "full-scale"],
                         ids=[k for k in REPEAT_SHAPES if k != "full-scale"])
def test_repeat_rows_grad(n, r, d):
    a0 = np.random.default_rng(n + r + d).normal(size=(n, d))
    check_unary(through_rows(lambda x: ad.repeat_rows(x, r), n * r, d), a0)


@pytest.mark.parametrize("i0,i1", [(0, 2), (2, 7), (3, 4), (0, 7)])
def test_slice_rows_grad_and_gather_reference(i0, i1):
    a0 = np.random.default_rng(i0 + 10 * i1).normal(size=(7, 3))
    build = through_rows(lambda x: ad.slice_rows(x, i0, i1), i1 - i0, 3)
    check_unary(build, a0)
    assert_matches_reference(
        build, through_rows(lambda x: ad.gather_rows(x, np.arange(i0, i1)),
                            i1 - i0, 3), a0)


def test_row_slices_of_one_leaf_fill_its_gradient():
    # the fold layer takes its grid rows and feature rows of fold_w1 this way
    a0 = np.random.default_rng(3).normal(size=(7, 3))
    check_unary(through_rows(
        lambda x: concat_rows([ad.slice_rows(x, 2, 7),
                               ad.slice_rows(x, 0, 2)]), 7, 3), a0)


def fold_inputs(n, r, width, seed):
    """grid, w_s, f and w2 for ad.fold; the pre-activations take both
    signs."""
    g = np.random.default_rng(seed)
    return (g.normal(size=(r, 2)), g.normal(size=(2, width)),
            g.normal(size=(n, width)), g.normal(size=(width, 3)))


def fold_op(op, grid):
    return lambda w_s, f, w2: op(grid, w_s, f, w2)


def test_fold_grad():
    grid, *arrays = fold_inputs(18, 9, 24, 40)
    op = fold_op(ad.fold, grid)
    for k in range(3):
        def build(v, k=k):
            args = [ad.leaf(a) for a in arrays]
            args[k] = v
            return through_rows(lambda _: op(*args), 18 * 9, 3)(None)

        check_unary(build, arrays[k].copy())


def assert_bitwise_equal(op, reference, arrays, n_out, d):
    """op and reference on fresh leaves of ``arrays``, each through the
    same rows to a scalar: equal bytes in the output and every gradient."""
    runs = []
    for build in (op, reference):
        leaves = [ad.leaf(a.copy()) for a in arrays]
        node = build(*leaves)
        through_rows(lambda _: node, n_out, d)(None).backward()
        runs.append([node.data.tobytes()]
                    + [v.grad.tobytes() for v in leaves])
    assert runs[0] == runs[1]


# (n, r, width): the gradcheck batch's fold layer (18 coarse points, u = 3,
# hidden 24) and the full-scale one (256 coarse points, u = 3, hidden 256)
FOLD_SHAPES = {"gradcheck": (18, 9, 24), "full-scale": (256, 9, 256)}


@pytest.mark.parametrize("n,r,width", list(FOLD_SHAPES.values()),
                         ids=list(FOLD_SHAPES))
def test_fold_matches_unfused_reference_bit_for_bit(n, r, width):
    grid, *arrays = fold_inputs(n, r, width, n + width)
    assert_bitwise_equal(fold_op(ad.fold, grid), fold_op(reference_fold, grid),
                         arrays, n * r, 3)


# (n, in, out): the fold feature term's shapes in the gradcheck batch and
# at full scale, 3 + s inputs each
LINEAR_SHAPES = {"gradcheck": (18, 35, 24), "full-scale": (256, 259, 256)}


@pytest.mark.parametrize("n,d_in,d_out", list(LINEAR_SHAPES.values()),
                         ids=list(LINEAR_SHAPES))
def test_linear_matches_unfused_reference_bit_for_bit(n, d_in, d_out):
    g = np.random.default_rng(n + d_in)
    arrays = [g.normal(size=(n, d_in)), g.normal(size=(d_in, d_out)),
              g.normal(size=d_out)]
    assert_bitwise_equal(ad.linear, reference_linear, arrays, n, d_out)


def test_fold_gradients_hold_no_negative_zero():
    # every pre-activation is negative, so the ReLU passes g * False, which
    # is -0.0 wherever g < 0; the gradients must hold +0.0 there
    grid, w_s0, f0, w20 = fold_inputs(6, 9, 5, 41)
    leaves = [ad.leaf(w_s0), ad.leaf(-100.0 - np.abs(f0)), ad.leaf(w20)]
    through_rows(lambda _: ad.fold(grid, *leaves), 6 * 9, 3)(None).backward()
    for v in leaves:
        assert not np.any(v.grad) and not np.any(np.signbit(v.grad))


def test_segment_mean_and_max_grads():
    x0 = rng.normal(size=(7, 3))
    seg = np.array([0, 1, 0, 2, 1, 2, 0])

    def build_mean(x):
        return ad.chamfer(ad.segment_mean(x, seg, 3),
                          ad.constant(np.zeros((1, 3))))

    def build_max(x):
        return ad.chamfer(ad.segment_max(x, seg, 3),
                          ad.constant(np.zeros((1, 3))))

    check_unary(build_mean, x0)
    check_unary(build_max, x0)


def test_segment_max_empty_segment_zero_row_no_grad():
    x0 = rng.normal(size=(5, 3))
    seg = np.array([0, 2, 0, 2, 2])  # segment 1 has no rows
    out = ad.segment_max(ad.leaf(x0), seg, 3)
    np.testing.assert_array_equal(out.data[1], np.zeros(3))
    np.testing.assert_array_equal(out.data[0], x0[[0, 2]].max(axis=0))

    def build_max(x):
        return ad.chamfer(ad.segment_max(x, seg, 3),
                          ad.constant(np.ones((1, 3))))

    check_unary(build_max, x0)
    # the empty segment's row still receives an upstream gradient; it must
    # reach no input row
    x = ad.leaf(x0.copy())
    pooled = ad.segment_max(x, seg, 3)
    ad.chamfer(ad.gather_rows(pooled, [1]),
               ad.constant(np.ones((1, 3)))).backward()
    np.testing.assert_array_equal(x.grad, np.zeros_like(x0))


def test_l2_normalize_rows_grad():
    x0 = rng.normal(size=(5, 4)) + 0.5

    def build(x):
        return ad.chamfer(ad.l2_normalize_rows(x),
                          ad.constant(np.full((1, 4), 0.3)))

    check_unary(build, x0)


def test_masked_info_nce_values_and_grad():
    sim0 = rng.normal(size=(3, 5))
    pos = np.array([0, 2, 4])
    mask = rng.random((3, 5)) > 0.4
    mask[np.arange(3), pos] = False
    w = np.array([0.5, 1.0, 0.25])

    def build(sim):
        return ad.masked_info_nce(sim, pos, mask.copy(), 0.1, w)

    check_unary(build, sim0, h=1e-7, tol=1e-4)
    # row with no negatives contributes exactly zero
    mask0 = np.zeros((1, 2), dtype=bool)
    out = ad.masked_info_nce(ad.leaf(rng.normal(size=(1, 2))),
                             np.array([1]), mask0, 0.05, np.ones(1))
    assert out.item() == 0.0


def test_chamfer_grad_both_sides():
    x0 = rng.normal(size=(6, 3))
    y0 = rng.normal(size=(9, 3))
    x = ad.leaf(x0)
    y = ad.leaf(y0)
    out = ad.chamfer(x, y)
    out.backward()
    gx = numeric_grad(lambda a: ad.chamfer(ad.leaf(a), ad.leaf(y0)).item(),
                      x0.copy())
    gy = numeric_grad(lambda a: ad.chamfer(ad.leaf(x0), ad.leaf(a)).item(),
                      y0.copy())
    np.testing.assert_allclose(x.grad, gx, atol=1e-6)
    np.testing.assert_allclose(y.grad, gy, atol=1e-6)


def test_chamfer_self_is_exactly_zero():
    pts = rng.normal(size=(50, 3))
    assert ad.chamfer(ad.leaf(pts), ad.leaf(pts.copy())).item() == 0.0
    # also with duplicate rows
    big = np.concatenate([rng.normal(size=(200, 3))] * 2)
    assert ad.chamfer(ad.leaf(big), ad.leaf(big[::-1].copy())).item() == 0.0


def dense_chamfer(xd, yd):
    """The direct-difference reference: one dense matrix of squared
    distances summed in column order, argmin along both axes, gradients
    accumulated into zeroed buffers."""
    nx, ny = xd.shape[0], yd.shape[0]
    # row chunks keep the (rows, ny, d) difference small; each entry's
    # sum is the same whatever the chunk
    d2 = np.concatenate([((xd[i:i + 256, None] - yd[None]) ** 2).sum(-1)
                         for i in range(0, nx, 256)])
    nn_xy, nn_yx = d2.argmin(axis=1), d2.argmin(axis=0)
    dx, dy = xd - yd[nn_xy], yd - xd[nn_yx]
    val = (dx ** 2).sum(1).mean() + (dy ** 2).sum(1).mean()
    gx, gy = np.zeros_like(xd), np.zeros_like(yd)
    gx += 2.0 * dx / nx
    np.add.at(gy, nn_xy, -2.0 * dx / nx)
    gy += 2.0 * dy / ny
    np.add.at(gx, nn_yx, -2.0 * dy / ny)
    return val, nn_xy, nn_yx, gx, gy


def _nearest(xd, yd):
    """The kernel's neighbours in both directions, called as chamfer
    calls it."""
    nn = np.empty(len(xd) + len(yd), dtype=np.intp)
    kernels.load().chamfer(xd, len(xd), yd, len(yd), xd.shape[1],
                           np.empty(len(yd)), nn)
    return nn[:len(xd)], nn[len(xd):]


BLOCK = 1 << 15     # the *-block cases straddle 2^15 pairs


def _cloud(n, seed):
    return np.random.default_rng(seed).normal(size=(n, 3))


def _with_duplicates(n, seed):
    half = _cloud((n + 1) // 2, seed)
    return np.concatenate([half, half[::-1]])[:n]


def _lattice(n, offset):
    # integer and half-integer coordinates: every squared distance is
    # exact, so many tie exactly
    g = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"), -1)
    return g.reshape(-1, 3)[:n] + offset


def _diagonal(n, seed):
    return np.random.default_rng(seed).normal(size=(n, 1)).repeat(3, axis=1)


CHAMFER_CASES = {
    "below-block": (_cloud(100, 1), _cloud(BLOCK // 100 - 1, 2)),
    "at-block": (_cloud(128, 3), _cloud(BLOCK // 128, 4)),
    "above-block": (_cloud(129, 5), _cloud(BLOCK // 128, 6)),
    "1x5000": (_cloud(1, 7), _cloud(5000, 8)),
    "5000x1": (_cloud(5000, 9), _cloud(1, 10)),
    "3x40000": (_cloud(3, 11), _cloud(40000, 12)),
    "40000x3": (_cloud(40000, 13), _cloud(3, 14)),
    "duplicates-in-x": (_with_duplicates(300, 15), _cloud(200, 16)),
    "duplicates-in-y": (_cloud(300, 17), _with_duplicates(200, 18)),
    "duplicates-both": (_with_duplicates(301, 19), _with_duplicates(257, 20)),
    "lattice-ties": (_lattice(216, 0.0), _lattice(200, 0.5)),
    "lattice-ties-in-one-block": (_lattice(100, 0.0), _lattice(90, 0.5)),
    "duplicates-in-one-block": (_with_duplicates(60, 25),
                                _with_duplicates(41, 26)),
    "float32-origin": (_cloud(400, 21).astype(np.float32),
                       _cloud(300, 22).astype(np.float32)),
    # spread 1e-4 at distance 1e3: a Gram expansion (|x|^2 + |y|^2 -
    # 2x.y) would round away the differences that decide these argmins
    "far-from-origin": (_cloud(300, 23) * 1e-4 + 1e3,
                        _cloud(200, 24) * 1e-4 + 1e3),
    # x on the diagonal, and each row of y beside its reverse: a row's
    # distance to either sums the same three squares in another order, so
    # the column-order rounding, or a tie, decides every x-to-y argmin
    "column-order-sums": (_diagonal(100, 35),
                          np.concatenate([_cloud(150, 36),
                                          _cloud(150, 36)[:, ::-1]])),
    # the full-scale training step's detail and coarse shapes
    "2304x2304": (_cloud(2304, 27), _cloud(2304, 28)),
    "256x256": (_cloud(256, 29), _cloud(256, 30)),
}


@pytest.mark.parametrize("case", list(CHAMFER_CASES))
def test_chamfer_matches_dense_kernel_bit_for_bit(case):
    xd, yd = (np.asarray(a, dtype=np.float64) for a in CHAMFER_CASES[case])
    val, nn_xy, nn_yx, gx, gy = dense_chamfer(xd, yd)
    got_xy, got_yx = _nearest(xd, yd)
    np.testing.assert_array_equal(got_xy, nn_xy)
    np.testing.assert_array_equal(got_yx, nn_yx)
    x, y = ad.leaf(xd), ad.leaf(yd)
    out = ad.chamfer(x, y)
    out.backward()
    assert out.item() == val
    np.testing.assert_array_equal(x.grad, gx)
    np.testing.assert_array_equal(y.grad, gy)


def _lattice_points(d):
    # small integer coordinates: many squared distances tie exactly
    return st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                    min_size=1, max_size=12)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(_lattice_points(d), _lattice_points(d))),
       st.sampled_from([0.0, 0.5]), st.booleans())
@example(([[0]], [[1], [-1], [1]]), 0.0, False)     # 1 x n, tied
@example(([[1, 0], [0, 1], [1, 0]], [[0, 0]]), 0.0, False)      # n x 1
def test_chamfer_neighbours_equal_the_dense_argmins(xy, offset, dup):
    xd = np.asarray(xy[0], dtype=np.float64)
    yd = np.asarray(xy[1], dtype=np.float64) + offset
    if dup:     # every row of x twice, the copies last
        xd = np.concatenate([xd, xd])
    _, nn_xy, nn_yx, _, _ = dense_chamfer(xd, yd)
    got_xy, got_yx = _nearest(xd, yd)
    np.testing.assert_array_equal(got_xy, nn_xy)
    np.testing.assert_array_equal(got_yx, nn_yx)


@pytest.mark.parametrize("xs,ys", [((4, 3), (5, 2)), ((4, 2), (5, 4)),
                                   ((4,), (5, 3)), ((4, 3), (5, 3, 1))])
def test_chamfer_of_mismatched_shapes_raises(xs, ys):
    with pytest.raises(DimensionMismatch):
        ad.chamfer(ad.leaf(np.zeros(xs)), ad.leaf(np.zeros(ys)))


@pytest.mark.parametrize("nx,ny", [(0, 2), (2, 0), (0, 0)])
def test_chamfer_of_an_empty_set_raises(nx, ny):
    with pytest.raises(EmptySet):
        ad.chamfer(ad.leaf(np.zeros((nx, 3))), ad.leaf(np.zeros((ny, 3))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y", "both"])
def test_chamfer_of_non_finite_input_is_non_finite(bad, side):
    xd, yd = _cloud(20, 33), _cloud(15, 34)
    if side in ("x", "both"):
        xd[7, 1] = bad
    if side in ("y", "both"):
        yd[3, 2] = bad
    nn_xy, nn_yx = _nearest(xd, yd)
    assert 0 <= nn_xy.min() and nn_xy.max() < len(yd)
    assert 0 <= nn_yx.min() and nn_yx.max() < len(xd)
    # inf - inf is NaN, which numpy reports as an invalid value
    with np.errstate(invalid="ignore"):
        val = ad.chamfer(ad.leaf(xd), ad.leaf(yd)).item()
    assert not np.isfinite(val)


def test_diamond_graph_accumulates():
    # x feeds two branches that rejoin: grad must sum over both paths
    x = ad.leaf(np.array([[1.0, 2.0]]))
    y = ad.add(ad.wsum([x], [2.0]), ad.wsum([x], [3.0]))
    out = ad.chamfer(y, ad.constant(np.zeros((1, 2))))
    out.backward()
    # chamfer against a single zero point is 2|5x|^2, so d/dx = 100x
    np.testing.assert_allclose(x.grad, 100.0 * x.data)


def test_second_backward_rezeroes():
    x = ad.leaf(np.array([[3.0, 4.0]]))
    out = ad.chamfer(x, ad.constant(np.zeros((1, 2))))
    out.backward()
    first = x.grad.copy()
    out.backward()
    np.testing.assert_array_equal(x.grad, first)


def test_second_backward_identical_on_larger_graph():
    x = ad.leaf(rng.normal(size=(300, 3)))
    w1, b1 = ad.leaf(rng.normal(size=(3, 8))), ad.leaf(rng.normal(size=8))
    w2, b2 = ad.leaf(rng.normal(size=(8, 3))), ad.leaf(rng.normal(size=3))
    y = ad.mlp(x, [(w1, b1), (w2, b2)])
    out = ad.wsum([ad.chamfer(y, ad.constant(rng.normal(size=(250, 3)))),
                   ad.chamfer(y, x)], [1.0, 0.5])
    leaves = (x, w1, b1, w2, b2)
    out.backward()
    first = [v.grad for v in leaves]
    out.backward()
    for v, g in zip(leaves, first):
        assert v.grad is not g
        np.testing.assert_array_equal(v.grad, g)


def test_constants_get_no_gradient():
    c = ad.constant(rng.normal(size=(4, 3)))
    k = ad.relu(ad.add(c, ad.constant(np.ones(3))))   # only constants
    x = ad.leaf(rng.normal(size=(4, 3)))
    out = ad.chamfer(ad.add(x, ad.slice_cols(ad.concat_cols([k, k]), 0, 3)),
                     ad.constant(rng.normal(size=(6, 3))))
    assert not k.needs_grad and x.needs_grad and out.needs_grad
    out.backward()
    assert c.grad is None and k.grad is None
    assert isinstance(x.grad, np.ndarray) and np.any(x.grad != 0.0)


def test_unreached_leaf_gets_zero_gradient():
    # e's rows fall in no segment, so segment_max routes nothing back and
    # none of e, w and b receives a contribution
    e = ad.leaf(np.zeros((0, 3)))
    w = ad.leaf(rng.normal(size=(3, 3)))
    b = ad.leaf(rng.normal(size=3))
    empty = ad.segment_max(ad.linear(e, w, b), np.zeros(0, dtype=np.intp),
                           1)
    p = ad.leaf(rng.normal(size=(4, 3)))
    out = ad.chamfer(concat_rows([p, empty]),
                     ad.constant(rng.normal(size=(5, 3))))
    out.backward()
    for v in (e, w, b, p):
        assert isinstance(v.grad, np.ndarray) and v.grad.shape == v.shape
    np.testing.assert_array_equal(w.grad, np.zeros((3, 3)))
    np.testing.assert_array_equal(b.grad, np.zeros(3))
    assert np.any(p.grad != 0.0)


def test_gradients_hold_no_negative_zero():
    # relu passes g * False = -0.0 for a negative g; a zeroed buffer plus
    # -0.0 is +0.0, and the first contribution must be stored the same way
    x = ad.leaf(-np.abs(rng.normal(size=(5, 3))))
    out = ad.chamfer(ad.relu(x), ad.constant(np.ones((4, 3))))
    out.backward()
    assert not np.any(x.grad) and not np.any(np.signbit(x.grad))


def test_backward_requires_scalar():
    x = ad.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.relu(x).backward()


def test_wsum_weights():
    a = ad.leaf(np.asarray(2.0))
    b = ad.leaf(np.asarray(5.0))
    out = ad.wsum([a, b], [1.0, 0.1])
    assert out.item() == pytest.approx(2.5)
    out.backward()
    assert a.grad == pytest.approx(1.0)
    assert b.grad == pytest.approx(0.1)
