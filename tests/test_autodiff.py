"""Finite-difference verification of every autodiff primitive."""

import numpy as np
import pytest

from scenepretext import autodiff as ad


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


def test_matmul_grad():
    a0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=(3, 5))
    b = ad.leaf(b0)

    def build(a):
        out = ad.matmul(a, b)
        return ad.chamfer(out, ad.constant(np.zeros((1, 5))))

    check_unary(build, a0)


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
