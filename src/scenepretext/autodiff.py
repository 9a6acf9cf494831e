"""Minimal reverse-mode automatic differentiation over numpy arrays.

The loss and decoder stack needs exact gradients with respect to every
parameter tensor, verified against central finite differences. Rather than
hand-deriving each chain, this module provides a tiny tape: a ``Var`` wraps a
float64 ndarray and remembers how to scatter its gradient to its parents.
Only the operations the pipeline actually uses are implemented.

All data is float64. A ``constant`` and every node computed only from
constants need no gradient: ``Var.backward()`` does not visit them and no
operation computes a gradient term for them, so their ``grad`` stays
``None``. ``backward()`` seeds a scalar root with 1 and walks the rest of
the tape in reverse topological order. A node's gradient buffer is created
at its first contribution and later ones are added to it, so a node may
feed several consumers; a node that nothing reaches is given zeros. Every
pass first resets the reachable subgraph, so a second ``backward()``, on
the same root or on another root of the same graph, starts from scratch.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import DimensionMismatch, EmptySet


class Var:
    __slots__ = ("data", "grad", "parents", "bwd", "needs_grad")

    def __init__(self, data, parents: tuple = (), bwd: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.bwd = bwd
        needs = not parents
        for p in parents:
            if p.needs_grad:
                needs = True
                break
        self.needs_grad = needs

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar root")
        order = _topo_order(self)
        for v in order:
            v.grad = None
        self.grad = np.ones_like(self.data)
        for v in reversed(order):
            if v.grad is None:
                v.grad = np.zeros_like(v.data)
            elif v.needs_grad and v.bwd is not None:
                v.bwd(v.grad)


def _topo_order(root: Var) -> list[Var]:
    """The root and every ancestor that needs a gradient, parents first."""
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.needs_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _accumulate(v: Var, g) -> None:
    """Add one gradient contribution to ``v``, creating its buffer first."""
    if v.grad is None:
        # 0.0 + g rather than a copy: it turns -0.0 into +0.0, exactly as
        # adding g to a zeroed buffer does
        v.grad = np.add(g, 0.0, out=np.empty_like(v.data))
    else:
        v.grad += g


def _grad_buffer(v: Var) -> np.ndarray:
    """``v``'s gradient buffer, zeroed on first use, for partial updates."""
    if v.grad is None:
        v.grad = np.zeros_like(v.data)
    return v.grad


def leaf(x) -> Var:
    return Var(x)


def constant(x) -> Var:
    """A Var that needs no gradient; neither does any node computed only
    from constants."""
    v = Var(x)
    v.needs_grad = False
    return v


def linear(x: Var, w: Var, b: Var) -> Var:
    """``x @ w + b`` as one node; ``b`` is a row vector broadcast over the
    rows. The bias is added into the product in place, so the layer keeps
    one output array instead of a product and a sum."""
    y = x.data @ w.data
    np.add(y, b.data, out=y)
    out = Var(y, (x, w, b))

    def bwd(g):
        if b.needs_grad:
            _accumulate(b, g.sum(axis=0))
        if x.needs_grad:
            _accumulate(x, g @ w.data.T)
        if w.needs_grad:
            _accumulate(w, x.data.T @ g)

    out.bwd = bwd
    return out


def fold(grid: np.ndarray, w_s: Var, f: Var, w2: Var) -> Var:
    """``relu(tile(grid) @ w_s + repeat_rows(f, r)) @ w2`` as one node,
    with r = len(grid): row i*r + j of the hidden layer is
    ``relu(grid[j] @ w_s + f[i])``.

    The hidden layer is the only (r*n, width) array the node keeps, with
    its ReLU mask; the grid product, the repeated f and the pre-activation
    are computed into it in place, and the backward pass uses one buffer
    of that size for the gradient through the ReLU. Values and gradients
    are bit-identical to the composition of matmul, repeat_rows, add and
    relu nodes.
    """
    r = grid.shape[0]
    n, width = f.data.shape
    tile = np.tile(grid, (n, 1))
    hidden = tile @ w_s.data
    pre = hidden.reshape(n, r, width)
    pre += f.data[:, None, :]
    mask = hidden > 0.0
    np.copyto(hidden, 0.0, where=~mask)
    out = Var(hidden @ w2.data, (w_s, f, w2))

    def bwd(g):
        if w2.needs_grad:
            _accumulate(w2, hidden.T @ g)
        if not (w_s.needs_grad or f.needs_grad):
            return
        # through the ReLU; a masked entry may be -0.0, where a relu node
        # stores +0.0, but the sign of a zero term cannot change a nonzero
        # sum, and _accumulate stores a zero sum as +0.0
        q = g @ w2.data.T
        q *= mask
        if w_s.needs_grad:
            _accumulate(w_s, tile.T @ q)
        if f.needs_grad:
            _accumulate(f, q.reshape(n, r, width).sum(axis=1))

    out.bwd = bwd
    return out


def matmul_nt(a: Var, b: Var) -> Var:
    """a @ b.T without materializing a transposed Var."""
    out = Var(a.data @ b.data.T, (a, b))

    def bwd(g):
        if a.needs_grad:
            _accumulate(a, g @ b.data)
        if b.needs_grad:
            _accumulate(b, g.T @ a.data)

    out.bwd = bwd
    return out


def add(a: Var, b: Var) -> Var:
    """Elementwise add; b may be a 1-d row vector broadcast over a's rows."""
    broadcast = b.data.ndim == 1 and a.data.ndim == 2
    out = Var(a.data + b.data, (a, b))

    def bwd(g):
        if a.needs_grad:
            _accumulate(a, g)
        if b.needs_grad:
            _accumulate(b, g.sum(axis=0) if broadcast else g)

    out.bwd = bwd
    return out


def relu(a: Var) -> Var:
    mask = a.data > 0.0
    out = Var(np.where(mask, a.data, 0.0), (a,))

    def bwd(g):
        _accumulate(a, g * mask)

    out.bwd = bwd
    return out


def wsum(terms: Sequence[Var], weights: Sequence[float] | None = None) -> Var:
    """Weighted sum of same-shape Vars (used for scalar loss combinations)."""
    if weights is None:
        weights = [1.0] * len(terms)
    ws = [float(w) for w in weights]
    acc = terms[0].data * ws[0]
    for t, w in zip(terms[1:], ws[1:]):
        acc = acc + t.data * w
    out = Var(acc, tuple(terms))

    def bwd(g):
        for t, w in zip(terms, ws):
            if t.needs_grad:
                _accumulate(t, g * w)

    out.bwd = bwd
    return out


def concat_cols(parts: Sequence[Var]) -> Var:
    widths = [p.data.shape[1] for p in parts]
    out = Var(np.concatenate([p.data for p in parts], axis=1), tuple(parts))

    def bwd(g):
        j = 0
        for p, w in zip(parts, widths):
            if p.needs_grad:
                _accumulate(p, g[:, j:j + w])
            j += w

    out.bwd = bwd
    return out


def slice_cols(a: Var, j0: int, j1: int) -> Var:
    out = Var(a.data[:, j0:j1].copy(), (a,))

    def bwd(g):
        _grad_buffer(a)[:, j0:j1] += g

    out.bwd = bwd
    return out


def slice_rows(a: Var, i0: int, i1: int) -> Var:
    # rows of a C-ordered array are contiguous, so a view needs no copy
    out = Var(a.data[i0:i1], (a,))

    def bwd(g):
        _grad_buffer(a)[i0:i1] += g

    out.bwd = bwd
    return out


def repeat_rows(a: Var, r: int) -> Var:
    """Each row of ``a`` repeated ``r`` times in place, as
    ``np.repeat(a, r, axis=0)``; row i*r + j of the result is row i."""
    n, d = a.data.shape
    out = Var(np.repeat(a.data, r, axis=0), (a,))

    def bwd(g):
        _accumulate(a, g.reshape(n, r, d).sum(axis=1))

    out.bwd = bwd
    return out


def gather_rows(a: Var, idx: np.ndarray) -> Var:
    idx = np.asarray(idx, dtype=np.intp)
    out = Var(a.data[idx], (a,))

    def bwd(g):
        np.add.at(_grad_buffer(a), idx, g)

    out.bwd = bwd
    return out


def segment_mean(a: Var, seg: np.ndarray, n_seg: int) -> Var:
    """Per-segment arithmetic mean of rows. Every segment must be non-empty."""
    seg = np.asarray(seg, dtype=np.intp)
    counts = np.bincount(seg, minlength=n_seg).astype(np.float64)
    if np.any(counts == 0):
        raise ValueError("segment_mean: empty segment")
    sums = np.zeros((n_seg, a.data.shape[1]))
    np.add.at(sums, seg, a.data)
    out = Var(sums / counts[:, None], (a,))

    def bwd(g):
        _accumulate(a, g[seg] / counts[seg, None])

    out.bwd = bwd
    return out


def segment_max(a: Var, seg: np.ndarray, n_seg: int) -> Var:
    """Per-segment columnwise max; gradient routes to the first argmax row.

    An empty segment (an object none of whose points were sampled) yields a
    zero row and routes no gradient.
    """
    seg = np.asarray(seg, dtype=np.intp)
    d = a.data.shape[1]
    out_data = np.zeros((n_seg, d))
    filled = []
    winners = []
    for k in range(n_seg):
        rows = np.nonzero(seg == k)[0]
        if rows.size == 0:
            continue
        sub = a.data[rows]
        arg = sub.argmax(axis=0)
        out_data[k] = sub[arg, np.arange(d)]
        filled.append(k)
        winners.append(rows[arg])
    out = Var(out_data, (a,))

    def bwd(g):
        if not filled:
            return
        cols = np.tile(np.arange(d), len(filled))
        np.add.at(_grad_buffer(a), (np.concatenate(winners), cols),
                  g[filled].ravel())

    out.bwd = bwd
    return out


def l2_normalize_rows(a: Var) -> Var:
    norms = np.sqrt((a.data ** 2).sum(axis=1, keepdims=True))
    norms = np.maximum(norms, 1e-12)  # a zero row stays zero
    y = a.data / norms
    out = Var(y, (a,))

    def bwd(g):
        _accumulate(a, (g - y * (g * y).sum(axis=1, keepdims=True)) / norms)

    out.bwd = bwd
    return out


def masked_info_nce(sim: Var, pos_idx: np.ndarray, neg_mask: np.ndarray,
                    tau: float, row_weights: np.ndarray) -> Var:
    """Weighted sum of InfoNCE rows over a similarity matrix.

    Row i scores anchor i against every column: the positive is column
    ``pos_idx[i]`` and the candidate negatives are the True entries of
    ``neg_mask[i]``. Returns sum_i row_weights[i] * (-log softmax_pos).
    A row with no allowed negatives contributes exactly 0.
    """
    pos_idx = np.asarray(pos_idx, dtype=np.intp)
    n = sim.data.shape[0]
    rows = np.arange(n)
    logits = sim.data / tau
    allowed = neg_mask.copy()
    allowed[rows, pos_idx] = True
    z = np.where(allowed, logits, -np.inf)
    m = z.max(axis=1)
    expz = np.where(allowed, np.exp(z - m[:, None]), 0.0)
    lse = m + np.log(expz.sum(axis=1))
    losses = lse - logits[rows, pos_idx]
    w = np.asarray(row_weights, dtype=np.float64)
    out = Var(np.asarray((w * losses).sum()), (sim,))

    def bwd(g):
        p = expz / expz.sum(axis=1, keepdims=True)
        d = p
        d[rows, pos_idx] -= 1.0
        _accumulate(sim, (float(g) / tau) * w[:, None] * d)

    out.bwd = bwd
    return out


def _neighbours(xd: np.ndarray, yd: np.ndarray):
    """The nearest row of yd to each row of xd, and of xd to each row of
    yd, from the kernel ``chamfer``, given C-contiguous (n, d) float64
    sets of one d with a row each at least."""
    nx, ny = xd.shape[0], yd.shape[0]
    nn = np.empty(nx + ny, dtype=np.intp)
    if kernels.load().chamfer(xd, nx, yd, ny, xd.shape[1], nn):
        raise MemoryError(f"no scratch for Chamfer of {nx} x {ny} rows")
    return nn[:nx], nn[nx:]


def chamfer(x: Var, y: Var) -> Var:
    """Two-sided mean squared nearest-neighbor distance between point sets.

    x and y are nonempty (n, d) sets of one d, else DimensionMismatch or
    EmptySet. The kernel ``chamfer`` in ``kernels.c`` finds the neighbors
    in both directions through two k-d trees, one over each set, with
    leaves of at most ``chamfer_leaf`` rows and a bounding box per node,
    allocated as one block per call; MemoryError if it cannot be. Each
    squared distance is summed in column order, as in
    ``((x[:, None] - y[None]) ** 2).sum(-1)``, under ``kernels.FLAGS`` (no
    fused multiply-add), and candidates compare by (squared distance, row
    index), so both are bit for bit that dense matrix's argmins, ties to
    the lowest index. The search is exact: a node's bound is rounded step
    by step as a distance is, from per-axis gaps no larger than any of its
    rows' differences, so it never exceeds a computed distance to one of
    them, and a node is skipped only when its bound is strictly greater
    than the best distance so far, which keeps every tie in play. The
    selected pair distances are then recomputed from coordinate
    differences, so chamfer(X, X) is exactly zero, and a NaN or infinite
    coordinate gives a non-finite value.
    """
    xd, yd = np.ascontiguousarray(x.data), np.ascontiguousarray(y.data)
    if xd.ndim != 2 or yd.ndim != 2 or xd.shape[1] != yd.shape[1]:
        raise DimensionMismatch(f"chamfer between point sets of shapes "
                                f"{xd.shape} and {yd.shape}")
    if xd.size == 0 or yd.size == 0:
        raise EmptySet(f"chamfer with an empty point set: shapes "
                       f"{xd.shape} and {yd.shape}")
    nx, ny = xd.shape[0], yd.shape[0]
    nn_xy, nn_yx = _neighbours(xd, yd)
    dx = xd - yd[nn_xy]
    dy = yd - xd[nn_yx]
    # sum / n is what ndarray.mean computes, without its Python overhead
    val = (dx ** 2).sum(1).sum() / nx + (dy ** 2).sum(1).sum() / ny
    out = Var(np.asarray(val), (x, y))

    def bwd(g):
        g = float(g)
        if x.needs_grad:
            _accumulate(x, g * 2.0 * dx / nx)
        if y.needs_grad:
            np.add.at(_grad_buffer(y), nn_xy, -g * 2.0 * dx / nx)
            _accumulate(y, g * 2.0 * dy / ny)
        if x.needs_grad:
            np.add.at(x.grad, nn_yx, -g * 2.0 * dy / ny)

    out.bwd = bwd
    return out


def mlp(x: Var, layers: Sequence[tuple[Var, Var]]) -> Var:
    """Shared MLP applied row-wise: ReLU between layers, linear output."""
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = linear(h, w, b)
        if i != last:
            h = relu(h)
    return h
