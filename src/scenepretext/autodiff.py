"""Minimal reverse-mode automatic differentiation over numpy arrays.

The loss and decoder stack needs exact gradients with respect to every
parameter tensor, verified against central finite differences. Rather than
hand-deriving each chain, this module provides a tiny tape: a ``Var`` wraps a
float64 ndarray and remembers how to scatter its gradient to its parents.
Only the operations the pipeline actually uses are implemented.

All data is float64. Gradients are accumulated (``+=``), so a node may feed
several consumers. ``Var.backward()`` seeds a scalar root with 1 and walks
the tape in reverse topological order; calling it on a second root of the
same graph re-zeroes the reachable subgraph first.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class Var:
    __slots__ = ("data", "grad", "parents", "bwd")

    def __init__(self, data, parents: tuple = (), bwd: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.bwd = bwd

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
            v.grad = np.zeros_like(v.data)
        self.grad = np.ones_like(self.data)
        for v in reversed(order):
            if v.bwd is not None:
                v.bwd(v.grad)


def _topo_order(root: Var) -> list[Var]:
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
            if id(p) not in seen:
                stack.append((p, False))
    return order


def leaf(x) -> Var:
    return Var(x)


def constant(x) -> Var:
    # identical to leaf; the name documents intent at call sites
    return Var(x)


def matmul(a: Var, b: Var) -> Var:
    out = Var(a.data @ b.data, (a, b))

    def bwd(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    out.bwd = bwd
    return out


def matmul_nt(a: Var, b: Var) -> Var:
    """a @ b.T without materializing a transposed Var."""
    out = Var(a.data @ b.data.T, (a, b))

    def bwd(g):
        a.grad += g @ b.data
        b.grad += g.T @ a.data

    out.bwd = bwd
    return out


def add(a: Var, b: Var) -> Var:
    """Elementwise add; b may be a 1-d row vector broadcast over a's rows."""
    broadcast = b.data.ndim == 1 and a.data.ndim == 2
    out = Var(a.data + b.data, (a, b))

    def bwd(g):
        a.grad += g
        b.grad += g.sum(axis=0) if broadcast else g

    out.bwd = bwd
    return out


def relu(a: Var) -> Var:
    mask = a.data > 0.0
    out = Var(np.where(mask, a.data, 0.0), (a,))

    def bwd(g):
        a.grad += g * mask

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
            t.grad += g * w

    out.bwd = bwd
    return out


def concat_cols(parts: Sequence[Var]) -> Var:
    widths = [p.data.shape[1] for p in parts]
    out = Var(np.concatenate([p.data for p in parts], axis=1), tuple(parts))

    def bwd(g):
        j = 0
        for p, w in zip(parts, widths):
            p.grad += g[:, j:j + w]
            j += w

    out.bwd = bwd
    return out


def concat_rows(parts: Sequence[Var]) -> Var:
    heights = [p.data.shape[0] for p in parts]
    out = Var(np.concatenate([p.data for p in parts], axis=0), tuple(parts))

    def bwd(g):
        i = 0
        for p, h in zip(parts, heights):
            p.grad += g[i:i + h]
            i += h

    out.bwd = bwd
    return out


def slice_cols(a: Var, j0: int, j1: int) -> Var:
    out = Var(a.data[:, j0:j1].copy(), (a,))

    def bwd(g):
        a.grad[:, j0:j1] += g

    out.bwd = bwd
    return out


def gather_rows(a: Var, idx: np.ndarray) -> Var:
    idx = np.asarray(idx, dtype=np.intp)
    out = Var(a.data[idx], (a,))

    def bwd(g):
        np.add.at(a.grad, idx, g)

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
        a.grad += g[seg] / counts[seg, None]

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
        np.add.at(a.grad, (np.concatenate(winners), cols),
                  g[filled].ravel())

    out.bwd = bwd
    return out


def l2_normalize_rows(a: Var, eps: float = 1e-12) -> Var:
    norms = np.sqrt((a.data ** 2).sum(axis=1, keepdims=True))
    norms = np.maximum(norms, eps)
    y = a.data / norms
    out = Var(y, (a,))

    def bwd(g):
        a.grad += (g - y * (g * y).sum(axis=1, keepdims=True)) / norms

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
        sim.grad += (float(g) / tau) * w[:, None] * d

    out.bwd = bwd
    return out


def chamfer(x: Var, y: Var) -> Var:
    """Two-sided mean squared nearest-neighbor distance between point sets.

    Nearest neighbors are found via the Gram expansion for speed, then the
    selected pair distances are recomputed exactly from coordinate
    differences, so chamfer(X, X) is exactly zero.
    """
    xd, yd = x.data, y.data
    nx, ny = xd.shape[0], yd.shape[0]
    d2 = (xd ** 2).sum(1)[:, None] + (yd ** 2).sum(1)[None, :] - 2.0 * (xd @ yd.T)
    nn_xy = d2.argmin(axis=1)
    nn_yx = d2.argmin(axis=0)
    dx = xd - yd[nn_xy]
    dy = yd - xd[nn_yx]
    val = (dx ** 2).sum(1).mean() + (dy ** 2).sum(1).mean()
    out = Var(np.asarray(val), (x, y))

    def bwd(g):
        g = float(g)
        x.grad += g * 2.0 * dx / nx
        np.add.at(y.grad, nn_xy, -g * 2.0 * dx / nx)
        y.grad += g * 2.0 * dy / ny
        np.add.at(x.grad, nn_yx, -g * 2.0 * dy / ny)

    out.bwd = bwd
    return out


def mlp(x: Var, layers: Sequence[tuple[Var, Var]]) -> Var:
    """Shared MLP applied row-wise: ReLU between layers, linear output."""
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = add(matmul(h, w), b)
        if i != last:
            h = relu(h)
    return h
