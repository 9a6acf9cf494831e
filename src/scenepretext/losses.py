"""Pretext-task losses with analytic gradients.

Three objectives over a batch of paired scenes:

* object-level InfoNCE between per-instance pooled features of the two
  scenes, with negatives restricted to instances of *different categories*
  anywhere in the batch (both scenes of every pair);
* point-level InfoNCE between matched seed-point features, with negatives
  drawn from matched endpoints on *different objects* across the batch;
* two-level Chamfer reconstruction (coarse and detail completions against
  downsampled ground truths);

combined as  overall = obj + lambda_pts * pts + lambda_rec * rec.

Features are L2-normalized immediately before every dot product; pooled
instance features are the arithmetic mean of the raw projected rows. Both
InfoNCE losses are symmetric: each matched pair contributes an A-anchored
and a B-anchored term, and the terms are summed. Degenerate cases (no
negatives, no matches) contribute exactly zero rather than raising.

Gradient support: every public loss returns analytic gradients with respect
to the per-scene projected features, computed on the same tape the decoder
stack uses end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .correspondence import MatchSet
from .errors import EmptyBatch, EmptySet, NonFiniteInput

DEFAULT_TAU = 0.03
DEFAULT_LAMBDA_PTS = 0.1
DEFAULT_LAMBDA_REC = 100.0


@dataclass(frozen=True)
class PairFeatures:
    """Projected point features of one scene pair.

    ``h_a``/``h_b`` are the (n, d) projected features of the two scenes'
    seed points, ``object_ids_*`` give each row's owning instance, and
    ``categories[k]`` is instance k's category id (the draw is shared, so
    one list serves both sides).
    """

    h_a: np.ndarray
    h_b: np.ndarray
    object_ids_a: np.ndarray
    object_ids_b: np.ndarray
    categories: np.ndarray

    def __post_init__(self):
        for name in ("h_a", "h_b"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if not np.isfinite(arr).all():
                raise NonFiniteInput(f"{name} contains non-finite values")
        object.__setattr__(self, "object_ids_a",
                           np.asarray(self.object_ids_a, dtype=np.intp))
        object.__setattr__(self, "object_ids_b",
                           np.asarray(self.object_ids_b, dtype=np.intp))
        object.__setattr__(self, "categories",
                           np.asarray(self.categories, dtype=np.intp))


@dataclass(frozen=True)
class FeatureBatch:
    pairs: tuple[PairFeatures, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise EmptyBatch("no scene pairs")
        d = self.pairs[0].h_a.shape[1]
        for i, p in enumerate(self.pairs):
            if p.h_a.shape[1] != d or p.h_b.shape[1] != d:
                raise EmptyBatch(f"pair {i}: feature dim differs from pair 0")


@dataclass
class LossReport:
    """All loss terms of one batch plus optional per-term gradients."""

    l_obj: float
    l_pts: float
    l_rec_coarse: float
    l_rec_detail: float
    l_overall: float
    lambda_pts: float
    lambda_rec: float
    counts: dict = field(default_factory=dict)
    gradients: dict | None = None   # term -> {param name -> ndarray}

    def to_json_dict(self) -> dict:
        doc = {
            "l_obj": self.l_obj,
            "l_pts": self.l_pts,
            "l_rec_coarse": self.l_rec_coarse,
            "l_rec_detail": self.l_rec_detail,
            "l_overall": self.l_overall,
            "lambda_pts": self.lambda_pts,
            "lambda_rec": self.lambda_rec,
            "counts": dict(self.counts),
        }
        if self.gradients is not None:
            doc["gradient_norms"] = {
                term: {name: float(np.linalg.norm(g)) for name, g in gs.items()}
                for term, gs in self.gradients.items()
            }
        return doc


def info_nce_pairwise(anchor: np.ndarray, positive: np.ndarray,
                      negatives: Sequence[np.ndarray], tau: float) -> float:
    """Single-anchor InfoNCE: -log softmax of the positive similarity.

    Inputs are expected L2-normalized by the caller. With no negatives the
    loss is exactly 0.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    anchor = np.asarray(anchor, dtype=np.float64)
    positive = np.asarray(positive, dtype=np.float64)
    negs = np.asarray(list(negatives), dtype=np.float64)
    if not (np.isfinite(anchor).all() and np.isfinite(positive).all()
            and np.isfinite(negs).all()):
        raise NonFiniteInput("non-finite feature")
    s_pos = float(anchor @ positive) / tau
    if negs.size == 0:
        return 0.0
    logits = np.concatenate([[s_pos], negs @ anchor / tau])
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    return float(lse - s_pos)


def _pooled_normalized(h: ad.Var, obj_ids: np.ndarray,
                       keep: np.ndarray) -> ad.Var:
    """Mean-pool rows per kept instance, then L2-normalize the pools."""
    pos = {int(k): i for i, k in enumerate(keep)}
    rows = np.nonzero(np.isin(obj_ids, keep))[0]
    seg = np.array([pos[int(obj_ids[r])] for r in rows], dtype=np.intp)
    pooled = ad.segment_mean(ad.gather_rows(h, rows), seg, len(keep))
    return ad.l2_normalize_rows(pooled)


def _feature_grads(loss: ad.Var, h_vars: Sequence[tuple[ad.Var, ad.Var]]
                   ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate ``loss``; per pair, the gradients of (h_a, h_b).

    A feature the loss does not reach (a pair without common instances or
    without matches, or a degenerate loss) gets a zero gradient.
    """
    loss.backward()
    return [tuple(v.grad if v.grad is not None else np.zeros_like(v.data)
                  for v in pair) for pair in h_vars]


def object_level_graph(h_vars: Sequence[tuple[ad.Var, ad.Var]],
                       batch: FeatureBatch, tau: float
                       ) -> tuple[ad.Var, dict]:
    """Tape for the object-level loss; returns (scalar Var, counts)."""
    pool_parts: list[ad.Var] = []
    meta_pair: list[int] = []
    meta_side: list[int] = []
    meta_k: list[int] = []
    meta_cat: list[int] = []
    for p_idx, (pf, (va, vb)) in enumerate(zip(batch.pairs, h_vars)):
        present = np.intersect1d(np.unique(pf.object_ids_a),
                                 np.unique(pf.object_ids_b))
        if present.size == 0:
            continue
        for side, (v, ids) in enumerate(((va, pf.object_ids_a),
                                         (vb, pf.object_ids_b))):
            pool_parts.append(_pooled_normalized(v, ids, present))
            meta_pair += [p_idx] * present.size
            meta_side += [side] * present.size
            meta_k += [int(k) for k in present]
            meta_cat += [int(pf.categories[k]) for k in present]
    if not pool_parts:
        return ad.constant(0.0), {"anchors": 0, "pool": 0}
    pool = ad.concat_rows(pool_parts)
    pair_arr = np.array(meta_pair)
    side_arr = np.array(meta_side)
    k_arr = np.array(meta_k)
    cat_arr = np.array(meta_cat)
    n = pool.data.shape[0]
    # positive of row i is the same (pair, instance) on the other side
    pos_idx = np.empty(n, dtype=np.intp)
    lookup = {(p, s, k): i for i, (p, s, k)
              in enumerate(zip(meta_pair, meta_side, meta_k))}
    for i in range(n):
        pos_idx[i] = lookup[(meta_pair[i], 1 - meta_side[i], meta_k[i])]
    neg_mask = cat_arr[None, :] != cat_arr[:, None]
    # each pair's rows carry 1/K_p, and the batch averages over pairs
    per_pair_k = {p: int((pair_arr == p).sum() // 2)
                  for p in np.unique(pair_arr)}
    weights = np.array([1.0 / (len(batch.pairs) * per_pair_k[p])
                        for p in meta_pair])
    sim = ad.matmul_nt(pool, pool)
    loss = ad.masked_info_nce(sim, pos_idx, neg_mask, tau, weights)
    counts = {"anchors": n, "pool": n,
              "mean_negatives": float(neg_mask.sum(axis=1).mean())}
    return loss, counts


def object_level_loss(batch: FeatureBatch, tau: float = DEFAULT_TAU
                      ) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Object-level InfoNCE over pooled instance features.

    Returns the scalar loss and, per pair, the gradients with respect to
    (h_a, h_b).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    h_vars = [(ad.leaf(p.h_a), ad.leaf(p.h_b)) for p in batch.pairs]
    loss, _ = object_level_graph(h_vars, batch, tau)
    return loss.item(), _feature_grads(loss, h_vars)


def point_level_graph(h_vars: Sequence[tuple[ad.Var, ad.Var]],
                      batch: FeatureBatch, matches: Sequence[MatchSet],
                      tau: float) -> tuple[ad.Var, dict]:
    """Tape for the point-level loss; returns (scalar Var, counts).

    Anchors are both endpoints of every kept match; the candidate pool is
    the deduplicated set of matched endpoints, and negatives for an anchor
    are pool entries on a different (pair, object).
    """
    if len(matches) != len(batch.pairs):
        raise ValueError("one MatchSet required per pair")
    pool_parts: list[ad.Var] = []
    pool_obj: list[tuple[int, int]] = []
    pool_pos: dict[tuple[int, int, int], int] = {}
    normalized = [(ad.l2_normalize_rows(va), ad.l2_normalize_rows(vb))
                  for va, vb in h_vars]
    offset = 0
    for p_idx, (pf, ms) in enumerate(zip(batch.pairs, matches)):
        if len(ms) == 0:
            continue
        na, nb = normalized[p_idx]
        ends = sorted(
            {(0, int(i)) for i in ms.a_indices}
            | {(1, int(j)) for j in ms.b_indices})
        rows_a = [i for s, i in ends if s == 0]
        rows_b = [i for s, i in ends if s == 1]
        if rows_a:
            pool_parts.append(ad.gather_rows(na, np.array(rows_a)))
        if rows_b:
            pool_parts.append(ad.gather_rows(nb, np.array(rows_b)))
        for s, i in [(0, i) for i in rows_a] + [(1, i) for i in rows_b]:
            ids = pf.object_ids_a if s == 0 else pf.object_ids_b
            pool_pos[(p_idx, s, i)] = offset
            pool_obj.append((p_idx, int(ids[i])))
            offset += 1
    total_matches = sum(len(ms) for ms in matches)
    if total_matches == 0:
        return ad.constant(0.0), {"matches": 0, "pool": 0}

    # anchor row order: [pair0 A-anchors, pair0 B-anchors, pair1 A-anchors, ...]
    anchor_parts: list[ad.Var] = []
    pos_idx: list[int] = []
    anchor_obj: list[tuple[int, int]] = []
    weights: list[float] = []
    n_pairs = len(batch.pairs)
    for p_idx, ms in enumerate(matches):
        if len(ms) == 0:
            continue
        na, nb = normalized[p_idx]
        anchor_parts.append(ad.gather_rows(na, ms.a_indices))
        anchor_parts.append(ad.gather_rows(nb, ms.b_indices))
        w = 1.0 / (n_pairs * len(ms))
        for b_i, obj in zip(ms.b_indices, ms.object_ids):
            pos_idx.append(pool_pos[(p_idx, 1, int(b_i))])
            anchor_obj.append((p_idx, int(obj)))
            weights.append(w)
        for a_i, obj in zip(ms.a_indices, ms.object_ids):
            pos_idx.append(pool_pos[(p_idx, 0, int(a_i))])
            anchor_obj.append((p_idx, int(obj)))
            weights.append(w)
    anchors = ad.concat_rows(anchor_parts)
    pool = ad.concat_rows(pool_parts)
    a_obj = np.array(anchor_obj, dtype=np.intp)
    p_obj = np.array(pool_obj, dtype=np.intp)
    neg_mask = (a_obj[:, None, 0] != p_obj[None, :, 0]) \
        | (a_obj[:, None, 1] != p_obj[None, :, 1])
    sim = ad.matmul_nt(anchors, pool)
    loss = ad.masked_info_nce(sim, np.array(pos_idx, dtype=np.intp),
                              neg_mask, tau, np.array(weights))
    counts = {"matches": total_matches, "pool": len(pool_obj),
              "mean_negatives": float(neg_mask.sum(axis=1).mean())}
    return loss, counts


def point_level_loss(batch: FeatureBatch, matches: Sequence[MatchSet],
                     tau: float = DEFAULT_TAU
                     ) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Point-level InfoNCE over matched seed features; see point_level_graph.

    A batch with no matches at all is degenerate and yields loss 0 with
    zero gradients.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    h_vars = [(ad.leaf(p.h_a), ad.leaf(p.h_b)) for p in batch.pairs]
    loss, _ = point_level_graph(h_vars, batch, matches, tau)
    return loss.item(), _feature_grads(loss, h_vars)


def chamfer_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Symmetric mean squared nearest-neighbor distance between point sets."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise EmptySet("chamfer_distance requires nonempty sets")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteInput("non-finite coordinates")
    return ad.chamfer(ad.leaf(x), ad.leaf(y)).item()


def reconstruction_loss(y_coarse: np.ndarray, y_detail: np.ndarray,
                        gt_coarse: np.ndarray, gt_detail: np.ndarray
                        ) -> tuple[float, float, float]:
    """Chamfer terms for the coarse and detail completions plus their sum."""
    l_coarse = chamfer_distance(y_coarse, gt_coarse)
    l_detail = chamfer_distance(y_detail, gt_detail)
    return l_coarse, l_detail, l_coarse + l_detail


def overall_loss(l_obj: float, l_pts: float, l_rec: float,
                 lambda_pts: float = DEFAULT_LAMBDA_PTS,
                 lambda_rec: float = DEFAULT_LAMBDA_REC) -> float:
    """Weighted sum of the three pretext losses."""
    if lambda_pts < 0 or lambda_rec < 0:
        raise ValueError("loss weights must be nonnegative")
    return l_obj + lambda_pts * l_pts + lambda_rec * l_rec
