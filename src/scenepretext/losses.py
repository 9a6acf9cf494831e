"""Contrastive graphs of the pretext objectives, and plain Chamfer.

`decoder.forward_backward` builds three objectives over a batch of paired
scenes on one autodiff tape:

* object-level InfoNCE between per-instance pooled features of the two
  scenes, with negatives restricted to instances of *different categories*
  anywhere in the batch (both scenes of every pair);
* point-level InfoNCE between matched seed-point features, with negatives
  drawn from matched endpoints on *different objects* across the batch;
* two-level Chamfer reconstruction (coarse and detail completions against
  downsampled ground truths);

combined as  overall = obj + lambda_pts * pts + lambda_rec * rec. This
module holds the two InfoNCE graph builders, which take each pair's
projected feature Vars with the object ids, categories and matches of its
`PreparedPair`, plus `chamfer_distance` on plain arrays.

Features are L2-normalized immediately before every dot product; pooled
instance features are the arithmetic mean of the raw projected rows. Both
InfoNCE losses are symmetric: each matched pair contributes an A-anchored
and a B-anchored term, and the terms are summed. Degenerate cases (no
negatives, no matches) contribute exactly zero rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .correspondence import MatchSet
from .errors import EmptySet, NonFiniteInput

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


def _pooled_normalized(h: ad.Var, obj_ids: np.ndarray,
                       keep: np.ndarray) -> ad.Var:
    """Mean-pool rows per kept instance, then L2-normalize the pools."""
    pos = {int(k): i for i, k in enumerate(keep)}
    rows = np.nonzero(np.isin(obj_ids, keep))[0]
    seg = np.array([pos[int(obj_ids[r])] for r in rows], dtype=np.intp)
    pooled = ad.segment_mean(ad.gather_rows(h, rows), seg, len(keep))
    return ad.l2_normalize_rows(pooled)


def object_level_graph(h_vars: Sequence[tuple[ad.Var, ad.Var]],
                       object_ids: Sequence[tuple[np.ndarray, np.ndarray]],
                       categories: Sequence[np.ndarray], tau: float
                       ) -> tuple[ad.Var, dict]:
    """Tape for the object-level loss; returns (scalar Var, counts).

    Per pair: ``h_vars`` holds the (h_a, h_b) features, ``object_ids`` the
    owning instance of each of their rows, and ``categories[k]`` is
    instance k's category id (the draw is shared by both sides).
    """
    pool_parts: list[ad.Var] = []
    meta_pair: list[int] = []
    meta_side: list[int] = []
    meta_k: list[int] = []
    meta_cat: list[int] = []
    for p_idx, ((va, vb), (ids_a, ids_b), cats) in enumerate(
            zip(h_vars, object_ids, categories)):
        present = np.intersect1d(np.unique(ids_a), np.unique(ids_b))
        if present.size == 0:
            continue
        for side, (v, ids) in enumerate(((va, ids_a), (vb, ids_b))):
            pool_parts.append(_pooled_normalized(v, ids, present))
            meta_pair += [p_idx] * present.size
            meta_side += [side] * present.size
            meta_k += [int(k) for k in present]
            meta_cat += [int(cats[k]) for k in present]
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
    weights = np.array([1.0 / (len(h_vars) * per_pair_k[p])
                        for p in meta_pair])
    sim = ad.matmul_nt(pool, pool)
    loss = ad.masked_info_nce(sim, pos_idx, neg_mask, tau, weights)
    counts = {"anchors": n, "pool": n,
              "mean_negatives": float(neg_mask.sum(axis=1).mean())}
    return loss, counts


def point_level_graph(h_vars: Sequence[tuple[ad.Var, ad.Var]],
                      object_ids: Sequence[tuple[np.ndarray, np.ndarray]],
                      matches: Sequence[MatchSet],
                      tau: float) -> tuple[ad.Var, dict]:
    """Tape for the point-level loss; returns (scalar Var, counts).

    Per pair, ``object_ids`` gives the owning instance of each row of the
    (h_a, h_b) features and ``matches`` indexes those rows. Anchors are
    both endpoints of every kept match; the candidate pool is the
    deduplicated set of matched endpoints, and negatives for an anchor are
    pool entries on a different (pair, object).
    """
    if len(matches) != len(h_vars):
        raise ValueError("one MatchSet required per pair")
    pool_parts: list[ad.Var] = []
    pool_obj: list[tuple[int, int]] = []
    pool_pos: dict[tuple[int, int, int], int] = {}
    normalized = [(ad.l2_normalize_rows(va), ad.l2_normalize_rows(vb))
                  for va, vb in h_vars]
    offset = 0
    for p_idx, (ids_ab, ms) in enumerate(zip(object_ids, matches)):
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
            pool_pos[(p_idx, s, i)] = offset
            pool_obj.append((p_idx, int(ids_ab[s][i])))
            offset += 1
    total_matches = sum(len(ms) for ms in matches)
    if total_matches == 0:
        return ad.constant(0.0), {"matches": 0, "pool": 0}

    # anchor row order: [pair0 A-anchors, pair0 B-anchors, pair1 A-anchors, ...]
    anchor_parts: list[ad.Var] = []
    pos_idx: list[int] = []
    anchor_obj: list[tuple[int, int]] = []
    weights: list[float] = []
    n_pairs = len(h_vars)
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


def chamfer_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Symmetric mean squared nearest-neighbor distance between point sets."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise EmptySet("chamfer_distance requires nonempty sets")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteInput("non-finite coordinates")
    return ad.chamfer(ad.leaf(x), ad.leaf(y)).item()
