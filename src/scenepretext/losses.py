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

# the paper's InfoNCE temperature and the weights of l_pts and l_rec in
# l_overall
TAU = 0.03
LAMBDA_PTS = 0.1
LAMBDA_REC = 100.0


@dataclass
class LossReport:
    """All loss terms of one batch plus the optional l_overall gradient."""

    l_obj: float
    l_pts: float
    l_rec_coarse: float
    l_rec_detail: float
    l_overall: float
    lambda_pts: float
    lambda_rec: float
    counts: dict = field(default_factory=dict)
    gradients: dict | None = None   # "l_overall" -> {param -> ndarray}

    def to_json_dict(self) -> dict:
        """The loss values, weights and counts; gradients are left out."""
        return {
            "l_obj": self.l_obj,
            "l_pts": self.l_pts,
            "l_rec_coarse": self.l_rec_coarse,
            "l_rec_detail": self.l_rec_detail,
            "l_overall": self.l_overall,
            "lambda_pts": self.lambda_pts,
            "lambda_rec": self.lambda_rec,
            "counts": dict(self.counts),
        }


def _pooled_normalized(h: ad.Var, obj_ids: np.ndarray,
                       keep: np.ndarray) -> ad.Var:
    """Mean-pool rows per kept instance (sorted ids), then L2-normalize."""
    rows = np.nonzero(np.isin(obj_ids, keep))[0]
    seg = np.searchsorted(keep, obj_ids[rows])
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

    A pair whose sides share K instances adds K pooled rows for side a,
    then the same K instances for side b, so the positive of a row is the
    row K places after or before it within the pair's block.
    """
    pool_parts: list[ad.Var] = []
    pos_idx, cats, weights = [], [], []
    offset = 0
    for (va, vb), (ids_a, ids_b), cat in zip(h_vars, object_ids, categories):
        present = np.intersect1d(ids_a, ids_b)
        k = present.size
        if k == 0:
            continue
        pool_parts += [_pooled_normalized(va, ids_a, present),
                       _pooled_normalized(vb, ids_b, present)]
        rows = offset + np.arange(k)
        pos_idx += [rows + k, rows]
        cats.append(np.tile(cat[present], 2))
        # each pair's rows carry 1/K, and the batch averages over pairs
        weights.append(np.full(2 * k, 1.0 / (len(h_vars) * k)))
        offset += 2 * k
    if not pool_parts:
        return ad.constant(0.0), {"anchors": 0, "pool": 0}
    pool = ad.concat_rows(pool_parts)
    cat_arr = np.concatenate(cats)
    neg_mask = cat_arr[None, :] != cat_arr[:, None]
    sim = ad.matmul_nt(pool, pool)
    loss = ad.masked_info_nce(sim, np.concatenate(pos_idx), neg_mask, tau,
                              np.concatenate(weights))
    counts = {"anchors": offset, "pool": offset,
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

    A pair adds to the pool its distinct a ends, then its distinct b ends,
    both sorted, and to the anchors its a ends, then its b ends, in match
    order; an anchor's positive is found by binary search in the other
    side's pool rows.
    """
    if len(matches) != len(h_vars):
        raise ValueError("one MatchSet required per pair")
    pool_parts: list[ad.Var] = []
    anchor_parts: list[ad.Var] = []
    pos_idx, weights = [], []
    pool_keys, anchor_keys = [], []   # (pair, object) of every row
    offset = 0
    n_pairs = len(h_vars)
    for p, ((va, vb), (ids_a, ids_b), ms) in enumerate(
            zip(h_vars, object_ids, matches)):
        m = len(ms)
        if m == 0:
            continue
        na, nb = ad.l2_normalize_rows(va), ad.l2_normalize_rows(vb)
        ends_a, ends_b = np.unique(ms.a_indices), np.unique(ms.b_indices)
        pool_parts += [ad.gather_rows(na, ends_a), ad.gather_rows(nb, ends_b)]
        anchor_parts += [ad.gather_rows(na, ms.a_indices),
                         ad.gather_rows(nb, ms.b_indices)]
        # a-anchors take the b end of their match, b-anchors the a end
        pos_idx += [offset + ends_a.size
                    + np.searchsorted(ends_b, ms.b_indices),
                    offset + np.searchsorted(ends_a, ms.a_indices)]
        weights.append(np.full(2 * m, 1.0 / (n_pairs * m)))
        pool_objs = np.concatenate([ids_a[ends_a], ids_b[ends_b]])
        pool_keys.append(np.stack([np.full(pool_objs.size, p), pool_objs]))
        anchor_keys.append(np.stack([np.full(2 * m, p),
                                     np.tile(ms.object_ids, 2)]))
        offset += pool_objs.size
    if not pool_parts:
        return ad.constant(0.0), {"matches": 0, "pool": 0}
    a_key = np.concatenate(anchor_keys, axis=1)
    p_key = np.concatenate(pool_keys, axis=1)
    neg_mask = (a_key[0][:, None] != p_key[0][None, :]) \
        | (a_key[1][:, None] != p_key[1][None, :])
    sim = ad.matmul_nt(ad.concat_rows(anchor_parts),
                       ad.concat_rows(pool_parts))
    loss = ad.masked_info_nce(sim, np.concatenate(pos_idx), neg_mask, tau,
                              np.concatenate(weights))
    counts = {"matches": sum(len(ms) for ms in matches), "pool": offset,
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
