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
module holds the two InfoNCE graph builders over every side's projected
features stacked by rows, indexed by each side's first row and each
`PreparedPair`'s object ids, categories and matches, plus `chamfer_distance`.

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
from .errors import NonFiniteInput

# the paper's InfoNCE temperature and the weights of l_pts and l_rec in
# l_overall
TAU = 0.03
LAMBDA_PTS = 0.1
LAMBDA_REC = 100.0

# the reported loss terms, each a LossReport field
LOSS_TERMS = ("l_obj", "l_pts", "l_rec_coarse", "l_rec_detail", "l_overall")


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
            **{k: getattr(self, k) for k in LOSS_TERMS},
            "lambda_pts": self.lambda_pts,
            "lambda_rec": self.lambda_rec,
            "counts": dict(self.counts),
        }


def object_level_graph(h: ad.Var, starts: Sequence[tuple[int, int]],
                       object_ids: Sequence[tuple[np.ndarray, np.ndarray]],
                       categories: Sequence[np.ndarray], tau: float
                       ) -> tuple[ad.Var, dict]:
    """Tape for the object-level loss; returns (scalar Var, counts).

    ``h`` stacks every side's features by rows. Per pair, ``starts`` holds
    the first rows of sides a and b, ``object_ids`` the owning instance of
    each row of those sides, and ``categories[k]`` instance k's category.

    A pair whose sides share K instances adds K pooled rows for side a,
    then the same K instances for side b, so the positive of a row is the
    row K places after or before it within the pair's block.
    """
    rows, seg = [], []   # the pooled rows of h, and the pool row of each
    pos_idx, cats, weights = [], [], []
    offset = 0
    for start, ids, cat in zip(starts, object_ids, categories):
        present = np.intersect1d(*ids)
        k = present.size
        if k == 0:
            continue
        for side in (0, 1):
            kept = np.nonzero(np.isin(ids[side], present))[0]
            rows.append(start[side] + kept)
            seg.append(offset + side * k
                       + np.searchsorted(present, ids[side][kept]))
        pos_idx += [offset + k + np.arange(k), offset + np.arange(k)]
        cats.append(np.tile(cat[present], 2))
        # each pair's rows carry 1/K, and the batch averages over pairs
        weights.append(np.full(2 * k, 1.0 / (len(starts) * k)))
        offset += 2 * k
    if not rows:
        return ad.constant(0.0), {"anchors": 0, "pool": 0}
    pool = ad.l2_normalize_rows(ad.segment_mean(
        ad.gather_rows(h, np.concatenate(rows)), np.concatenate(seg), offset))
    cat_arr = np.concatenate(cats)
    neg_mask = cat_arr[None, :] != cat_arr[:, None]
    sim = ad.matmul_nt(pool, pool)
    loss = ad.masked_info_nce(sim, np.concatenate(pos_idx), neg_mask, tau,
                              np.concatenate(weights))
    counts = {"anchors": offset, "pool": offset,
              "mean_negatives": float(neg_mask.sum(axis=1).mean())}
    return loss, counts


def point_level_graph(h: ad.Var, starts: Sequence[tuple[int, int]],
                      object_ids: Sequence[tuple[np.ndarray, np.ndarray]],
                      matches: Sequence[MatchSet],
                      tau: float) -> tuple[ad.Var, dict]:
    """Tape for the point-level loss; returns (scalar Var, counts).

    ``h`` stacks every side's features by rows. Per pair, ``starts`` holds
    the first rows of sides a and b, ``object_ids`` the owning instance of
    each row of those sides, and ``matches`` indexes those rows. Anchors
    are both endpoints of every kept match; the candidate pool is the
    deduplicated set of matched endpoints, and negatives for an anchor are
    pool entries on a different (pair, object).

    A pair adds to the pool its distinct a ends, then its distinct b ends,
    both sorted, and to the anchors its a ends, then its b ends, in match
    order; an anchor's positive is found by binary search in the other
    side's pool rows.
    """
    if len(matches) != len(starts):
        raise ValueError("one MatchSet required per pair")
    pool_rows, anchor_rows = [], []   # rows of h
    pos_idx, weights = [], []
    pool_keys, anchor_keys = [], []   # (pair, object) of every row
    offset = 0
    for p, ((start_a, start_b), (ids_a, ids_b), ms) in enumerate(
            zip(starts, object_ids, matches)):
        m = len(ms)
        if m == 0:
            continue
        ends_a, ends_b = np.unique(ms.a_indices), np.unique(ms.b_indices)
        pool_rows += [start_a + ends_a, start_b + ends_b]
        anchor_rows += [start_a + ms.a_indices, start_b + ms.b_indices]
        # a-anchors take the b end of their match, b-anchors the a end
        pos_idx += [offset + ends_a.size
                    + np.searchsorted(ends_b, ms.b_indices),
                    offset + np.searchsorted(ends_a, ms.a_indices)]
        weights.append(np.full(2 * m, 1.0 / (len(starts) * m)))
        pool_objs = np.concatenate([ids_a[ends_a], ids_b[ends_b]])
        pool_keys.append(np.stack([np.full(pool_objs.size, p), pool_objs]))
        anchor_keys.append(np.stack([np.full(2 * m, p),
                                     np.tile(ms.object_ids, 2)]))
        offset += pool_objs.size
    if not pool_rows:
        return ad.constant(0.0), {"matches": 0, "pool": 0}
    a_key = np.concatenate(anchor_keys, axis=1)
    p_key = np.concatenate(pool_keys, axis=1)
    neg_mask = (a_key[0][:, None] != p_key[0][None, :]) \
        | (a_key[1][:, None] != p_key[1][None, :])
    normalized = ad.l2_normalize_rows(h)
    sim = ad.matmul_nt(ad.gather_rows(normalized, np.concatenate(anchor_rows)),
                       ad.gather_rows(normalized, np.concatenate(pool_rows)))
    loss = ad.masked_info_nce(sim, np.concatenate(pos_idx), neg_mask, tau,
                              np.concatenate(weights))
    counts = {"matches": sum(len(ms) for ms in matches), "pool": offset,
              "mean_negatives": float(neg_mask.sum(axis=1).mean())}
    return loss, counts


def chamfer_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Symmetric mean squared nearest-neighbor distance between point sets."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteInput("non-finite coordinates")
    return ad.chamfer(ad.leaf(x), ad.leaf(y)).item()
