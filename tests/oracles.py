"""Reference code the tests compare the program against.

None of it is a program path. ``exact_match_oracle`` is the rejected
exact-matching baseline; ``reference_match_points`` and
``reference_realize_scene`` are matching and placement as first written,
one seed and one placed box at a time, and the program's vectorised
versions must agree with them byte for byte, as must
``reference_occluded_points``, which transforms an object's kept canonical
points where the program selects rows of its placed points;
``object_loss``/``point_loss`` run one contrastive graph builder on plain
feature arrays; the ``reference_*`` graph builders are the contrastive
graphs as first written, with per-row dictionaries where the program's
builders use index arithmetic, each pair's features apart where the
program's builders take every side's stacked. Their values and gradients
agree bit for bit. ``reference_forward_backward`` is forward_backward as
first written, with one encoder, projection and decoder pass per side.
``reference_linear`` and ``reference_fold`` are ``ad.linear`` and
``ad.fold`` composed from one node per step, as the decoder first built
them, and ``concat_rows`` is the row-stacking node the reference builders
stack features with.
"""

from typing import Sequence

import numpy as np

from scenepretext import autodiff as ad
from scenepretext import decoder
from scenepretext.correspondence import MatchSet, SeedSet
from scenepretext.errors import DegenerateObject, PlacementFailure
from scenepretext.losses import (LAMBDA_PTS, LAMBDA_REC, LOSS_TERMS, TAU,
                                 object_level_graph, point_level_graph)
from scenepretext.scenegen import (MIN_OBJECT_POINTS, AssetSource,
                                   LayoutParams, ObjectInstance,
                                   SceneInstance, ScenePair, SceneSpec,
                                   Transform, _random_yaw)


def exact_match_oracle(pair: ScenePair, seeds_a: SeedSet) -> MatchSet:
    """Identical-canonical-point correspondences.

    Valid only for complete, unoccluded pairs, where the two scenes list the
    same canonical points object by object: seed i of object k in A is paired
    with position i of object k in B.
    """
    counts_a = [o.n_points for o in pair.scene_a.objects]
    counts_b = [o.n_points for o in pair.scene_b.objects]
    if counts_a != counts_b:
        raise ValueError("exact matching requires unoccluded scenes")
    carriers = [tb.compose(ta.inverse())
                for ta, tb in zip(pair.transforms("a"), pair.transforms("b"))]
    b_idx = np.empty(seeds_a.m, dtype=np.intp)
    dists = np.empty(seeds_a.m)
    for i in range(seeds_a.m):
        y = int(seeds_a.object_ids[i])
        b_idx[i] = seeds_a.indices[i]  # same object-major layout both sides
        target = carriers[y].apply(seeds_a.coords[i])
        dists[i] = np.linalg.norm(pair.scene_b.points[b_idx[i]] - target)
    return MatchSet(seeds_a.indices.copy(), b_idx, dists,
                    seeds_a.object_ids.copy(), theta=np.inf)


def reference_match_points(pair: ScenePair, seeds_a: SeedSet,
                           seeds_b_pool: SeedSet, theta: float) -> MatchSet:
    """match_points with one iteration per seed: ``Transform.apply`` on
    the seed alone, then the norm over its object's candidates."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    t_a = pair.transforms("a")
    t_b = pair.transforms("b")
    carriers = [tb.compose(ta.inverse()) for ta, tb in zip(t_a, t_b)]
    a_idx, b_idx, dists, objs = [], [], [], []
    for i in range(seeds_a.m):
        y = int(seeds_a.object_ids[i])
        cand = np.nonzero(seeds_b_pool.object_ids == y)[0]
        if cand.size == 0:
            continue
        target = carriers[y].apply(seeds_a.coords[i])
        d = np.linalg.norm(seeds_b_pool.coords[cand] - target, axis=1)
        j = int(np.argmin(d))
        if d[j] < theta:
            a_idx.append(int(seeds_a.indices[i]))
            b_idx.append(int(seeds_b_pool.indices[cand[j]]))
            dists.append(float(d[j]))
            objs.append(y)
    return MatchSet(np.array(a_idx, dtype=np.intp),
                    np.array(b_idx, dtype=np.intp),
                    np.array(dists, dtype=np.float64),
                    np.array(objs, dtype=np.intp), theta)


def _boxes_overlap(lo1, hi1, lo2, hi2) -> bool:
    return bool(np.all(lo1 <= hi2) and np.all(lo2 <= hi1))


def reference_realize_scene(spec: SceneSpec, asset_source: AssetSource,
                            layout: LayoutParams,
                            rng_seed: int) -> SceneInstance:
    """realize_scene testing each attempt against the placed boxes one
    box at a time, held in a list of (lo, hi) pairs."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    canonicals = []
    for k, (cat, inst) in enumerate(spec.draws):
        canonical = np.asarray(asset_source(cat, inst), dtype=np.float64)
        if canonical.shape[0] < MIN_OBJECT_POINTS:
            raise DegenerateObject(
                f"object {k}: {canonical.shape[0]} points "
                f"(assets must supply >= {MIN_OBJECT_POINTS})")
        canonicals.append(canonical)
    extents = [c.max(axis=0) - c.min(axis=0) for c in canonicals]
    order = sorted(range(len(canonicals)),
                   key=lambda k: -(extents[k][0] * extents[k][1]))
    placed_by_k: dict[int, ObjectInstance] = {}
    boxes: list[tuple[np.ndarray, np.ndarray]] = []
    room = layout.room_size
    for k in order:
        cat, inst = spec.draws[k]
        canonical = canonicals[k]
        for attempt in range(layout.max_attempts):
            rot = _random_yaw(rng)
            scale = rng.uniform(*layout.scale_range)
            body = scale * canonical @ rot.T
            lo, hi = body.min(axis=0), body.max(axis=0)
            x = rng.uniform(-lo[0], room - hi[0]) if room > hi[0] - lo[0] \
                else rng.uniform(0.0, room)
            y = rng.uniform(-lo[1], room - hi[1]) if room > hi[1] - lo[1] \
                else rng.uniform(0.0, room)
            t = np.array([x, y, -lo[2]])
            blo, bhi = lo + t, hi + t
            if blo[0] < 0 or blo[1] < 0 or bhi[0] > room or bhi[1] > room:
                continue
            if any(_boxes_overlap(blo, bhi, plo, phi)
                   for plo, phi in boxes):
                continue
            tf = Transform(rot, t, scale)
            placed_by_k[k] = ObjectInstance(cat, inst, tf.apply(canonical),
                                            tf)
            boxes.append((blo, bhi))
            break
        else:
            raise PlacementFailure(
                f"object {k} (category {cat}) not placed after "
                f"{layout.max_attempts} attempts")
    placed = [placed_by_k[k] for k in range(len(spec.draws))]
    return SceneInstance.from_objects(spec.scene_type_id, placed)


def reference_occluded_points(asset_source: AssetSource,
                               obj: ObjectInstance,
                               kept: np.ndarray) -> np.ndarray:
    """An occluded object's points the canonical way: the kept rows of its
    asset's canonical cloud, then its transform. The program selects the
    kept rows of the points already placed."""
    canonical = np.asarray(asset_source(obj.category_id, obj.instance_id),
                           dtype=np.float64)
    return obj.transform.apply(canonical[kept])


def matmul(a: ad.Var, b: ad.Var) -> ad.Var:
    """``a @ b`` as a tape node of its own."""
    out = ad.Var(a.data @ b.data, (a, b))

    def bwd(g):
        if a.needs_grad:
            ad._accumulate(a, g @ b.data.T)
        if b.needs_grad:
            ad._accumulate(b, a.data.T @ g)

    out.bwd = bwd
    return out


def concat_rows(parts: Sequence[ad.Var]) -> ad.Var:
    """The parts stacked by rows as a tape node: the reference graph
    builders stack each pair's features this way."""
    heights = [p.data.shape[0] for p in parts]
    out = ad.Var(np.concatenate([p.data for p in parts], axis=0),
                 tuple(parts))

    def bwd(g):
        i = 0
        for p, h in zip(parts, heights):
            if p.needs_grad:
                ad._accumulate(p, g[i:i + h])
            i += h

    out.bwd = bwd
    return out


def reference_linear(x: ad.Var, w: ad.Var, b: ad.Var) -> ad.Var:
    return ad.add(matmul(x, w), b)


def reference_fold(grid: np.ndarray, w_s: ad.Var, f: ad.Var,
                   w2: ad.Var) -> ad.Var:
    n = f.data.shape[0]
    grid_term = matmul(ad.constant(np.tile(grid, (n, 1))), w_s)
    hidden = ad.relu(ad.add(grid_term, ad.repeat_rows(f, grid.shape[0])))
    return matmul(hidden, w2)


def _reference_pooled_normalized(h: ad.Var, obj_ids: np.ndarray,
                                 keep: np.ndarray) -> ad.Var:
    """Mean-pool rows per kept instance, then L2-normalize the pools."""
    pos = {int(k): i for i, k in enumerate(keep)}
    rows = np.nonzero(np.isin(obj_ids, keep))[0]
    seg = np.array([pos[int(obj_ids[r])] for r in rows], dtype=np.intp)
    pooled = ad.segment_mean(ad.gather_rows(h, rows), seg, len(keep))
    return ad.l2_normalize_rows(pooled)


def reference_object_level_graph(
        h_vars: Sequence[tuple[ad.Var, ad.Var]],
        object_ids: Sequence[tuple[np.ndarray, np.ndarray]],
        categories: Sequence[np.ndarray], tau: float) -> tuple[ad.Var, dict]:
    """object_level_graph with per-row (pair, side, instance) bookkeeping:
    each row's positive is looked up by key, not found by position."""
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
            pool_parts.append(_reference_pooled_normalized(v, ids, present))
            meta_pair += [p_idx] * present.size
            meta_side += [side] * present.size
            meta_k += [int(k) for k in present]
            meta_cat += [int(cats[k]) for k in present]
    if not pool_parts:
        return ad.constant(0.0), {"anchors": 0, "pool": 0}
    pool = concat_rows(pool_parts)
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


def reference_point_level_graph(
        h_vars: Sequence[tuple[ad.Var, ad.Var]],
        object_ids: Sequence[tuple[np.ndarray, np.ndarray]],
        matches: Sequence[MatchSet], tau: float) -> tuple[ad.Var, dict]:
    """point_level_graph with a (pair, side, row) -> pool position dict:
    two passes over the pairs, positives looked up by key."""
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

    # anchor rows: [pair0 A-anchors, pair0 B-anchors, pair1 A-anchors, ...]
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
    anchors = concat_rows(anchor_parts)
    pool = concat_rows(pool_parts)
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


def run_graph(graph, features, object_ids, per_pair, tau):
    """Leaves for the (h_a, h_b) arrays of each pair, the graph, backward.

    A ``reference_*`` graph takes each pair's leaves; a program graph takes
    every side's leaf stacked by rows, side a then side b of each pair,
    with the first row of each pair's two sides. Returns the loss, the
    graph's counts and, per pair, the gradients of (h_a, h_b); a feature
    the loss does not reach gets a zero gradient.
    """
    h_vars = [(ad.leaf(np.asarray(h_a, dtype=np.float64)),
               ad.leaf(np.asarray(h_b, dtype=np.float64)))
              for h_a, h_b in features]
    if graph in (reference_object_level_graph, reference_point_level_graph):
        loss, counts = graph(h_vars, object_ids, per_pair, tau)
    else:
        sides = [v for pair in h_vars for v in pair]
        starts = np.cumsum([0] + [len(v.data) for v in sides])[:-1]
        loss, counts = graph(concat_rows(sides), starts.reshape(-1, 2),
                             object_ids, per_pair, tau)
    loss.backward()
    return loss.item(), counts, [
        tuple(v.grad if v.grad is not None else np.zeros_like(v.data)
              for v in pair) for pair in h_vars]


def reference_forward_backward(prepared, encoder, heads):
    """forward_backward at the default loss weights as first written: one
    encoder, projection and decoder pass per side of each pair, and the
    per-pair ``reference_*`` loss graphs. Returns the five reported loss
    values and the l_overall gradient, keyed like forward_backward's."""
    params = {k: ad.leaf(v)
              for k, v in decoder._param_arrays(encoder, heads).items()}
    short = decoder._short_names(params)
    sides = []
    for pp in prepared:
        for coords, ids in ((pp.coords_a, pp.object_ids_a),
                            (pp.coords_b, pp.object_ids_b)):
            cvar = ad.constant(coords)
            sides.append((cvar, encoder.encode_graph(short, cvar, ids,
                                                     len(pp.categories))))
    h = [encoder.project_graph(short, z) for _, z in sides]
    h_vars = list(zip(h[0::2], h[1::2]))
    object_ids = [(pp.object_ids_a, pp.object_ids_b) for pp in prepared]
    losses = {
        "l_obj": reference_object_level_graph(
            h_vars, object_ids, [pp.categories for pp in prepared], TAU)[0],
        "l_pts": reference_point_level_graph(
            h_vars, object_ids, [pp.matches for pp in prepared], TAU)[0]}
    targets = [t for pp in prepared for t in (pp.gt_detail_a, pp.gt_detail_b)]
    coarse, detail = [], []
    for (cvar, z), gt_d in zip(sides, targets):
        y_coarse, _, y_detail = decoder.decode_graph(short, cvar, z,
                                                     heads.grid)
        gt_c = gt_d[:y_coarse.data.shape[0]]
        coarse.append(ad.chamfer(y_coarse, ad.constant(gt_c)))
        detail.append(ad.chamfer(y_detail, ad.constant(gt_d)))
    w = [1.0 / len(sides)] * len(sides)
    losses["l_rec_coarse"] = ad.wsum(coarse, w)
    losses["l_rec_detail"] = ad.wsum(detail, w)
    losses = decoder._add_overall(losses, LAMBDA_PTS, LAMBDA_REC)
    return ({t: losses[t].item() for t in LOSS_TERMS},
            decoder._sweep(losses["l_overall"], params))


def object_loss(features, object_ids, categories, tau):
    """Object-level InfoNCE of plain features and its gradients; see
    object_level_graph."""
    value, _, grads = run_graph(object_level_graph, features, object_ids,
                                categories, tau)
    return value, grads


def point_loss(features, object_ids, matches, tau):
    """Point-level InfoNCE of plain features and its gradients; see
    point_level_graph."""
    value, _, grads = run_graph(point_level_graph, features, object_ids,
                                matches, tau)
    return value, grads
