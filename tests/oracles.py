"""Reference code the tests compare the program against.

Neither part is a program path. ``exact_match_oracle`` is the rejected
exact-matching baseline, and ``object_loss``/``point_loss`` run one
contrastive graph builder on plain feature arrays.
"""

import numpy as np

from scenepretext import autodiff as ad
from scenepretext.correspondence import MatchSet, SeedSet
from scenepretext.losses import object_level_graph, point_level_graph
from scenepretext.scenegen import ScenePair


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


def _value_and_grads(graph, features, object_ids, per_pair, tau):
    """Leaves for the (h_a, h_b) arrays of each pair, the graph, backward.

    Returns the loss and, per pair, the gradients of (h_a, h_b); a feature
    the loss does not reach gets a zero gradient.
    """
    h_vars = [(ad.leaf(np.asarray(h_a, dtype=np.float64)),
               ad.leaf(np.asarray(h_b, dtype=np.float64)))
              for h_a, h_b in features]
    loss, _ = graph(h_vars, object_ids, per_pair, tau)
    loss.backward()
    return loss.item(), [
        tuple(v.grad if v.grad is not None else np.zeros_like(v.data)
              for v in pair) for pair in h_vars]


def object_loss(features, object_ids, categories, tau):
    """Object-level InfoNCE of plain features; see object_level_graph."""
    return _value_and_grads(object_level_graph, features, object_ids,
                            categories, tau)


def point_loss(features, object_ids, matches, tau):
    """Point-level InfoNCE of plain features; see point_level_graph."""
    return _value_and_grads(point_level_graph, features, object_ids,
                            matches, tau)
