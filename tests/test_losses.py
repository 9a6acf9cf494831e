"""Loss values against independent scalar oracles, plus gradient checks.

The contrastive terms run through the program's graph builders; the
reconstruction and overall terms through chamfer_distance and
forward_backward.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (object_loss, point_loss, reference_object_level_graph,
                     reference_point_level_graph, run_graph)
from scenepretext.cli import gradcheck_batch
from scenepretext.correspondence import MatchSet
from scenepretext.decoder import DecoderHeads, ToyEncoder, forward_backward
from scenepretext.errors import EmptyBatch, EmptySet
from scenepretext.losses import (chamfer_distance, object_level_graph,
                                 point_level_graph)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def scalar_info_nce(anchor, positive, negatives, tau):
    """Independent plain-python reimplementation used as test oracle."""
    s_pos = float(np.dot(anchor, positive)) / tau
    terms = [s_pos] + [float(np.dot(anchor, n)) / tau for n in negatives]
    m = max(terms)
    lse = m + math.log(sum(math.exp(t - m) for t in terms))
    return lse - s_pos


# ------------------------------------------------------------ info_nce
# One point per instance and side, so each pooled feature is the point's own
# and every row of the object-level graph is one single-anchor InfoNCE term.

def test_info_nce_empty_negatives_exactly_zero():
    e1 = np.array([[1.0, 0.0, 0.0]])
    value, _ = one_pair_loss(e1, e1, [0], tau=0.03)
    assert value == 0.0


def test_info_nce_closed_form_value():
    # each of the 4 anchors: positive similarity 1, two negatives at -1
    e1 = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    got, _ = one_pair_loss(e1, e1, [0, 1], tau=1.0)
    per_anchor = -math.log(math.e / (math.e + 2 * math.exp(-1.0)))
    assert got == pytest.approx(4 * per_anchor / 2, abs=1e-12)
    assert got == pytest.approx(0.479090, abs=1e-6)


def test_info_nce_high_temperature_limit():
    # 3 instances of distinct categories: 4 negatives for each of 6 anchors
    rng = np.random.default_rng(4)
    f_a = np.vstack([unit(rng.normal(size=8)) for _ in range(3)])
    f_b = np.vstack([unit(rng.normal(size=8)) for _ in range(3)])
    got, _ = one_pair_loss(f_a, f_b, [0, 1, 2], tau=1e6)
    assert got == pytest.approx(6 * math.log(1 + 4) / 3, abs=1e-3)


def test_info_nce_monotone_in_positive_similarity():
    # negatives are orthogonal to the plane the positive turns in, so only
    # the two terms anchored on instance 0 change
    rng = np.random.default_rng(5)
    negs = [unit(np.r_[0.0, 0.0, rng.normal(size=4)]) for _ in range(3)]
    anchor = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    previous = np.inf
    for cos in (0.0, 0.3, 0.6, 0.9, 1.0):
        pos = np.array([cos, math.sqrt(1 - cos ** 2), 0.0, 0.0, 0.0, 0.0])
        val, _ = one_pair_loss(np.vstack([anchor, *negs]),
                               np.vstack([pos, *negs]), [0, 1, 2, 3],
                               tau=0.1)
        assert val < previous
        previous = val


# ------------------------------------------------------- object level

def one_pair_loss(f_a, f_b, categories, tau):
    """Object-level loss of one pair whose per-instance pools equal the
    given features.

    Each instance contributes exactly one point per side, so mean pooling
    returns the feature itself.
    """
    ids = np.arange(len(categories))
    return object_loss([(f_a, f_b)], [(ids, ids)], [np.asarray(categories)],
                       tau)


def eq_object_loss_oracle(f_a, f_b, categories, tau):
    """Plain-python symmetric category-aware InfoNCE over one pair."""
    k = len(categories)
    feats = {("a", i): unit(f_a[i]) for i in range(k)}
    feats.update({("b", i): unit(f_b[i]) for i in range(k)})
    total = 0.0
    for i in range(k):
        negs = [f for (side, j), f in feats.items()
                if categories[j] != categories[i]]
        total += scalar_info_nce(feats[("a", i)], feats[("b", i)], negs, tau)
        total += scalar_info_nce(feats[("b", i)], feats[("a", i)], negs, tau)
    return total / k


def test_object_level_no_negatives_zero():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    value, grads = one_pair_loss(f, f, categories=[7, 7], tau=0.03)
    assert value == 0.0
    for ga, gb in grads:
        assert np.all(ga == 0.0) and np.all(gb == 0.0)


def test_object_level_two_instance_hand_computation():
    f_a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    f_b = np.array([[0.8, 0.6, 0.0], [0.0, 0.6, 0.8]])
    cats = [0, 1]
    value, _ = one_pair_loss(f_a, f_b, cats, tau=0.5)
    oracle = eq_object_loss_oracle(f_a, f_b, cats, tau=0.5)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_object_level_monotone_in_positive_alignment():
    rng = np.random.default_rng(9)
    f = np.vstack([unit(rng.normal(size=6)) for _ in range(4)])
    aligned, _ = one_pair_loss(f, f, [0, 0, 1, 1], tau=0.3)
    # orthogonalize positives while keeping the same negative pool size
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    f_b = f @ q  # rotated: positives no longer aligned
    rotated, _ = one_pair_loss(f, f_b, [0, 0, 1, 1], tau=0.3)
    assert aligned < rotated


def test_object_level_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    for trial in range(10):
        k, d = 3, 5
        f_a = rng.normal(size=(k, d))
        f_b = rng.normal(size=(k, d))
        cats = rng.integers(0, 2, size=k)
        value, grads = one_pair_loss(f_a, f_b, cats, tau=0.2)
        g_a, g_b = grads[0]
        h = 1e-5
        for arr, grad in ((f_a, g_a), (f_b, g_b)):
            flat = arr.ravel()
            for i in range(0, flat.size, 3):
                orig = flat[i]
                flat[i] = orig + h
                vp, _ = one_pair_loss(f_a, f_b, cats, tau=0.2)
                flat[i] = orig - h
                vm, _ = one_pair_loss(f_a, f_b, cats, tau=0.2)
                flat[i] = orig
                numeric = (vp - vm) / (2 * h)
                analytic = grad.ravel()[i]
                denom = max(abs(numeric), abs(analytic), 1e-6)
                assert abs(numeric - analytic) / denom <= 1e-4


def test_empty_batch_rejected():
    with pytest.raises(EmptyBatch):
        forward_backward([], ToyEncoder(), DecoderHeads())


# -------------------------------------------------------- point level

def test_point_level_single_pair_no_other_objects_zero():
    h = np.array([[1.0, 0.0], [0.0, 1.0]])
    ids = np.zeros(2, dtype=int)
    ms = MatchSet(np.array([0]), np.array([0]), np.array([0.0]),
                  np.array([0]), theta=1.0)
    value, grads = point_loss([(h, h)], [(ids, ids)], [ms], tau=0.03)
    assert value == 0.0


def test_point_level_closed_form_orthogonal_negatives():
    # matched endpoints identical; negatives orthogonal to everything
    tau = 0.03
    d = 8
    h_a = np.zeros((3, d))
    h_b = np.zeros((3, d))
    h_a[0, 0] = h_b[0, 0] = 1.0          # object 0, matched, aligned
    h_a[1, 1] = h_b[1, 1] = 1.0          # object 1 endpoints (negatives)
    h_a[2, 2] = h_b[2, 2] = 1.0          # object 2 endpoints (negatives)
    ids = np.array([0, 1, 2])
    ms = MatchSet(np.array([0, 1, 2]), np.array([0, 1, 2]), np.zeros(3),
                  np.array([0, 1, 2]), theta=1.0)
    value, _ = point_loss([(h_a, h_b)], [(ids, ids)], [ms], tau=tau)
    # per anchor: positive similarity 1, N=4 orthogonal negatives
    n_neg = 4
    per_anchor = math.log(1 + n_neg * math.exp(-1.0 / tau))
    expected = 2.0 * 3 * per_anchor / 3
    assert value == pytest.approx(expected, abs=1e-12)


def test_point_level_permutation_invariant():
    rng = np.random.default_rng(17)
    n, d = 12, 6
    h_a = rng.normal(size=(n, d))
    h_b = rng.normal(size=(n, d))
    ids = np.repeat(np.arange(3), 4)
    a_idx = np.array([0, 4, 8, 1, 5])
    b_idx = np.array([0, 4, 8, 2, 6])
    objs = ids[a_idx]
    ms = MatchSet(a_idx, b_idx, np.zeros(5), objs, theta=1.0)
    base, _ = point_loss([(h_a, h_b)], [(ids, ids)], [ms], tau=0.07)
    perm = np.array([3, 1, 4, 0, 2])
    ms_p = MatchSet(a_idx[perm], b_idx[perm], np.zeros(5), objs[perm],
                    theta=1.0)
    permuted, _ = point_loss([(h_a, h_b)], [(ids, ids)], [ms_p], tau=0.07)
    assert permuted == pytest.approx(base, abs=1e-12)


def test_point_level_no_matches_zero_gradients():
    h = np.random.default_rng(3).normal(size=(4, 5))
    ids = np.zeros(4, dtype=int)
    empty = MatchSet(np.array([], dtype=int), np.array([], dtype=int),
                     np.array([]), np.array([], dtype=int), theta=0.1)
    value, grads = point_loss([(h, h)], [(ids, ids)], [empty], tau=0.03)
    assert value == 0.0
    assert np.all(grads[0][0] == 0.0)


def test_losses_give_every_pair_an_array_gradient():
    # pair 0 has a common instance and a match; pair 1 shares no instance
    # between its sides and has no match, so neither loss reaches it
    rng = np.random.default_rng(5)
    h = [rng.normal(size=(3, 4)) for _ in range(4)]
    ids0, ids1 = np.array([0, 0, 1]), np.array([1, 2, 2])
    cats = np.array([0, 1, 2])
    features = [(h[0], h[1]), (h[2], h[3])]
    object_ids = [(ids0, ids0), (np.zeros(3, dtype=int), ids1)]
    no_match = MatchSet(np.array([], dtype=int), np.array([], dtype=int),
                        np.array([]), np.array([], dtype=int), theta=0.1)
    ms = MatchSet(np.array([0, 2]), np.array([0, 2]), np.zeros(2),
                  np.array([0, 1]), theta=1.0)
    for value, grads in (
            object_loss(features, object_ids, [cats, cats], tau=0.1),
            point_loss(features, object_ids, [ms, no_match], tau=0.1)):
        assert value > 0.0
        assert all(isinstance(g, np.ndarray) for pair in grads for g in pair)
        assert np.any(grads[0][0] != 0.0)
        np.testing.assert_array_equal(grads[1][0], np.zeros((3, 4)))
        np.testing.assert_array_equal(grads[1][1], np.zeros((3, 4)))
    # fully degenerate batches: no negatives, no matches at all
    for value, grads in (
            one_pair_loss(h[0], h[0], [7] * 3, tau=0.1),
            point_loss(features, object_ids, [no_match] * 2, tau=0.1)):
        assert value == 0.0
        assert all(isinstance(g, np.ndarray) and not np.any(g)
                   for pair in grads for g in pair)


def test_point_level_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    n, d = 8, 5
    ids = np.repeat(np.arange(2), 4)
    a_idx = np.array([0, 1, 4, 5])
    b_idx = np.array([1, 0, 5, 6])
    objs = ids[a_idx]
    ms = MatchSet(a_idx, b_idx, np.zeros(4), objs, theta=1.0)
    for trial in range(10):
        h_a = rng.normal(size=(n, d))
        h_b = rng.normal(size=(n, d))

        def value_of(ha, hb):
            v, _ = point_loss([(ha, hb)], [(ids, ids)], [ms], tau=0.2)
            return v

        _, grads = point_loss([(h_a, h_b)], [(ids, ids)], [ms], tau=0.2)
        h = 1e-5
        for arr, grad in ((h_a, grads[0][0]), (h_b, grads[0][1])):
            flat = arr.ravel()
            for i in range(0, flat.size, 5):
                orig = flat[i]
                flat[i] = orig + h
                vp = value_of(h_a, h_b)
                flat[i] = orig - h
                vm = value_of(h_a, h_b)
                flat[i] = orig
                numeric = (vp - vm) / (2 * h)
                analytic = grad.ravel()[i]
                denom = max(abs(numeric), abs(analytic), 1e-6)
                assert abs(numeric - analytic) / denom <= 1e-4


# ------------------------------------------- builders against the reference
# A pair is (object id of each A row, of each B row, category of each
# instance, (a row, b row) of each match).

@st.composite
def contrastive_batches(draw):
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        n_obj = draw(st.integers(1, 3))
        ids = st.lists(st.integers(0, n_obj - 1), min_size=1, max_size=5)
        ids_a, ids_b = draw(ids), draw(ids)
        cats = draw(st.lists(st.integers(0, 2), min_size=n_obj,
                             max_size=n_obj))
        ends = st.tuples(st.integers(0, len(ids_a) - 1),
                         st.integers(0, len(ids_b) - 1))
        pairs.append((ids_a, ids_b, cats, draw(st.lists(ends, max_size=4))))
    return pairs, draw(st.integers(0, 2 ** 32 - 1))


def _batch_arrays(pairs, seed):
    rng = np.random.default_rng(seed)
    features, object_ids, categories, matches = [], [], [], []
    for ids_a, ids_b, cats, ends in pairs:
        features.append((rng.normal(size=(len(ids_a), 4)),
                         rng.normal(size=(len(ids_b), 4))))
        ids_a, ids_b = np.array(ids_a), np.array(ids_b)
        object_ids.append((ids_a, ids_b))
        categories.append(np.array(cats))
        a_idx = np.array([a for a, _ in ends], dtype=np.intp)
        b_idx = np.array([b for _, b in ends], dtype=np.intp)
        matches.append(MatchSet(a_idx, b_idx, np.zeros(len(ends)),
                                ids_a[a_idx], theta=1.0))
    return features, object_ids, categories, matches


@settings(max_examples=150, deadline=None, database=None)
@given(contrastive_batches())
# a pair without matches beside one with them
@example(([([0, 1], [0, 1], [0, 1], []),
           ([0, 0], [0], [1], [(1, 0)])], 1))
# no instance on both sides of the first pair
@example(([([0], [1], [0, 1], []), ([0, 1], [1, 0], [0, 1], [(0, 1)])], 2))
# repeated b ends
@example(([([0, 0, 1], [0, 1], [0, 1], [(0, 0), (1, 0), (2, 1)])], 3))
# one-row sides
@example(([([0], [0], [0], [(0, 0)]), ([0], [0], [1], [(0, 0)])], 4))
def test_builders_equal_the_reference_bit_for_bit(batch):
    features, object_ids, categories, matches = _batch_arrays(*batch)
    for graph, reference, per_pair in (
            (object_level_graph, reference_object_level_graph, categories),
            (point_level_graph, reference_point_level_graph, matches)):
        value, counts, grads = run_graph(graph, features, object_ids,
                                         per_pair, tau=0.1)
        ref_value, ref_counts, ref_grads = run_graph(
            reference, features, object_ids, per_pair, tau=0.1)
        assert value == ref_value
        assert counts == ref_counts
        for pair, ref_pair in zip(grads, ref_grads):
            for g, ref in zip(pair, ref_pair):
                assert g.tobytes() == ref.tobytes()


# ------------------------------------------------------------- chamfer

def brute_chamfer(x, y):
    total = 0.0
    for p in x:
        total += min(((p - q) ** 2).sum() for q in y) / len(x)
    for q in y:
        total += min(((p - q) ** 2).sum() for p in x) / len(y)
    return total


def test_chamfer_self_zero():
    pts = np.random.default_rng(1).normal(size=(64, 3))
    assert chamfer_distance(pts, pts.copy()) == 0.0


def test_chamfer_single_points():
    assert chamfer_distance(np.zeros((1, 3)),
                            np.array([[1.0, 0, 0]])) == pytest.approx(2.0)


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(size=(64, 3))
        y = rng.uniform(size=(64, 3))
        assert chamfer_distance(x, y) == pytest.approx(brute_chamfer(x, y),
                                                       abs=1e-12)


def test_chamfer_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(20, 3))
    y = rng.uniform(size=(30, 3))
    assert chamfer_distance(x, y) == pytest.approx(chamfer_distance(y, x),
                                                   abs=1e-15)


def test_chamfer_empty_rejected():
    with pytest.raises(EmptySet):
        chamfer_distance(np.empty((0, 3)), np.zeros((1, 3)))


# ---------------------------------------------------- reconstruction/overall

def reconstruction_terms(y_coarse, y_detail, gt_coarse, gt_detail):
    return (chamfer_distance(y_coarse, gt_coarse),
            chamfer_distance(y_detail, gt_detail))


def test_reconstruction_perfect_zero():
    pts = np.random.default_rng(4).normal(size=(32, 3))
    dense = np.random.default_rng(5).normal(size=(96, 3))
    assert reconstruction_terms(pts, dense, pts, dense) == (0.0, 0.0)


def test_reconstruction_shift_oracle():
    rng = np.random.default_rng(6)
    coarse = rng.uniform(size=(16, 3))
    detail = rng.uniform(size=(48, 3))
    gt_c = rng.uniform(size=(16, 3))
    gt_d = rng.uniform(size=(48, 3))
    shifted = detail + 0.01
    l_c, l_d = reconstruction_terms(coarse, shifted, gt_c, gt_d)
    assert l_c == pytest.approx(brute_chamfer(coarse, gt_c), abs=1e-12)
    assert l_d == pytest.approx(brute_chamfer(shifted, gt_d), abs=1e-12)


def test_reconstruction_two_sided_symmetry():
    rng = np.random.default_rng(7)
    y_c, y_d = rng.uniform(size=(8, 3)), rng.uniform(size=(24, 3))
    g_c, g_d = rng.uniform(size=(8, 3)), rng.uniform(size=(24, 3))
    a = reconstruction_terms(y_c, y_d, g_c, g_d)
    b = reconstruction_terms(g_c, g_d, y_c, y_d)
    assert a == pytest.approx(b, abs=1e-15)


def overall_report(lambda_pts, lambda_rec):
    prepared, encoder, heads = gradcheck_batch()
    return forward_backward(prepared, encoder, heads, lambda_pts=lambda_pts,
                            lambda_rec=lambda_rec, with_gradients=False)


def test_overall_loss_arithmetic():
    r = overall_report(0.1, 100.0)
    assert r.l_pts > 0.0 and r.l_rec_coarse > 0.0 and r.l_rec_detail > 0.0
    # l_rec is the sum of the two Chamfer terms
    assert r.l_overall == (r.l_obj + 0.1 * r.l_pts
                           + 100.0 * (r.l_rec_coarse + r.l_rec_detail))
    assert overall_report(0.0, 0.0).l_overall == r.l_obj


def test_overall_loss_affine_in_weights():
    for lam_p in (0.0, 0.1, 2.0):
        low = overall_report(lam_p, 5.0)
        delta = overall_report(lam_p + 1.0, 5.0).l_overall - low.l_overall
        assert delta == pytest.approx(low.l_pts, abs=1e-12)


def test_batch_permutation_invariance():
    rng = np.random.default_rng(123)
    features, object_ids, categories, matches = [], [], [], []
    for p in range(3):
        n = 8
        ids = np.repeat(np.arange(2), 4)
        features.append((rng.normal(size=(n, 4)), rng.normal(size=(n, 4))))
        object_ids.append((ids, ids))
        categories.append(np.array([2 * p, 2 * p + 1]))
        a_idx = np.array([0, 4])
        matches.append(MatchSet(a_idx, a_idx, np.zeros(2), ids[a_idx],
                                theta=1.0))
    v1, _ = object_loss(features, object_ids, categories, tau=0.1)
    v2, _ = object_loss(features[::-1], object_ids[::-1], categories[::-1],
                        tau=0.1)
    assert v2 == pytest.approx(v1, abs=1e-12)
    p1, _ = point_loss(features, object_ids, matches, tau=0.1)
    p2, _ = point_loss(features[::-1], object_ids[::-1], matches[::-1],
                       tau=0.1)
    assert p2 == pytest.approx(p1, abs=1e-12)
