"""Decoder shapes and row laws, target construction, end-to-end gradients."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scenepretext import autodiff as ad
from scenepretext import decoder, pipeline
from scenepretext.assets import ProceduralAssetSource
from scenepretext.catalog import load_default_scannet_parameters
from scenepretext.correspondence import (SeedSet, farthest_point_sample,
                                         match_points, sample_seed_set)
from scenepretext.decoder import (DecoderHeads, EncoderConfig, HeadsConfig,
                                  ToyEncoder, _overall_graph, _term_gradients,
                                  build_targets, decode, decode_graph,
                                  forward_backward, gradient_check,
                                  load_checkpoint, make_grid,
                                  prepare_scene_pair, save_checkpoint)
from scenepretext.errors import DimensionMismatch, TooFewPoints
from scenepretext.losses import chamfer_distance
from scenepretext.scenegen import (LayoutParams, ObjectInstance,
                                   SceneInstance, Transform, make_scene_pair)
from scenepretext.seeding import (STREAM_MATCH_A, STREAM_MATCH_B,
                                  STREAM_SEEDS_A, STREAM_SEEDS_B, mix64)


def relu(x):
    return np.maximum(x, 0.0)


def small_heads(s=6, hidden=8, u=3, seed=1):
    return DecoderHeads(HeadsConfig(feature_dim=s, hidden=hidden, u=u),
                        rng_seed=seed)


# ------------------------------------------------------------------ decode

def test_zero_heads_identity_coarse_and_repeat_detail():
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(10, 3))
    z = rng.normal(size=(10, 6))
    heads = DecoderHeads.zeros(HeadsConfig(feature_dim=6, u=3))
    out = decode(coords, z, heads)
    np.testing.assert_array_equal(out.y_coarse, coords)
    np.testing.assert_array_equal(out.y_detail, np.repeat(coords, 9, axis=0))
    np.testing.assert_array_equal(out.h_coarse,
                                  np.concatenate([coords, z], axis=1))


def test_u1_zero_folding_detail_equals_coarse():
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(7, 3))
    z = rng.normal(size=(7, 6))
    heads = small_heads(u=1, seed=3)
    heads.params["fold_w1"][:] = 0.0
    heads.params["fold_b1"][:] = 0.0
    heads.params["fold_w2"][:] = 0.0
    heads.params["fold_b2"][:] = 0.0
    out = decode(coords, z, heads)
    np.testing.assert_array_equal(out.y_detail, out.y_coarse)


def test_rowwise_folding_oracle():
    rng = np.random.default_rng(2)
    n, s, u = 16, 6, 3
    coords = rng.normal(size=(n, 3))
    z = rng.normal(size=(n, s))
    heads = small_heads(s=s, u=u, seed=9)
    out = decode(coords, z, heads)
    assert out.y_detail.shape == (u * u * n, 3)
    grid = make_grid(u, heads.config.grid_extent)

    def fold(row):
        h1 = relu(row @ heads.params["fold_w1"] + heads.params["fold_b1"])
        return h1 @ heads.params["fold_w2"] + heads.params["fold_b2"]

    for i in range(n):
        for j in range(u * u):
            row = np.concatenate([grid[j], out.h_coarse[i]])
            expected = out.y_coarse[i] + fold(row)
            np.testing.assert_allclose(out.y_detail[i * u * u + j],
                                       expected, atol=1e-12)


@pytest.mark.parametrize("n,u", [(1, 1), (5, 2), (16, 3), (40, 4)])
def test_detail_cardinality_law(n, u):
    rng = np.random.default_rng(n + u)
    heads = small_heads(u=u, seed=n)
    out = decode(rng.normal(size=(n, 3)), rng.normal(size=(n, 6)), heads)
    assert out.y_detail.shape[0] == u * u * n


def test_large_seed_count_u3():
    rng = np.random.default_rng(5)
    heads = small_heads(u=3, seed=5)
    out = decode(rng.normal(size=(1024, 3)), rng.normal(size=(1024, 6)),
                 heads)
    assert out.y_detail.shape == (9216, 3)


def test_h_coarse_prefix_is_y_coarse_exactly():
    rng = np.random.default_rng(6)
    heads = small_heads(seed=11)
    out = decode(rng.normal(size=(12, 3)), rng.normal(size=(12, 6)), heads)
    np.testing.assert_array_equal(out.h_coarse[:, :3], out.y_coarse)


def test_decode_permutation_equivariance():
    rng = np.random.default_rng(7)
    n, u = 9, 2
    coords = rng.normal(size=(n, 3))
    z = rng.normal(size=(n, 6))
    heads = small_heads(u=u, seed=13)
    base = decode(coords, z, heads)
    perm = rng.permutation(n)
    permuted = decode(coords[perm], z[perm], heads)
    np.testing.assert_allclose(permuted.y_coarse, base.y_coarse[perm],
                               atol=1e-12)
    for new_i, old_i in enumerate(perm):
        np.testing.assert_allclose(
            permuted.y_detail[new_i * u * u:(new_i + 1) * u * u],
            base.y_detail[old_i * u * u:(old_i + 1) * u * u], atol=1e-12)


def test_decode_dimension_checks():
    heads = small_heads()
    with pytest.raises(DimensionMismatch):
        decode(np.zeros((4, 2)), np.zeros((4, 6)), heads)
    with pytest.raises(DimensionMismatch):
        decode(np.zeros((4, 3)), np.zeros((4, 5)), heads)
    with pytest.raises(DimensionMismatch):
        decode(np.zeros((0, 3)), np.zeros((0, 6)), heads)


def test_decode_tape_has_no_node_of_the_fold_hidden_width():
    # the fold's grid term, repeated feature term, pre-activation and ReLU
    # output are (u*u*n, hidden) arrays, and a tape node keeps its array
    # alive until backward; ad.fold keeps only the hidden layer, in its
    # closure
    rng = np.random.default_rng(12)
    n, s, hidden, u = 16, 6, 8, 3
    heads = small_heads(s=s, hidden=hidden, u=u, seed=12)
    params = {k: ad.leaf(v) for k, v in heads.params.items()}
    outputs = decode_graph(params, ad.leaf(rng.normal(size=(n, 3))),
                           ad.leaf(rng.normal(size=(n, s))), heads.grid)
    seen, stack = set(), list(outputs)
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        assert v.data.shape != (u * u * n, hidden)
        stack.extend(v.parents)
    assert outputs[2].data.shape == (u * u * n, 3)


def test_grid_shapes_and_extent():
    g = make_grid(3, 0.05)
    assert g.shape == (9, 2)
    assert g.min() == -0.05 and g.max() == 0.05
    assert make_grid(1, 0.05).tolist() == [[0.0, 0.0]]
    with pytest.raises(ValueError):
        make_grid(0, 0.05)


# ----------------------------------------------------------------- targets

def grid_scene(n_points):
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(n_points, 3))
    pts -= pts.mean(axis=0)
    obj = ObjectInstance(0, 0, pts, Transform(np.eye(3), np.zeros(3)))
    return SceneInstance.from_objects(0, [obj])


def test_targets_exhaustive_when_exact_count():
    scene = grid_scene(36)
    gt_coarse, gt_detail = build_targets(scene, n=4, u=3, rng_seed=3)
    assert gt_detail.shape == (36, 3)
    got = {tuple(p) for p in gt_detail}
    want = {tuple(p) for p in scene.points}
    assert got == want


def test_targets_nested_subset():
    scene = grid_scene(200)
    gt_coarse, gt_detail = build_targets(scene, n=8, u=3, rng_seed=4)
    detail_set = {tuple(p) for p in gt_detail}
    assert all(tuple(p) in detail_set for p in gt_coarse)


def test_targets_fps_coverage_beats_random_subsets():
    scene = grid_scene(300)
    n = 10
    gt_coarse, gt_detail = build_targets(scene, n=n, u=3, rng_seed=5)
    fps_quality = chamfer_distance(gt_coarse, gt_detail)
    rng = np.random.default_rng(6)
    random_quality = np.mean([
        chamfer_distance(gt_detail[rng.choice(len(gt_detail), n,
                                              replace=False)], gt_detail)
        for _ in range(50)])
    assert fps_quality <= random_quality


def test_coarse_target_is_the_detail_prefix():
    scene = grid_scene(300)
    gt_coarse, gt_detail = build_targets(scene, n=10, u=3, rng_seed=5)
    np.testing.assert_array_equal(gt_coarse, gt_detail[:10])
    np.testing.assert_array_equal(
        gt_coarse, scene.points[farthest_point_sample(scene.points, 10, 5)])


def test_targets_too_few_points():
    scene = grid_scene(30)
    with pytest.raises(TooFewPoints):
        build_targets(scene, n=4, u=3, rng_seed=0)


# --------------------------------------------------------- forward/backward

def tiny_batch(seed=501):
    dist = load_default_scannet_parameters()
    source = ProceduralAssetSource(n_points=48)
    prepared = []
    for i in range(2):
        pair = make_scene_pair(dist, 3, source, seed + i, LayoutParams())
        prepared.append(prepare_scene_pair(
            pair, n_seeds=12, m_matches=8, theta=0.3, u=2,
            rng_seed=seed + 50 + i))
    enc = ToyEncoder(EncoderConfig(feature_dim=8, hidden=12, proj_hidden=8,
                                   embed_dim=8), rng_seed=seed)
    heads = DecoderHeads(HeadsConfig(feature_dim=8, hidden=10, u=2),
                         rng_seed=seed + 1)
    return prepared, enc, heads


def test_forward_backward_deterministic():
    prepared, enc, heads = tiny_batch()
    r1 = forward_backward(prepared, enc, heads)
    r2 = forward_backward(prepared, enc, heads)
    for term in ("l_obj", "l_pts", "l_rec_coarse", "l_rec_detail",
                 "l_overall"):
        value = getattr(r1, term)
        assert value >= 0.0 and np.isfinite(value)
    assert r1.l_overall == r2.l_overall
    assert r1.l_obj == r2.l_obj and r1.l_pts == r2.l_pts
    assert set(r1.gradients) == set(r2.gradients) == {"l_overall"}
    for term in r1.gradients:
        for name in r1.gradients[term]:
            np.testing.assert_array_equal(r1.gradients[term][name],
                                          r2.gradients[term][name])


def test_forward_backward_recomposition_identity():
    prepared, enc, heads = tiny_batch()
    for lam_p, lam_r in ((0.1, 100.0), (0.7, 3.0), (0.0, 0.0)):
        rep = forward_backward(prepared, enc, heads, lambda_pts=lam_p,
                               lambda_rec=lam_r, with_gradients=False)
        recomposed = rep.l_obj + lam_p * rep.l_pts \
            + lam_r * (rep.l_rec_coarse + rep.l_rec_detail)
        assert abs(recomposed - rep.l_overall) <= 1e-12


@pytest.mark.parametrize("lam_p,lam_r", [(0.1, 100.0), (0.7, 3.0)])
def test_overall_gradient_matches_weighted_root_backward(lam_p, lam_r):
    prepared, enc, heads = tiny_batch()
    rep = forward_backward(prepared, enc, heads, lambda_pts=lam_p,
                           lambda_rec=lam_r)
    # an independent tape whose single root is the lambda-weighted sum
    arrays = {f"encoder.{k}": v for k, v in enc.params.items()}
    arrays.update({f"heads.{k}": v for k, v in heads.params.items()})
    params, losses, _ = _overall_graph(prepared, arrays, enc, heads, 0.03,
                                       lam_p, lam_r)
    root = ad.wsum([losses["l_obj"], losses["l_pts"], losses["l_rec_coarse"],
                    losses["l_rec_detail"]], [1.0, lam_p, lam_r, lam_r])
    root.backward()
    assert set(rep.gradients) == {"l_overall"}
    # every term reaches the parameters, so a dropped lambda shows
    terms = _term_gradients(prepared, enc, heads, 0.03, lam_p, lam_r)
    for term in ("l_obj", "l_pts", "l_rec"):
        assert any(np.abs(g).max() > 0 for g in terms[term].values())
    for name, v in params.items():
        expected = v.grad if v.grad is not None else np.zeros_like(v.data)
        got = rep.gradients["l_overall"][name]
        tol = 1e-12 * max(np.abs(expected).max(), np.finfo(float).tiny)
        assert np.abs(got - expected).max() <= tol, name
        # and the per-term sweeps add up to it
        recombined = (terms["l_obj"][name] + lam_p * terms["l_pts"][name]
                      + lam_r * terms["l_rec"][name])
        assert np.abs(recombined - expected).max() <= tol, name


def test_forward_backward_sweeps_once(monkeypatch):
    prepared, enc, heads = tiny_batch()
    calls = []
    sweep = ad.Var.backward

    def counted(self):
        calls.append(self)
        sweep(self)

    monkeypatch.setattr(ad.Var, "backward", counted)
    rep = forward_backward(prepared, enc, heads)
    assert len(calls) == 1
    assert set(rep.gradients) == {"l_overall"}
    assert calls[0].item() == rep.l_overall


def test_zero_parameters_constant_features_scalar_oracle():
    """All-zero networks: every feature is identical, losses collapse.

    With constant features every pooled vector is the same, so the positive
    and all negatives have equal similarity: each InfoNCE row is exactly
    log(1 + N_row). The reconstruction equals chamfer between the raw seeds
    (repeated u^2 times for the detail level) and the targets.
    """
    prepared, _, _ = tiny_batch()
    enc = ToyEncoder.zeros(EncoderConfig(feature_dim=8, hidden=12,
                                         proj_hidden=8, embed_dim=8))
    heads = DecoderHeads.zeros(HeadsConfig(feature_dim=8, hidden=10, u=2))
    rep = forward_backward(prepared, enc, heads, with_gradients=False)
    # object loss oracle: anchors = 2 sides x 3 instances x 2 pairs; the
    # negative count per anchor is the number of different-category pools
    total = 0.0
    n_pairs = len(prepared)
    for pp in prepared:
        cats_here = pp.categories
        all_cats = np.concatenate([p.categories for p in prepared])
        for k, cat in enumerate(cats_here):
            n_neg = 2 * int((all_cats != cat).sum())
            total += 2 * np.log(1 + n_neg) / (len(cats_here) * n_pairs)
    assert rep.l_obj == pytest.approx(total, abs=1e-10)
    # reconstruction oracle
    l_c, l_d = [], []
    for pp in prepared:
        for coords, gt_d in ((pp.coords_a, pp.gt_detail_a),
                             (pp.coords_b, pp.gt_detail_b)):
            l_c.append(chamfer_distance(coords, gt_d[:len(coords)]))
            l_d.append(chamfer_distance(np.repeat(coords, 4, axis=0), gt_d))
    assert rep.l_rec_coarse == pytest.approx(np.mean(l_c), abs=1e-12)
    assert rep.l_rec_detail == pytest.approx(np.mean(l_d), abs=1e-12)


def test_prepare_without_occlusion_samples_the_complete_scenes():
    """occlude=False keeps every point, so seeds and matches are those the
    complete scenes give when occlusion is skipped altogether."""
    pair = make_scene_pair(load_default_scannet_parameters(), 3,
                           ProceduralAssetSource(n_points=48), 777,
                           LayoutParams())
    pp = prepare_scene_pair(pair, n_seeds=12, m_matches=8, theta=0.3, u=2,
                            rng_seed=9, occlude=False)
    seeds_a = sample_seed_set(pair.scene_a, 12, mix64(9, STREAM_SEEDS_A))
    seeds_b = sample_seed_set(pair.scene_b, 12, mix64(9, STREAM_SEEDS_B))
    np.testing.assert_array_equal(pp.coords_a, seeds_a.coords)
    np.testing.assert_array_equal(pp.coords_b, seeds_b.coords)
    np.testing.assert_array_equal(pp.object_ids_a, seeds_a.object_ids)
    np.testing.assert_array_equal(pp.object_ids_b, seeds_b.object_ids)
    ia = farthest_point_sample(seeds_a.coords, 8, mix64(9, STREAM_MATCH_A))
    ib = farthest_point_sample(seeds_b.coords, 8, mix64(9, STREAM_MATCH_B))
    want = match_points(
        pair, SeedSet(ia, seeds_a.coords[ia], seeds_a.object_ids[ia]),
        SeedSet(ib, seeds_b.coords[ib], seeds_b.object_ids[ib]), 0.3)
    assert len(want) > 0
    for field in ("a_indices", "b_indices", "distances", "object_ids"):
        np.testing.assert_array_equal(getattr(pp.matches, field),
                                      getattr(want, field))


def test_gradient_check_tiny_batch():
    prepared, enc, heads = tiny_batch()
    result = gradient_check(prepared, enc, heads, tau=0.1)
    assert result.ok, f"max rel {result.max_rel_error} at {result.worst}"
    assert result.n_entries == sum(v.size for v in enc.params.values()) \
        + sum(v.size for v in heads.params.values())


def test_gradient_check_checks_the_training_gradient(monkeypatch):
    # one l_overall entry of forward_backward's sweep off by 1e-3 relative:
    # gradient_check must see it, so it checks that sweep itself rather
    # than a recombination of the per-term gradients
    prepared, enc, heads = tiny_batch()
    grads = forward_backward(prepared, enc, heads,
                             tau=0.1).gradients["l_overall"]
    name = max(grads, key=lambda k: np.abs(grads[k]).max())
    i = int(np.abs(grads[name]).argmax())
    exact = decoder.forward_backward

    def skewed(*args, **kwargs):
        report = exact(*args, **kwargs)
        report.gradients["l_overall"][name].flat[i] *= 1 + 1e-3
        return report

    monkeypatch.setattr(decoder, "forward_backward", skewed)
    result = gradient_check(prepared, enc, heads, tau=0.1)
    assert not result.ok
    assert result.worst["l_overall"] == f"{name}[{i}]"
    assert 0.5e-3 < result.per_term["l_overall"] < 2e-3
    for term in ("l_obj", "l_pts", "l_rec"):
        assert result.per_term[term] <= 1e-4, term


def test_gradient_check_with_unseeded_object():
    # 6 encoder seeds over 4 objects: on side B object 1 gets none, so its
    # max-pooled row is empty
    dist = load_default_scannet_parameters()
    pair = make_scene_pair(dist, 4, ProceduralAssetSource(n_points=32), 24)
    pp = prepare_scene_pair(pair, n_seeds=6, m_matches=6, theta=0.25, u=2,
                            rng_seed=24)
    assert 1 in pp.object_ids_a and 1 not in pp.object_ids_b
    assert len(pp.matches) > 0
    enc = ToyEncoder(EncoderConfig(hidden=6, feature_dim=4, proj_hidden=5,
                                   embed_dim=4), rng_seed=1)
    heads = DecoderHeads(HeadsConfig(feature_dim=4, hidden=5, u=2),
                         rng_seed=2)
    result = gradient_check([pp], enc, heads)
    assert result.ok, f"max rel {result.max_rel_error} at {result.worst}"


def test_full_width_step_traced_peak_stays_under_100_mb():
    # perfbench's train_step pair (workload seed 7) at full-scale widths;
    # with the fold layer as one node and one reverse sweep a step's traced
    # peak is about 61 MB (72 MB with a sweep per term); with one node per
    # step of the fold it was about 154 MB
    c = replace(pipeline.PipelineConfig(), master_seed=7, batch_pairs=1,
                feature_dim=256, encoder_hidden=256, proj_hidden=256,
                decoder_hidden=256, n_encoder_seeds=256, u=3)
    pair = make_scene_pair(c.load_distribution(), c.n_objects_per_scene,
                           c.make_asset_source(), mix64(7, 0), c.layout())
    pp = prepare_scene_pair(pair, n_seeds=c.n_encoder_seeds,
                            m_matches=c.m_seeds, theta=c.theta, u=c.u,
                            rng_seed=mix64(7, 0), occlude=c.occlude)
    enc = ToyEncoder(c.encoder_config(), rng_seed=mix64(7, 0xE0C))
    heads = DecoderHeads(c.heads_config(), rng_seed=mix64(7, 0xDEC))
    tracemalloc.start()
    try:
        forward_backward([pp], enc, heads, c.tau, c.lambda_pts, c.lambda_rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100e6, f"traced peak {peak / 1e6:.1f} MB"


def test_checkpoint_roundtrip(tmp_path):
    _, enc, heads = tiny_batch()
    path = tmp_path / "ckpt.json"
    save_checkpoint(enc, heads, path)
    enc2, heads2 = load_checkpoint(path)
    assert enc2.config == enc.config
    for name in enc.params:
        np.testing.assert_array_equal(enc2.params[name], enc.params[name])
    for name in heads.params:
        np.testing.assert_array_equal(heads2.params[name],
                                      heads.params[name])


def test_checkpoint_shape_validation(tmp_path):
    import json
    _, enc, heads = tiny_batch()
    path = tmp_path / "ckpt.json"
    save_checkpoint(enc, heads, path)
    with open(path) as f:
        doc = json.load(f)
    doc["params"]["encoder.point_w1"]["data"] = [0.0, 1.0]
    with open(path, "w") as f:
        json.dump(doc, f)
    with pytest.raises(DimensionMismatch):
        load_checkpoint(path)


def test_encoder_feature_shapes():
    enc = ToyEncoder(EncoderConfig(feature_dim=8, hidden=12, proj_hidden=8,
                                   embed_dim=16), rng_seed=4)
    coords = np.random.default_rng(0).normal(size=(20, 3))
    ids = np.repeat(np.arange(4), 5)
    params = {k: ad.leaf(v) for k, v in enc.params.items()}
    z = enc.encode_graph(params, ad.leaf(coords), ids, 4)
    assert z.data.shape == (20, 8)
    h = enc.project_graph(params, z)
    assert h.data.shape == (20, 16)
