"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import json
import math
import time

import numpy as np

from scenepretext.assets import ProceduralAssetSource
from scenepretext.catalog import load_default_scannet_parameters
from scenepretext.cli import gradcheck_batch, main
from scenepretext.correspondence import (full_seed_pool, match_points,
                                         sample_seed_set)
from scenepretext.decoder import (DecoderHeads, HeadsConfig, decode,
                                  gradient_check)
from scenepretext.losses import chamfer_distance
from scenepretext.occlusion import occlude_scene
from scenepretext.pipeline import (PipelineConfig, evaluate_losses,
                                   generate_dataset, list_pair_dirs,
                                   load_pair)
from scenepretext.scenegen import (LayoutParams, ObjectInstance,
                                   SceneInstance, Transform,
                                   make_scene_pair, sample_scene_spec)

PUBLISHED_SCENE_PCT = [18.04, 14.81, 14.01, 13.62, 11.43, 7.14, 4.43, 3.57,
                       2.64, 2.45, 2.31, 2.12, 1.26]


def report(criterion: str, ok: bool, detail: str):
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_distribution_fidelity():
    t0 = time.perf_counter()
    dist = load_default_scannet_parameters()
    rng = np.random.default_rng(5)
    draws = rng.choice(dist.n_scene_types, size=100_000, p=dist.scene_prior)
    freq = np.bincount(draws, minlength=dist.n_scene_types) / 100_000
    published = np.array(PUBLISHED_SCENE_PCT) / 100.0
    max_dev = np.abs(freq - published).max()
    elapsed = time.perf_counter() - t0
    report("1 distribution fidelity",
           max_dev <= 0.005 and elapsed < 5.0,
           f"max deviation {max_dev * 100:.3f}pp, {elapsed:.2f}s")


def test_criterion_2_epsilon_greedy_law():
    from scenepretext.catalog import SceneDistribution
    dist = SceneDistribution(
        scene_labels=("room",), category_labels=("c0", "c1"),
        scene_prior=np.array([1.0]),
        category_given_scene=np.array([[0.8, 0.2]]),
        instance_given_category=(np.array([1.0]), np.array([1.0])),
        epsilon=0.1)
    spec = sample_scene_spec(dist, 100_000, rng_seed=12)
    freq = np.mean([cat == 0 for cat, _ in spec.draws])
    report("2 epsilon-greedy law", abs(freq - 0.77) <= 0.01,
           f"empirical {freq:.4f} vs 0.77 +/- 0.01")


def test_criterion_3_transform_matching_oracle():
    dist = load_default_scannet_parameters()
    source = ProceduralAssetSource(n_points=96)
    theta = 0.1
    checked_seeds = 0
    total_matches = 0
    for trial in range(100):
        pair = make_scene_pair(dist, 8, source, 90_000 + trial,
                               LayoutParams())
        seeds_a = sample_seed_set(pair.scene_a, 100, 7_000 + trial)
        pool = full_seed_pool(pair.scene_b)
        matches = match_points(pair, seeds_a, pool, theta)
        # occlusion disabled: every object retains candidates, so every
        # seed must be matched essentially exactly
        if len(matches) != seeds_a.m or matches.distances.max() >= 1e-6:
            report("3 transform/matching oracle", False,
                   f"pair {trial}: {len(matches)}/{seeds_a.m} matched, "
                   f"max d {matches.distances.max():.2e}")
        # independent exhaustive nearest-neighbor oracle, plain python
        t_a = pair.transforms("a")
        t_b = pair.transforms("b")
        got = list(zip(matches.a_indices, matches.b_indices,
                       matches.object_ids))
        for i in range(seeds_a.m):
            y = int(seeds_a.object_ids[i])
            target = t_b[y].apply(t_a[y].inverse().apply(seeds_a.coords[i]))
            tx, ty, tz = target
            best_j, best_d = -1, math.inf
            for j in range(pool.m):
                if int(pool.object_ids[j]) != y:
                    continue
                px, py, pz = pool.coords[j]
                d = math.sqrt((px - tx) ** 2 + (py - ty) ** 2
                              + (pz - tz) ** 2)
                if d < best_d:
                    best_d, best_j = d, j
            expected = (int(seeds_a.indices[i]), int(pool.indices[best_j]),
                        y) if best_d < theta else None
            actual = (int(got[i][0]), int(got[i][1]), int(got[i][2])) \
                if i < len(got) else None
            if expected != actual:
                report("3 transform/matching oracle", False,
                       f"pair {trial} seed {i}: {actual} != {expected}")
        checked_seeds += seeds_a.m
        total_matches += len(matches)
    report("3 transform/matching oracle", True,
           f"100 pairs, {checked_seeds} seeds, {total_matches} matches, "
           f"all d < 1e-6 and oracle-equal")


def test_criterion_4_occlusion_contract():
    rng = np.random.default_rng(40)
    objects_checked = 0
    for scene_idx in range(1000):
        objs = []
        for k in range(10):
            pts = rng.normal(size=(60, 3))
            pts -= pts.mean(axis=0)
            tf = Transform(np.eye(3), rng.uniform(0, 6, 3))
            objs.append(ObjectInstance(k, 0, tf.apply(pts), tf))
        scene = SceneInstance.from_objects(0, objs)
        occluded, record = occlude_scene(scene, 100_000 + scene_idx)
        for k, obj in enumerate(scene.objects):
            f = float(record.fractions[k])
            if not 0.0 <= f <= 0.5:
                report("4 occlusion contract", False,
                       f"fraction {f} out of range")
            kept = record.kept_indices[k]
            expected_kept = 60 - int(np.floor(f * 60))
            if kept.size != expected_kept:
                report("4 occlusion contract", False,
                       f"kept {kept.size} != {expected_kept}")
            d = np.linalg.norm(obj.points - record.viewpoint, axis=1)
            removed = np.setdiff1d(np.arange(60), kept)
            if removed.size and kept.size \
                    and d[removed].min() < d[kept].max() - 1e-12:
                report("4 occlusion contract", False,
                       f"scene {scene_idx} object {k}: removed point "
                       f"closer than kept point")
            objects_checked += 1
    report("4 occlusion contract", objects_checked == 10_000,
           f"{objects_checked} occluded objects verified")


def test_criterion_5_chamfer_oracle():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(size=(64, 3))
        y = rng.uniform(size=(64, 3))
        got = chamfer_distance(x, y)
        brute = 0.0
        for p in x:
            brute += min(((p - q) ** 2).sum() for q in y) / 64
        for q in y:
            brute += min(((p - q) ** 2).sum() for p in x) / 64
        worst = max(worst, abs(got - brute))
    self_val = chamfer_distance(rng.uniform(size=(64, 3)),
                                rng.uniform(size=(64, 3)))
    x_same = rng.uniform(size=(64, 3))
    self_zero = chamfer_distance(x_same, x_same.copy())
    report("5 chamfer oracle", worst <= 1e-12 and self_zero == 0.0,
           f"200 pairs, max |diff| {worst:.2e}, chamfer(X,X) = {self_zero}")


def test_criterion_6_gradient_suite():
    t0 = time.perf_counter()
    prepared, encoder, heads = gradcheck_batch()
    result = gradient_check(prepared, encoder, heads,
                            step=1e-5, rtol=1e-4)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{t}={v:.2e}" for t, v in sorted(
        result.per_term.items()))
    report("6 gradient suite",
           result.ok and elapsed < 60.0,
           f"{detail}; {result.n_entries} params, "
           f"{result.n_kink_entries} argmin crossings re-verified, "
           f"{elapsed:.1f}s")


def test_criterion_7_decoder_shape_law():
    rng = np.random.default_rng(70)
    ok = True
    checked = []
    for n, u in ((1, 1), (3, 2), (16, 3), (25, 4), (7, 5)):
        heads = DecoderHeads(HeadsConfig(feature_dim=6, hidden=8, u=u),
                             rng_seed=n)
        out = decode(rng.normal(size=(n, 3)), rng.normal(size=(n, 6)),
                     heads)
        ok &= out.y_detail.shape == (u * u * n, 3)
        checked.append(f"u={u},n={n}->{out.y_detail.shape[0]}")
    heads = DecoderHeads(HeadsConfig(feature_dim=6, hidden=8, u=3),
                         rng_seed=0)
    out = decode(rng.normal(size=(1024, 3)), rng.normal(size=(1024, 6)),
                 heads)
    ok &= out.y_detail.shape[0] == 9216
    report("7 decoder shape law", ok,
           "; ".join(checked) + f"; 1024 seeds at u=3 -> "
           f"{out.y_detail.shape[0]} detail points")


def test_criterion_8_overall_recomposition(tmp_path):
    config = PipelineConfig(
        n_scenes=4, n_objects_per_scene=4, points_per_object=64,
        m_seeds=24, n_encoder_seeds=16, u=2, feature_dim=8, embed_dim=8,
        encoder_hidden=12, proj_hidden=8, decoder_hidden=10,
        master_seed=88, batch_pairs=2)
    assert config.lambda_pts == 0.1 and config.lambda_rec == 100.0
    generate_dataset(config, tmp_path / "ds", progress=False)
    reports = evaluate_losses(tmp_path / "ds", progress=False)
    worst = 0.0
    for rep in reports:
        recomposed = rep.l_obj + 0.1 * rep.l_pts \
            + 100.0 * (rep.l_rec_coarse + rep.l_rec_detail)
        worst = max(worst, abs(recomposed - rep.l_overall))
    report("8 overall-loss recomposition", worst <= 1e-12,
           f"{len(reports)} reports, max |recomposed - stored| {worst:.2e}")


def test_criterion_9_determinism(tmp_path):
    args = ["--seed", "7", "--n-scenes", "3", "--n-objects", "4",
            "--points-per-object", "48", "--m-seeds", "16",
            "--n-encoder-seeds", "12", "--u", "2"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["generate", "--out", str(out1)] + args)
    code2 = main(["generate", "--out", str(out2)] + args)
    trees = []
    for root in (out1, out2):
        trees.append({str(p.relative_to(root)): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    identical = code1 == code2 == 0 and trees[0] == trees[1]
    # config hash validates on reload
    with open(out1 / "summary.json") as f:
        config = PipelineConfig.from_dict(json.load(f)["config"])
    pair, manifest = load_pair(list_pair_dirs(out1)[0], config)
    report("9 determinism", identical and manifest.pair_id == 0,
           f"{len(trees[0])} files byte-identical, manifest hash validated")
