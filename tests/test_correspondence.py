"""FPS, seed translation, and relaxed object-aware matching."""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenepretext import kernels
from scenepretext.assets import ProceduralAssetSource
from scenepretext.catalog import load_default_scannet_parameters
from oracles import exact_match_oracle, reference_match_points
from scenepretext.correspondence import (MatchSet, SeedSet, _carry,
                                         farthest_point_sample, fps_subset,
                                         full_seed_pool, match_points,
                                         sample_seed_set)
from scenepretext.errors import (DimensionMismatch, NonFiniteInput,
                                 TooFewPoints)
from scenepretext.occlusion import occlude_scene
from scenepretext.pipeline import PipelineConfig
from scenepretext.scenegen import (LayoutParams, ScenePair, Transform,
                                   make_scene_pair)


def yaw(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


# ---------------------------------------------------------------------- FPS

def test_fps_exhaustive_returns_all_indices():
    pts = np.random.default_rng(1).normal(size=(17, 3))
    idx = farthest_point_sample(pts, 17, 5)
    assert sorted(idx.tolist()) == list(range(17))


def test_fps_collinear_maximal_spread():
    # points at 0, 1, 10 on a line; starting at 0 the farthest is 10
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
    idx = farthest_point_sample(pts, 2, rng_seed=11)  # seed 11 starts at 0
    assert sorted(idx.tolist()) == [0, 2]


def test_fps_beats_random_subsets_on_min_pairwise_distance():
    rng = np.random.default_rng(2024)
    pts = rng.uniform(size=(200, 3))
    idx = farthest_point_sample(pts, 50, 7)

    def min_pairwise(subset):
        d = np.linalg.norm(subset[:, None] - subset[None, :], axis=2)
        d[np.arange(len(subset)), np.arange(len(subset))] = np.inf
        return d.min()

    fps_quality = min_pairwise(pts[idx])
    for _ in range(100):
        rand_idx = rng.choice(200, size=50, replace=False)
        assert fps_quality >= min_pairwise(pts[rand_idx])


def test_fps_deterministic_and_bounds():
    pts = np.random.default_rng(3).normal(size=(40, 3))
    a = farthest_point_sample(pts, 12, 9)
    b = farthest_point_sample(pts, 12, 9)
    np.testing.assert_array_equal(a, b)
    for m in (41, 0, -1):
        with pytest.raises(TooFewPoints):
            farthest_point_sample(pts, m, 0)
    with pytest.raises(TooFewPoints):
        farthest_point_sample(np.empty((0, 3)), 1, 0)


def reference_fps(points, m, rng_seed):
    """The norm-based FPS loop whose indices the kernel must reproduce."""
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    chosen = np.empty(m, dtype=np.intp)
    chosen[0] = rng.integers(points.shape[0])
    min_d = np.linalg.norm(points - points[chosen[0]], axis=1)
    for i in range(1, m):
        nxt = int(np.argmax(min_d))
        chosen[i] = nxt
        np.minimum(min_d, np.linalg.norm(points - points[nxt], axis=1),
                   out=min_d)
    return chosen


FPS_SEEDS = (0, 13)  # both start a 3-point cloud at index 2

# q and p have bit-equal norms, so from the origin (index 2) the first pick
# is a tie that goes to q at index 0. Their squared norms differ, and so do
# their norms summed in any other order: a kernel that compares squares or
# reorders the sum picks p instead.
TIE_UNDER_SQRT = [[-0.482, 0.599, 0.04],
                  [-0.011072631731757931, 0.19069707324842997,
                   0.7458129947118217],
                  [0.0, 0.0, 0.0]]
TIE_UNDER_ORDER = [[-1.606, 1.812, -0.603],
                   [-2.353221039463148, 0.6168599221017661,
                    0.5549987170549011],
                   [0.0, 0.0, 0.0]]


def _equivalence_clouds():
    rng = np.random.default_rng(404)
    lattice = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    return {
        "tie_under_sqrt": np.array(TIE_UNDER_SQRT),
        "tie_under_order": np.array(TIE_UNDER_ORDER),
        "random": rng.normal(size=(48, 3)) * [3.0, 0.5, 0.01],
        "duplicates": rng.uniform(size=(9, 3))[rng.integers(9, size=40)],
        "lattice": lattice[rng.permutation(len(lattice))],
        "lattice_float32": (lattice[::2] * 0.1).astype(np.float32),
        "strided": rng.normal(size=(30, 6))[:, ::2],
    }


def test_fps_tie_clouds_are_ties():
    for cloud in (TIE_UNDER_SQRT, TIE_UNDER_ORDER):
        q, p = np.array(cloud[:2])
        assert np.linalg.norm(q) == np.linalg.norm(p)
        for s in FPS_SEEDS:
            assert reference_fps(cloud, 2, s).tolist() == [2, 0]
    q, p = np.array(TIE_UNDER_SQRT[:2])
    assert (q * q).sum() != (p * p).sum()


@pytest.mark.parametrize("name", sorted(_equivalence_clouds()))
def test_fps_matches_norm_reference_for_every_m(name):
    pts = _equivalence_clouds()[name]
    n = pts.shape[0]
    for rng_seed in FPS_SEEDS:
        for m in range(1, n + 1):
            np.testing.assert_array_equal(
                farthest_point_sample(pts, m, rng_seed),
                reference_fps(pts, m, rng_seed), err_msg=f"m={m}")


def test_fps_matches_norm_reference_at_target_scale():
    # the detail-target size of the default config: 576 of 3072 points
    pts = np.random.default_rng(5).normal(size=(3072, 3))
    np.testing.assert_array_equal(farthest_point_sample(pts, 576, 21),
                                  reference_fps(pts, 576, 21))


@st.composite
def fps_cases(draw):
    """A cloud, a pick count and a seed: normal clouds, integer grids full
    of ties, clouds of a few repeated points and the two tie clouds, with
    the pick count often at an edge, 1 or n."""
    kind = draw(st.sampled_from(["normal", "grid", "duplicates",
                                 "tie_under_sqrt", "tie_under_order"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 64))
    if kind == "normal":
        pts = rng.normal(size=(n, 3))
    elif kind == "grid":
        pts = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
    elif kind == "duplicates":
        base = rng.normal(size=(draw(st.integers(1, 6)), 3))
        pts = base[rng.integers(len(base), size=n)]
    else:
        pts = np.array(TIE_UNDER_SQRT if kind == "tie_under_sqrt"
                       else TIE_UNDER_ORDER)
    m = draw(st.sampled_from([1, len(pts), draw(st.integers(1, len(pts)))]))
    return pts, m, draw(st.integers(0, 2 ** 63 - 1))


@settings(max_examples=150, deadline=None)
@given(fps_cases())
def test_fps_matches_norm_reference_on_every_pick(case):
    pts, m, rng_seed = case
    np.testing.assert_array_equal(farthest_point_sample(pts, m, rng_seed),
                                  reference_fps(pts, m, rng_seed))


def _bucket_rows():
    """The kernel's FPS bucket size, in rows."""
    return ctypes.c_ssize_t.in_dll(kernels.load(), "fps_bucket").value


@st.composite
def bucket_cases(draw):
    """A cloud of n rows at a bucket edge (n = BS - 1, BS, BS + 1 or
    2 BS + 1), with 1, a drawn number or all n picks: normal clouds,
    integer grids full of ties and a few tight clusters far apart."""
    bs = _bucket_rows()
    n = draw(st.sampled_from([bs - 1, bs, bs + 1, 2 * bs + 1]))
    kind = draw(st.sampled_from(["normal", "grid", "clustered"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "normal":
        pts = rng.normal(size=(n, 3))
    elif kind == "grid":
        pts = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
    else:
        centres = rng.uniform(-50, 50, size=(draw(st.integers(2, 5)), 3))
        pts = centres[rng.integers(len(centres), size=n)] \
            + rng.normal(scale=0.01, size=(n, 3))
    m = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    return pts, m, draw(st.integers(0, 2 ** 63 - 1))


@settings(max_examples=150, deadline=None)
@given(bucket_cases())
def test_fps_matches_norm_reference_at_bucket_edges(case):
    pts, m, rng_seed = case
    np.testing.assert_array_equal(farthest_point_sample(pts, m, rng_seed),
                                  reference_fps(pts, m, rng_seed))


def test_fps_matches_norm_reference_on_clustered_clouds():
    # tight blobs far apart, each spread over several buckets
    rng = np.random.default_rng(31)
    centres = rng.uniform(-100, 100, size=(4, 3))
    pts = np.repeat(centres, 150, axis=0) \
        + rng.normal(scale=0.05, size=(600, 3))
    for rows in (pts, pts[rng.permutation(len(pts))]):
        for m in (1, 4, 5, 100, 600):
            np.testing.assert_array_equal(farthest_point_sample(rows, m, 3),
                                          reference_fps(rows, m, 3))


def test_fps_matches_norm_reference_on_a_shuffled_scene():
    # a default scene's target run, on its rows as stored (object by
    # object) and shuffled, which stretches every bucket's box over the
    # room: fewer buckets are skipped, the picks stay the same
    config = PipelineConfig()
    pts = make_scene_pair(config.load_distribution(),
                          config.n_objects_per_scene,
                          config.make_asset_source(), 12).scene_a.points
    need = config.u * config.u * config.n_encoder_seeds
    shuffled = pts[np.random.default_rng(12).permutation(len(pts))]
    for rows in (pts, shuffled):
        np.testing.assert_array_equal(farthest_point_sample(rows, need, 8),
                                      reference_fps(rows, need, 8))


def test_fps_matches_norm_reference_on_the_full_tie_grid():
    grid = np.stack(np.meshgrid(*[np.arange(9.0)] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    shuffled = grid[np.random.default_rng(9).permutation(len(grid))]
    for rows in (grid, shuffled):
        for rng_seed in FPS_SEEDS:
            np.testing.assert_array_equal(
                farthest_point_sample(rows, 729, rng_seed),
                reference_fps(rows, 729, rng_seed))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fps_refuses_non_finite_points(bad):
    pts = np.random.default_rng(6).normal(size=(10, 3))
    pts[4, 1] = bad
    with pytest.raises(NonFiniteInput):
        farthest_point_sample(pts, 3, 0)


@pytest.mark.parametrize("shape", [(10,), (10, 2), (10, 4), (2, 5, 3)])
def test_fps_refuses_clouds_not_of_shape_n_by_3(shape):
    with pytest.raises(DimensionMismatch):
        farthest_point_sample(np.zeros(shape), 1, 0)


# ------------------------------------------------------------ translation
# match_points carries a scene-A seed onto scene B by t_b after t_a inverse

def test_translate_seed_identity():
    t = Transform(yaw(0.3), np.array([1.0, 2.0, 3.0]), 1.1)
    seed = np.array([0.5, -0.2, 0.9])
    np.testing.assert_allclose(t.compose(t.inverse()).apply(seed), seed,
                               atol=1e-12)


def test_translate_seed_pure_translation():
    ta = Transform(np.eye(3), np.zeros(3))
    tb = Transform(np.eye(3), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(
        tb.compose(ta.inverse()).apply(np.array([0.2, 0.3, 0.4])),
        [1.2, 0.3, 0.4], atol=1e-15)


def test_translate_seed_algebraic_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        ta = Transform(yaw(rng.uniform(0, 2 * np.pi)), rng.normal(size=3),
                       rng.uniform(0.8, 1.2))
        tb = Transform(yaw(rng.uniform(0, 2 * np.pi)), rng.normal(size=3),
                       rng.uniform(0.8, 1.2))
        canonical = rng.normal(size=3)
        seed_in_a = ta.apply(canonical)
        np.testing.assert_allclose(tb.compose(ta.inverse()).apply(seed_in_a),
                                   tb.apply(canonical), atol=1e-9)


# ---------------------------------------------------------------- matching

def paired_scenes(seed=50, n_objects=5, occlude=False):
    dist = load_default_scannet_parameters()
    src = ProceduralAssetSource(n_points=96)
    pair = make_scene_pair(dist, n_objects, src, seed, LayoutParams())
    if occlude:
        occ_a, _ = occlude_scene(pair.scene_a, seed + 1)
        occ_b, _ = occlude_scene(pair.scene_b, seed + 2)
        return ScenePair(occ_a, occ_b, pair.pair_seed)
    return pair


def brute_force_matches(pair, seeds_a, pool, theta):
    """Exhaustive per-seed nearest neighbor over same-object candidates."""
    records = []
    t_a = pair.transforms("a")
    t_b = pair.transforms("b")
    for i in range(seeds_a.m):
        y = int(seeds_a.object_ids[i])
        best_j, best_d = -1, np.inf
        target = t_b[y].apply(t_a[y].inverse().apply(seeds_a.coords[i]))
        for j in range(pool.m):
            if int(pool.object_ids[j]) != y:
                continue
            d = float(np.linalg.norm(pool.coords[j] - target))
            if d < best_d:
                best_d, best_j = d, j
        if best_j >= 0 and best_d < theta:
            records.append((int(seeds_a.indices[i]),
                            int(pool.indices[best_j]), y))
    return records


def test_exact_counterpart_distance_zero():
    pair = paired_scenes(occlude=False)
    seeds_a = sample_seed_set(pair.scene_a, 60, 4)
    pool = full_seed_pool(pair.scene_b)
    matches = match_points(pair, seeds_a, pool, theta=0.1)
    assert len(matches) == seeds_a.m
    assert matches.distances.max() < 1e-6


def test_fully_removed_object_unmatched():
    pair = paired_scenes(occlude=False)
    keep = pair.scene_b.point_object_ids != 2
    pool = SeedSet(np.nonzero(keep)[0], pair.scene_b.points[keep],
                   pair.scene_b.point_object_ids[keep])
    seeds_a = sample_seed_set(pair.scene_a, 80, 4)
    matches = match_points(pair, seeds_a, pool, theta=1e9)
    on_gone_object = seeds_a.object_ids == 2
    assert on_gone_object.sum() > 0
    assert len(matches) == seeds_a.m - on_gone_object.sum()
    assert not np.any(matches.object_ids == 2)


def test_match_equals_brute_force_oracle_with_occlusion():
    pair = paired_scenes(seed=61, occlude=True)
    seeds_a = sample_seed_set(pair.scene_a, 100, 5)
    pool = sample_seed_set(pair.scene_b, 100, 6)
    matches = match_points(pair, seeds_a, pool, theta=0.1)
    oracle = brute_force_matches(pair, seeds_a, pool, 0.1)
    got = list(zip(matches.a_indices.tolist(), matches.b_indices.tolist(),
                   matches.object_ids.tolist()))
    assert got == oracle


def test_matching_invariant_to_joint_rigid_motion_of_b():
    pair = paired_scenes(seed=73, occlude=True)
    seeds_a = sample_seed_set(pair.scene_a, 64, 14)
    pool_b = sample_seed_set(pair.scene_b, 64, 15)
    base = match_points(pair, seeds_a, pool_b, theta=0.1)

    motion = Transform(yaw(1.234), np.array([3.0, -2.0, 0.7]))
    moved_objects = [
        type(o)(o.category_id, o.instance_id, motion.apply(o.points),
                motion.compose(o.transform))
        for o in pair.scene_b.objects
    ]
    from scenepretext.scenegen import SceneInstance
    moved_b = SceneInstance.from_objects(pair.scene_b.scene_type_id,
                                         moved_objects)
    moved_pair = ScenePair(pair.scene_a, moved_b, pair.pair_seed)
    moved_pool = SeedSet(pool_b.indices, moved_b.points[pool_b.indices],
                         pool_b.object_ids)
    moved = match_points(moved_pair, seeds_a, moved_pool, theta=0.1)
    np.testing.assert_array_equal(base.a_indices, moved.a_indices)
    np.testing.assert_array_equal(base.b_indices, moved.b_indices)
    np.testing.assert_allclose(base.distances, moved.distances, atol=1e-9)


def test_theta_infinite_matches_all_seeds_with_candidates():
    pair = paired_scenes(seed=90, occlude=False)
    seeds_a = sample_seed_set(pair.scene_a, 70, 3)
    pool = sample_seed_set(pair.scene_b, 70, 5)
    matches = match_points(pair, seeds_a, pool, theta=np.inf)
    objects_with_candidates = set(pool.object_ids.tolist())
    expected = sum(1 for y in seeds_a.object_ids
                   if int(y) in objects_with_candidates)
    assert len(matches) == expected


def test_match_results_respect_object_consistency_and_threshold():
    pair = paired_scenes(seed=91, occlude=True)
    seeds_a = sample_seed_set(pair.scene_a, 100, 7)
    pool = sample_seed_set(pair.scene_b, 100, 8)
    theta = 0.1
    matches = match_points(pair, seeds_a, pool, theta)
    assert np.all(matches.distances < theta)
    pos_a = {int(i): int(y) for i, y in zip(seeds_a.indices,
                                            seeds_a.object_ids)}
    pos_b = {int(i): int(y) for i, y in zip(pool.indices, pool.object_ids)}
    for a, b, y in zip(matches.a_indices, matches.b_indices,
                       matches.object_ids):
        assert pos_a[int(a)] == int(y)
        assert pos_b[int(b)] == int(y)


def test_one_to_many_matching_allowed():
    # two nearby A seeds, one candidate in B: both seeds take it
    from scenepretext.scenegen import ObjectInstance, SceneInstance
    canon = np.array([[0.0, 0, 0], [0.05, 0, 0], [5.0, 0, 0],
                      [5.05, 0, 0], [9.0, 0, 0], [9.05, 0, 0],
                      [12.0, 0, 0], [12.05, 0, 0]])
    canon = canon - canon.mean(axis=0)
    ident = Transform(np.eye(3), np.zeros(3))
    obj = ObjectInstance(0, 0, canon, ident)
    scene = SceneInstance.from_objects(0, [obj])
    pair = ScenePair(scene, scene, 0)
    seeds_a = SeedSet(np.array([0, 1]), scene.points[:2],
                      np.array([0, 0]))
    pool = SeedSet(np.array([0]), scene.points[:1], np.array([0]))
    matches = match_points(pair, seeds_a, pool, theta=1.0)
    assert len(matches) == 2
    assert matches.b_indices.tolist() == [0, 0]


def test_match_set_validation_and_records():
    with pytest.raises(ValueError):
        MatchSet(np.array([0]), np.array([1]), np.array([0.2]),
                 np.array([0]), theta=0.1)
    ms = MatchSet(np.array([0]), np.array([1]), np.array([0.05]),
                  np.array([3]), theta=0.1)
    assert ms.to_records() == [{"a_index": 0, "b_index": 1,
                                "distance": 0.05, "object_id": 3}]


def test_seed_set_uniqueness_enforced():
    # sorted and unsorted duplicates alike
    for indices in ([0, 0], [0, 1, 1, 2], [3, 1, 3], [5, 2, 7, 2]):
        n = len(indices)
        with pytest.raises(ValueError, match="unique"):
            SeedSet(np.array(indices), np.zeros((n, 3)), np.zeros(n, int))


@pytest.mark.parametrize("indices", [[], [4], [0, 1, 2], [2, 0, 1],
                                     [9, 3, 5, 0]])
def test_seed_set_accepts_unique_indices_in_any_order(indices):
    n = len(indices)
    seeds = SeedSet(np.array(indices, dtype=np.intp), np.zeros((n, 3)),
                    np.zeros(n, int))
    assert seeds.m == n


def test_seeds_from_too_few_distinct_points_raise_too_few_points():
    # 2 distinct points in 5: once both are picked, FPS repeats a pick, as
    # the reference loop does, and no seed set is built from the repeats
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0.]])
    for rng_seed in (0, 4):
        picks = farthest_point_sample(pts, 4, rng_seed)
        np.testing.assert_array_equal(picks, reference_fps(pts, 4, rng_seed))
        assert len(set(picks.tolist())) < 4   # an index repeats
    from scenepretext.scenegen import ObjectInstance, SceneInstance
    scene = SceneInstance.from_objects(
        0, [ObjectInstance(0, 0, pts, Transform(np.eye(3), np.zeros(3)))])
    for make in (lambda: sample_seed_set(scene, 4, 0),
                 lambda: fps_subset(full_seed_pool(scene), 4, 4)):
        with pytest.raises(TooFewPoints,
                           match="5 points, too few distinct for 4 seeds"):
            make()
    # as many seeds as distinct points still succeed
    assert sample_seed_set(scene, 2, 0).m == 2
    assert fps_subset(full_seed_pool(scene), 2, 4).m == 2


# ------------------------------------------------- per-seed matching oracle

def assert_same_matches(got: MatchSet, want: MatchSet):
    for field in ("a_indices", "b_indices", "distances", "object_ids"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype, field
        assert g.shape == w.shape, field
        assert g.tobytes() == w.tobytes(), field
    assert got.theta == want.theta


def test_carry_is_per_seed_apply_bit_for_bit():
    """match_points carries an object's seeds in one stacked product; each
    row must be Transform.apply on that seed alone. A numpy or BLAS change
    that breaks this fails here, not only in a GOLDEN digest."""
    rng = np.random.default_rng(12)
    for _ in range(240):
        ta, tb = (Transform(yaw(rng.uniform(0, 2 * np.pi)),
                            np.append(rng.uniform(0, 6, 2), rng.uniform()),
                            rng.uniform(0.9, 1.1)) for _ in range(2))
        carrier = tb.compose(ta.inverse())
        coords = ta.apply(rng.normal(scale=0.5, size=(100, 3)))
        want = np.array([carrier.apply(c) for c in coords])
        assert _carry(carrier, coords).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31), n_objects=st.integers(1, 8),
       occlude=st.booleans(), m=st.integers(1, 120),
       pool=st.sampled_from(["fps", "full_pool", "object-without-candidates",
                             "every-candidate-twice"]),
       theta=st.sampled_from([0.02, 0.1, np.inf]))
def test_match_points_equals_per_seed_loop(seed, n_objects, occlude, m,
                                           pool, theta):
    pair = paired_scenes(seed, n_objects, occlude)
    seeds_a = sample_seed_set(pair.scene_a,
                              min(m, pair.scene_a.points.shape[0]), seed + 3)
    scene_b = pair.scene_b
    if pool == "fps":
        pool_b = sample_seed_set(scene_b, min(m, scene_b.points.shape[0]),
                                 seed + 4)
    elif pool == "full_pool":
        pool_b = full_seed_pool(scene_b)
    elif pool == "every-candidate-twice":
        # each nearest candidate ties with its copy: the lower position wins
        n = scene_b.points.shape[0]
        pool_b = SeedSet(np.arange(2 * n), np.tile(scene_b.points, (2, 1)),
                         np.tile(scene_b.point_object_ids, 2))
    else:
        # the first seed's object has no candidates in B
        keep = scene_b.point_object_ids != seeds_a.object_ids[0]
        pool_b = SeedSet(np.flatnonzero(keep), scene_b.points[keep],
                         scene_b.point_object_ids[keep])
    got = match_points(pair, seeds_a, pool_b, theta)
    assert_same_matches(got, reference_match_points(pair, seeds_a, pool_b,
                                                    theta))
    if pool == "object-without-candidates":
        assert seeds_a.object_ids[0] not in got.object_ids
    if pool == "every-candidate-twice":
        assert np.all(got.b_indices < scene_b.points.shape[0])


@pytest.mark.parametrize("m", [1, 40, 300, 10_000])
def test_fps_subset_of_full_pool_is_clamped_fps(m):
    """Bit for bit the clamp-then-FPS code that generation used inline."""
    scene = paired_scenes(seed=61, occlude=True).scene_a
    want = farthest_point_sample(scene.points,
                                 min(m, scene.points.shape[0]), 17)
    got = fps_subset(full_seed_pool(scene), m, 17)
    np.testing.assert_array_equal(got.indices, want)
    np.testing.assert_array_equal(got.coords, scene.points[want])
    np.testing.assert_array_equal(got.object_ids,
                                  scene.point_object_ids[want])


def test_fps_subset_keeps_the_pool_indices():
    pool = sample_seed_set(paired_scenes(seed=62).scene_b, 100, 3)
    pick = farthest_point_sample(pool.coords, 30, 4)
    got = fps_subset(pool, 30, 4)
    np.testing.assert_array_equal(got.indices, pool.indices[pick])
    np.testing.assert_array_equal(got.object_ids, pool.object_ids[pick])


def test_fps_only_on_foreground():
    pair = paired_scenes(seed=95, occlude=False)
    seeds = sample_seed_set(pair.scene_a, 50, 12)
    # seed object ids must index real objects; the merged cloud holds
    # foreground only, so every seed index must be within it
    assert seeds.indices.max() < pair.scene_a.points.shape[0]
    assert set(seeds.object_ids.tolist()) <= set(range(5))


def test_exact_match_oracle_agrees_with_relaxed_matcher():
    pair = paired_scenes(seed=96, occlude=False)
    seeds_a = sample_seed_set(pair.scene_a, 60, 8)
    exact = exact_match_oracle(pair, seeds_a)
    assert len(exact) == seeds_a.m
    assert exact.distances.max() < 1e-9
    relaxed = match_points(pair, seeds_a, full_seed_pool(pair.scene_b),
                           theta=0.1)
    np.testing.assert_array_equal(relaxed.a_indices, exact.a_indices)
    np.testing.assert_array_equal(relaxed.b_indices, exact.b_indices)


def test_exact_match_oracle_rejects_occluded_pairs():
    pair = paired_scenes(seed=97, occlude=True)
    seeds_a = sample_seed_set(pair.scene_a, 10, 8)
    with pytest.raises(ValueError):
        exact_match_oracle(pair, seeds_a)
