"""Scene sampling, transforms, placement, and the procedural assets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_realize_scene
from scenepretext.assets import (CATEGORY_LABELS, ProceduralAssetSource,
                                 procedural_asset)
from scenepretext.catalog import SceneDistribution, \
    load_default_scannet_parameters
from scenepretext.errors import (DegenerateObject, PlacementFailure,
                                 UnknownCategory, to_json)
from scenepretext.scenegen import (LayoutParams, SceneSpec, Transform,
                                   make_scene_pair, realize_scene,
                                   sample_scene_spec)


def two_category_distribution(p1=0.8, epsilon=0.1):
    return SceneDistribution(
        scene_labels=("room",),
        category_labels=("c0", "c1"),
        scene_prior=np.array([1.0]),
        category_given_scene=np.array([[p1, 1.0 - p1]]),
        instance_given_category=(np.array([1.0]), np.array([1.0])),
        epsilon=epsilon,
    )


class CubeSource:
    """Deterministic unit-cube asset for layout tests."""

    def __init__(self, n=64, side=1.0):
        rng = np.random.default_rng(0)
        face = rng.uniform(-side / 2, side / 2, size=(n, 3))
        axis = rng.integers(0, 3, size=n)
        sign = rng.choice([-1.0, 1.0], size=n)
        face[np.arange(n), axis] = sign * side / 2
        self.points = face - face.mean(axis=0)

    def __call__(self, category_id, instance_id):
        return self.points


# ---------------------------------------------------------------- sampling

def test_epsilon_zero_one_hot_row_always_that_category():
    dist = two_category_distribution(p1=1.0, epsilon=0.0)
    for seed in range(5):
        spec = sample_scene_spec(dist, 50, seed)
        assert all(cat == 0 for cat, _ in spec.draws)


def test_epsilon_one_is_uniform():
    dist = two_category_distribution(p1=1.0, epsilon=1.0)
    spec = sample_scene_spec(dist, 50_000, 123)
    freq = np.mean([cat for cat, _ in spec.draws])
    sigma = np.sqrt(0.25 / 50_000)
    assert abs(freq - 0.5) <= 3 * sigma


def test_epsilon_greedy_mixture_frequency():
    # closed form: 0.9 * 0.8 + 0.1 * 0.5 = 0.77
    dist = two_category_distribution(p1=0.8, epsilon=0.1)
    draws = []
    for seed in range(10):
        spec = sample_scene_spec(dist, 10_000, seed)
        draws += [cat for cat, _ in spec.draws]
    freq0 = np.mean(np.array(draws) == 0)
    assert abs(freq0 - 0.77) <= 0.01


def test_sample_spec_deterministic():
    dist = load_default_scannet_parameters()
    a = sample_scene_spec(dist, 12, 77)
    b = sample_scene_spec(dist, 12, 77)
    assert a == b


def test_scene_type_frequencies_match_prior():
    dist = load_default_scannet_parameters()
    types = [sample_scene_spec(dist, 1, seed).scene_type_id
             for seed in range(100_000)]
    freq = np.bincount(types, minlength=dist.n_scene_types) / 100_000
    assert np.abs(freq - dist.scene_prior).max() <= 0.005


def test_sample_spec_requires_objects():
    dist = two_category_distribution()
    with pytest.raises(ValueError):
        sample_scene_spec(dist, 0, 1)


# -------------------------------------------------------------- transforms

def test_transform_validation():
    with pytest.raises(ValueError):
        Transform(np.eye(3) * 2, np.zeros(3))
    with pytest.raises(ValueError):
        Transform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det = -1
    with pytest.raises(ValueError):
        Transform(np.eye(3), np.zeros(3), scale=0.0)


def test_transform_inverse_and_compose():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(a), np.sin(a)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        t = Transform(rot, rng.normal(size=3), rng.uniform(0.5, 2.0))
        pts = rng.normal(size=(10, 3))
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts,
                                   atol=1e-12)
        t2 = Transform(rot.T, rng.normal(size=3), rng.uniform(0.5, 2.0))
        np.testing.assert_allclose(t2.compose(t).apply(pts),
                                   t2.apply(t.apply(pts)), atol=1e-12)


# --------------------------------------------------------------- placement

def test_single_object_inside_room():
    spec = SceneSpec(0, ((0, 0),))
    layout = LayoutParams(room_size=1.0, scale_range=(0.3, 0.3))
    scene = realize_scene(spec, CubeSource(side=1.0), layout, 3)
    t = scene.objects[0].transform.translation
    assert 0.0 <= t[0] <= 1.0 and 0.0 <= t[1] <= 1.0 and t[2] >= 0.0
    assert scene.points[:, :2].min() >= 0.0
    assert scene.points[:, :2].max() <= 1.0


def test_two_cubes_disjoint_boxes():
    spec = SceneSpec(0, ((0, 0), (0, 0)))
    layout = LayoutParams(room_size=4.0, scale_range=(1.0, 1.0))
    scene = realize_scene(spec, CubeSource(side=1.0), layout, 9)
    boxes = []
    for k in range(2):
        pts = scene.points[scene.point_object_ids == k]
        boxes.append((pts.min(axis=0), pts.max(axis=0)))
    (lo1, hi1), (lo2, hi2) = boxes
    assert not (np.all(lo1 <= hi2) and np.all(lo2 <= hi1))


def test_twenty_objects_no_overlaps_over_seeds():
    dist = load_default_scannet_parameters()
    src = ProceduralAssetSource(n_points=64)
    layout = LayoutParams(room_size=6.0)
    overlaps = 0
    realized = 0
    for seed in range(100):
        spec = sample_scene_spec(dist, 20, seed)
        try:
            scene = realize_scene(spec, src, layout, seed + 5000)
        except PlacementFailure:
            continue
        realized += 1
        boxes = []
        for k in range(scene.n_objects):
            pts = scene.points[scene.point_object_ids == k]
            boxes.append((pts.min(axis=0), pts.max(axis=0)))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                lo1, hi1 = boxes[i]
                lo2, hi2 = boxes[j]
                if np.all(lo1 <= hi2) and np.all(lo2 <= hi1):
                    overlaps += 1
    assert realized >= 95
    assert overlaps == 0


def test_placement_failure_when_room_too_small():
    spec = SceneSpec(0, ((0, 0), (0, 0), (0, 0), (0, 0)))
    layout = LayoutParams(room_size=1.0, scale_range=(1.0, 1.0),
                          max_attempts=50)
    with pytest.raises(PlacementFailure):
        realize_scene(spec, CubeSource(side=1.0), layout, 1)


def _realized(realize, spec, source, layout, seed):
    try:
        return realize(spec, source, layout, seed)
    except PlacementFailure as e:
        return str(e)


@settings(max_examples=40, deadline=None)
@given(spec_seed=st.integers(0, 2 ** 63), layout_seed=st.integers(0, 2 ** 63),
       n_objects=st.integers(1, 20),
       room_size=st.sampled_from([1.5, 3.0, 6.0]),
       max_attempts=st.sampled_from([3, 40, 1000]))
def test_realize_scene_equals_per_box_loop(spec_seed, layout_seed, n_objects,
                                           room_size, max_attempts):
    spec = sample_scene_spec(load_default_scannet_parameters(), n_objects,
                             spec_seed)
    source = ProceduralAssetSource(n_points=32)
    layout = LayoutParams(room_size=room_size, max_attempts=max_attempts)
    got = _realized(realize_scene, spec, source, layout, layout_seed)
    want = _realized(reference_realize_scene, spec, source, layout,
                     layout_seed)
    if isinstance(want, str):
        assert got == want  # the same object fails, with the same message
        return
    assert got.points.tobytes() == want.points.tobytes()
    assert got.point_object_ids.dtype == want.point_object_ids.dtype
    assert got.point_object_ids.tobytes() == want.point_object_ids.tobytes()
    for g, w in zip(got.objects, want.objects, strict=True):
        assert (g.category_id, g.instance_id) == (w.category_id,
                                                  w.instance_id)
        assert g.transform.rotation.tobytes() == w.transform.rotation.tobytes()
        assert (g.transform.translation.tobytes()
                == w.transform.translation.tobytes())
        assert g.transform.scale == w.transform.scale


def test_merged_points_match_transform_invariant():
    dist = load_default_scannet_parameters()
    src = ProceduralAssetSource(n_points=64)
    spec = sample_scene_spec(dist, 8, 21)
    scene = realize_scene(spec, src, LayoutParams(), 22)
    assert sorted(np.unique(scene.point_object_ids)) == list(range(8))
    for k, obj in enumerate(scene.objects):
        tagged = scene.points[scene.point_object_ids == k]
        canonical = src(obj.category_id, obj.instance_id)
        expected = obj.transform.scale * \
            canonical @ obj.transform.rotation.T \
            + obj.transform.translation
        assert np.abs(tagged - expected).max() < 1e-9
        np.testing.assert_array_equal(obj.points, tagged)


# -------------------------------------------------------------- scene pair

def test_make_scene_pair_deterministic():
    dist = load_default_scannet_parameters()
    src = ProceduralAssetSource(n_points=32)
    p1 = make_scene_pair(dist, 6, src, 42)
    p2 = make_scene_pair(dist, 6, src, 42)
    np.testing.assert_array_equal(p1.scene_a.points, p2.scene_a.points)
    np.testing.assert_array_equal(p1.scene_b.points, p2.scene_b.points)
    for a, b in zip(p1.scene_a.objects, p2.scene_a.objects):
        assert to_json(a.transform) == to_json(b.transform)


def test_pair_shares_instance_draw():
    dist = load_default_scannet_parameters()
    src = ProceduralAssetSource(n_points=32)
    pair = make_scene_pair(dist, 6, src, 43)
    for oa, ob in zip(pair.scene_a.objects, pair.scene_b.objects):
        assert (oa.category_id, oa.instance_id) == \
            (ob.category_id, ob.instance_id)


def test_relative_transform_carries_objects_between_scenes():
    dist = load_default_scannet_parameters()
    src = ProceduralAssetSource(n_points=32)
    pair = make_scene_pair(dist, 6, src, 44)
    for k, (oa, ob) in enumerate(zip(pair.scene_a.objects,
                                     pair.scene_b.objects)):
        carrier = ob.transform.compose(oa.transform.inverse())
        pts_a = pair.scene_a.points[pair.scene_a.point_object_ids == k]
        pts_b = pair.scene_b.points[pair.scene_b.point_object_ids == k]
        np.testing.assert_allclose(carrier.apply(pts_a), pts_b, atol=1e-9)


def test_pair_transform_independence():
    dist = two_category_distribution()
    src = ProceduralAssetSource(n_points=16)
    tx_a, tx_b = [], []
    for seed in range(10_000):
        pair = make_scene_pair(dist, 1, src, seed,
                               LayoutParams(room_size=4.0))
        tx_a.append(pair.scene_a.objects[0].transform.translation[:2])
        tx_b.append(pair.scene_b.objects[0].transform.translation[:2])
    tx_a = np.array(tx_a)
    tx_b = np.array(tx_b)
    for axis in range(2):
        corr = np.corrcoef(tx_a[:, axis], tx_b[:, axis])[0, 1]
        assert abs(corr) < 0.05


# ------------------------------------------------------------------ assets

def test_procedural_asset_deterministic():
    a = procedural_asset(0, 0, 128)
    b = procedural_asset(0, 0, 128)
    np.testing.assert_array_equal(a, b)


def test_procedural_asset_centered():
    for cat in range(len(CATEGORY_LABELS)):
        pts = procedural_asset(cat, 3, 128)
        assert pts.shape == (128, 3)
        assert np.abs(pts.mean(axis=0)).max() < 1e-6


def test_procedural_asset_instances_differ():
    a = procedural_asset(2, 0, 128)
    b = procedural_asset(2, 1, 128)
    assert np.abs(a - b).max() > 0.0


def test_procedural_asset_errors():
    with pytest.raises(UnknownCategory):
        procedural_asset(999, 0, 64)
    with pytest.raises(DegenerateObject):
        procedural_asset(0, 0, 4)
