"""Viewpoint occlusion contracts: counts, ordering, nesting, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_occluded_points
from scenepretext.assets import ProceduralAssetSource
from scenepretext.catalog import load_default_scannet_parameters
from scenepretext.errors import DegenerateObject, PlacementFailure
from scenepretext.occlusion import (_kept_for_fraction, occlude_pair,
                                    occlude_scene, replay_occlusion)
from scenepretext.scenegen import (ObjectInstance, SceneInstance, Transform,
                                   make_scene_pair)


def toy_scene(n_objects=3, n_points=100, seed=0):
    rng = np.random.default_rng(seed)
    objects = []
    for k in range(n_objects):
        pts = rng.normal(size=(n_points, 3))
        pts -= pts.mean(axis=0)
        tf = Transform(np.eye(3), rng.uniform(0, 5, size=3))
        objects.append(ObjectInstance(
            category_id=k, instance_id=0, points=tf.apply(pts),
            transform=tf))
    return SceneInstance.from_objects(0, objects)


def test_zero_fraction_is_identity():
    scene = toy_scene()
    occluded, record = occlude_scene(scene, 1, fractions=np.zeros(3))
    np.testing.assert_array_equal(occluded.points, scene.points)
    np.testing.assert_array_equal(occluded.point_object_ids,
                                  scene.point_object_ids)
    for kept, obj in zip(record.kept_indices, scene.objects):
        np.testing.assert_array_equal(kept, np.arange(obj.n_points))


def test_half_fraction_sort_oracle():
    scene = toy_scene(n_objects=1, n_points=100)
    occluded, record = occlude_scene(scene, 2, fractions=np.array([0.5]))
    assert occluded.objects[0].n_points == 50
    placed = scene.objects[0].points
    d = np.linalg.norm(placed - record.viewpoint, axis=1)
    kept = record.kept_indices[0]
    removed = np.setdiff1d(np.arange(100), kept)
    assert d[removed].min() >= d[kept].max() - 1e-12


def test_removal_count_is_floor_exactly():
    rng = np.random.default_rng(7)
    scene = toy_scene(n_objects=4, n_points=37)
    for trial in range(50):
        fr = rng.uniform(0, 0.5, size=4)
        occluded, record = occlude_scene(scene, trial, fractions=fr)
        for k, obj in enumerate(occluded.objects):
            assert obj.n_points == 37 - int(np.floor(fr[k] * 37))


def test_fractions_within_bounds():
    scene = toy_scene()
    fracs = []
    for seed in range(400):
        _, record = occlude_scene(scene, seed)
        fracs += record.fractions.tolist()
    fracs = np.array(fracs)
    assert fracs.min() >= 0.0
    assert fracs.max() <= 0.5


def test_monotone_nesting_of_kept_sets():
    # one seed, so every fraction is applied from the same viewpoint
    scene = toy_scene(n_objects=2, n_points=64)
    previous = None
    for f in np.linspace(0.0, 0.5, 11):
        _, record = occlude_scene(scene, 0, fractions=np.full(2, f))
        kept = [set(k.tolist()) for k in record.kept_indices]
        if previous is not None:
            for cur, prev in zip(kept, previous):
                assert cur.issubset(prev)
        previous = kept


def test_tie_break_keeps_lower_index():
    # two points equidistant from the viewpoint: the higher index goes
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.2, 0, 0], [-0.2, 0, 0]])
    kept = _kept_for_fraction(pts, np.zeros(3), 0.25)
    np.testing.assert_array_equal(kept, [0, 2, 3])


def test_deterministic_and_replayable():
    scene = toy_scene()
    occ1, rec1 = occlude_scene(scene, 33)
    occ2, rec2 = occlude_scene(scene, 33)
    np.testing.assert_array_equal(occ1.points, occ2.points)
    np.testing.assert_array_equal(rec1.viewpoint, rec2.viewpoint)
    replayed = replay_occlusion(scene, rec1)
    np.testing.assert_array_equal(replayed.points, occ1.points)


def test_different_seeds_differ():
    scene = toy_scene()
    _, rec1 = occlude_scene(scene, 1)
    _, rec2 = occlude_scene(scene, 2)
    assert not np.array_equal(rec1.viewpoint, rec2.viewpoint)


def test_viewpoint_inside_inflated_aabb():
    scene = toy_scene()
    lo, hi = scene.points.min(axis=0), scene.points.max(axis=0)
    center, half = (lo + hi) / 2, (hi - lo) / 2
    for seed in range(200):
        _, record = occlude_scene(scene, seed)
        assert np.all(record.viewpoint >= center - 1.2 * half - 1e-12)
        assert np.all(record.viewpoint <= center + 1.2 * half + 1e-12)


def test_surviving_point_order_preserved():
    scene = toy_scene(n_objects=1, n_points=50)
    occluded, record = occlude_scene(scene, 9, fractions=np.array([0.3]))
    kept = record.kept_indices[0]
    assert np.all(np.diff(kept) > 0)
    np.testing.assert_array_equal(occluded.objects[0].points,
                                  scene.objects[0].points[kept])


def test_degenerate_object_rejected():
    pts = np.zeros((1, 3))
    obj = ObjectInstance(0, 0, pts, Transform(np.eye(3), np.zeros(3)))
    scene = SceneInstance.from_objects(0, [obj])
    with pytest.raises(DegenerateObject):
        occlude_scene(scene, 0)


@settings(max_examples=30, deadline=None)
@given(pair_seed=st.integers(0, 2 ** 64 - 1), n_objects=st.integers(1, 14),
       n_points=st.sampled_from([8, 9, 33, 256]))
def test_row_selection_equals_canonical_path(pair_seed, n_objects, n_points):
    """Selecting kept rows of the placed points gives the bytes of placing
    the kept canonical points, object by object and merged."""
    source = ProceduralAssetSource(n_points=n_points)
    try:
        pair = make_scene_pair(load_default_scannet_parameters(), n_objects,
                               source, pair_seed)
    except PlacementFailure:
        return
    occluded, rec_a, rec_b = occlude_pair(pair, pair_seed, occlude=True)
    for scene, record in ((occluded.scene_a, rec_a),
                          (occluded.scene_b, rec_b)):
        want = [reference_occluded_points(source, obj, kept)
                for obj, kept in zip(scene.objects, record.kept_indices,
                                     strict=True)]
        for obj, points in zip(scene.objects, want):
            assert obj.points.tobytes() == points.tobytes()
        assert scene.points.tobytes() == np.concatenate(want).tobytes()
