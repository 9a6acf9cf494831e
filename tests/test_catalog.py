"""Categorical fitting, the bundled parameter set, and serialization."""

import json
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from scenepretext.catalog import (EPSILON, MAX_INSTANCES, CategoryTable,
                                  _count, SceneDistribution, fit_categorical,
                                  fit_scene_distribution,
                                  load_default_scannet_parameters)
from scenepretext.errors import (AllZeroCounts, CorruptManifest,
                                 DimensionMismatch)

# published major scene shares: label percentages of the full dataset and
# the renormalized shares over the 13 major types
PUBLISHED_SCENE_PCT = {
    "Hotel": 18.04, "Lounge": 14.81, "Bathroom": 14.01, "Room": 13.62,
    "Office": 11.43, "Kitchen": 7.14, "Library": 4.43, "Lobby": 3.57,
    "Apartment": 2.64, "Classroom": 2.45, "Misc.": 2.31, "Hallway": 2.12,
    "Storage": 1.26,
}


def bundled_stats():
    ref = resources.files("scenepretext").joinpath("data/scannet_stats.json")
    with ref.open() as f:
        return json.load(f)


def test_fit_categorical_symmetric():
    vec = fit_categorical(CategoryTable(["chair", "table"], [2, 2]))
    np.testing.assert_array_equal(vec, [0.5, 0.5])


def test_fit_categorical_single():
    vec = fit_categorical(CategoryTable(["a"], [1]))
    np.testing.assert_array_equal(vec, [1.0])


def test_fit_categorical_scannet_scene_counts():
    stats = bundled_stats()
    table = CategoryTable(list(stats["scene_counts"].keys()),
                          list(stats["scene_counts"].values()))
    vec = fit_categorical(table)
    assert abs(vec.sum() - 1.0) < 1e-12
    # fitted entries reproduce the renormalized published shares within
    # 0.01 absolute percentage points
    pct = np.array([PUBLISHED_SCENE_PCT[l] for l in table.labels])
    renorm = pct / pct.sum()
    np.testing.assert_allclose(vec, renorm, atol=1e-4)


def test_fit_categorical_all_zero():
    with pytest.raises(AllZeroCounts):
        fit_categorical(CategoryTable(["a", "b"], [0, 0]))


def test_category_table_validation():
    with pytest.raises(DimensionMismatch):
        CategoryTable(["a", "a"], [1, 2])
    with pytest.raises(DimensionMismatch):
        CategoryTable(["a", "b"], [1])
    with pytest.raises(ValueError):
        CategoryTable(["a"], [-1])


def test_counts_must_be_whole_numbers():
    counts = CategoryTable(["a", "b", "c", "d"],
                           [3.0, np.float64(2), np.int64(4), 0]).counts
    assert counts == (3, 2, 4, 0)
    assert all(type(c) is int for c in counts)
    for bad in (0.7, np.float64(2.5), float("nan"), float("inf")):
        with pytest.raises(ValueError, match=re.escape(f"count {bad!r} is")):
            CategoryTable(["a", "b"], [1, bad])
    scene, obj = CategoryTable(["s"], [1]), CategoryTable(["a"], [1])
    with pytest.raises(ValueError, match="2.9"):
        fit_scene_distribution(scene, [obj], [2.9])


def test_counts_must_be_numbers_not_strings_or_booleans():
    # int() takes all of these; JSON counts must be numbers
    for bad in ("3", " 4 ", "", True, False, np.bool_(True)):
        with pytest.raises(ValueError,
                           match=re.escape(f"count {bad!r} is not a number")):
            _count(bad)
    scene, obj = CategoryTable(["s"], [1]), CategoryTable(["a"], [1])
    with pytest.raises(ValueError, match="' 4 '"):
        fit_scene_distribution(scene, [obj], [" 4 "])
    with pytest.raises(ValueError, match="True"):
        CategoryTable(["a", "b"], [1, True])


def test_instance_count_bounded_before_allocating():
    scene, obj = CategoryTable(["s"], [1]), CategoryTable(["a"], [1])
    dist = fit_scene_distribution(scene, [obj], [MAX_INSTANCES])
    assert dist.instance_given_category[0].size == MAX_INSTANCES
    # 10**13 instances would need 80 TB
    for bad in (0, MAX_INSTANCES + 1, 10 ** 13):
        with pytest.raises(ValueError, match=str(bad)):
            fit_scene_distribution(scene, [obj], [bad])


def test_fit_categorical_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        counts = rng.integers(0, 50, size=6)
        if counts.sum() == 0:
            counts[0] = 1
        labels = [f"c{i}" for i in range(6)]
        base = fit_categorical(CategoryTable(labels, counts))
        for mult in (2, 7, 1000):
            scaled = fit_categorical(CategoryTable(labels, counts * mult))
            np.testing.assert_array_equal(base, scaled)


def test_fit_scene_distribution_single_scene():
    scene = CategoryTable(["OnlyScene"], [10])
    objects = CategoryTable(["chair", "cabinet"], [4848, 1798])
    dist = fit_scene_distribution(scene, [objects], [4, 4])
    np.testing.assert_allclose(dist.category_given_scene[0],
                               [0.7295, 0.2705], atol=1e-3)
    np.testing.assert_array_equal(dist.instance_given_category[0],
                                  [0.25, 0.25, 0.25, 0.25])


def test_fit_scene_distribution_dimension_checks():
    scene = CategoryTable(["s1", "s2"], [1, 1])
    obj = CategoryTable(["a"], [1])
    with pytest.raises(DimensionMismatch):
        fit_scene_distribution(scene, [obj], [1])
    other = CategoryTable(["b"], [1])
    with pytest.raises(DimensionMismatch):
        fit_scene_distribution(scene, [obj, other], [1])
    with pytest.raises(DimensionMismatch):
        fit_scene_distribution(scene, [obj, obj], [1, 1])


def test_full_bundled_tables_rows_normalized():
    dist = load_default_scannet_parameters()
    assert dist.category_given_scene.shape == (13, 29)
    row_sums = dist.category_given_scene.sum(axis=1)
    np.testing.assert_allclose(row_sums, 1.0, atol=1e-9)
    assert abs(dist.scene_prior.sum() - 1.0) < 1e-9


def test_default_parameters_match_published_percentages():
    dist = load_default_scannet_parameters()
    for label, pct in PUBLISHED_SCENE_PCT.items():
        k = dist.scene_labels.index(label)
        assert abs(dist.scene_prior[k] - pct / 100.0) < 0.005


def test_default_parameters_marginal_frequencies():
    stats = bundled_stats()
    dist = load_default_scannet_parameters()
    counts = np.array(list(stats["object_counts"].values()), dtype=float)
    target = counts / counts.sum()
    marginal = dist.scene_prior @ dist.category_given_scene
    rel = np.abs(marginal - target) / target
    assert rel.max() < 0.02
    chair = dist.category_labels.index("chair")
    assert marginal[chair] == pytest.approx(4848 / counts.sum(), rel=0.02)


def test_default_parameters_keep_masked_zeros():
    stats = bundled_stats()
    dist = load_default_scannet_parameters()
    col = {lab: j for j, lab in enumerate(dist.category_labels)}
    for k, scene in enumerate(dist.scene_labels):
        allowed = set(stats["plausible_categories"][scene])
        for lab, j in col.items():
            if lab not in allowed:
                assert dist.category_given_scene[k, j] == 0.0


def test_sample_and_refit_recovers_parameters():
    dist = load_default_scannet_parameters()
    rng = np.random.default_rng(11)
    draws = rng.choice(dist.n_scene_types, size=100_000, p=dist.scene_prior)
    counts = np.bincount(draws, minlength=dist.n_scene_types)
    refit = fit_categorical(CategoryTable(dist.scene_labels, counts))
    assert np.abs(refit - dist.scene_prior).max() <= 0.005


def test_serialization_roundtrip_bit_exact(tmp_path):
    dist = load_default_scannet_parameters()
    path = tmp_path / "dist.json"
    dist.save(path)
    loaded = SceneDistribution.load(path)
    np.testing.assert_array_equal(loaded.scene_prior, dist.scene_prior)
    np.testing.assert_array_equal(loaded.category_given_scene,
                                  dist.category_given_scene)
    for a, b in zip(loaded.instance_given_category,
                    dist.instance_given_category):
        np.testing.assert_array_equal(a, b)
    assert loaded.epsilon == dist.epsilon
    assert loaded.scene_labels == dist.scene_labels


def test_distribution_file_holds_no_epsilon(tmp_path):
    # the drawing config supplies epsilon; an older file's key is ignored
    dist = replace(load_default_scannet_parameters(), epsilon=0.5)
    path = tmp_path / "old.json"
    dist.save(path)
    doc = json.loads(path.read_text())
    assert "epsilon" not in doc
    path.write_text(json.dumps({**doc, "epsilon": 0.5}))
    assert SceneDistribution.load(path).epsilon == EPSILON


def test_loader_rejects_with_path_qualified_error(tmp_path):
    path = tmp_path / "bad.json"
    load_default_scannet_parameters().save(path)
    doc = json.loads(path.read_text())
    doc["category_given_scene"][3][0] += 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptManifest, match=r"category_given_scene\[3\]"):
        SceneDistribution.load(path)


def test_distribution_arrays_immutable():
    dist = load_default_scannet_parameters()
    with pytest.raises(ValueError):
        dist.scene_prior[0] = 0.5
    with pytest.raises(ValueError):
        dist.category_given_scene[0, 0] = 0.5


def test_distribution_validates_epsilon_and_shapes():
    with pytest.raises(ValueError):
        SceneDistribution(("s",), ("c",), np.array([1.0]),
                          np.array([[1.0]]), (np.array([1.0]),),
                          epsilon=1.5)
    with pytest.raises(DimensionMismatch):
        SceneDistribution(("s",), ("c", "d"), np.array([1.0]),
                          np.array([[1.0]]), (np.array([1.0]),))
