"""Categorical scene/object distributions and maximum-likelihood fitting.

The scene sampler is a three-level chain of categorical distributions:
scene type, object category given scene type, object instance given
category. Fitting is maximum likelihood, which for categoricals reduces to
normalized occurrence counts. A bundled parameter set built from published
ScanNetV2 occurrence statistics makes the pipeline runnable offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

from .errors import (AllZeroCounts, DimensionMismatch, numeric_array,
                     read_record, write_json)

SUM_TOL = 1e-9

# the paper's uniform-mixing weight of the epsilon-greedy category sampler
EPSILON = 0.1

# most instances one category may have: fitting gives each a probability,
# so a larger count would allocate that many floats
MAX_INSTANCES = 1 << 20


def _count(value) -> int:
    """``value`` as an int; a value that is not a number, or a float that
    is not a whole number, raises ValueError. Strings and booleans are not
    numbers here, although int() takes "3", " 4 " and True."""
    if isinstance(value, (str, bool, np.bool_)):
        raise ValueError(f"count {value!r} is not a number")
    if isinstance(value, (float, np.floating)) \
            and not float(value).is_integer():
        raise ValueError(f"count {value!r} is not a whole number")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"count {value!r} is not a number") from None


@dataclass(frozen=True)
class CategoryTable:
    """Occurrence counts per labeled category.

    Parameters
    ----------
    labels : sequence of str
        Unique category names, order defines index assignment.
    counts : sequence of int
        Nonnegative occurrence count per label; at least one must be > 0.
    """

    labels: tuple[str, ...]
    counts: tuple[int, ...]

    def __init__(self, labels: Sequence[str], counts: Sequence[int]):
        labels = tuple(labels)
        counts = tuple(_count(c) for c in counts)
        if len(set(labels)) != len(labels):
            raise DimensionMismatch("labels must be unique")
        if len(labels) != len(counts):
            raise DimensionMismatch(
                f"{len(labels)} labels but {len(counts)} counts")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if sum(counts) == 0:
            raise AllZeroCounts("every count is zero")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "counts", counts)


def fit_categorical(table: CategoryTable) -> np.ndarray:
    """Maximum-likelihood categorical parameters: normalized counts.

    Entry k equals counts[k] / sum(counts); the result sums to 1 within
    1e-12 and is scale-invariant in the counts.
    """
    counts = np.asarray(table.counts, dtype=np.float64)
    return counts / counts.sum()


def _check_prob_vector(vec: np.ndarray, path: str) -> None:
    if np.any(vec < 0):
        raise ValueError(f"{path}: negative probability")
    s = float(vec.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise ValueError(f"{path}: sums to {s!r}, expected 1 within {SUM_TOL}")


@dataclass(frozen=True)
class SceneDistribution:
    """Fitted parameters of the scene/category/instance sampling chain.

    ``scene_prior`` is a probability vector over scene types,
    ``category_given_scene`` one probability row per scene type over object
    categories, and ``instance_given_category`` one probability row per
    category over that category's instances (rows may differ in length).
    ``epsilon`` is the uniform-mixing weight used by the epsilon-greedy
    category sampler. All vectors are validated on construction; instances
    are immutable and safe to share across concurrent samplers.
    """

    scene_labels: tuple[str, ...]
    category_labels: tuple[str, ...]
    scene_prior: np.ndarray
    category_given_scene: np.ndarray
    instance_given_category: tuple[np.ndarray, ...]
    epsilon: float = EPSILON

    def __post_init__(self):
        object.__setattr__(self, "scene_labels", tuple(self.scene_labels))
        object.__setattr__(self, "category_labels", tuple(self.category_labels))
        if not all(isinstance(x, str)
                   for x in self.scene_labels + self.category_labels):
            raise TypeError("SceneDistribution: a label is not a str")
        prior = numeric_array(self.scene_prior, "scene_prior")
        cond = numeric_array(self.category_given_scene, "category_given_scene")
        inst = tuple(numeric_array(r, "instance_given_category")
                     for r in self.instance_given_category)
        for arr in (prior, cond, *inst):
            arr.setflags(write=False)
        object.__setattr__(self, "scene_prior", prior)
        object.__setattr__(self, "category_given_scene", cond)
        object.__setattr__(self, "instance_given_category", inst)
        n_s, n_c = len(self.scene_labels), len(self.category_labels)
        if prior.shape != (n_s,):
            raise DimensionMismatch(
                f"scene_prior: shape {prior.shape}, expected ({n_s},)")
        if cond.shape != (n_s, n_c):
            raise DimensionMismatch(
                f"category_given_scene: shape {cond.shape}, "
                f"expected ({n_s}, {n_c})")
        if len(inst) != n_c:
            raise DimensionMismatch(
                f"instance_given_category: {len(inst)} rows, expected {n_c}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon: {self.epsilon} outside [0, 1]")
        _check_prob_vector(prior, "scene_prior")
        for k in range(n_s):
            _check_prob_vector(cond[k], f"category_given_scene[{k}]")
        for c, row in enumerate(inst):
            if row.size == 0:
                raise DimensionMismatch(
                    f"instance_given_category[{c}]: empty row")
            _check_prob_vector(row, f"instance_given_category[{c}]")

    @property
    def n_scene_types(self) -> int:
        return len(self.scene_labels)

    @property
    def n_categories(self) -> int:
        return len(self.category_labels)

    def save(self, path) -> None:
        """Write every field but epsilon, which the drawing config sets."""
        write_json(path, {k: v for k, v in vars(self).items()
                          if k != "epsilon"}, indent=1)

    @classmethod
    def load(cls, path) -> "SceneDistribution":
        """Read a saved distribution, ignoring an older file's epsilon; a
        value or key its record refuses raises CorruptManifest, and tables
        that do not fit each other DimensionMismatch."""
        return read_record(lambda epsilon=None, **doc: cls(**doc), path)


def fit_scene_distribution(
    scene_table: CategoryTable,
    per_scene_object_tables: Sequence[CategoryTable],
    instances_per_category: Sequence[int],
) -> SceneDistribution:
    """Fit the full chain from occurrence counts.

    Scene prior and per-scene category rows are fitted by normalized counts;
    instance rows are uniform 1/n (instance frequencies are not observed).
    One object table is required per scene type and all object tables must
    share the same category labels. An instance count must lie in
    [1, MAX_INSTANCES].
    """
    n_s = len(scene_table.labels)
    if len(per_scene_object_tables) != n_s:
        raise DimensionMismatch(
            f"{len(per_scene_object_tables)} object tables for "
            f"{n_s} scene types")
    cat_labels = per_scene_object_tables[0].labels
    for k, t in enumerate(per_scene_object_tables):
        if t.labels != cat_labels:
            raise DimensionMismatch(
                f"object table {k}: labels differ from table 0")
    if len(instances_per_category) != len(cat_labels):
        raise DimensionMismatch(
            f"{len(instances_per_category)} instance counts for "
            f"{len(cat_labels)} categories")
    n_instances = [_count(n) for n in instances_per_category]
    for n in n_instances:
        if not 1 <= n <= MAX_INSTANCES:
            raise ValueError(
                f"instance count {n} outside [1, {MAX_INSTANCES}]")
    prior = fit_categorical(scene_table)
    cond = np.stack([fit_categorical(t) for t in per_scene_object_tables])
    inst = tuple(np.full(n, 1.0 / n) for n in n_instances)
    return SceneDistribution(
        scene_labels=scene_table.labels,
        category_labels=cat_labels,
        scene_prior=prior,
        category_given_scene=cond,
        instance_given_category=inst,
    )


def _load_bundled_stats() -> dict:
    ref = resources.files("scenepretext").joinpath("data/scannet_stats.json")
    with ref.open() as f:
        return json.load(f)


def _ipf_conditional(prior: np.ndarray, marginal: np.ndarray,
                     mask: np.ndarray) -> np.ndarray:
    """Factor a category marginal into per-scene conditional rows.

    Iterative proportional fitting of a joint table supported on ``mask``
    whose row sums match ``prior`` and column sums match ``marginal``; the
    returned conditional rows are joint/prior. Masked-out cells stay
    exactly zero. Stops once the row sums are within 1e-13 of ``prior``,
    or after 2000 sweeps.
    """
    joint = mask * np.outer(prior, marginal)
    for _ in range(2000):
        rs = joint.sum(axis=1)
        joint *= (prior / rs)[:, None]
        cs = joint.sum(axis=0)
        joint *= np.where(cs > 0, marginal / np.maximum(cs, 1e-300), 0.0)
        if np.abs(joint.sum(axis=1) - prior).max() < 1e-13:
            break
    cond = joint / joint.sum(axis=1, keepdims=True)
    return cond


def load_default_scannet_parameters() -> SceneDistribution:
    """Bundled default parameters built from ScanNetV2 statistics.

    The published data provides the scene-type marginal and the object
    marginal but not their joint table, so the per-scene category rows are
    reconstructed: a hand-made plausibility mask restricts which categories
    occur in which scene type, and iterative proportional fitting adjusts
    the masked table until it reproduces both published marginals. Instance
    rows are uniform over 8 instances per category.
    """
    stats = _load_bundled_stats()
    scene_table = CategoryTable(list(stats["scene_counts"].keys()),
                                list(stats["scene_counts"].values()))
    object_table = CategoryTable(list(stats["object_counts"].keys()),
                                 list(stats["object_counts"].values()))
    prior = fit_categorical(scene_table)
    marginal = fit_categorical(object_table)
    mask = np.zeros((len(scene_table.labels), len(object_table.labels)))
    col = {lab: j for j, lab in enumerate(object_table.labels)}
    for k, scene in enumerate(scene_table.labels):
        for lab in stats["plausible_categories"][scene]:
            mask[k, col[lab]] = 1.0
    cond = _ipf_conditional(prior, marginal, mask)
    inst = tuple(np.full(8, 1.0 / 8) for _ in object_table.labels)
    return SceneDistribution(
        scene_labels=scene_table.labels,
        category_labels=object_table.labels,
        scene_prior=prior,
        category_given_scene=cond,
        instance_given_category=inst,
    )
