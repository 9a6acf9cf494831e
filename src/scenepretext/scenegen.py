"""Scene sampling and paired scene realization.

A scene spec (scene type plus object category/instance ids) is drawn from
the fitted distribution with epsilon-greedy category sampling; realization
places each object's canonical cloud in a square room with an independent
similarity transform (yaw rotation, uniform scale, floor translation) found
by axis-aligned bounding-box rejection sampling. A scene pair shares one
spec draw but realizes the two layouts independently, which is what makes
object-relative point correspondences computable later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import SceneDistribution
from .errors import DegenerateObject, PlacementFailure, numeric_array
from .seeding import STREAM_LAYOUT_A, STREAM_LAYOUT_B, STREAM_SPEC, mix64

ORTHONORMAL_TOL = 1e-9
MIN_OBJECT_POINTS = 8

AssetSource = Callable[[int, int], np.ndarray]


@dataclass(frozen=True)
class Transform:
    """Similarity transform x -> scale * rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        r = numeric_array(self.rotation, "Transform.rotation")
        t = numeric_array(self.translation, "Transform.translation")
        s = numeric_array(self.scale, "Transform.scale")
        if r.shape != (3, 3) or t.shape != (3,) or s.shape != ():
            raise ValueError("Transform: shapes must be (3, 3), (3,) and ()")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "scale", s.item())
        # written so that a NaN fails each check
        if not np.abs(r.T @ r - np.eye(3)).max() <= ORTHONORMAL_TOL:
            raise ValueError("rotation is not orthonormal")
        if not abs(np.linalg.det(r) - 1.0) <= ORTHONORMAL_TOL:
            raise ValueError("rotation determinant is not +1")
        if not np.isfinite(t).all():
            raise ValueError("translation is not finite")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be positive and finite")

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return self.scale * pts @ self.rotation.T + self.translation

    def inverse(self) -> "Transform":
        rt = self.rotation.T
        return Transform(rt, -(rt @ self.translation) / self.scale,
                         1.0 / self.scale)

    def compose(self, other: "Transform") -> "Transform":
        """self after other: (self ∘ other)(x) = self(other(x))."""
        return Transform(
            self.rotation @ other.rotation,
            self.scale * self.rotation @ other.translation + self.translation,
            self.scale * other.scale,
        )


@dataclass(frozen=True)
class ObjectInstance:
    """One placed object: its points in the scene frame and the transform
    that placed its canonical cloud there, which matching carries seeds
    with and manifests record."""

    category_id: int
    instance_id: int
    points: np.ndarray
    transform: Transform

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SceneInstance:
    """A realized scene: objects, merged cloud, per-point object indices."""

    scene_type_id: int
    objects: tuple[ObjectInstance, ...]
    points: np.ndarray
    point_object_ids: np.ndarray

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @classmethod
    def from_objects(cls, scene_type_id: int,
                     objects: Sequence[ObjectInstance]) -> "SceneInstance":
        ids = np.concatenate([np.full(o.n_points, k, dtype=np.intp)
                              for k, o in enumerate(objects)])
        return cls(scene_type_id, tuple(objects),
                   np.concatenate([o.points for o in objects], axis=0), ids)


@dataclass(frozen=True)
class ScenePair:
    """Two realizations of one object draw with independent layouts."""

    scene_a: SceneInstance
    scene_b: SceneInstance
    pair_seed: int

    def __post_init__(self):
        ids_a = [(o.category_id, o.instance_id) for o in self.scene_a.objects]
        ids_b = [(o.category_id, o.instance_id) for o in self.scene_b.objects]
        if ids_a != ids_b:
            raise ValueError("paired scenes must share the object draw")

    def transforms(self, side: str) -> list[Transform]:
        scene = self.scene_a if side == "a" else self.scene_b
        return [o.transform for o in scene.objects]


@dataclass(frozen=True)
class LayoutParams:
    """Knobs for random placement; defaults give a 6 m room."""

    room_size: float = 6.0
    scale_range: tuple[float, float] = (0.9, 1.1)
    max_attempts: int = 1000


@dataclass(frozen=True)
class SceneSpec:
    scene_type_id: int
    draws: tuple[tuple[int, int], ...]  # (category_id, instance_id) per object


def sample_scene_spec(dist: SceneDistribution, n_objects: int,
                      rng_seed: int) -> SceneSpec:
    """Draw a scene type and n_objects (category, instance) pairs.

    Categories use the epsilon-greedy mixture: with probability epsilon the
    draw is uniform over all categories, otherwise it follows the fitted
    row for the drawn scene type. Instances follow the per-category rows.
    Deterministic under rng_seed.
    """
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    scene_type = int(rng.choice(dist.n_scene_types, p=dist.scene_prior))
    row = dist.category_given_scene[scene_type]
    draws = []
    for _ in range(n_objects):
        if rng.random() < dist.epsilon:
            cat = int(rng.integers(dist.n_categories))
        else:
            cat = int(rng.choice(dist.n_categories, p=row))
        inst_row = dist.instance_given_category[cat]
        inst = int(rng.choice(inst_row.size, p=inst_row))
        draws.append((cat, inst))
    return SceneSpec(scene_type, tuple(draws))


def _random_yaw(rng: np.random.Generator) -> np.ndarray:
    a = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def realize_scene(spec: SceneSpec, asset_source: AssetSource,
                  layout: LayoutParams, rng_seed: int) -> SceneInstance:
    """Place every object of a SceneSpec without bounding-box overlap.

    Each object gets an independent transform; placement is rejection
    sampling of the floor position until the transformed axis-aligned box
    neither leaves the room nor intersects an already placed box; the object
    keeps its cloud placed once by the accepted transform. Raises
    PlacementFailure once an object exhausts layout.max_attempts.
    """
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    canonicals = []
    for k, (cat, inst) in enumerate(spec.draws):
        canonical = np.asarray(asset_source(cat, inst), dtype=np.float64)
        if canonical.shape[0] < MIN_OBJECT_POINTS:
            raise DegenerateObject(
                f"object {k}: {canonical.shape[0]} points "
                f"(assets must supply >= {MIN_OBJECT_POINTS})")
        canonicals.append(canonical)
    # place the largest footprints first; small objects fill leftover space
    extents = [c.max(axis=0) - c.min(axis=0) for c in canonicals]
    order = sorted(range(len(canonicals)),
                   key=lambda k: -(extents[k][0] * extents[k][1]))
    placed_by_k: dict[int, ObjectInstance] = {}
    # boxes placed so far, rows [0, n_placed); an attempt overlaps a box
    # when their closed intervals meet on all three axes
    placed_lo = np.empty((len(canonicals), 3))
    placed_hi = np.empty((len(canonicals), 3))
    n_placed = 0
    room = layout.room_size
    for k in order:
        cat, inst = spec.draws[k]
        canonical = canonicals[k]
        for attempt in range(layout.max_attempts):
            rot = _random_yaw(rng)
            scale = rng.uniform(*layout.scale_range)
            # min and max round nothing, so reducing contiguous columns
            # gives body.min(axis=0)'s values (a zero minimum's sign aside)
            # in a fifth of the time
            body = scale * canonical @ rot.T
            cols = np.ascontiguousarray(body.T)
            lo, hi = cols.min(axis=1), cols.max(axis=1)
            x = rng.uniform(-lo[0], room - hi[0]) if room > hi[0] - lo[0] \
                else rng.uniform(0.0, room)
            y = rng.uniform(-lo[1], room - hi[1]) if room > hi[1] - lo[1] \
                else rng.uniform(0.0, room)
            t = np.array([x, y, -lo[2]])
            blo, bhi = lo + t, hi + t
            if blo[0] < 0 or blo[1] < 0 or bhi[0] > room or bhi[1] > room:
                continue
            if ((blo <= placed_hi[:n_placed])
                    & (placed_lo[:n_placed] <= bhi)).all(axis=1).any():
                continue
            # bit for bit the recorded transform's tf.apply(canonical)
            placed_by_k[k] = ObjectInstance(cat, inst, body + t,
                                            Transform(rot, t, scale))
            placed_lo[n_placed], placed_hi[n_placed] = blo, bhi
            n_placed += 1
            break
        else:
            raise PlacementFailure(
                f"object {k} (category {cat}) not placed after "
                f"{layout.max_attempts} attempts")
    placed = [placed_by_k[k] for k in range(len(spec.draws))]
    return SceneInstance.from_objects(spec.scene_type_id, placed)


def make_scene_pair(dist: SceneDistribution, n_objects: int,
                    asset_source: AssetSource, rng_seed: int,
                    layout: LayoutParams | None = None) -> ScenePair:
    """One spec draw, two independent realizations, all seeded from rng_seed."""
    layout = layout or LayoutParams()
    spec = sample_scene_spec(dist, n_objects, mix64(rng_seed, STREAM_SPEC))
    scene_a = realize_scene(spec, asset_source, layout,
                            mix64(rng_seed, STREAM_LAYOUT_A))
    scene_b = realize_scene(spec, asset_source, layout,
                            mix64(rng_seed, STREAM_LAYOUT_B))
    return ScenePair(scene_a, scene_b, rng_seed)
