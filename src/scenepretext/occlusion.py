"""Viewpoint occlusion: drop each object's furthest points from a random eye.

For a scene, one viewpoint is drawn uniformly inside the scene's bounding
box inflated by 20%; each object then loses floor(f * n) of its points
furthest from that viewpoint, with f drawn uniformly from [0, 0.5]. Ties in
distance keep the lower original index. Occlusion selects rows of each
object's scene-frame points; the record returned alongside the occluded
scene replays it exactly. The two scenes of a pair are occluded from their
own streams of the pair seed (`occlude_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateObject, numeric_array
from .scenegen import ObjectInstance, SceneInstance, ScenePair
from .seeding import STREAM_OCCLUDE_A, STREAM_OCCLUDE_B, mix64

AABB_INFLATION = 0.2
MAX_FRACTION = 0.5


@dataclass(frozen=True)
class OcclusionRecord:
    viewpoint: np.ndarray
    fractions: np.ndarray            # drawn removal fraction per object
    kept_indices: tuple[np.ndarray, ...]  # strictly increasing, per object

    def __post_init__(self):
        for name in ("viewpoint", "fractions"):
            object.__setattr__(self, name, numeric_array(
                getattr(self, name), f"OcclusionRecord.{name}"))
        object.__setattr__(self, "kept_indices", tuple(
            numeric_array(k, "OcclusionRecord.kept_indices", integer=True)
            for k in self.kept_indices))
        if (self.viewpoint.shape != (3,)
                or self.fractions.shape != (len(self.kept_indices),)):
            raise ValueError(f"OcclusionRecord: shapes {self.viewpoint.shape}"
                             f" and {self.fractions.shape} for a viewpoint "
                             f"and {len(self.kept_indices)} fractions")


def _kept_for_fraction(placed: np.ndarray, viewpoint: np.ndarray,
                       fraction: float) -> np.ndarray:
    n = placed.shape[0]
    n_remove = int(np.floor(fraction * n))
    d = np.linalg.norm(placed - viewpoint, axis=1)
    # ascending distance, ties broken by lower index first
    order = np.argsort(d, kind="stable")
    kept = np.sort(order[: n - n_remove])
    return kept


def occlude_scene(scene: SceneInstance, rng_seed: int,
                  fractions: np.ndarray | None = None
                  ) -> tuple[SceneInstance, OcclusionRecord]:
    """Occlude every object of the scene; returns (occluded scene, record).

    The viewpoint always comes from the seeded stream. ``fractions``
    overrides the drawn removal fractions: `occlude_pair` passes zeros to
    keep every point. Object order and surviving point order are preserved.
    """
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    lo, hi = scene.points.min(axis=0), scene.points.max(axis=0)
    center, half = (lo + hi) / 2, (hi - lo) / 2
    viewpoint = rng.uniform(center - (1 + AABB_INFLATION) * half,
                            center + (1 + AABB_INFLATION) * half)
    if fractions is None:
        fractions = rng.uniform(0.0, MAX_FRACTION, size=scene.n_objects)
    fractions = np.asarray(fractions, dtype=np.float64)
    if np.any(fractions < 0) or np.any(fractions > MAX_FRACTION):
        raise ValueError(f"fractions outside [0, {MAX_FRACTION}]")

    kept_lists = []
    for k, obj in enumerate(scene.objects):
        if obj.n_points < 2:
            raise DegenerateObject(f"object {k} has {obj.n_points} points")
        kept_lists.append(_kept_for_fraction(obj.points, viewpoint,
                                             float(fractions[k])))
    record = OcclusionRecord(viewpoint, fractions, tuple(kept_lists))
    return replay_occlusion(scene, record), record


def occlude_pair(pair: ScenePair, rng_seed: int, occlude: bool
                 ) -> tuple[ScenePair, OcclusionRecord, OcclusionRecord]:
    """Occlude both scenes, each from its own stream of ``rng_seed``;
    returns (occluded pair, record A, record B). Without ``occlude`` every
    fraction is zero: every point is kept, the viewpoints are still drawn."""
    fractions = None if occlude else np.zeros(pair.scene_a.n_objects)
    occ_a, rec_a = occlude_scene(pair.scene_a,
                                 mix64(rng_seed, STREAM_OCCLUDE_A), fractions)
    occ_b, rec_b = occlude_scene(pair.scene_b,
                                 mix64(rng_seed, STREAM_OCCLUDE_B), fractions)
    return ScenePair(occ_a, occ_b, pair.pair_seed), rec_a, rec_b


def replay_occlusion(scene: SceneInstance,
                     record: OcclusionRecord) -> SceneInstance:
    """Rebuild the occluded scene from a stored record: each object keeps
    the rows of its scene-frame points that the record lists."""
    return SceneInstance.from_objects(scene.scene_type_id, [
        ObjectInstance(o.category_id, o.instance_id, o.points[kept],
                       o.transform)
        for o, kept in zip(scene.objects, record.kept_indices)])
