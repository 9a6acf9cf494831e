"""Seed sampling and relaxed object-aware point matching between paired scenes.

Seeds are chosen by farthest point sampling on a scene's foreground. To pair
scene A's seeds with scene B, each seed is carried over by composing scene
B's object transform with the inverse of scene A's, then matched to the
nearest candidate point on the same object in B; pairs whose residual
distance reaches the threshold are masked out, which is how occlusion-removed
counterparts are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NonFiniteInput, TooFewPoints
from .scenegen import ScenePair, SceneInstance, Transform
from .seeding import STREAM_MATCH_A, STREAM_MATCH_B, mix64


@dataclass(frozen=True)
class SeedSet:
    """Seed points of one scene: positions plus owning object per seed."""

    indices: np.ndarray      # unique indices into the source point array
    coords: np.ndarray       # (m, 3)
    object_ids: np.ndarray   # (m,)

    def __post_init__(self):
        idx = self.indices
        # strictly increasing indices (every full pool) are unique as they
        # stand; only other orders pay for the sort
        if not np.all(idx[1:] > idx[:-1]) \
                and len(np.unique(idx)) != idx.shape[0]:
            raise ValueError("seed indices must be unique")
        if not (self.indices.shape[0] == self.coords.shape[0]
                == self.object_ids.shape[0]):
            raise ValueError("seed field lengths differ")

    @property
    def m(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class MatchSet:
    """Correspondences (a_index, b_index) with residual distances < theta."""

    a_indices: np.ndarray
    b_indices: np.ndarray
    distances: np.ndarray
    object_ids: np.ndarray
    theta: float

    def __post_init__(self):
        if np.any(self.distances >= self.theta):
            raise ValueError("stored pair at or beyond threshold")

    def __len__(self) -> int:
        return self.a_indices.shape[0]

    def to_records(self) -> list[dict]:
        return [
            {"a_index": int(a), "b_index": int(b),
             "distance": float(d), "object_id": int(o)}
            for a, b, d, o in zip(self.a_indices, self.b_indices,
                                  self.distances, self.object_ids)
        ]


def farthest_point_sample(points: np.ndarray, m: int,
                          rng_seed: int) -> np.ndarray:
    """Greedy farthest point sampling of an (n, 3) cloud; returns m indices.

    The first index is drawn from the seeded stream; each following pick
    maximizes the minimum distance to the chosen set, ties resolved toward
    the lowest index. Deterministic under rng_seed. Asking for fewer than
    one or more than n points raises TooFewPoints; a NaN or infinite
    coordinate raises NonFiniteInput. The picks are made by the C loop
    ``fps`` in ``kernels.c``, built on first use (``kernels.load``).

    Rounding contract: every distance is computed as
    sqrt((dx*dx + dy*dy) + dz*dz), the summation order of
    ``np.linalg.norm(points - c, axis=1)``, so each value is bit-equal to
    the norm-based one and the returned indices are exactly those of the
    norm-based loop, ties included. The square root is kept on purpose:
    distinct squared distances can round to the same root, and comparing
    squares would break such ties differently.

    The kernel skips each bucket of consecutive rows whose bounding box is
    too far from the last pick to lower any running minimum in it. The
    bound to a box is rounded step by step as a distance is, from per-axis
    gaps no larger than any of its points' differences, so by monotone
    rounding it never exceeds a computed distance to one of them: the
    skipped work could not have changed a pick. That holds only under the
    kernels' build flags (no fused multiply-add, no ``-ffast-math``).
    Clouds stored object by object prune well; any row order gives the
    same picks. The kernel allocates its scratch as one block per call,
    and MemoryError is raised when it cannot.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DimensionMismatch(f"points of shape {points.shape}, not (n, 3)")
    n = points.shape[0]
    if n == 0:
        raise TooFewPoints("empty point set")
    if not 1 <= m <= n:
        raise TooFewPoints(f"requested {m} seeds from {n} points")
    # np.argmax picks a NaN, the C loop's comparisons never do
    if not np.isfinite(points).all():
        raise NonFiniteInput("non-finite point coordinates")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    chosen = np.empty(m, dtype=np.intp)
    chosen[0] = rng.integers(n)
    if kernels.load().fps(points, n, m, chosen):
        raise MemoryError(f"no scratch for FPS over {n} points")
    return chosen


def _fps_seeds(pool: SeedSet, m: int, rng_seed: int) -> SeedSet:
    """The m seeds of ``pool`` that FPS picks; TooFewPoints if fewer than m
    of its points are distinct, where FPS repeats a pick."""
    pick = farthest_point_sample(pool.coords, m, rng_seed)
    if np.unique(pick).size < m:
        raise TooFewPoints(f"{pool.m} points, too few distinct for {m} seeds")
    return SeedSet(pool.indices[pick], pool.coords[pick],
                   pool.object_ids[pick])


def sample_seed_set(scene: SceneInstance, m: int, rng_seed: int) -> SeedSet:
    """FPS seed set over the scene's foreground (object points only)."""
    return _fps_seeds(full_seed_pool(scene), m, rng_seed)


def fps_subset(seeds: SeedSet, m: int, rng_seed: int) -> SeedSet:
    """FPS subset of min(m, seeds.m) seeds; each keeps its index."""
    return _fps_seeds(seeds, min(m, seeds.m), rng_seed)


def full_seed_pool(scene: SceneInstance) -> SeedSet:
    """Every foreground point as a candidate seed (exhaustive pool)."""
    n = scene.points.shape[0]
    return SeedSet(np.arange(n, dtype=np.intp), scene.points,
                   scene.point_object_ids)


def _carry(t: Transform, points: np.ndarray) -> np.ndarray:
    """``t.apply`` of each (3,) row alone, bit for bit, in one call: a
    stack of (1, 3) @ (3, 3) products, not one (k, 3) @ (3, 3) product."""
    pts = np.asarray(points, dtype=np.float64)[:, None, :]
    return (t.scale * pts @ t.rotation.T)[:, 0, :] + t.translation


def match_points(pair: ScenePair, seeds_a: SeedSet, seeds_b_pool: SeedSet,
                 theta: float) -> MatchSet:
    """Relaxed object-aware matching of A seeds into the B candidate pool.

    For each seed, candidates are the pool entries on the same object; the
    nearest candidate to the translated seed wins (ties to the lowest pool
    position) and the pair is kept only if its distance is strictly below
    theta. Seeds with an empty candidate set are dropped silently. Distinct
    seeds may match the same candidate. Matches come out in seed order.

    The work is done per object that owns seeds, not per seed. Bit
    contract: the seeds of one object are carried over as one stacked
    product ``(scale * coords[:, None, :]) @ R.T`` (``_carry``), which
    numpy evaluates as one (1, 3) @ (3, 3) product per seed, so every
    target equals ``Transform.apply`` on that seed alone, bit for bit.
    ``Transform.apply`` on the whole batch is not used: its (k, 3) @ (3, 3)
    matrix-matrix product rounds differently from the per-vector one, in
    the last bits, which would move stored distances and matches. The
    (seeds x candidates) distances sum each difference's three squares in
    the same order as the per-seed norm.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    t_a = pair.transforms("a")
    t_b = pair.transforms("b")
    ids_a, ids_b = seeds_a.object_ids, seeds_b_pool.object_ids
    best = np.full(seeds_a.m, -1, dtype=np.intp)
    dist = np.empty(seeds_a.m)
    for y in np.unique(ids_a).tolist():
        cand = np.flatnonzero(ids_b == y)
        if cand.size == 0:
            continue
        rows = np.flatnonzero(ids_a == y)
        targets = _carry(t_b[y].compose(t_a[y].inverse()),
                         seeds_a.coords[rows])
        d = np.linalg.norm(seeds_b_pool.coords[cand] - targets[:, None, :],
                           axis=-1)
        j = d.argmin(axis=1)
        best[rows] = cand[j]
        dist[rows] = d[np.arange(rows.size), j]
    keep = np.flatnonzero(best >= 0)
    keep = keep[dist[keep] < theta]
    return MatchSet(seeds_a.indices[keep].astype(np.intp),
                    seeds_b_pool.indices[best[keep]].astype(np.intp),
                    dist[keep], ids_a[keep].astype(np.intp), theta)


def match_fps_pools(pair: ScenePair, pool_a: SeedSet, pool_b: SeedSet,
                    m: int, theta: float, rng_seed: int,
                    full_pool: bool = False) -> MatchSet:
    """Match an FPS subset of ``pool_a`` into an FPS subset of ``pool_b``.

    Each side keeps min(m, its pool size) seeds, drawn from its own match
    stream of ``rng_seed``; with ``full_pool`` all of ``pool_b`` is the
    candidate set instead. Matches carry the pools' indices.
    """
    seeds_a = fps_subset(pool_a, m, mix64(rng_seed, STREAM_MATCH_A))
    if not full_pool:
        pool_b = fps_subset(pool_b, m, mix64(rng_seed, STREAM_MATCH_B))
    return match_points(pair, seeds_a, pool_b, theta)
