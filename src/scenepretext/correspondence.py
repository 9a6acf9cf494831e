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

from .errors import TooFewPoints
from .scenegen import ScenePair, SceneInstance
from .seeding import STREAM_MATCH_A, STREAM_MATCH_B, mix64


@dataclass(frozen=True)
class SeedSet:
    """Seed points of one scene: positions plus owning object per seed."""

    indices: np.ndarray      # unique indices into the source point array
    coords: np.ndarray       # (m, 3)
    object_ids: np.ndarray   # (m,)

    def __post_init__(self):
        if len(np.unique(self.indices)) != self.indices.shape[0]:
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
    one or more than n points raises TooFewPoints.

    Rounding contract: every distance is computed as
    sqrt((dx*dx + dy*dy) + dz*dz), the summation order of
    ``np.linalg.norm(points - c, axis=1)``, so each value is bit-equal to
    the norm-based one and the returned indices are exactly those of the
    norm-based loop, ties included. The square root is kept on purpose:
    distinct squared distances can round to the same root, and comparing
    squares would break such ties differently.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n == 0:
        raise TooFewPoints("empty point set")
    if not 1 <= m <= n:
        raise TooFewPoints(f"requested {m} seeds from {n} points")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    chosen = np.empty(m, dtype=np.intp)
    chosen[0] = rng.integers(n)
    # contiguous columns and preallocated buffers: per pick the work is a
    # fixed handful of length-n ufunc calls with no temporaries
    x, y, z = (np.ascontiguousarray(points[:, k]) for k in range(3))
    min_d = np.empty(n)
    d = np.empty(n)
    t = np.empty(n)

    def dist_to(i: int, out: np.ndarray) -> np.ndarray:
        np.subtract(x, x[i], out=out)
        np.multiply(out, out, out=out)
        np.subtract(y, y[i], out=t)
        np.multiply(t, t, out=t)
        np.add(out, t, out=out)
        np.subtract(z, z[i], out=t)
        np.multiply(t, t, out=t)
        np.add(out, t, out=out)
        return np.sqrt(out, out=out)

    dist_to(chosen[0], min_d)
    for i in range(1, m):
        nxt = int(np.argmax(min_d))  # argmax takes the first (lowest) index
        chosen[i] = nxt
        np.minimum(min_d, dist_to(nxt, d), out=min_d)
    return chosen


def sample_seed_set(scene: SceneInstance, m: int, rng_seed: int) -> SeedSet:
    """FPS seed set over the scene's foreground (object points only)."""
    idx = farthest_point_sample(scene.points, m, rng_seed)
    return SeedSet(idx, scene.points[idx], scene.point_object_ids[idx])


def fps_subset(seeds: SeedSet, m: int, rng_seed: int) -> SeedSet:
    """FPS subset of min(m, seeds.m) seeds; each keeps its index."""
    pick = farthest_point_sample(seeds.coords, min(m, seeds.m), rng_seed)
    return SeedSet(seeds.indices[pick], seeds.coords[pick],
                   seeds.object_ids[pick])


def full_seed_pool(scene: SceneInstance) -> SeedSet:
    """Every foreground point as a candidate seed (exhaustive pool)."""
    n = scene.points.shape[0]
    return SeedSet(np.arange(n, dtype=np.intp), scene.points,
                   scene.point_object_ids)


def match_points(pair: ScenePair, seeds_a: SeedSet, seeds_b_pool: SeedSet,
                 theta: float) -> MatchSet:
    """Relaxed object-aware matching of A seeds into the B candidate pool.

    For each seed, candidates are the pool entries on the same object; the
    nearest candidate to the translated seed wins (ties to the lowest pool
    position) and the pair is kept only if its distance is strictly below
    theta. Seeds with an empty candidate set are dropped silently. Distinct
    seeds may match the same candidate.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    t_a = pair.transforms("a")
    t_b = pair.transforms("b")
    carriers = [tb.compose(ta.inverse()) for ta, tb in zip(t_a, t_b)]
    a_idx, b_idx, dists, objs = [], [], [], []
    for i in range(seeds_a.m):
        y = int(seeds_a.object_ids[i])
        cand = np.nonzero(seeds_b_pool.object_ids == y)[0]
        if cand.size == 0:
            continue
        target = carriers[y].apply(seeds_a.coords[i])
        d = np.linalg.norm(seeds_b_pool.coords[cand] - target, axis=1)
        j = int(np.argmin(d))
        if d[j] < theta:
            a_idx.append(int(seeds_a.indices[i]))
            b_idx.append(int(seeds_b_pool.indices[cand[j]]))
            dists.append(float(d[j]))
            objs.append(y)
    return MatchSet(np.array(a_idx, dtype=np.intp),
                    np.array(b_idx, dtype=np.intp),
                    np.array(dists, dtype=np.float64),
                    np.array(objs, dtype=np.intp), theta)


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
