"""Canonical object point clouds: procedural primitives and a file loader.

An asset source maps (category_id, instance_id) to a canonical point cloud
centered at the origin. The procedural source composes each category from
box/cylinder surface primitives with instance-specific dimension jitter, so
distinct instances of a category differ while the same ids always reproduce
the same cloud bit for bit.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CorruptManifest, DegenerateObject, UnknownCategory
from .scenegen import MIN_OBJECT_POINTS
from .seeding import mix64

# (label, archetype, base dims in meters). Dims are interpreted per archetype;
# boxes are (width, depth, height), cylinders (radius, radius, height).
CATEGORY_RECIPES: list[tuple[str, str, tuple[float, float, float]]] = [
    ("chair", "seat", (0.50, 0.50, 0.90)),
    ("cabinet", "tall_box", (0.90, 0.45, 1.80)),
    ("trash can", "cylinder", (0.18, 0.18, 0.45)),
    ("table", "table", (1.40, 0.80, 0.75)),
    ("pillow", "slab", (0.60, 0.40, 0.15)),
    ("sofa", "sofa", (1.80, 0.85, 0.80)),
    ("lamp", "lamp", (0.18, 0.18, 1.40)),
    ("bed", "bed", (2.00, 1.60, 0.60)),
    ("bag", "box", (0.40, 0.25, 0.45)),
    ("bookshelf", "shelf", (0.90, 0.30, 1.80)),
    ("computer", "box", (0.20, 0.45, 0.45)),
    ("video display", "panel", (0.90, 0.08, 0.55)),
    ("mug", "cylinder", (0.05, 0.05, 0.10)),
    ("telephone", "slab", (0.20, 0.15, 0.08)),
    ("bathtub", "tub", (1.60, 0.75, 0.55)),
    ("microwave", "box", (0.50, 0.38, 0.30)),
    ("laptop", "laptop", (0.33, 0.23, 0.25)),
    ("printer", "box", (0.45, 0.40, 0.30)),
    ("stove", "box", (0.60, 0.60, 0.90)),
    ("bench", "bench", (1.40, 0.35, 0.45)),
    ("clock", "cylinder", (0.15, 0.15, 0.06)),
    ("basket", "cylinder", (0.20, 0.20, 0.30)),
    ("dishwasher", "box", (0.60, 0.60, 0.85)),
    ("loudspeaker", "box", (0.25, 0.25, 0.45)),
    ("washer", "box", (0.60, 0.60, 0.85)),
    ("piano", "piano", (1.45, 0.60, 1.10)),
    ("mailbox", "box", (0.35, 0.30, 0.45)),
    ("guitar", "guitar", (0.40, 0.12, 1.00)),
    ("bowl", "cylinder", (0.12, 0.12, 0.07)),
]

CATEGORY_LABELS = tuple(label for label, _, _ in CATEGORY_RECIPES)


def _box_parts(cx, cy, cz, w, d, h):
    """One axis-aligned box given center and full extents."""
    return [("box", (cx, cy, cz), (w, d, h))]


def _build_parts(kind: str, w: float, d: float, h: float):
    """Primitive composition for one archetype; z spans [0, h]."""
    t = 0.05  # slab thickness used by legs/panels
    if kind in ("box", "slab", "tall_box"):
        return _box_parts(0, 0, h / 2, w, d, h)
    if kind == "panel":
        return (_box_parts(0, 0, 0.04, w * 0.4, d * 2, 0.08)
                + _box_parts(0, 0, 0.08 + (h - 0.08) / 2, w, d, h - 0.08))
    if kind == "seat":
        seat_h = 0.45 * h
        parts = _box_parts(0, 0, seat_h - t / 2, w, d, t)
        parts += _box_parts(0, d / 2 - t / 2, seat_h + (h - seat_h) / 2,
                            w, t, h - seat_h)
        for sx in (-1, 1):
            for sy in (-1, 1):
                parts += _box_parts(sx * (w / 2 - t / 2),
                                    sy * (d / 2 - t / 2),
                                    (seat_h - t) / 2, t, t, seat_h - t)
        return parts
    if kind == "table":
        parts = _box_parts(0, 0, h - t / 2, w, d, t)
        for sx in (-1, 1):
            for sy in (-1, 1):
                parts += _box_parts(sx * (w / 2 - t), sy * (d / 2 - t),
                                    (h - t) / 2, t, t, h - t)
        return parts
    if kind == "bench":
        parts = _box_parts(0, 0, h - t / 2, w, d, t)
        for sx in (-1, 1):
            parts += _box_parts(sx * (w / 2 - t), 0, (h - t) / 2, t, d, h - t)
        return parts
    if kind == "sofa":
        base_h = 0.5 * h
        parts = _box_parts(0, 0, base_h / 2, w, d, base_h)
        parts += _box_parts(0, d / 2 - 0.1, base_h + (h - base_h) / 2,
                            w, 0.2, h - base_h)
        for sx in (-1, 1):
            parts += _box_parts(sx * (w / 2 - 0.08), -0.05, base_h + 0.08,
                                0.16, d - 0.1, 0.16)
        return parts
    if kind == "bed":
        parts = _box_parts(0, 0, h * 0.6 / 2, w, d, h * 0.6)
        parts += _box_parts(0, d / 2 - t / 2, h * 0.8, w, t, h * 0.8)
        return parts
    if kind == "shelf":
        parts = []
        for sx in (-1, 1):
            parts += _box_parts(sx * (w / 2 - t / 2), 0, h / 2, t, d, h)
        for level in range(4):
            z = (level + 0.5) * h / 4
            parts += _box_parts(0, 0, z, w - 2 * t, d, t)
        return parts
    if kind == "lamp":
        # radius in w slot: thin pole plus a wider shade near the top
        parts = [("cyl", (0, 0, (h - 0.3) / 2), (0.025, 0.025, h - 0.3)),
                 ("cyl", (0, 0, h - 0.15), (w, w, 0.3)),
                 ("cyl", (0, 0, 0.02), (w * 1.4, w * 1.4, 0.04))]
        return parts
    if kind == "cylinder":
        return [("cyl", (0, 0, h / 2), (w, d, h))]
    if kind == "tub":
        parts = _box_parts(0, 0, t / 2, w, d, t)
        for sx in (-1, 1):
            parts += _box_parts(sx * (w / 2 - t / 2), 0, h / 2, t, d, h)
        for sy in (-1, 1):
            parts += _box_parts(0, sy * (d / 2 - t / 2), h / 2, w - 2 * t, t, h)
        return parts
    if kind == "laptop":
        return (_box_parts(0, 0, 0.012, w, d, 0.024)
                + _box_parts(0, d / 2 - 0.012, 0.024 + (h - 0.024) / 2,
                             w, 0.024, h - 0.024))
    if kind == "piano":
        parts = _box_parts(0, 0, h / 2, w, d * 0.6, h)
        parts += _box_parts(0, d * 0.35, h * 0.55, w * 0.95, d * 0.4, 0.08)
        return parts
    if kind == "guitar":
        return [("cyl", (0, 0, h * 0.22), (w / 2, d / 2, h * 0.44)),
                ("box", (0, 0, h * 0.44 + h * 0.56 / 2), (0.06, d * 0.5, h * 0.56))]
    raise ValueError(f"unknown archetype {kind!r}")


def _part_surface(rng: np.random.Generator, kind, center, dims, n):
    """Sample n points on the surface of one primitive, area-weighted faces."""
    cx, cy, cz = center
    w, d, h = dims
    if kind == "box":
        areas = np.array([d * h, d * h, w * h, w * h, w * d, w * d])
        face = rng.choice(6, size=n, p=areas / areas.sum())
        u = rng.uniform(-0.5, 0.5, size=(n, 2))
        pts = np.empty((n, 3))
        for f in range(6):
            m = face == f
            axis = f // 2
            sign = 1.0 if f % 2 == 0 else -1.0
            ext = [w, d, h]
            others = [a for a in range(3) if a != axis]
            pts[m, axis] = sign * ext[axis] / 2
            pts[m, others[0]] = u[m, 0] * ext[others[0]]
            pts[m, others[1]] = u[m, 1] * ext[others[1]]
        return pts + np.array([cx, cy, cz])
    if kind == "cyl":
        r = w
        side_area = 2 * np.pi * r * h
        cap_area = np.pi * r * r
        areas = np.array([side_area, cap_area, cap_area])
        which = rng.choice(3, size=n, p=areas / areas.sum())
        pts = np.empty((n, 3))
        theta = rng.uniform(0, 2 * np.pi, size=n)
        m = which == 0
        pts[m, 0] = r * np.cos(theta[m])
        pts[m, 1] = r * np.sin(theta[m])
        pts[m, 2] = rng.uniform(-0.5, 0.5, size=m.sum()) * h
        for cap, sign in ((1, 1.0), (2, -1.0)):
            m = which == cap
            rad = r * np.sqrt(rng.uniform(0, 1, size=m.sum()))
            pts[m, 0] = rad * np.cos(theta[m])
            pts[m, 1] = rad * np.sin(theta[m])
            pts[m, 2] = sign * h / 2
        return pts + np.array([cx, cy, cz])
    raise ValueError(f"unknown primitive {kind!r}")


@lru_cache(maxsize=4096)
def procedural_asset(category_id: int, instance_id: int,
                     n_points: int = 256) -> np.ndarray:
    """Deterministic canonical point cloud for (category, instance).

    Points are sampled on the surface of the category's primitive composite
    with per-instance dimension jitter, then centered so the centroid sits
    at the origin (within 1e-6). The same arguments always return the same
    cloud. Raises UnknownCategory for ids outside the recipe table and
    DegenerateObject if fewer than 8 points are requested.
    """
    if not 0 <= category_id < len(CATEGORY_RECIPES):
        raise UnknownCategory(f"category id {category_id}")
    if n_points < MIN_OBJECT_POINTS:
        raise DegenerateObject(
            f"n_points={n_points} < {MIN_OBJECT_POINTS}")
    _, kind, base = CATEGORY_RECIPES[category_id]
    seed = mix64(mix64(0x5EED_A55E, category_id * 1_000_003 + instance_id),
                 n_points)
    rng = np.random.Generator(np.random.PCG64(seed))
    jitter = rng.uniform(0.85, 1.15, size=3)
    w, d, h = (base[0] * jitter[0], base[1] * jitter[1], base[2] * jitter[2])
    parts = _build_parts(kind, w, d, h)
    areas = []
    for pk, _, dims in parts:
        pw, pd, ph = dims
        if pk == "box":
            areas.append(2 * (pw * pd + pw * ph + pd * ph))
        else:
            areas.append(2 * np.pi * pw * ph + 2 * np.pi * pw * pw)
    areas = np.asarray(areas)
    counts = np.floor(n_points * areas / areas.sum()).astype(int)
    counts[: n_points - counts.sum()] += 1
    clouds = [_part_surface(rng, pk, c, dims, n)
              for (pk, c, dims), n in zip(parts, counts) if n > 0]
    pts = np.concatenate(clouds, axis=0)
    pts -= pts.mean(axis=0)
    pts.setflags(write=False)
    return pts


class ProceduralAssetSource:
    """Asset source backed by the procedural generator."""

    def __init__(self, n_points: int = 256):
        self.n_points = int(n_points)

    def __call__(self, category_id: int, instance_id: int) -> np.ndarray:
        return procedural_asset(category_id, instance_id, self.n_points)


class DirectoryAssetSource:
    """Asset source reading one point-cloud file per instance.

    Layout: ``root/<category_id>/<instance_id>.<ext>`` where ext is ``ply``
    or ``bin`` (formats written by the pipeline exporter). Clouds are
    re-centered on load so they satisfy the canonical contract. A missing
    or too small file raises CorruptManifest: the directory is bad input.
    """

    def __init__(self, root):
        self.root = Path(root)

    def __call__(self, category_id: int, instance_id: int) -> np.ndarray:
        from .pipeline import load_point_cloud
        for ext, fmt in (("ply", "ascii-ply"), ("bin", "binary-f32")):
            path = self.root / str(category_id) / f"{instance_id}.{ext}"
            if path.exists():
                pts = load_point_cloud(path, fmt)
                if pts.shape[0] < MIN_OBJECT_POINTS:
                    raise CorruptManifest(
                        f"{path}: {pts.shape[0]} points")
                return pts - pts.mean(axis=0)
        raise CorruptManifest(
            f"no asset file under {self.root} for "
            f"category {category_id} instance {instance_id}")
