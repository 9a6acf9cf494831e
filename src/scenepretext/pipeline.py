"""End-to-end orchestration: dataset export, loss evaluation, file formats.

A dataset is a directory tree of pair folders, each holding the complete
and occluded geometry of both scenes plus a JSON manifest that records the
object draw, transforms, occlusion, matches, and the hash of the producing
config. Everything is a pure function of (config, master seed): per-pair
seeds come from the splitmix64 derivation in `seeding`, so pairs can be
generated in any order or in parallel.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar
import numpy as np

from .assets import DirectoryAssetSource, ProceduralAssetSource
from .catalog import (EPSILON, SceneDistribution,
                      load_default_scannet_parameters)
from .correspondence import MatchSet, full_seed_pool, match_fps_pools
from .decoder import (DecoderHeads, EncoderConfig, HeadsConfig, ToyEncoder,
                      forward_backward, load_checkpoint, prepare_occluded_pair)
from .errors import (CorruptManifest, DimensionMismatch, NonFiniteInput,
                     PlacementFailure, check_field_types, from_record,
                     read_record, to_json, write_json)
from .losses import LAMBDA_PTS, LAMBDA_REC, LOSS_TERMS, TAU, LossReport
from .occlusion import OcclusionRecord, occlude_pair, replay_occlusion
from .scenegen import (LayoutParams, ObjectInstance, SceneInstance,
                       ScenePair, Transform, make_scene_pair)
from .seeding import mix64

# export format -> file extension; DirectoryAssetSource tries them in order
FORMAT_EXT = {"ascii-ply": "ply", "binary-f32": "bin"}


def _json_hash(doc) -> str:
    return hashlib.sha256(to_json(doc).encode()).hexdigest()


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the generation/evaluation pipeline.

    Every value must have its field's type, every float be finite and every
    range hold on construction, the one check of run parameters; the config
    hash is a sha256 over the canonical JSON dump and identifies datasets.
    """

    n_scenes: int = 10
    n_objects_per_scene: int = 12
    points_per_object: int = 256
    epsilon: float = EPSILON
    m_seeds: int = 100
    theta: float = 0.1
    u: int = HeadsConfig.u
    n_encoder_seeds: int = 64
    feature_dim: int = EncoderConfig.feature_dim
    embed_dim: int = EncoderConfig.embed_dim
    encoder_hidden: int = EncoderConfig.hidden
    proj_hidden: int = EncoderConfig.proj_hidden
    decoder_hidden: int = HeadsConfig.hidden
    master_seed: int = 0
    asset_source: str = "procedural"
    export_format: str = "binary-f32"
    room_size: float = LayoutParams.room_size
    occlude: bool = True
    batch_pairs: int = 2
    distribution_file: str | None = None
    # the paper's loss constants: readable off a config, never set or hashed
    tau: ClassVar[float] = TAU
    lambda_pts: ClassVar[float] = LAMBDA_PTS
    lambda_rec: ClassVar[float] = LAMBDA_REC

    def __post_init__(self):
        check_field_types(self)
        checks = [(math.isfinite(v), f"{k} is finite")
                  for k, v in vars(self).items() if isinstance(v, float)]
        checks += [
            (self.n_scenes >= 1, "n_scenes >= 1"),
            (self.n_objects_per_scene >= 1, "n_objects_per_scene >= 1"),
            (self.points_per_object >= 8, "points_per_object >= 8"),
            (0.0 <= self.epsilon <= 1.0, "epsilon in [0, 1]"),
            (self.m_seeds >= 1, "m_seeds >= 1"),
            (self.theta > 0, "theta > 0"),
            (self.u >= 1, "u >= 1"),
            (self.n_objects_per_scene * self.points_per_object
             >= self.u * self.u,
             "n_objects_per_scene * points_per_object >= u * u"),
            (self.n_encoder_seeds >= 1, "n_encoder_seeds >= 1"),
            (self.export_format in FORMAT_EXT,
             f"export_format in {tuple(FORMAT_EXT)}"),
            (self.room_size > 0, "room_size > 0"),
            (self.batch_pairs >= 1, "batch_pairs >= 1"),
        ]
        for ok, what in checks:
            if not ok:
                raise ValueError(f"config violates: {what}")

    def config_hash(self) -> str:
        """sha256 over the canonical JSON of every field."""
        return _json_hash(self)

    def layout(self) -> LayoutParams:
        return LayoutParams(room_size=self.room_size)

    def make_asset_source(self):
        if self.asset_source == "procedural":
            return ProceduralAssetSource(n_points=self.points_per_object)
        return DirectoryAssetSource(self.asset_source)

    def load_distribution(self) -> SceneDistribution:
        """The distribution to draw from, with this config's epsilon."""
        if self.distribution_file:
            dist = SceneDistribution.load(self.distribution_file)
        else:
            dist = load_default_scannet_parameters()
        return replace(dist, epsilon=self.epsilon)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(hidden=self.encoder_hidden,
                             feature_dim=self.feature_dim,
                             proj_hidden=self.proj_hidden,
                             embed_dim=self.embed_dim)

    def heads_config(self) -> HeadsConfig:
        return HeadsConfig(feature_dim=self.feature_dim,
                           hidden=self.decoder_hidden, u=self.u)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        return from_record(cls, doc, "config")


def export_point_cloud(points: np.ndarray, path, fmt: str) -> None:
    """Write an (n, 3) cloud as ascii PLY or raw little-endian float32.

    binary-f32 layout: uint64 little-endian point count, then n*3 float32
    values in row-major order. Binary round-trips are bit-exact at float32
    precision; ascii round-trips are within 1e-6.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points shape {pts.shape}, expected (n, 3)")
    f32 = pts.astype("<f4")
    path = Path(path)
    if fmt == "ascii-ply":
        with open(path, "w", newline="\n") as f:
            f.write("ply\nformat ascii 1.0\n"
                    f"element vertex {f32.shape[0]}\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "end_header\n")
            for row in f32:
                f.write(f"{row[0]:.9g} {row[1]:.9g} {row[2]:.9g}\n")
    elif fmt == "binary-f32":
        with open(path, "wb") as f:
            f.write(struct.pack("<Q", f32.shape[0]))
            f.write(f32.tobytes(order="C"))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_point_cloud(path, fmt: str) -> np.ndarray:
    """Read a cloud written by export_point_cloud as (n, 3) float64.

    A truncated or ragged file, a PLY file that is not ASCII, or a NaN or
    infinite coordinate, raises CorruptManifest.
    """
    path = Path(path)
    if fmt == "ascii-ply":
        # a byte that is not ASCII fails the decoder, which names no file;
        # decoding as UTF-8 would let float() read digits of other scripts
        try:
            with open(path, encoding="ascii") as f:
                if f.readline().strip() != "ply":
                    raise CorruptManifest(f"{path}: not a PLY file")
                count = None
                for line in f:
                    line = line.strip()
                    if line.startswith("element vertex"):
                        count = line.split()[-1]
                    if line == "end_header":
                        break
                else:
                    raise CorruptManifest(f"{path}: missing end_header")
                if count is None:
                    raise CorruptManifest(f"{path}: missing vertex element")
                if not count.isdecimal():
                    raise CorruptManifest(
                        f"{path}: bad vertex count {count!r}")
                n = int(count)
                rows = []
                for _ in range(n):  # stops at the first short or missing row
                    rows.append(f.readline().split())
                    if len(rows[-1]) != 3:
                        raise CorruptManifest(
                            f"{path}: vertex row {len(rows) - 1} of {n} does "
                            f"not hold 3 values")
        except UnicodeDecodeError as e:
            raise CorruptManifest(f"{path}: {e}") from None
        try:
            pts = np.array(rows, dtype=np.float64).reshape(n, 3)
        except ValueError as e:
            raise CorruptManifest(f"{path}: {e}") from None
    elif fmt == "binary-f32":
        raw = path.read_bytes()
        if len(raw) < 8:
            raise CorruptManifest(
                f"{path}: {len(raw)} bytes, shorter than the 8-byte header")
        (n,) = struct.unpack("<Q", raw[:8])
        if len(raw) - 8 != 12 * n:
            raise CorruptManifest(
                f"{path}: {len(raw) - 8} payload bytes for {n} points")
        pts = np.frombuffer(raw, dtype="<f4", offset=8)
        pts = pts.reshape(n, 3).astype(np.float64)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if not np.isfinite(pts).all():
        raise CorruptManifest(f"{path}: non-finite coordinate")
    return pts


@dataclass(frozen=True)
class ObjectDraw:
    """One object of a pair's draw, in storage order."""

    category_id: int
    instance_id: int
    n_points: int

    def __post_init__(self):
        check_field_types(self)
        for name, v in vars(self).items():
            if not 0 <= v < 2 ** 63:
                raise ValueError(f"ObjectDraw.{name} outside [0, 2**63)")


@dataclass
class PairManifest:
    """Replayable record of one generated pair, as `read_record` reads it."""

    pair_id: int
    scene_type_id: int
    objects: list[ObjectDraw]
    transforms_a: list[Transform]
    transforms_b: list[Transform]
    occlusion_a: OcclusionRecord
    occlusion_b: OcclusionRecord
    matches: list[dict]
    theta: float
    config_hash: str

    def __post_init__(self):
        check_field_types(self)
        self.objects = [ObjectDraw(**o) for o in self.objects]
        self.transforms_a = [Transform(**t) for t in self.transforms_a]
        self.transforms_b = [Transform(**t) for t in self.transforms_b]
        self.occlusion_a = OcclusionRecord(**self.occlusion_a)
        self.occlusion_b = OcclusionRecord(**self.occlusion_b)
        n = len(self.objects)
        if {len(self.transforms_a), len(self.transforms_b)} != {n}:
            raise ValueError(f"pair {self.pair_id}: transforms do not fit "
                             f"the {n} objects")
        for rec in (self.occlusion_a, self.occlusion_b):
            if len(rec.kept_indices) != n or not all(
                    k.ndim == 1
                    and (np.diff(k, prepend=-1, append=o.n_points) > 0).all()
                    for k, o in zip(rec.kept_indices, self.objects)):
                raise ValueError(f"pair {self.pair_id}: occlusion record "
                                 f"does not fit the objects")

    def occluded(self, pair: ScenePair) -> ScenePair:
        """The occluded pair that this manifest's two records select."""
        return ScenePair(replay_occlusion(pair.scene_a, self.occlusion_a),
                         replay_occlusion(pair.scene_b, self.occlusion_b),
                         pair.pair_seed)


@dataclass(frozen=True)
class DatasetSummary:
    """A dataset's summary.json: the producing config as stored, its hash,
    and the counts, histograms and means of the produced pairs."""

    config: dict
    config_hash: str
    pairs_produced: int
    placement_failures: int
    scene_type_histogram: dict
    category_histogram: dict
    mean_occlusion_fraction: float
    mean_matches: float

    def __post_init__(self):
        check_field_types(self)
        for name in ("scene_type_histogram", "category_histogram"):
            if any(type(n) is not int for n in getattr(self, name).values()):
                raise TypeError(f"{name}: a count is not int")


def pair_files(export_format: str) -> dict[str, str]:
    """The format fixes the names of a pair's clouds: complete A and B,
    then occluded A and B."""
    ext = FORMAT_EXT[export_format]
    return {f"scene_{s}_{kind}": f"scene_{s}_{kind}.{ext}"
            for kind in ("complete", "occluded") for s in "ab"}


def _write_pair(out_dir: Path, pair_id: int, pair: ScenePair,
                occluded: ScenePair, rec_a: OcclusionRecord,
                rec_b: OcclusionRecord, matches: MatchSet,
                config: PipelineConfig) -> None:
    """Write one pair's clouds and manifest into ``pairs/.pair_NNNNN.tmp``,
    then rename that directory into place, replacing an earlier pair of the
    same id. An interrupted write leaves no ``pair_NNNNN`` directory, and
    ``list_pair_dirs`` skips the dot-prefixed temporary."""
    manifest = {
        "pair_id": pair_id,
        "scene_type_id": pair.scene_a.scene_type_id,
        "objects": [dict(category_id=o.category_id, instance_id=o.instance_id,
                         n_points=o.n_points) for o in pair.scene_a.objects],
        "transforms_a": pair.transforms("a"),
        "transforms_b": pair.transforms("b"),
        "occlusion_a": rec_a,
        "occlusion_b": rec_b,
        "matches": matches.to_records(),
        "theta": config.theta,
        "config_hash": config.config_hash(),
    }
    clouds = (pair.scene_a, pair.scene_b, occluded.scene_a, occluded.scene_b)
    final = out_dir / "pairs" / f"pair_{pair_id:05d}"
    pdir = final.with_name(f".{final.name}.tmp")
    if pdir.exists():
        shutil.rmtree(pdir)
    pdir.mkdir(parents=True)
    try:
        for fname, scene in zip(pair_files(config.export_format).values(),
                                clouds):
            export_point_cloud(scene.points, pdir / fname,
                               config.export_format)
        write_json(pdir / "manifest.json", manifest)
        if final.exists():
            shutil.rmtree(final)
        os.replace(pdir, final)
    except BaseException:
        shutil.rmtree(pdir, ignore_errors=True)
        raise


def generate_pair(config: PipelineConfig, dist: SceneDistribution,
                  asset_source, pair_id: int
                  ) -> tuple[ScenePair, ScenePair, OcclusionRecord,
                             OcclusionRecord, MatchSet]:
    """Generate one pair: draw, realize, occlude, match. Pure in the seed;
    returns (pair, occluded pair, record A, record B, matches)."""
    pair_seed = mix64(config.master_seed, pair_id)
    pair = make_scene_pair(dist, config.n_objects_per_scene, asset_source,
                           pair_seed, config.layout())
    occluded, rec_a, rec_b = occlude_pair(pair, pair_seed, config.occlude)
    matches = match_fps_pools(occluded, full_seed_pool(occluded.scene_a),
                              full_seed_pool(occluded.scene_b),
                              config.m_seeds, config.theta, pair_seed)
    return pair, occluded, rec_a, rec_b, matches


def generate_dataset(config: PipelineConfig, out_dir,
                     progress: bool = True) -> dict:
    """Write n_scenes pair directories plus a dataset summary.

    Deterministic under the master seed: the same config always produces a
    byte-identical tree. Placement failures are counted and reported, not
    fatal. Returns the summary dict (also written as summary.json).

    summary.json is written last, through a temporary file, so its
    presence marks a complete dataset.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dist = config.load_distribution()
    asset_source = config.make_asset_source()
    scene_hist: dict[str, int] = {}
    cat_hist: dict[str, int] = {}
    occ_fracs: list[float] = []
    match_counts: list[int] = []
    failures = 0
    produced = 0
    for pair_id in range(config.n_scenes):
        try:
            pair, occluded, rec_a, rec_b, matches = generate_pair(
                config, dist, asset_source, pair_id)
        except PlacementFailure:
            failures += 1
            continue
        _write_pair(out_dir, pair_id, pair, occluded, rec_a, rec_b, matches,
                    config)
        produced += 1
        label = dist.scene_labels[pair.scene_a.scene_type_id]
        scene_hist[label] = scene_hist.get(label, 0) + 1
        for o in pair.scene_a.objects:
            cl = dist.category_labels[o.category_id]
            cat_hist[cl] = cat_hist.get(cl, 0) + 1
        occ_fracs += rec_a.fractions.tolist() + rec_b.fractions.tolist()
        match_counts.append(len(matches))
        if progress and (pair_id + 1) % 50 == 0:
            print(f"  generated {pair_id + 1}/{config.n_scenes} pairs",
                  file=sys.stderr)
    summary = DatasetSummary(
        config=dict(vars(config)),
        config_hash=config.config_hash(),
        pairs_produced=produced,
        placement_failures=failures,
        scene_type_histogram=dict(sorted(scene_hist.items())),
        category_histogram=dict(sorted(cat_hist.items())),
        mean_occlusion_fraction=float(np.mean(occ_fracs or [0.0])),
        mean_matches=float(np.mean(match_counts or [0.0])),
    )
    write_json(out_dir / "summary.json", summary, indent=1)
    if progress:
        print(f"pairs: {produced}  placement failures: {failures}")
        print(f"mean occlusion fraction: "
              f"{summary.mean_occlusion_fraction:.4f}")
        print(f"mean matches per pair: {summary.mean_matches:.1f}")
        top = sorted(cat_hist.items(), key=lambda kv: -kv[1])[:8]
        print("category histogram (top): "
              + ", ".join(f"{k}={v}" for k, v in top))
    return dict(vars(summary))


def _load_summary(dataset_dir: Path) -> tuple[PipelineConfig, int]:
    """The dataset's config, hash-checked, and its recorded pair count."""
    path = dataset_dir / "summary.json"
    summary = read_record(DatasetSummary, path)
    if _json_hash(summary.config) != summary.config_hash:
        raise CorruptManifest(f"{path}: config hash mismatch")
    return (from_record(PipelineConfig, summary.config, str(path)),
            summary.pairs_produced)


def load_pair(pair_dir, config: PipelineConfig
              ) -> tuple[ScenePair, PairManifest]:
    """Rebuild a ScenePair (complete scenes) from a pair directory.

    Each object holds its slice of the stored complete cloud as it is, in
    the scene frame, and its recorded transform, and the pair's seed is
    ``mix64(master_seed, pair_id)``, so the returned pair replays occlusion
    and matching exactly as generated. A manifest that is missing,
    unparsable, refused by its records or not of the directory's pair id, a
    missing file, or a config hash that is not ``config``'s raise
    CorruptManifest.
    """
    pair_dir = Path(pair_dir)
    manifest = read_record(PairManifest, pair_dir / "manifest.json")
    if (found := pair_dir.resolve().name) != f"pair_{manifest.pair_id:05d}":
        raise CorruptManifest(f"pair {manifest.pair_id}: stored in {found}")
    if manifest.config_hash != config.config_hash():
        raise CorruptManifest(f"pair {manifest.pair_id}: config hash mismatch")
    files = {name: pair_dir / fname for name, fname
             in pair_files(config.export_format).items()}
    for path in files.values():
        if not path.exists():
            raise CorruptManifest(
                f"pair {manifest.pair_id}: missing file {path.name}")
    scenes = {}
    for side in ("a", "b"):
        pts = load_point_cloud(files[f"scene_{side}_complete"],
                               config.export_format)
        objects = []
        start = 0
        for o, tf in zip(manifest.objects,
                         getattr(manifest, f"transforms_{side}")):
            objects.append(ObjectInstance(o.category_id, o.instance_id,
                                          pts[start:start + o.n_points], tf))
            start += o.n_points
        if start != pts.shape[0]:
            raise CorruptManifest(
                f"pair {manifest.pair_id}: scene {side} has {pts.shape[0]} "
                f"points, objects account for {start}")
        scenes[side] = SceneInstance.from_objects(manifest.scene_type_id,
                                                  objects)
    pair_seed = mix64(config.master_seed, manifest.pair_id)
    return ScenePair(scenes["a"], scenes["b"], pair_seed), manifest


def list_pair_dirs(dataset_dir) -> list[Path]:
    pairs_root = Path(dataset_dir) / "pairs"
    if not pairs_root.is_dir():
        return []
    return sorted(p for p in pairs_root.iterdir()
                  if p.is_dir() and not p.name.startswith("."))


def evaluate_losses(dataset_dir, checkpoint: str | None = None,
                    report_path=None, progress: bool = True
                    ) -> list[LossReport]:
    """Batch loss reports over a generated dataset.

    The dataset's summary.json supplies the config, and the pair count it
    records must match the pair directories. Each pair is evaluated on the
    occlusion its manifest records, in batches of config.batch_pairs; each
    report is appended as one JSON line to report_path (when given). The
    encoder and heads come from the checkpoint if supplied, otherwise from
    a seeded random initialization derived from the master seed; a
    checkpoint whose u differs from the config's raises DimensionMismatch.
    A NaN or infinite loss term raises NonFiniteInput naming the batch's
    pair ids.
    """
    dataset_dir = Path(dataset_dir)
    pair_dirs = list_pair_dirs(dataset_dir)
    config, produced = _load_summary(dataset_dir)
    if len(pair_dirs) != produced:
        raise CorruptManifest(
            f"{dataset_dir}: {len(pair_dirs)} pair directories, "
            f"summary.json records {produced}")
    if not pair_dirs:
        raise CorruptManifest(f"{dataset_dir}: no pair directories found")
    if checkpoint:
        encoder, heads = load_checkpoint(checkpoint)
        if heads.config.u != config.u:
            raise DimensionMismatch(
                f"checkpoint {checkpoint}: heads fold u={heads.config.u}, "
                f"the dataset's targets are built for u={config.u}")
    else:
        encoder = ToyEncoder(config.encoder_config(),
                             rng_seed=mix64(config.master_seed, 0xE0C))
        heads = DecoderHeads(config.heads_config(),
                             rng_seed=mix64(config.master_seed, 0xDEC))
    reports: list[LossReport] = []
    with (open(report_path, "w", newline="\n") if report_path
          else nullcontext()) as out:
        for start in range(0, len(pair_dirs), config.batch_pairs):
            batch, batch_ids = [], []
            for pdir in pair_dirs[start:start + config.batch_pairs]:
                pair, manifest = load_pair(pdir, config)
                batch.append(prepare_occluded_pair(
                    pair, manifest.occluded(pair), config.n_encoder_seeds,
                    config.m_seeds, config.theta, config.u, pair.pair_seed))
                batch_ids.append(manifest.pair_id)
            # an overflow surfaces as the non-finite term refused below
            with np.errstate(all="ignore"):
                report = forward_backward(batch, encoder, heads,
                                          with_gradients=False)
            bad = [k for k in LOSS_TERMS
                   if not np.isfinite(getattr(report, k))]
            if bad:
                raise NonFiniteInput(f"pairs {batch_ids}: non-finite "
                                     f"{', '.join(bad)}")
            reports.append(report)
            if out is not None:
                doc = report.to_json_dict()
                doc["pair_ids"] = batch_ids
                out.write(json.dumps(doc, sort_keys=True, allow_nan=False)
                          + "\n")
    if progress and reports:
        means = {k: float(np.mean([getattr(r, k) for r in reports]))
                 for k in LOSS_TERMS}
        for k, v in means.items():
            print(f"mean {k}: {v:.6f}")
    return reports


def match_pair_dir(pair_dir, m_seeds: int | None = None,
                   theta: float | None = None, full_pool: bool = False
                   ) -> MatchSet:
    """Recompute the match set of a stored pair (CLI `match` backend).

    The dataset's config (``pair_dir/../../summary.json``, which must
    exist) is checked against the manifest, so without overrides the
    result is the stored match set. The ``m_seeds`` and ``theta``
    overrides go through that config's checks, as `generate`'s flags do.
    """
    try:   # resolved, so a bare pair name finds the dataset above the cwd
        config, _ = _load_summary(Path(pair_dir).resolve().parent.parent)
    except CorruptManifest:   # a missing or corrupt pair is named first
        read_record(PairManifest, Path(pair_dir) / "manifest.json")
        raise
    pair, manifest = load_pair(pair_dir, config)
    overrides = {"m_seeds": m_seeds, "theta": theta}
    config = replace(config, **{k: v for k, v in overrides.items()
                                if v is not None})
    occluded = manifest.occluded(pair)
    return match_fps_pools(occluded, full_seed_pool(occluded.scene_a),
                           full_seed_pool(occluded.scene_b), config.m_seeds,
                           config.theta, pair.pair_seed, full_pool)
