"""The benchmark workloads: inputs made from the workload seed, one timed
operation, and the checks on its outputs.

Every workload is closed-loop and single-process: the next operation starts
when the previous one returns. Program functions are called through their
module attributes, so the traced run sees every call. README.md says why
each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from scenepretext import assets, decoder, pipeline, scenegen
from scenepretext.seeding import mix64


class CheckFailed(Exception):
    """An operation's output is wrong; the run fails."""


@dataclass
class Outcome:
    pairs: int                 # pairs the operation produced or evaluated
    counts: dict = field(default_factory=dict)   # per-op layer counts


def _clear_asset_cache() -> None:
    """Start each set-up cold: the procedural asset cache is process-wide."""
    clear = getattr(assets.procedural_asset, "cache_clear", None)
    if clear is not None:
        clear()


def _check_stored_matches(pair_dir: Path, theta: float) -> bytes:
    """Every stored match distance is < theta; returns the manifest bytes."""
    raw = (pair_dir / "manifest.json").read_bytes()
    doc = json.loads(raw)
    if doc["theta"] != theta:
        raise CheckFailed(f"{pair_dir}: manifest theta {doc['theta']} "
                          f"!= config theta {theta}")
    for m in doc["matches"]:
        if not m["distance"] < theta:
            raise CheckFailed(f"{pair_dir}: stored match distance "
                              f"{m['distance']} >= theta {theta}")
    return raw


def _check_report(report, what: str) -> None:
    values = (report.l_obj, report.l_pts, report.l_rec_coarse,
              report.l_rec_detail, report.l_overall)
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{what}: non-finite loss {values}")
    recomposed = (report.l_obj + report.lambda_pts * report.l_pts
                  + report.lambda_rec * (report.l_rec_coarse
                                         + report.l_rec_detail))
    if abs(recomposed - report.l_overall) > 1e-12 * max(
            1.0, abs(report.l_overall)):
        raise CheckFailed(f"{what}: l_overall {report.l_overall!r} != "
                          f"recomposed {recomposed!r}")


def _tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes; total bytes."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
        total += len(data)
    return h.hexdigest(), total


class Generate:
    """`generate_dataset` at the default PipelineConfig into a fresh
    directory; one operation is one call."""

    name = "generate"
    setup_reps = 5
    min_ops = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config = pipeline.PipelineConfig()
        self.digests: dict[int, str] = {}
        self.dataset_bytes = 0
        self.pairs = 0
        self.placement_failures = 0

    def describe(self) -> dict:
        return {"operation": "pipeline.generate_dataset(config, fresh dir)",
                "master_seed": "mix64(workload seed, op index)",
                "set_up": "cold asset cache; every asset of the catalog; "
                          "one warm-up generate_dataset call",
                "config": asdict(self.config)}

    def input_key(self, i: int) -> int:
        return i

    def after_setup(self) -> None:
        pass

    def _op_config(self, i: int):
        return replace(self.config, master_seed=mix64(self.seed, i))

    def setup(self, rep: int) -> None:
        _clear_asset_cache()
        dist = self.config.load_distribution()
        source = self.config.make_asset_source()
        for cat, row in enumerate(dist.instance_given_category):
            for inst in range(row.size):
                source(cat, inst)
        out = self.work / f"setup{rep}"
        pipeline.generate_dataset(self._op_config(-1), out, progress=False)
        shutil.rmtree(out)

    def op(self, i: int):
        return pipeline.generate_dataset(self._op_config(i),
                                         self.work / f"op{i}",
                                         progress=False)

    def check(self, i: int, summary: dict) -> Outcome:
        out = self.work / f"op{i}"
        produced = summary["pairs_produced"]
        failures = summary["placement_failures"]
        if produced + failures != self.config.n_scenes:
            raise CheckFailed(f"op {i}: produced {produced} + failures "
                              f"{failures} != requested "
                              f"{self.config.n_scenes}")
        pair_dirs = pipeline.list_pair_dirs(out)
        if len(pair_dirs) != produced:
            raise CheckFailed(f"op {i}: {len(pair_dirs)} pair dirs, "
                              f"summary says {produced}")
        manifest_bytes = sum(
            len(_check_stored_matches(p, self.config.theta))
            for p in pair_dirs)
        digest, total = _tree_digest(out)
        if i == 0:
            self.digests[i] = digest
        self.dataset_bytes += total
        self.pairs += produced
        self.placement_failures += failures
        shutil.rmtree(out)
        return Outcome(produced, {"pipeline.manifest_bytes": manifest_bytes})

    def finish(self, n_ops: int) -> dict:
        """Same seed, same tree: re-run op 0 and compare bytes."""
        if 0 not in self.digests:
            raise CheckFailed("no successful operation to replay")
        self.op(0)
        digest, _ = _tree_digest(self.work / "op0")
        shutil.rmtree(self.work / "op0")
        if digest != self.digests[0]:
            raise CheckFailed("op 0 re-run wrote a different tree")
        requested = self.pairs + self.placement_failures
        return {"dataset_bytes_per_pair": self.dataset_bytes / self.pairs,
                "placement_failed_frac": self.placement_failures / requested,
                "determinism": "op 0 re-run byte-identical"}


class Losses:
    """The `losses` command's path: `evaluate_losses` without gradients,
    writing the JSONL report. One operation is one call over a dataset of
    one batch; the datasets are generated in set-up and used in turn."""

    name = "losses"
    setup_reps = 3
    # odd, so the traced run's every-other operation visits every dataset
    n_datasets = 45
    # every dataset is evaluated at least once, so `attempted` and `failed`
    # depend on the seed only
    min_ops = n_datasets

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        base = pipeline.PipelineConfig()
        self.config = replace(base, n_scenes=base.batch_pairs)
        self.datasets: list[Path] = []
        self.first_values: dict[int, tuple] = {}
        self.dataset_bytes = 0
        self.pairs_stored = 0

    def describe(self) -> dict:
        return {"operation": "pipeline.evaluate_losses(dataset, report_path)"
                             ", with_gradients=False",
                "datasets": self.n_datasets,
                "master_seed": "mix64(workload seed, dataset index)",
                "set_up": "cold asset cache; generate_dataset per dataset",
                "config": asdict(self.config)}

    def input_key(self, i: int) -> int:
        return i % self.n_datasets

    def setup(self, rep: int) -> None:
        _clear_asset_cache()
        root = self.work / f"setup{rep}"
        for d in range(self.n_datasets):
            pipeline.generate_dataset(
                replace(self.config, master_seed=mix64(self.seed, d)),
                root / f"ds{d:03d}", progress=False)
        self.datasets = [root / f"ds{d:03d}" for d in range(self.n_datasets)]

    def after_setup(self) -> None:
        """Keep the last set-up's datasets; check what they store."""
        for old in self.work.glob("setup*"):
            if old != self.datasets[0].parent:
                shutil.rmtree(old)
        for ds in self.datasets:
            for pdir in pipeline.list_pair_dirs(ds):
                _check_stored_matches(pdir, self.config.theta)
            _, total = _tree_digest(ds)
            self.dataset_bytes += total
            self.pairs_stored += len(pipeline.list_pair_dirs(ds))

    def _report(self, i: int) -> Path:
        # a fresh file per call: truncating a report written back to disk
        # earlier makes some file systems flush on close
        return self.work / f"report{i}.jsonl"

    def op(self, i: int):
        return pipeline.evaluate_losses(self.datasets[i % self.n_datasets],
                                        report_path=self._report(i),
                                        progress=False)

    def check(self, i: int, reports) -> Outcome:
        ds_index = i % self.n_datasets
        lines = self._report(i).read_text().splitlines()
        self._report(i).unlink()
        if len(lines) != len(reports) or not reports:
            raise CheckFailed(f"op {i}: {len(lines)} report lines for "
                              f"{len(reports)} reports")
        pairs = 0
        for report, line in zip(reports, lines):
            _check_report(report, f"op {i}")
            doc = json.loads(line)
            if doc["l_overall"] != report.l_overall:
                raise CheckFailed(f"op {i}: JSONL l_overall differs")
            pairs += len(doc["pair_ids"])
        values = tuple(r.l_overall for r in reports)
        first = self.first_values.setdefault(ds_index, values)
        if values != first:
            raise CheckFailed(f"op {i}: dataset {ds_index} evaluated to "
                              f"{values}, earlier {first}")
        return Outcome(pairs)

    def finish(self, n_ops: int) -> dict:
        return {"dataset_bytes_per_pair":
                self.dataset_bytes / max(self.pairs_stored, 1)}


FULL_SCALE = dict(feature_dim=256, encoder_hidden=256, proj_hidden=256,
                  decoder_hidden=256, n_encoder_seeds=256, u=3)


class TrainStep:
    """`forward_backward(..., with_gradients=True)` on one fixed prepared
    batch at full-scale widths; parameters are not updated."""

    name = "train_step"
    setup_reps = 5
    min_ops = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        # one pair per batch keeps >= 100 steps in a run, so p90 has ten
        # samples beyond it
        self.config = replace(pipeline.PipelineConfig(), master_seed=seed,
                              batch_pairs=1, **FULL_SCALE)
        self.first = None

    def describe(self) -> dict:
        c = self.config
        return {"operation": "decoder.forward_backward(batch, encoder, "
                             "heads, with_gradients=True)",
                "pair_seed": "mix64(workload seed, pair index)",
                "set_up": "cold asset cache; make_scene_pair + "
                          "prepare_scene_pair per pair; model init",
                "detail_points_per_scene": c.u * c.u * c.n_encoder_seeds,
                "config": asdict(c)}

    def input_key(self, i: int) -> int:
        return 0     # every step runs on the same batch

    def setup(self, rep: int) -> None:
        _clear_asset_cache()
        c = self.config
        dist = c.load_distribution()
        source = c.make_asset_source()
        self.batch = []
        for p in range(c.batch_pairs):
            pair_seed = mix64(self.seed, p)
            pair = scenegen.make_scene_pair(dist, c.n_objects_per_scene,
                                            source, pair_seed, c.layout())
            self.batch.append(decoder.prepare_scene_pair(
                pair, n_seeds=c.n_encoder_seeds, m_matches=c.m_seeds,
                theta=c.theta, u=c.u, rng_seed=pair_seed,
                occlude=c.occlude))
        self.encoder = decoder.ToyEncoder(
            c.encoder_config(), rng_seed=mix64(c.master_seed, 0xE0C))
        self.heads = decoder.DecoderHeads(
            c.heads_config(), rng_seed=mix64(c.master_seed, 0xDEC))

    def after_setup(self) -> None:
        for pp in self.batch:
            if not np.all(pp.matches.distances < self.config.theta):
                raise CheckFailed("prepared match distance >= theta")

    def op(self, i: int):
        c = self.config
        return decoder.forward_backward(self.batch, self.encoder, self.heads,
                                        c.tau, c.lambda_pts, c.lambda_rec,
                                        with_gradients=True)

    def check(self, i: int, report) -> Outcome:
        _check_report(report, f"step {i}")
        for term, grads in report.gradients.items():
            for name, g in grads.items():
                if not np.all(np.isfinite(g)):
                    raise CheckFailed(f"step {i}: non-finite gradient "
                                      f"{term}/{name}")
        values = (report.l_obj, report.l_pts, report.l_rec_coarse,
                  report.l_rec_detail, report.l_overall)
        if self.first is None:
            self.first = values
        elif values != self.first:
            raise CheckFailed(f"step {i}: losses {values} differ from step "
                              f"0 {self.first} with unchanged parameters")
        return Outcome(len(self.batch))

    def finish(self, n_ops: int) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Generate, Losses, TrainStep)}
