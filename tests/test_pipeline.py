"""Dataset generation, file formats, manifests, loss evaluation, CLI."""

import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scenepretext
from scenepretext import errors, pipeline
from scenepretext.assets import DirectoryAssetSource, procedural_asset
from scenepretext.catalog import (SceneDistribution,
                                  load_default_scannet_parameters)
from scenepretext.cli import main
from scenepretext.decoder import (DecoderHeads, HeadsConfig, ToyEncoder,
                                  forward_backward, prepare_occluded_pair,
                                  save_checkpoint)
from scenepretext.errors import (CorruptManifest, DimensionMismatch,
                                 TooFewPoints, from_record, to_json)
from scenepretext.losses import chamfer_distance
from scenepretext.occlusion import replay_occlusion
from scenepretext.pipeline import (ObjectDraw, PairManifest, PipelineConfig,
                                   evaluate_losses, export_point_cloud,
                                   generate_dataset, list_pair_dirs,
                                   load_pair, load_point_cloud,
                                   match_pair_dir, pair_files)
from scenepretext.scenegen import ScenePair
from scenepretext.seeding import mix64

SMALL = dict(n_scenes=3, n_objects_per_scene=4, points_per_object=48,
             m_seeds=24, n_encoder_seeds=12, u=2, feature_dim=8,
             embed_dim=8, encoder_hidden=12, proj_hidden=8,
             decoder_hidden=10, master_seed=7)


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ----------------------------------------------------------------- formats

def test_binary_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-10, 10, size=(1000, 3)).astype(np.float32)
    path = tmp_path / "cloud.bin"
    export_point_cloud(pts, path, "binary-f32")
    back = load_point_cloud(path, "binary-f32")
    np.testing.assert_array_equal(back.astype(np.float32), pts)


def test_ascii_ply_roundtrip_small_error(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5, 5, size=(200, 3))
    path = tmp_path / "cloud.ply"
    export_point_cloud(pts, path, "ascii-ply")
    back = load_point_cloud(path, "ascii-ply")
    assert np.abs(back - pts).max() <= 1e-6


def test_empty_cloud_valid_header(tmp_path):
    path = tmp_path / "empty.ply"
    export_point_cloud(np.zeros((0, 3)), path, "ascii-ply")
    text = path.read_text()
    assert "element vertex 0" in text
    back = load_point_cloud(path, "ascii-ply")
    assert back.shape == (0, 3)
    binpath = tmp_path / "empty.bin"
    export_point_cloud(np.zeros((0, 3)), binpath, "binary-f32")
    assert load_point_cloud(binpath, "binary-f32").shape == (0, 3)


BIN_HEADER_3 = (3).to_bytes(8, "little")
PLY_HEADER_2 = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                "property float y\nproperty float z\nend_header\n")


@pytest.mark.parametrize("fmt,content", [
    ("binary-f32", b""),
    ("binary-f32", b"\x03\x00\x00"),
    ("binary-f32", BIN_HEADER_3 + bytes(35)),
    ("binary-f32", BIN_HEADER_3 + bytes(37)),
    ("ascii-ply", PLY_HEADER_2 + "1 2 3\n"),
    ("ascii-ply", PLY_HEADER_2 + "1 2 3\n4 5\n"),
    ("ascii-ply", PLY_HEADER_2 + "1 2 3\n4 5 6 7\n"),
    ("ascii-ply", PLY_HEADER_2 + "1 2 3\n4 five 6\n"),
    ("ascii-ply", PLY_HEADER_2.replace("vertex 2", "vertex two")),
    ("binary-f32", BIN_HEADER_3 + struct.pack("<9f", *[0.0] * 8, np.nan)),
    ("binary-f32", BIN_HEADER_3 + struct.pack("<9f", -np.inf, *[0.0] * 8)),
    ("ascii-ply", PLY_HEADER_2 + "1 2 3\n4 nan 6\n"),
    ("ascii-ply", PLY_HEADER_2 + "inf 2 3\n4 5 6\n"),
], ids=["bin-empty", "bin-short-header", "bin-short-payload",
        "bin-long-payload", "ply-missing-row", "ply-short-row",
        "ply-long-row", "ply-non-numeric", "ply-bad-count", "bin-nan",
        "bin-inf", "ply-nan", "ply-inf"])
def test_truncated_or_ragged_geometry_raises_corrupt_manifest(
        tmp_path, fmt, content):
    path = tmp_path / "cloud"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(CorruptManifest):
        load_point_cloud(path, fmt)


@pytest.mark.parametrize("command", ["losses", "match"])
def test_cli_truncated_geometry_exit_2(tmp_path, command):
    config = PipelineConfig(**SMALL)
    generate_dataset(config, tmp_path / "ds", progress=False)
    pdir = list_pair_dirs(tmp_path / "ds")[0]
    (pdir / "scene_a_complete.bin").write_bytes(b"\x01\x02")
    target = tmp_path / "ds" if command == "losses" else pdir
    assert main([command, str(target)]) == 2


SCANNET = load_default_scannet_parameters()

# each edit turns a generated manifest, of pair 0, into a corrupt one
MANIFEST_FAULTS = {
    "extra-field": lambda doc: doc.update(extra=1),
    "missing-field": lambda doc: doc.pop("theta"),
    # the name map older manifests stored; the format fixes the names now
    "stale-files-field":
        lambda doc: doc.update(files=pair_files(PipelineConfig.export_format)),
    # the format older manifests stored; the config's format rules now
    "stale-export-format":
        lambda doc: doc.update(export_format=PipelineConfig.export_format),
    "pair-seed-null": lambda doc: doc.update(pair_seed=None),
    # the copies older manifests stored: the seed is mix64(master_seed,
    # pair_id), the labels are the distribution's
    "stale-pair-seed": lambda doc: doc.update(
        pair_seed=mix64(SMALL["master_seed"], doc["pair_id"])),
    "stale-scene-type": lambda doc: doc.update(
        scene_type=SCANNET.scene_labels[doc["scene_type_id"]]),
    "stale-object-category": lambda doc: [
        o.update(category=SCANNET.category_labels[o["category_id"]])
        for o in doc["objects"]],
    # the id would re-seed the pair: it must be its directory's
    "pair-in-another-directory": lambda doc: doc.update(pair_id=1),
    "pair-id-string": lambda doc: doc.update(pair_id="x"),
    "scene-type-id-string": lambda doc: doc.update(scene_type_id="x"),
    "object-without-n_points": lambda doc: doc["objects"][1].pop("n_points"),
    "object-without-category_id":
        lambda doc: doc["objects"][0].pop("category_id"),
    "occlusion-without-kept_indices":
        lambda doc: doc["occlusion_a"].pop("kept_indices"),
    "occlusion-without-viewpoint":
        lambda doc: doc["occlusion_b"].pop("viewpoint"),
    "kept-index-out-of-range":
        lambda doc: doc["occlusion_a"]["kept_indices"][0].append(1000000),
    "kept-lists-fewer-than-objects":
        lambda doc: doc["occlusion_b"]["kept_indices"].pop(),
    "kept-index-repeated":
        lambda doc: (k := doc["occlusion_a"]["kept_indices"][1]).append(k[-1]),
    "kept-indices-not-integers":
        lambda doc: doc["occlusion_b"]["kept_indices"].__setitem__(
            0, [0.5, 1.5]),
    "transform-scale-nan": lambda doc: doc["transforms_a"][0].update(
        scale=math.nan),
    "transform-rotation-nan":
        lambda doc: doc["transforms_b"][1]["rotation"][0].__setitem__(
            0, math.nan),
    "transform-translation-nan":
        lambda doc: doc["transforms_a"][2]["translation"].__setitem__(
            1, math.nan),
    # a stored value of the wrong type, where numpy would have taken it
    "category-id-fractional":
        lambda doc: doc["objects"][0].update(category_id=4.5),
    # an id that no int64 array holds
    "category-id-beyond-int64":
        lambda doc: doc["objects"][0].update(category_id=2 ** 63),
    "category-id-negative":
        lambda doc: doc["objects"][0].update(category_id=-1),
    "instance-id-string":
        lambda doc: doc["objects"][0].update(instance_id="x"),
    "n-points-string": lambda doc: (o := doc["objects"][0]).update(
        n_points=str(o["n_points"])),
    "transform-scale-string": lambda doc: (t := doc["transforms_a"][0]).update(
        scale=str(t["scale"])),
    "transform-rotation-strings":
        lambda doc: (t := doc["transforms_b"][0]).update(
            rotation=[[str(v) for v in row] for row in t["rotation"]]),
    # lists that must hold one entry per object, and a 3-d viewpoint
    "transforms-a-extra":
        lambda doc: doc["transforms_a"].append(doc["transforms_a"][0]),
    "transforms-b-short": lambda doc: doc["transforms_b"].pop(),
    "fractions-extra": lambda doc: doc["occlusion_a"]["fractions"].append(0.1),
    "fractions-short": lambda doc: doc["occlusion_b"]["fractions"].pop(),
    "viewpoint-2d": lambda doc: doc["occlusion_a"]["viewpoint"].pop(),
}


def _assert_one_short_line(err, tmp_path):
    # a refused value is named by its type, never printed whole
    message = err.replace(str(tmp_path), "")
    assert message.count("\n") == 1 and len(message) < 200, message


@pytest.mark.parametrize("fault", list(MANIFEST_FAULTS))
@pytest.mark.parametrize("command", ["losses", "match"])
def test_cli_bad_manifest_fields_exit_2(tmp_path, capsys, command, fault):
    config = PipelineConfig(**SMALL)
    generate_dataset(config, tmp_path / "ds", progress=False)
    pdir = list_pair_dirs(tmp_path / "ds")[0]
    doc = json.loads((pdir / "manifest.json").read_text())
    MANIFEST_FAULTS[fault](doc)
    (pdir / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(CorruptManifest):
        load_pair(pdir, config)
    target = tmp_path / "ds" if command == "losses" else pdir
    capsys.readouterr()
    assert main([command, str(target)]) == 2
    _assert_one_short_line(capsys.readouterr().err, tmp_path)


def test_format_validation(tmp_path):
    with pytest.raises(ValueError):
        export_point_cloud(np.zeros((2, 3)), tmp_path / "x", "obj")
    with pytest.raises(ValueError):
        export_point_cloud(np.zeros((2, 2)), tmp_path / "x", "binary-f32")


# ------------------------------------------------------------------ config

def test_config_hash_stable_and_sensitive():
    c1 = PipelineConfig(**SMALL)
    c2 = PipelineConfig(**SMALL)
    assert c1.config_hash() == c2.config_hash()
    c3 = PipelineConfig(**{**SMALL, "theta": 0.2})
    assert c3.config_hash() != c1.config_hash()


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(**{**SMALL, "epsilon": 1.5})
    with pytest.raises(ValueError):
        PipelineConfig(**{**SMALL, "u": 0})
    # the scenes must hold the u * u detail targets of at least one seed
    tiny = {**SMALL, "n_objects_per_scene": 1, "u": 3}
    with pytest.raises(ValueError):
        PipelineConfig(**{**tiny, "points_per_object": 8})
    PipelineConfig(**{**tiny, "points_per_object": 9})


def test_seed_mixing_is_documented_finalizer():
    # reference values computed from the documented splitmix64 recipe
    def reference(master, index):
        mask = (1 << 64) - 1
        z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    for master in (0, 7, 2**63):
        for index in (0, 1, 999):
            assert mix64(master, index) == reference(master, index)
    assert mix64(0, 0) != mix64(0, 1)
    assert mix64(0, 1) == mix64(0, 1)


# ---------------------------------------------------------------- generate

def test_generate_deterministic_byte_identical(tmp_path):
    config = PipelineConfig(**SMALL)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    s1 = generate_dataset(config, out1, progress=False)
    s2 = generate_dataset(config, out2, progress=False)
    assert s1 == s2
    t1, t2 = tree_bytes(out1), tree_bytes(out2)
    assert t1.keys() == t2.keys()
    for name in t1:
        assert t1[name] == t2[name], name


def cut_json_write(monkeypatch, name):
    """``write_json``'s write of the file ``name`` stops halfway and fails,
    as on a full disk; every other file is written whole."""
    def open_then_cut(file, *args, **kwargs):
        f = open(file, *args, **kwargs)
        if Path(file).name == f"{name}.tmp":
            write = f.write

            def write_half_then_fail(text):
                write(text[:len(text) // 2])
                raise OSError("no space left on device")
            f.write = write_half_then_fail
        return f
    monkeypatch.setattr(errors, "open", open_then_cut, raising=False)


def test_interrupted_summary_write_leaves_no_partial_summary(tmp_path,
                                                             monkeypatch):
    # a fresh dataset: no summary.json, so it does not look complete
    out = tmp_path / "ds"
    with monkeypatch.context() as m:
        cut_json_write(m, "summary.json")
        with pytest.raises(OSError):
            generate_dataset(PipelineConfig(**SMALL), out, progress=False)
    assert [p.name for p in out.iterdir()] == ["pairs"]
    # over a complete dataset: the previous summary.json is kept unchanged
    generate_dataset(PipelineConfig(**SMALL), out, progress=False)
    before = tree_bytes(out)
    cut_json_write(monkeypatch, "summary.json")
    with pytest.raises(OSError):
        generate_dataset(PipelineConfig(**dict(SMALL, master_seed=8)), out,
                         progress=False)
    after = tree_bytes(out)
    assert after.keys() == before.keys()
    assert after["summary.json"] == before["summary.json"]


def _save_checkpoint(path, seed):
    config = PipelineConfig(**SMALL)
    save_checkpoint(ToyEncoder(config.encoder_config(), rng_seed=seed),
                    DecoderHeads(config.heads_config(), rng_seed=seed), path)


def _save_distribution(path, seed):
    p = seed / 4
    SceneDistribution(("room",), ("c0", "c1"), np.ones(1),
                      np.array([[p, 1 - p]]), (np.ones(1), np.ones(1))
                      ).save(path)


@pytest.mark.parametrize("save", [_save_checkpoint, _save_distribution],
                         ids=["checkpoint", "distribution"])
def test_interrupted_write_keeps_the_previous_file(tmp_path, monkeypatch,
                                                   save):
    path = tmp_path / "out.json"
    save(path, 1)
    before = path.read_bytes()
    cut_json_write(monkeypatch, path.name)
    with pytest.raises(OSError):
        save(path, 2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.fixture(scope="module")
def stored_records(tmp_path_factory):
    dataset, config = _tiny_dataset(tmp_path_factory.mktemp("records"))
    _, m = load_pair(list_pair_dirs(dataset)[0], config)
    return [m.transforms_a[0], m.occlusion_a, m.objects[0], m, config,
            config.encoder_config(), config.heads_config()]


@pytest.mark.parametrize("index", range(7), ids=[
    "Transform", "OcclusionRecord", "ObjectDraw", "PairManifest",
    "PipelineConfig", "EncoderConfig", "HeadsConfig"])
def test_record_roundtrip_through_json(stored_records, index):
    record = stored_records[index]
    back = from_record(type(record), json.loads(to_json(record)), "record")
    assert type(back) is type(record)
    assert to_json(back) == to_json(record)


def test_to_json_refuses_what_is_neither_record_nor_array():
    # a numpy integer is no int: it is refused, not written as a string
    for value in (np.int64(1), object()):
        with pytest.raises(TypeError, match="not JSON serializable"):
            to_json({"a": value})


def test_interrupted_pair_write_leaves_no_pair_dir(tmp_path, monkeypatch):
    export = pipeline.export_point_cloud
    calls = []

    def export_then_fail_halfway(points, path, fmt, fail_at):
        calls.append(path)
        if len(calls) == fail_at:
            path.write_bytes(b"ply\nformat ascii 1.0\n")  # a cut file
            raise OSError("no space left on device")
        return export(points, path, fmt)

    def generate_failing_at(fail_at, config):
        calls.clear()
        monkeypatch.setattr(pipeline, "export_point_cloud",
                            lambda *args: export_then_fail_halfway(
                                *args, fail_at=fail_at))
        with pytest.raises(OSError):
            generate_dataset(config, out, progress=False)
        monkeypatch.setattr(pipeline, "export_point_cloud", export)

    # a fresh dataset, cut in the third of pair 0's four clouds
    out = tmp_path / "ds"
    generate_failing_at(3, PipelineConfig(**SMALL))
    assert list((out / "pairs").iterdir()) == []
    assert list_pair_dirs(out) == []
    # over a complete dataset, cut in pair 1: pair 0 is the new one, whole,
    # and pair 1 the previous one, unchanged
    generate_dataset(PipelineConfig(**SMALL), out, progress=False)
    before = tree_bytes(out)
    pair_dirs = list_pair_dirs(out)
    other = PipelineConfig(**dict(SMALL, master_seed=8))
    generate_failing_at(6, other)
    assert list_pair_dirs(out) == pair_dirs
    assert sorted(p.name for p in (out / "pairs").iterdir()) == [
        p.name for p in pair_dirs]
    after = tree_bytes(out)
    assert after.keys() == before.keys()
    generate_dataset(other, tmp_path / "other", progress=False)
    want = tree_bytes(tmp_path / "other")
    for name in after:
        if name.startswith("pairs/pair_00000/"):
            assert after[name] == want[name], name
        else:
            assert after[name] == before[name], name


def test_pair_write_replaces_a_leftover_temporary(tmp_path):
    out = tmp_path / "ds"
    leftover = out / "pairs" / ".pair_00001.tmp"
    leftover.mkdir(parents=True)
    (leftover / "manifest.json").write_text("{")
    assert list_pair_dirs(out) == []
    generate_dataset(PipelineConfig(**SMALL), out, progress=False)
    generate_dataset(PipelineConfig(**SMALL), tmp_path / "clean",
                     progress=False)
    assert tree_bytes(out) == tree_bytes(tmp_path / "clean")


# sha256 over every file of a 4-pair default-config dataset and its loss
# report JSONL. First recorded with the norm-based FPS loop, before the
# columnar kernel replaced it: a change to any tree byte or loss bit shows
# here, and a deliberate one must update these values and say so. Updated
# once since, when include_floor and yaw_only left PipelineConfig: only the
# config hash (in every manifest.json and summary.json) and the two keys in
# summary.json moved; every geometry file and loss line is unchanged.
# Updated again when the coarse target became the detail FPS run's prefix
# and the manifest lost `files` and became compact JSON: l_rec_coarse and
# l_overall moved in every loss line, manifest.json and summary.json (no
# `output_dir` key) were rewritten; every geometry file and every l_obj,
# l_pts and l_rec_detail bit is unchanged.
# Updated again when the fold layer's first product was factorised into a
# grid term and a feature term repeated u*u times: l_rec_detail moved in its
# last bit by summation-order rounding in one loss line of seed 1 and both
# of seed 2 (l_overall with it in two of the three); every tree file and
# every l_obj, l_pts and l_rec_coarse bit is unchanged, and seed 0's digest
# did not move.
# Updated again when objects began to hold their points in the scene frame:
# load_pair used to rebuild each object's canonical cloud by inverting its
# transform and re-apply the transform to it, and now keeps the stored
# float32 cloud as it is, so only the loss report moved, by rounding: the
# largest relative move of any loss term is 4.4e-16 (l_obj, seed 1; at most
# 2.7e-16 on l_overall). A tree-only digest of each config is unchanged.
# Updated again when PipelineConfig lost tau, lambda_pts, lambda_rec,
# grid_extent, scale_min and scale_max and the manifest lost export_format:
# summary.json lost those six config keys and every manifest.json its
# export_format key, and the config hash in both moved; every geometry file
# and every loss line is byte-identical.
# Updated again when the manifest lost pair_seed (load_pair derives it as
# mix64(master_seed, pair_id)), scene_type and each object's category (the
# distribution's labels): only manifest.json moved, by exactly those three
# keys; every geometry file, summary.json and loss line is byte-identical.
GOLDEN = [
    (0, "binary-f32",
     "67c57c9420862fdae2ea71b7123260351596c7becc30c267efee2710bd4bc172"),
    (1, "binary-f32",
     "fb83a486eb041bc088c15276e5e09e7fcded7f78035a3de8b9236a30051923d0"),
    (2, "ascii-ply",
     "900300d1844d92ec739aa6ed053699be7d294e09f4f9b696cb8672accb70bfe6"),
]


@pytest.mark.parametrize("master_seed,fmt,expected", GOLDEN,
                         ids=[f"{seed}-{fmt}" for seed, fmt, _ in GOLDEN])
def test_golden_dataset_and_loss_digest(tmp_path, master_seed, fmt,
                                        expected):
    config = PipelineConfig(n_scenes=4, master_seed=master_seed,
                            export_format=fmt)
    out = tmp_path / "ds"
    generate_dataset(config, out, progress=False)
    report = tmp_path / "losses.jsonl"
    evaluate_losses(out, report_path=report, progress=False)
    h = hashlib.sha256()
    for name, data in tree_bytes(out).items():
        h.update(name.encode() + b"\0")
        h.update(data)
    h.update(report.read_bytes())
    assert h.hexdigest() == expected


@pytest.mark.parametrize("fmt", ["binary-f32", "ascii-ply"])
def test_loaded_pair_holds_the_stored_clouds(tmp_path, fmt):
    """Each loaded object is its slice of the stored complete cloud, and
    replaying the stored occlusion on the loaded scene gives the stored
    occluded cloud byte for byte."""
    config = PipelineConfig(n_scenes=4, master_seed=5, export_format=fmt)
    generate_dataset(config, tmp_path / "ds", progress=False)
    names = pair_files(fmt)
    for pdir in list_pair_dirs(tmp_path / "ds"):
        pair, manifest = load_pair(pdir, config)
        for side, scene in (("a", pair.scene_a), ("b", pair.scene_b)):
            complete = load_point_cloud(
                pdir / names[f"scene_{side}_complete"], fmt)
            start = 0
            for obj in scene.objects:
                stop = start + obj.n_points
                assert obj.points.tobytes() == complete[start:stop].tobytes()
                start = stop
            assert start == complete.shape[0]
            replayed = replay_occlusion(
                scene, getattr(manifest, f"occlusion_{side}"))
            stored = pdir / names[f"scene_{side}_occluded"]
            assert (replayed.points.astype("<f4").tobytes()
                    == load_point_cloud(stored, fmt).astype("<f4").tobytes())
            export_point_cloud(replayed.points, tmp_path / "replayed", fmt)
            assert (tmp_path / "replayed").read_bytes() == stored.read_bytes()


def test_losses_follow_the_recorded_occlusion(tmp_path):
    """`losses` evaluates a pair on the occlusion its manifest records: an
    edited record moves the losses, to the values of the edited replay."""
    dataset, config = _tiny_dataset(tmp_path)
    (before,) = evaluate_losses(dataset, progress=False)
    pdir = list_pair_dirs(dataset)[0]
    doc = json.loads((pdir / "manifest.json").read_text())
    kept = doc["occlusion_a"]["kept_indices"][0]
    doc["occlusion_a"]["kept_indices"][0] = kept[:len(kept) // 2]
    (pdir / "manifest.json").write_text(json.dumps(doc))
    (after,) = evaluate_losses(dataset, progress=False)
    pair, manifest = load_pair(pdir, config)
    occluded = ScenePair(replay_occlusion(pair.scene_a, manifest.occlusion_a),
                         replay_occlusion(pair.scene_b, manifest.occlusion_b),
                         pair.pair_seed)
    prepared = prepare_occluded_pair(
        pair, occluded, config.n_encoder_seeds, config.m_seeds,
        config.theta, config.u, pair.pair_seed)
    encoder = ToyEncoder(config.encoder_config(),
                         rng_seed=mix64(config.master_seed, 0xE0C))
    heads = DecoderHeads(config.heads_config(),
                         rng_seed=mix64(config.master_seed, 0xDEC))
    expected = forward_backward([prepared], encoder, heads, config.tau,
                                config.lambda_pts, config.lambda_rec,
                                with_gradients=False)
    assert after.to_json_dict() == expected.to_json_dict()
    assert after.l_overall != before.l_overall


# One sha256 per gradient term (sorted parameter name; name, shape and
# float64 bytes) for the gradcheck batch and for one full-width pair built as
# perfbench's TrainStep builds it (workload seed 7), plus that batch's loss
# values as float.hex strings. l_overall is forward_backward's single sweep,
# the gradient training uses; l_obj, l_pts and l_rec come from the per-term
# sweeps gradient_check checks. A tape change that moves any gradient bit
# fails here, and the failing entries name the terms it moved. Which BLAS
# kernel a product uses can depend on the thread count, so everything is
# computed in one child process with one BLAS thread.
GRAD_GOLDEN_SCRIPT = """
import hashlib
import json
from dataclasses import replace
from scenepretext import decoder, pipeline, scenegen
from scenepretext.cli import gradcheck_batch
from scenepretext.seeding import mix64

def summary(prepared, encoder, heads, tau=0.03, lambda_pts=0.1,
            lambda_rec=100.0):
    weights = (tau, lambda_pts, lambda_rec)
    report = decoder.forward_backward(prepared, encoder, heads, *weights)
    gradients = decoder._term_gradients(prepared, encoder, heads, *weights)
    gradients.update(report.gradients)
    digests = {}
    for term in sorted(gradients):
        h = hashlib.sha256()
        for name in sorted(gradients[term]):
            g = gradients[term][name]
            h.update(f"{name}{g.shape}".encode())
            h.update(g.tobytes())
        digests[term] = h.hexdigest()
    values = {t: getattr(report, t).hex()
              for t in ("l_obj", "l_pts", "l_rec_coarse", "l_rec_detail")}
    return {"gradients": digests, "values": values}

out = {"gradcheck": summary(*gradcheck_batch())}
c = replace(pipeline.PipelineConfig(), master_seed=7, batch_pairs=1,
            feature_dim=256, encoder_hidden=256, proj_hidden=256,
            decoder_hidden=256, n_encoder_seeds=256, u=3)
pair = scenegen.make_scene_pair(c.load_distribution(), c.n_objects_per_scene,
                                c.make_asset_source(), mix64(7, 0), c.layout())
pp = decoder.prepare_scene_pair(pair, n_seeds=c.n_encoder_seeds,
                                m_matches=c.m_seeds, theta=c.theta, u=c.u,
                                rng_seed=mix64(7, 0), occlude=c.occlude)
encoder = decoder.ToyEncoder(c.encoder_config(), rng_seed=mix64(7, 0xE0C))
heads = decoder.DecoderHeads(c.heads_config(), rng_seed=mix64(7, 0xDEC))
out["train_step"] = summary([pp], encoder, heads, c.tau, c.lambda_pts,
                            c.lambda_rec)
print(json.dumps(out))
"""
# First recorded per term at the commit whose Chamfer was one
# nearest-neighbour pass, from the concatenated fold layer. Updated once
# since, when the fold layer's first product was factorised into a grid
# term and a feature term repeated u*u times: that moves only l_rec_detail
# and its gradients, by summation-order rounding, so the l_rec and l_overall
# digests were re-recorded; the l_obj and l_pts digests are the recorded
# ones. The l_overall digests were re-recorded once more when
# forward_backward began to sweep the l_overall root once instead of adding
# the lambda-weighted per-term gradients: that moves every l_overall tensor
# by summation order only (largest deviation 8.7e-15 of the tensor's
# maximum); the l_obj, l_pts and l_rec digests pass unedited. All eight
# digests were re-recorded when the forward began to stack every side of a
# batch by rows and run the encoder, projection and decoder once: the loss
# values are bit-equal, but each weight-gradient product now sums over the
# sides inside one matrix product, so every tensor of every term moves by
# summation order only (largest deviation 1.0e-14 of the tensor's maximum,
# train_step's l_obj).
GRAD_GOLDEN = {
    "gradcheck": {
        "l_obj":
            "8a462ec9ad27f5b6d75b352f2ea0fb5fd94fb63ab520498251a8200022757265",
        "l_pts":
            "0bf2813fe93d80f4ec5f5853ed8e08e6328879a568cb8186d06295d244982e20",
        "l_rec":
            "a7dc4481bc498ac8292b3266e58b5aeec7998cba0192c7566ea2ee5a193cde14",
        "l_overall":
            "f59861c3a43d69aca3f22da944642ea652b0dc02800d419394037dffd1982b7d",
    },
    "train_step": {
        "l_obj":
            "9ac6de3677a51590c5e3a100fc2be99e32a23195d75e9b06f57e7f33f13cbf3e",
        "l_pts":
            "aadd4410ebeb09c6816c0ec16afa2c2ac2ab6f7bbe79352614fb5459e6f33206",
        "l_rec":
            "4267b19ef41a60c146e2a645b7516517d7aa0f2650551235667dca2caf9f6f8e",
        "l_overall":
            "72b99f16043e45bc1954837c58198bf75705c8c4fd18f171d9a7fa464cf9a469",
    },
}
# The full-width TrainStep pair's loss values before the fold layer was
# factorised. l_obj, l_pts and l_rec_coarse do not pass through the fold
# layer and must stay bit-equal; l_rec_detail may move by rounding only.
TRAIN_STEP_VALUES = {"l_obj": "0x1.6efcf52967f02p+2",
                     "l_pts": "0x1.069b1271b33f1p+3",
                     "l_rec_coarse": "0x1.46df2c54ab3efp-5",
                     "l_rec_detail": "0x1.e70ce70f3c49fp-6"}


@pytest.fixture(scope="module")
def grad_golden_run():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=str(Path(scenepretext.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", GRAD_GOLDEN_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_golden_gradient_digest(grad_golden_run):
    got = {batch: run["gradients"] for batch, run in grad_golden_run.items()}
    assert got == GRAD_GOLDEN


def test_train_step_values_outside_the_fold_are_unmoved(grad_golden_run):
    got = grad_golden_run["train_step"]["values"]
    for term in ("l_obj", "l_pts", "l_rec_coarse"):
        assert got[term] == TRAIN_STEP_VALUES[term], term
    detail = float.fromhex(got["l_rec_detail"])
    recorded = float.fromhex(TRAIN_STEP_VALUES["l_rec_detail"])
    assert abs(detail - recorded) <= 1e-12 * recorded


def test_generate_layout_and_manifest(tmp_path):
    config = PipelineConfig(**SMALL)
    summary = generate_dataset(config, tmp_path / "ds", progress=False)
    assert summary["pairs_produced"] == 3
    assert summary["config_hash"] == config.config_hash()
    pdirs = list_pair_dirs(tmp_path / "ds")
    assert len(pdirs) == 3
    for pdir in pdirs:
        with open(pdir / "manifest.json") as f:
            doc = json.load(f)
        assert doc["config_hash"] == config.config_hash()
        assert set(doc) == set(PairManifest.__dataclass_fields__)
        for o in doc["objects"]:
            assert set(o) == set(ObjectDraw.__dataclass_fields__)
        assert sorted(p.name for p in pdir.iterdir()) == sorted(
            ["manifest.json", *pair_files(config.export_format).values()])
        assert 0.0 <= np.array(doc["occlusion_a"]["fractions"]).max() <= 0.5
        for rec in doc["matches"]:
            assert rec["distance"] < config.theta


def test_load_pair_replays_scene(tmp_path):
    config = PipelineConfig(**SMALL)
    generate_dataset(config, tmp_path / "ds", progress=False)
    pdir = list_pair_dirs(tmp_path / "ds")[0]
    pair, _ = load_pair(pdir, config)
    assert pair.scene_a.n_objects == 4
    # per-point ids rebuilt from manifest object sizes cover all objects
    assert sorted(np.unique(pair.scene_a.point_object_ids)) == list(range(4))
    stored = load_point_cloud(
        pdir / pair_files(config.export_format)["scene_a_complete"],
        config.export_format)
    np.testing.assert_allclose(pair.scene_a.points, stored, atol=1e-5)


def test_load_pair_detects_hash_mismatch(tmp_path):
    config = PipelineConfig(**SMALL)
    generate_dataset(config, tmp_path / "ds", progress=False)
    pdir = list_pair_dirs(tmp_path / "ds")[0]
    other = PipelineConfig(**{**SMALL, "theta": 0.33})
    with pytest.raises(CorruptManifest):
        load_pair(pdir, other)


def test_load_pair_detects_missing_file(tmp_path):
    config = PipelineConfig(**SMALL)
    generate_dataset(config, tmp_path / "ds", progress=False)
    pdir = list_pair_dirs(tmp_path / "ds")[0]
    (pdir / "scene_b_occluded.bin").unlink()
    with pytest.raises(CorruptManifest):
        load_pair(pdir, config)


def test_match_pair_dir_full_pool_distances(tmp_path):
    config = PipelineConfig(**{**SMALL, "occlude": False})
    generate_dataset(config, tmp_path / "ds", progress=False)
    pdir = list_pair_dirs(tmp_path / "ds")[0]
    matches = match_pair_dir(pdir, m_seeds=20, full_pool=True)
    assert len(matches) == 20
    # counterpart points exist exactly at f32 resolution
    assert matches.distances.max() < 1e-5


def test_cli_match_replays_stored_matches(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["generate", "--out", str(out), "--seed", "0",
                 "--n-scenes", "1", "--m-seeds", "40"]) == 0
    pdir = list_pair_dirs(out)[0]
    stored = json.loads((pdir / "manifest.json").read_text())["matches"]
    capsys.readouterr()
    assert main(["match", str(pdir)]) == 0
    replayed = json.loads(capsys.readouterr().out)["matches"]

    def pairs(records):
        return [(r["a_index"], r["b_index"], r["object_id"])
                for r in records]

    assert pairs(replayed) == pairs(stored)
    # the replay reads float32 geometry; generation matched in float64
    np.testing.assert_allclose([r["distance"] for r in replayed],
                               [r["distance"] for r in stored], atol=1e-6)


def test_cli_match_relative_pair_path(tmp_path, capsys, monkeypatch):
    # `cd DS/pairs && scenepretext match pair_00000` and `cd
    # DS/pairs/pair_00000 && scenepretext match .`: the dataset is found
    # above the resolved pair directory, not above the path as typed
    dataset, _ = _tiny_dataset(tmp_path)
    pdir = list_pair_dirs(dataset)[0]
    stored = json.loads((pdir / "manifest.json").read_text())["matches"]
    for cwd, arg in ((pdir.parent, pdir.name), (pdir, ".")):
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        assert main(["match", arg]) == 0
        replayed = json.loads(capsys.readouterr().out)["matches"]
        assert [(r["a_index"], r["b_index"]) for r in replayed] \
            == [(r["a_index"], r["b_index"]) for r in stored]


def test_match_reads_and_validates_dataset_config(tmp_path):
    config = PipelineConfig(**SMALL)
    generate_dataset(config, tmp_path / "ds", progress=False)
    summary = tmp_path / "ds" / "summary.json"
    doc = json.loads(summary.read_text())
    doc["config"]["theta"] = 0.33
    summary.write_text(json.dumps(doc))
    with pytest.raises(CorruptManifest):
        match_pair_dir(list_pair_dirs(tmp_path / "ds")[0])
    doc["config"]["theta"] = config.theta
    doc["config"]["bogus"] = 1
    summary.write_text(json.dumps(doc))
    assert main(["match", str(list_pair_dirs(tmp_path / "ds")[0])]) == 2
    # without summary.json the dataset's M is unknown
    summary.unlink()
    pdir = list_pair_dirs(tmp_path / "ds")[0]
    with pytest.raises(CorruptManifest):
        match_pair_dir(pdir)


@pytest.mark.parametrize("key,value", [("theta", math.inf), ("m_seeds", 0)])
def test_summary_config_failing_its_checks_raises_corrupt_manifest(
        tmp_path, key, value):
    # rehashed, so the checks, not the hash, refuse it
    dataset, _ = _tiny_dataset(tmp_path)
    _edit_summary_config(dataset, True, **{key: value})
    with pytest.raises(CorruptManifest, match="config violates"):
        evaluate_losses(dataset, progress=False)
    with pytest.raises(CorruptManifest, match="config violates"):
        match_pair_dir(list_pair_dirs(dataset)[0])


def test_summary_config_is_checked_against_its_hash(tmp_path):
    # a valid config that is not the one the dataset was made with is
    # refused before any pair or model is built from it
    dataset, _ = _tiny_dataset(tmp_path)
    _edit_summary_config(dataset, False, theta=0.33)
    for call in (lambda: evaluate_losses(dataset, progress=False),
                 lambda: match_pair_dir(list_pair_dirs(dataset)[0])):
        with pytest.raises(CorruptManifest,
                           match="summary.json: config hash mismatch"):
            call()


def test_pair_generation_is_order_independent(tmp_path):
    """A single pair regenerated in isolation matches the full-run output."""
    from scenepretext.pipeline import generate_pair
    config = PipelineConfig(**SMALL)
    generate_dataset(config, tmp_path / "ds", progress=False)
    dist = config.load_distribution()
    source = config.make_asset_source()
    pair, _, rec_a, rec_b, matches = generate_pair(config, dist, source, 1)
    stored, manifest = load_pair(list_pair_dirs(tmp_path / "ds")[1], config)
    assert stored.pair_seed == pair.pair_seed
    np.testing.assert_allclose(stored.scene_a.points, pair.scene_a.points,
                               atol=1e-5)  # stored geometry is float32
    assert manifest.matches == matches.to_records()
    np.testing.assert_array_equal(manifest.occlusion_a.fractions,
                                  rec_a.fractions)


def test_cli_losses_with_checkpoint(tmp_path):
    out = tmp_path / "ds"
    assert main(["generate", "--out", str(out), "--seed", "11",
                 "--n-scenes", "2", "--n-objects", "4",
                 "--points-per-object", "48", "--m-seeds", "16",
                 "--n-encoder-seeds", "8", "--u", "2"]) == 0
    with open(out / "summary.json") as f:
        config = PipelineConfig.from_dict(json.load(f)["config"])
    enc = ToyEncoder.zeros(config.encoder_config())
    heads = DecoderHeads.zeros(config.heads_config())
    ckpt = tmp_path / "zero.json"
    save_checkpoint(enc, heads, ckpt)
    assert main(["losses", str(out), "--checkpoint", str(ckpt),
                 "--report", str(tmp_path / "rep.jsonl")]) == 0
    lines = (tmp_path / "rep.jsonl").read_text().strip().split("\n")
    assert len(lines) >= 1


def _drop_params(doc):
    del doc["params"]


def _drop_entry_data(doc):
    del doc["params"]["heads.fold_b2"]["data"]


def _unknown_config_field(doc):
    doc["encoder_config"]["bogus"] = 1


def _unknown_scope(doc):
    doc["params"]["decoder.w"] = {"shape": [1], "data": [0.0]}


def _nan_encoder_weight(doc):
    doc["params"]["encoder.point_w1"]["data"][0] = float("nan")


def _nan_head_weight(doc):
    doc["params"]["heads.fold_b2"]["data"][0] = float("nan")


def _wrong_shape(doc):
    rows, cols = doc["params"]["encoder.point_w1"]["shape"]
    doc["params"]["encoder.point_w1"] = {"shape": [rows, cols + 1],
                                         "data": [0.0] * (rows * (cols + 1))}


def _feature_dim_disagrees(doc):
    # heads whole in themselves, built for features twice the encoder's
    cfg = dict(doc["heads_config"],
               feature_dim=2 * doc["heads_config"]["feature_dim"])
    heads = DecoderHeads(HeadsConfig(**cfg))
    doc["heads_config"] = cfg
    doc["params"].update({f"heads.{k}": {"shape": list(v.shape),
                                         "data": v.ravel().tolist()}
                          for k, v in heads.params.items()})


def _encoder_config_holding_point_dim(doc):
    # an older checkpoint, whose encoder config stored the point width
    doc["encoder_config"]["point_dim"] = 3


def _u_disagrees_with_dataset(doc):
    # the heads' parameters do not depend on u, the targets' size does
    doc["heads_config"]["u"] += 1


def _shape_entries(convert):
    def corrupt(doc):
        entry = doc["params"]["encoder.point_b2"]
        entry["shape"] = [convert(n) for n in entry["shape"]]
    return corrupt


def _config_value(config, field, convert):
    def corrupt(doc):
        doc[config][field] = convert(doc[config][field])
    return corrupt


def _data_value_string(doc):
    data = doc["params"]["encoder.point_b2"]["data"]
    data[0] = str(data[0])


@pytest.mark.parametrize("corrupt,error", [
    (_drop_params, CorruptManifest),
    (_drop_entry_data, CorruptManifest),
    (_unknown_config_field, CorruptManifest),
    (_unknown_scope, CorruptManifest),
    (_nan_encoder_weight, CorruptManifest),
    (_nan_head_weight, CorruptManifest),
    (_wrong_shape, DimensionMismatch),
    (_feature_dim_disagrees, DimensionMismatch),
    (_u_disagrees_with_dataset, DimensionMismatch),
    (_encoder_config_holding_point_dim, CorruptManifest),
    (_config_value("heads_config", "u", float), CorruptManifest),
    (_config_value("heads_config", "hidden", str), CorruptManifest),
    (_config_value("encoder_config", "hidden", float), CorruptManifest),
    (_shape_entries(str), CorruptManifest),
    (_shape_entries(float), CorruptManifest),
    (_data_value_string, CorruptManifest),
], ids=["missing-key", "missing-entry-key", "unknown-config-field",
        "unknown-scope", "nan-encoder-weight", "nan-head-weight",
        "wrong-shape", "feature-dim-disagrees", "u-disagrees-with-dataset",
        "encoder-config-holding-point-dim", "heads-u-float",
        "heads-hidden-string", "encoder-hidden-float", "shape-strings",
        "shape-floats", "data-value-string"])
def test_cli_losses_bad_checkpoint_exit_2(tmp_path, capsys, corrupt, error):
    argv = _losses_with_corrupt_checkpoint(tmp_path, corrupt)
    # the u check needs the dataset, so the library call is evaluate_losses,
    # which loads the checkpoint first
    with pytest.raises(error):
        evaluate_losses(argv[1], checkpoint=argv[-1], progress=False)
    capsys.readouterr()
    assert main(argv) == 2
    _assert_one_short_line(capsys.readouterr().err, tmp_path)


def test_thousand_scene_histogram_matches_published_shares(tmp_path):
    published = {"Hotel": 18.04, "Lounge": 14.81, "Bathroom": 14.01,
                 "Room": 13.62, "Office": 11.43, "Kitchen": 7.14,
                 "Library": 4.43, "Lobby": 3.57, "Apartment": 2.64,
                 "Classroom": 2.45, "Misc.": 2.31, "Hallway": 2.12,
                 "Storage": 1.26}
    config = PipelineConfig(n_scenes=1000, n_objects_per_scene=4,
                            points_per_object=32, m_seeds=16,
                            n_encoder_seeds=8, u=2, master_seed=9)
    summary = generate_dataset(config, tmp_path / "big", progress=False)
    assert summary["pairs_produced"] == 1000
    hist = summary["scene_type_histogram"]
    for label, pct in published.items():
        share = hist.get(label, 0) / 10.0  # counts over 1000 -> percent
        assert abs(share - pct) <= 2.5, f"{label}: {share} vs {pct}"


def test_epsilon_one_uniform_category_histogram(tmp_path):
    config = PipelineConfig(n_scenes=150, n_objects_per_scene=8,
                            points_per_object=32, m_seeds=8,
                            n_encoder_seeds=8, u=2, epsilon=1.0,
                            master_seed=31)
    summary = generate_dataset(config, tmp_path / "uni", progress=False)
    hist = summary["category_histogram"]
    draws = 150 * 8
    expected = draws / 29
    sigma = np.sqrt(draws * (1 / 29) * (1 - 1 / 29))
    for count in hist.values():
        assert abs(count - expected) <= 3 * sigma
    # all 29 categories must appear under the uniform branch at this n
    assert len(hist) == 29


def test_generate_epsilon_governs_a_distribution_file(tmp_path):
    dist = tmp_path / "dist.json"
    load_default_scannet_parameters().save(dist)
    hists = []
    for epsilon in ("0.0", "1.0"):
        out = tmp_path / f"eps{epsilon}"
        assert main(["generate", "--out", str(out), "--seed", "0",
                     "--n-scenes", "2", "--n-objects", "8",
                     "--points-per-object", "32", "--distribution", str(dist),
                     "--epsilon", epsilon]) == 0
        summary = json.loads((out / "summary.json").read_text())
        hists.append(summary["category_histogram"])
    assert hists[0] != hists[1]


# ------------------------------------------------------------------ losses

def test_evaluate_losses_reports_and_recomposition(tmp_path):
    config = PipelineConfig(**SMALL)
    generate_dataset(config, tmp_path / "ds", progress=False)
    report_path = tmp_path / "reports.jsonl"
    reports = evaluate_losses(tmp_path / "ds", report_path=report_path,
                              progress=False)
    assert len(reports) == 2  # 3 pairs in batches of 2
    for rep in reports:
        recomposed = rep.l_obj + config.lambda_pts * rep.l_pts \
            + config.lambda_rec * (rep.l_rec_coarse + rep.l_rec_detail)
        assert abs(recomposed - rep.l_overall) <= 1e-12
    lines = report_path.read_text().strip().split("\n")
    assert len(lines) == 2
    doc = json.loads(lines[0])
    assert set(doc) >= {"l_obj", "l_pts", "l_rec_coarse", "l_rec_detail",
                        "l_overall", "pair_ids"}


def test_evaluate_losses_zero_checkpoint_oracle(tmp_path):
    """Zero parameters: reconstruction equals chamfer(seeds vs targets)."""
    config = PipelineConfig(**{**SMALL, "batch_pairs": 1})
    generate_dataset(config, tmp_path / "ds", progress=False)
    enc = ToyEncoder.zeros(config.encoder_config())
    heads = DecoderHeads.zeros(config.heads_config())
    ckpt = tmp_path / "zero.json"
    save_checkpoint(enc, heads, ckpt)
    reports = evaluate_losses(tmp_path / "ds", checkpoint=str(ckpt),
                              progress=False)
    from scenepretext.decoder import prepare_scene_pair
    pdirs = list_pair_dirs(tmp_path / "ds")
    for rep, pdir in zip(reports, pdirs):
        pair, _ = load_pair(pdir, config)
        pp = prepare_scene_pair(pair, config.n_encoder_seeds, config.m_seeds,
                                config.theta, config.u, pair.pair_seed)
        l_c, l_d = [], []
        u2 = config.u ** 2
        for coords, gt_d in ((pp.coords_a, pp.gt_detail_a),
                             (pp.coords_b, pp.gt_detail_b)):
            l_c.append(chamfer_distance(coords, gt_d[:len(coords)]))
            l_d.append(chamfer_distance(np.repeat(coords, u2, axis=0), gt_d))
        assert rep.l_rec_coarse == pytest.approx(np.mean(l_c), abs=1e-12)
        assert rep.l_rec_detail == pytest.approx(np.mean(l_d), abs=1e-12)


def test_evaluate_losses_object_without_encoder_seeds(tmp_path):
    # at master seed 182 the 64 encoder seeds of pair 0 miss object 8 on
    # side A, whose pooled row is then empty
    config = PipelineConfig(n_scenes=1, master_seed=182, batch_pairs=1)
    generate_dataset(config, tmp_path / "ds", progress=False)
    from scenepretext.decoder import prepare_scene_pair
    pair, _ = load_pair(list_pair_dirs(tmp_path / "ds")[0], config)
    pp = prepare_scene_pair(pair, config.n_encoder_seeds, config.m_seeds,
                            config.theta, config.u, pair.pair_seed)
    assert 8 not in pp.object_ids_a and 8 in pp.object_ids_b
    (rep,) = evaluate_losses(tmp_path / "ds", progress=False)
    assert np.isfinite(rep.l_overall)
    # the same pair and model, with gradients
    encoder = ToyEncoder(config.encoder_config(),
                         rng_seed=mix64(config.master_seed, 0xE0C))
    heads = DecoderHeads(config.heads_config(),
                         rng_seed=mix64(config.master_seed, 0xDEC))
    rep = forward_backward([pp], encoder, heads, config.tau,
                           config.lambda_pts, config.lambda_rec)
    assert np.isfinite(rep.l_overall)
    assert all(np.all(np.isfinite(g)) for term in rep.gradients.values()
               for g in term.values())


def test_evaluate_losses_empty_dir_raises(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(CorruptManifest):
        evaluate_losses(tmp_path / "empty")


# --------------------------------------------------------------------- CLI

def test_cli_generate_and_losses(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(["generate", "--out", str(out), "--seed", "7",
                 "--n-scenes", "2", "--n-objects", "4",
                 "--points-per-object", "48", "--m-seeds", "16"])
    assert code == 0
    assert (out / "summary.json").exists()
    code = main(["losses", str(out), "--report",
                 str(tmp_path / "rep.jsonl")])
    assert code == 0
    assert (tmp_path / "rep.jsonl").exists()


def test_cli_losses_empty_dir_exit_2(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    code = main(["losses", str(empty)])
    assert code == 2
    assert not list(empty.iterdir())


def test_cli_match_subcommand(tmp_path):
    out = tmp_path / "ds"
    assert main(["generate", "--out", str(out), "--seed", "3",
                 "--n-scenes", "1", "--n-objects", "4",
                 "--points-per-object", "48", "--m-seeds", "16"]) == 0
    pdir = list_pair_dirs(out)[0]
    dst = tmp_path / "matches.json"
    assert main(["match", str(pdir), "--out", str(dst),
                 "--m-seeds", "16"]) == 0
    doc = json.loads(dst.read_text())
    assert doc["n_matches"] == len(doc["matches"])


# each edit turns the bundled distribution into a bad --distribution file
DISTRIBUTION_FAULTS = {
    "scene-prior-short": lambda doc: doc["scene_prior"].pop(),
    "empty-instance-row":
        lambda doc: doc["instance_given_category"].__setitem__(0, []),
    "scene-prior-strings": lambda doc: doc.update(
        scene_prior=[str(p) for p in doc["scene_prior"]]),
}


@pytest.mark.parametrize("fault",
                         [*DISTRIBUTION_FAULTS, "asset-dir-missing-instance"])
def test_cli_generate_bad_distribution_or_assets_exit_2(tmp_path, fault):
    if fault in DISTRIBUTION_FAULTS:
        path = tmp_path / "dist.json"
        load_default_scannet_parameters().save(path)
        doc = json.loads(path.read_text())
        DISTRIBUTION_FAULTS[fault](doc)
        args = ["--distribution", str(path)]
        path.write_text(json.dumps(doc))
    else:   # an asset directory without any instance file
        (tmp_path / "assets").mkdir()
        args = ["--asset-source", str(tmp_path / "assets")]
    assert main(["generate", "--out", str(tmp_path / "ds"), "--seed", "0",
                 "--n-scenes", "1", *args]) == 2


def _asset_dir_generate(tmp_path):
    """`generate`'s arguments over a two-category distribution made by
    `fit` and an asset directory holding one `.bin` file per category."""
    counts = {"scene_counts": {"room": 1},
              "objects_per_scene": {"room": {"chair": 1, "table": 1}},
              "instances_per_category": {"chair": 1, "table": 1}}
    assert main(_fit_counts(tmp_path, counts)) == 0
    for cat in range(2):
        path = tmp_path / "assets" / str(cat) / "0.bin"
        path.parent.mkdir(parents=True)
        export_point_cloud(procedural_asset(cat, 0, 64), path, "binary-f32")
    return ["generate", "--out", str(tmp_path / "ds"), "--seed", "0",
            "--n-scenes", "2", "--n-objects", "6",
            "--distribution", str(tmp_path / "dist.json"),
            "--asset-source", str(tmp_path / "assets")]


def test_cli_generate_and_losses_from_an_asset_directory(tmp_path):
    assert main(_asset_dir_generate(tmp_path)) == 0
    summary = json.loads((tmp_path / "ds" / "summary.json").read_text())
    # both categories are drawn, so the faults below are loaded
    assert set(summary["category_histogram"]) == {"chair", "table"}
    assert main(["losses", str(tmp_path / "ds")]) == 0


def test_asset_directory_reads_ply_before_bin(tmp_path):
    _asset_dir_generate(tmp_path)
    ply = tmp_path / "assets" / "0" / "0.ply"
    export_point_cloud(procedural_asset(1, 0, 64), ply, "ascii-ply")
    want = load_point_cloud(ply, "ascii-ply")
    np.testing.assert_array_equal(
        DirectoryAssetSource(tmp_path / "assets")(0, 0),
        want - want.mean(axis=0))


@pytest.mark.parametrize("fault", ["seven-point-asset", "missing-instance"])
def test_cli_generate_bad_asset_file_exit_2(tmp_path, fault):
    args = _asset_dir_generate(tmp_path)
    path = tmp_path / "assets" / "1" / "0.bin"
    if fault == "seven-point-asset":
        export_point_cloud(np.zeros((7, 3)), path, "binary-f32")
    else:
        path.unlink()
    assert main(args) == 2


def _tiny_dataset(tmp_path, **overrides):
    config = PipelineConfig(**{**SMALL, "n_scenes": 1, **overrides})
    generate_dataset(config, tmp_path / "ds", progress=False)
    return tmp_path / "ds", config


def _nan_coordinate(tmp_path, fmt):
    dataset, _ = _tiny_dataset(tmp_path, export_format=fmt)
    path = list_pair_dirs(dataset)[0] / pair_files(fmt)["scene_a_complete"]
    pts = load_point_cloud(path, fmt)
    pts[0, 0] = np.nan
    export_point_cloud(pts, path, fmt)
    return ["losses", str(dataset)]


def _ply_bytes(tmp_path, edit):
    dataset, _ = _tiny_dataset(tmp_path, export_format="ascii-ply")
    path = list_pair_dirs(dataset)[0] / "scene_a_complete.ply"
    path.write_bytes(edit(path.read_bytes()))
    return ["losses", str(dataset)]


def _ply_byte_not_utf8(tmp_path):
    # byte 200 of a PLY cloud, inside its vertex rows, set to 0xff
    return _ply_bytes(tmp_path, lambda raw: raw[:200] + b"\xff" + raw[201:])


def _ply_arabic_indic_digit(tmp_path):
    # the first vertex row's first "1" written as U+0661, ARABIC-INDIC
    # DIGIT ONE, which float() reads as 1
    def edit(raw):
        start = raw.index(b"end_header\n") + len(b"end_header\n")
        one = raw.index(b"1", start)
        return raw[:one] + "\u0661".encode() + raw[one + 1:]
    return _ply_bytes(tmp_path, edit)


def _losses_with_corrupt_checkpoint(tmp_path, corrupt):
    dataset, config = _tiny_dataset(tmp_path)
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ToyEncoder(config.encoder_config()),
                    DecoderHeads(config.heads_config()), ckpt)
    doc = json.loads(ckpt.read_text())
    corrupt(doc)
    ckpt.write_text(json.dumps(doc))
    return ["losses", str(dataset), "--checkpoint", str(ckpt)]


def _huge_offset_weight(doc):
    # finite weights whose offsets overflow: the loss is inf, not the input
    for key, entry in doc["params"].items():
        if key.startswith("heads.offset_w"):
            entry["data"] = [v * 1e160 for v in entry["data"]]


def _losses_without_pair_file(tmp_path, name):
    """Delete ``name`` from the last of two pairs; with ``name`` None the
    whole pair directory goes."""
    dataset, _ = _tiny_dataset(tmp_path, n_scenes=2)
    pdirs = list_pair_dirs(dataset)
    assert len(pdirs) == 2
    if name is None:
        shutil.rmtree(pdirs[-1])
    else:
        (pdirs[-1] / name).unlink()
    return ["losses", str(dataset)]


def _losses_with_summary(tmp_path, edit):
    """``losses`` on a dataset whose summary.json ``edit`` changed."""
    dataset, _ = _tiny_dataset(tmp_path)
    path = dataset / "summary.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return ["losses", str(dataset)]


def _losses_with_deep_manifest(tmp_path):
    # json.load recurses once per level of nesting
    dataset, _ = _tiny_dataset(tmp_path)
    (list_pair_dirs(dataset)[0] / "manifest.json").write_text(
        "[" * 100000 + "]" * 100000)
    return ["losses", str(dataset)]


def _losses_with_pairs_produced(tmp_path, value):
    return _losses_with_summary(
        tmp_path, lambda doc: doc.update(pairs_produced=value))


def _edit_summary_config(dataset, rehash, **values):
    """Set ``values`` in summary.json's config; with ``rehash`` its
    config_hash is rewritten to match, as if the config were valid."""
    path = dataset / "summary.json"
    doc = json.loads(path.read_text())
    doc["config"].update(values)
    if rehash:
        blob = json.dumps(doc["config"], sort_keys=True,
                          separators=(",", ":"))
        doc["config_hash"] = hashlib.sha256(blob.encode()).hexdigest()
    path.write_text(json.dumps(doc))


def _losses_with_summary_config(tmp_path, rehash, **values):
    dataset, _ = _tiny_dataset(tmp_path)
    _edit_summary_config(dataset, rehash, **values)
    return ["losses", str(dataset)]


def _match_zero_seeds(tmp_path):
    dataset, _ = _tiny_dataset(tmp_path)
    return ["match", str(list_pair_dirs(dataset)[0]), "--m-seeds", "0"]


def _match_theta(tmp_path, theta):
    dataset, _ = _tiny_dataset(tmp_path)
    return ["match", str(list_pair_dirs(dataset)[0]), "--theta", theta]


def _generate_one_pair(tmp_path, *flags):
    return ["generate", "--out", str(tmp_path / "ds"), "--seed", "1",
            "--n-scenes", "1", *flags]


def _match_without_summary(tmp_path):
    # summary.json holds the M the stored matches were drawn with
    dataset, _ = _tiny_dataset(tmp_path)
    (dataset / "summary.json").unlink()
    return ["match", str(list_pair_dirs(dataset)[0])]


def _one_cloud_assets(tmp_path, cloud):
    """An asset directory holding ``cloud`` as every instance of every
    category of the bundled distribution."""
    root = tmp_path / "assets"
    dist = load_default_scannet_parameters()
    for category, row in enumerate(dist.instance_given_category):
        (root / str(category)).mkdir(parents=True)
        for instance in range(len(row)):
            export_point_cloud(cloud, root / str(category) / f"{instance}.bin",
                               "binary-f32")
    return root


def _assets_below_u_squared(tmp_path):
    # 8-point instances: one object cannot supply the u * u = 9 targets of
    # a seed, which the config cannot see for a directory source
    root = _one_cloud_assets(
        tmp_path, np.random.default_rng(0).normal(scale=0.1, size=(8, 3)))
    out = tmp_path / "ds"
    assert main(["generate", "--out", str(out), "--seed", "0",
                 "--n-scenes", "1", "--n-objects", "1", "--u", "3",
                 "--asset-source", str(root)]) == 0
    return ["losses", str(out)]


def _generate_from_two_point_assets(tmp_path):
    # 8-point instances of 2 distinct points: fewer than the seeds drawn
    root = _one_cloud_assets(tmp_path,
                             np.array([[0.0, 0, 0], [0.1, 0, 0]] * 4))
    return ["generate", "--out", str(tmp_path / "ds"), "--seed", "0",
            "--n-scenes", "1", "--n-objects", "1", "--asset-source",
            str(root)]


def test_seeds_of_too_few_distinct_points_raise_too_few_points(tmp_path,
                                                               capsys):
    # FPS repeats a pick once the distinct points run out; the seed set
    # refuses that as its input, not as a bug
    argv = _generate_from_two_point_assets(tmp_path)
    config = PipelineConfig(n_scenes=1, n_objects_per_scene=1,
                            asset_source=argv[-1])
    with pytest.raises(TooFewPoints, match="too few distinct"):
        pipeline.generate_pair(config, config.load_distribution(),
                               config.make_asset_source(), 0)
    capsys.readouterr()
    assert main(argv) == 2
    assert "too few distinct for" in capsys.readouterr().err


def _fit_counts(tmp_path, doc):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(doc))
    return ["fit", str(path), "--out", str(tmp_path / "dist.json")]


FIT_COUNTS = {"scene_counts": {"kitchen": 3},
              "objects_per_scene": {"kitchen": {"chair": 2}},
              "instances_per_category": {"chair": 4}}


def _distribution_beyond_the_recipes(tmp_path):
    # 40 categories, drawn mostly from ids 30-39: the procedural source
    # has recipes for 29
    row = [0.0] * 30 + [0.1] * 10
    doc = {"scene_labels": ["room"],
           "category_labels": [f"c{k}" for k in range(40)],
           "scene_prior": [1.0], "category_given_scene": [row],
           "instance_given_category": [[1.0]] * 40, "epsilon": 0.1}
    (tmp_path / "dist.json").write_text(json.dumps(doc))
    return ["generate", "--out", str(tmp_path / "ds"), "--seed", "0",
            "--n-scenes", "1", "--distribution", str(tmp_path / "dist.json")]


# each case writes one malformed input and returns the CLI call that reads it
CLI_INPUT_FAULTS = {
    "nan-bin-coordinate": lambda tmp: _nan_coordinate(tmp, "binary-f32"),
    "nan-ply-coordinate": lambda tmp: _nan_coordinate(tmp, "ascii-ply"),
    "ply-byte-not-utf8": _ply_byte_not_utf8,
    "ply-arabic-indic-digit": _ply_arabic_indic_digit,
    "nan-encoder-weight":
        lambda tmp: _losses_with_corrupt_checkpoint(tmp, _nan_encoder_weight),
    "nan-head-weight":
        lambda tmp: _losses_with_corrupt_checkpoint(tmp, _nan_head_weight),
    "huge-offset-weight":
        lambda tmp: _losses_with_corrupt_checkpoint(tmp, _huge_offset_weight),
    "missing-manifest":
        lambda tmp: _losses_without_pair_file(tmp, "manifest.json"),
    "missing-pair-dir": lambda tmp: _losses_without_pair_file(tmp, None),
    "manifest-nested-too-deep": _losses_with_deep_manifest,
    "summary-without-config": lambda tmp: _losses_with_summary(
        tmp, lambda doc: doc.pop("config")),
    # equal to the one pair's count, but not an int
    "summary-pairs-produced-true":
        lambda tmp: _losses_with_pairs_produced(tmp, True),
    "summary-pairs-produced-float":
        lambda tmp: _losses_with_pairs_produced(tmp, 1.0),
    "summary-pairs-produced-string":
        lambda tmp: _losses_with_pairs_produced(tmp, "1"),
    # summary.json values that only its record checks
    "summary-mean-matches-string": lambda tmp: _losses_with_summary(
        tmp, lambda doc: doc.update(mean_matches=str(doc["mean_matches"]))),
    "summary-scene-type-histogram-int": lambda tmp: _losses_with_summary(
        tmp, lambda doc: doc.update(scene_type_histogram=5)),
    "summary-histogram-count-true": lambda tmp: _losses_with_summary(
        tmp, lambda doc: (h := doc["category_histogram"]).update(
            {min(h): True})),
    "summary-without-placement-failures": lambda tmp: _losses_with_summary(
        tmp, lambda doc: doc.pop("placement_failures")),
    "summary-unknown-key": lambda tmp: _losses_with_summary(
        tmp, lambda doc: doc.update(extra=1)),
    "summary-u-float":
        lambda tmp: _losses_with_summary_config(tmp, False, u=3.0),
    "summary-batch-pairs-float-rehashed":
        lambda tmp: _losses_with_summary_config(tmp, True, batch_pairs=2.0),
    # an older dataset's summary, whose config held the loss constants
    "summary-config-holding-tau":
        lambda tmp: _losses_with_summary_config(tmp, True, tau=0.03),
    "match-zero-seeds": _match_zero_seeds,
    "match-without-summary": _match_without_summary,
    "match-theta-nan": lambda tmp: _match_theta(tmp, "nan"),
    "match-theta-inf": lambda tmp: _match_theta(tmp, "inf"),
    "match-theta-0": lambda tmp: _match_theta(tmp, "0"),
    "generate-room-size-nan":
        lambda tmp: _generate_one_pair(tmp, "--room-size", "nan"),
    "generate-room-size-inf":
        lambda tmp: _generate_one_pair(tmp, "--room-size", "inf"),
    "generate-room-size-0":
        lambda tmp: _generate_one_pair(tmp, "--room-size", "0"),
    "generate-theta-inf": lambda tmp: _generate_one_pair(tmp, "--theta", "inf"),
    "config-below-u-squared": lambda tmp: [
        "generate", "--out", str(tmp / "ds"), "--seed", "0",
        "--n-objects", "1", "--points-per-object", "8", "--u", "3"],
    "assets-below-u-squared": _assets_below_u_squared,
    "assets-of-two-distinct-points": _generate_from_two_point_assets,
    "fit-counts-list": lambda tmp: _fit_counts(tmp, [FIT_COUNTS]),
    "fit-scene-counts-list": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, scene_counts=[["kitchen", 3]])),
    "fit-objects-per-scene-entry-list": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, objects_per_scene={"kitchen": ["chair"]})),
    "fit-scene-count-list": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, scene_counts={"kitchen": [3]})),
    "fit-instance-count-null": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, instances_per_category={"chair": None})),
    "fit-scene-counts-all-zero": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, scene_counts={"kitchen": 0})),
    "fit-object-counts-fractional": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS,
                  objects_per_scene={"kitchen": {"chair": 0.7, "desk": 0.4}},
                  instances_per_category={"chair": 4, "desk": 2})),
    "fit-instance-count-fractional": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, instances_per_category={"chair": 2.9})),
    "fit-instance-count-huge": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, instances_per_category={"chair": 10 ** 13})),
    "fit-scene-count-string": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, scene_counts={"kitchen": "3"})),
    "fit-object-count-boolean": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, objects_per_scene={"kitchen": {"chair": True}})),
    "fit-instance-count-padded-string": lambda tmp: _fit_counts(
        tmp, dict(FIT_COUNTS, instances_per_category={"chair": " 4 "})),
    "distribution-beyond-the-recipes": _distribution_beyond_the_recipes,
}


@pytest.mark.parametrize("fault", list(CLI_INPUT_FAULTS))
def test_cli_malformed_input_exit_2(tmp_path, fault):
    assert main(CLI_INPUT_FAULTS[fault](tmp_path)) == 2


def test_cli_names_a_ply_cloud_that_is_not_utf8(tmp_path, capsys):
    assert main(_ply_byte_not_utf8(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "scene_a_complete.ply: " in err
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("table", ["scene_counts", "objects_per_scene",
                                   "instances_per_category"])
def test_cli_fit_names_a_table_that_is_not_an_object(tmp_path, capsys,
                                                     table):
    assert main(_fit_counts(tmp_path, dict(FIT_COUNTS, **{table: [1, 2]}))) \
        == 2
    assert capsys.readouterr().err.endswith(
        f"counts.json: TypeError: {table}: list is not an object\n")


def test_cli_fit_accepts_the_fault_table_counts(tmp_path):
    # the fit rows above break one field each of this valid document
    assert main(_fit_counts(tmp_path, FIT_COUNTS)) == 0


# what a hand-written counts file may hold where a count belongs
NOT_A_COUNT = st.one_of(
    st.lists(st.integers(0, 9), max_size=2), st.none(), st.text(max_size=3),
    st.integers(-10 ** 6, -1), st.just(0),
    st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scene=st.one_of(st.just(3), NOT_A_COUNT),
       objects=st.one_of(st.just(2), NOT_A_COUNT),
       instances=st.one_of(st.just(4), NOT_A_COUNT))
def test_cli_fit_bad_counts_exit_0_or_2(tmp_path, scene, objects,
                                        instances):
    # one file, rewritten for every example
    doc = {"scene_counts": {"kitchen": scene},
           "objects_per_scene": {"kitchen": {"chair": objects}},
           "instances_per_category": {"chair": instances}}
    assert main(_fit_counts(tmp_path, doc)) in (0, 2)


def _leaves(doc, path=()):
    """Paths to the scalar leaves of a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [p for k, v in items for p in _leaves(v, path + (k,))]
    return [path]


# one small value of each JSON type
JSON_VALUES = {bool: st.booleans(), int: st.integers(-3, 3),
               float: st.floats(-3.0, 3.0), str: st.text(max_size=3),
               type(None): st.none(), list: st.lists(st.integers(0, 3),
                                                     max_size=2),
               dict: st.just({})}


@pytest.fixture(scope="module")
def fuzzed_pair(tmp_path_factory):
    dataset, _ = _tiny_dataset(tmp_path_factory.mktemp("fuzz"))
    return list_pair_dirs(dataset)[0]


def _fuzz_one_leaf(path, data) -> str:
    """Turn one scalar leaf of the JSON document at ``path``, under a
    top-level key drawn first, into a value of another JSON type; return
    the document's original text."""
    original = path.read_text()
    doc = json.loads(original)
    leaves = _leaves(doc)
    key = data.draw(st.sampled_from(sorted({p[0] for p in leaves})))
    leaf = data.draw(st.sampled_from([p for p in leaves if p[0] == key]))
    parent = doc
    for k in leaf[:-1]:
        parent = parent[k]
    kind = data.draw(st.sampled_from(
        [t for t in JSON_VALUES if t is not type(parent[leaf[-1]])]))
    parent[leaf[-1]] = data.draw(JSON_VALUES[kind])
    path.write_text(json.dumps(doc))
    return original


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_cli_fuzzed_manifest_exit_0_or_2(fuzzed_pair, data):
    path = fuzzed_pair / "manifest.json"
    original = _fuzz_one_leaf(path, data)
    try:
        assert main(["losses", str(fuzzed_pair.parent.parent)]) in (0, 2)
        assert main(["match", str(fuzzed_pair)]) in (0, 2)
    finally:
        path.write_text(original)


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_cli_fuzzed_summary_exit_0_or_2(fuzzed_pair, data):
    path = fuzzed_pair.parent.parent / "summary.json"
    original = _fuzz_one_leaf(path, data)
    try:
        assert main(["losses", str(path.parent)]) in (0, 2)
        assert main(["match", str(fuzzed_pair)]) in (0, 2)
    finally:
        path.write_text(original)


@pytest.fixture(scope="module", params=["binary-f32", "ascii-ply"])
def fuzzed_clouds(request, tmp_path_factory):
    dataset, _ = _tiny_dataset(tmp_path_factory.mktemp("clouds"),
                               export_format=request.param)
    return list_pair_dirs(dataset)[0], pair_files(request.param)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_cli_fuzzed_geometry_exit_0_or_2(fuzzed_clouds, data):
    """A cloud file truncated, with one bit flipped or with a few bytes
    overwritten is refused (exit 2) or evaluated (exit 0), never a crash."""
    pdir, names = fuzzed_clouds
    path = pdir / data.draw(st.sampled_from(sorted(names.values())))
    original = path.read_bytes()
    at = data.draw(st.integers(0, len(original) - 1))
    edit = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]))
    if edit == "truncate":
        new = b""
    elif edit == "flip":
        new = bytes([original[at] ^ 1 << data.draw(st.integers(0, 7))])
    else:
        new = data.draw(st.binary(min_size=1, max_size=8))
    path.write_bytes(original[:at] + new
                     + (original[at + len(new):] if new else b""))
    try:
        assert main(["losses", str(pdir.parent.parent)]) in (0, 2)
        assert main(["match", str(pdir)]) in (0, 2)
    finally:
        path.write_bytes(original)


def _distribution_file(tmp_path):
    path = tmp_path / "dist.json"
    load_default_scannet_parameters().save(path)
    return (["generate", "--out", str(tmp_path / "ds"), "--seed", "0",
             "--n-scenes", "1", "--distribution", str(path)], path)


def _checkpoint_file(tmp_path):
    argv = _losses_with_corrupt_checkpoint(tmp_path, lambda doc: None)
    return argv, Path(argv[-1])


# each case writes one stored JSON document and returns the CLI call that
# reads it, and its path; the summary goes through match, which reads it
# before the manifest
STORED_DOCUMENTS = {
    "manifest": lambda tmp: (
        ["losses", str(_tiny_dataset(tmp)[0])],
        list_pair_dirs(tmp / "ds")[0] / "manifest.json"),
    "summary": lambda tmp: (
        ["match", str(list_pair_dirs(_tiny_dataset(tmp)[0])[0])],
        tmp / "ds" / "summary.json"),
    "checkpoint": _checkpoint_file,
    "distribution": _distribution_file,
    "fit-counts": lambda tmp: (_fit_counts(tmp, FIT_COUNTS),
                               tmp / "counts.json"),
}


@pytest.mark.parametrize("document", list(STORED_DOCUMENTS))
def test_cli_truncated_document_exit_2_naming_it(tmp_path, capsys,
                                                 document):
    argv, path = STORED_DOCUMENTS[document](tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {path.resolve()}: "), err
    _assert_one_short_line(err, tmp_path)


def test_cli_checkpoint_directory_exit_2_naming_it_once(tmp_path, capsys):
    dataset, _ = _tiny_dataset(tmp_path)
    (tmp_path / "dd").mkdir()
    capsys.readouterr()
    assert main(["losses", str(dataset), "--checkpoint",
                 str(tmp_path / "dd")]) == 2
    assert capsys.readouterr().err \
        == f"invalid input: {tmp_path / 'dd'}: Is a directory\n"


def test_cli_match_missing_pair_exit_2(tmp_path):
    assert main(["match", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize("path", ["nope/nope", "ds/pairs"])
def test_cli_match_names_the_missing_manifest(tmp_path, capsys, path):
    # not the summary.json two levels up, which is missing too
    _tiny_dataset(tmp_path)
    assert main(["match", str(tmp_path / path)]) == 2
    assert f"{path}/manifest.json: missing" in capsys.readouterr().err


def test_cli_fit_roundtrip(tmp_path):
    counts = {
        "scene_counts": {"kitchen": 3, "office": 1},
        "objects_per_scene": {"kitchen": {"chair": 2, "stove": 2},
                              "office": {"chair": 4}},
        "instances_per_category": {"chair": 4, "stove": 2},
    }
    src = tmp_path / "counts.json"
    src.write_text(json.dumps(counts))
    dst = tmp_path / "dist.json"
    assert main(["fit", str(src), "--out", str(dst)]) == 0
    from scenepretext.catalog import SceneDistribution
    dist = SceneDistribution.load(dst)
    np.testing.assert_allclose(dist.scene_prior, [0.75, 0.25])
    np.testing.assert_allclose(dist.category_given_scene[0], [0.5, 0.5])
    np.testing.assert_allclose(dist.category_given_scene[1], [1.0, 0.0])
