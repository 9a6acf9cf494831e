"""Command-line interface.

Subcommands: fit, generate, match, losses, gradcheck. Exit codes: 0 ok,
2 invalid input, 1 a failed gradcheck (or an uncaught bug, which ends with
a traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .assets import ProceduralAssetSource
from .catalog import CategoryTable, fit_scene_distribution
from .decoder import (GRADCHECK_RTOL, GRADCHECK_STEP, DecoderHeads,
                      EncoderConfig, HeadsConfig, ToyEncoder, gradient_check,
                      prepare_scene_pair)
from .errors import ScenePretextError
from .losses import TAU
from .pipeline import (FORMAT_EXT, PipelineConfig, evaluate_losses,
                       generate_dataset, match_pair_dir)
from .scenegen import make_scene_pair
from .seeding import mix64

EXIT_OK = 0
EXIT_GRADCHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise UsageError(f"{what} must be a JSON object, "
                         f"got {type(value).__name__}")
    return value


def _cmd_fit(args) -> int:
    with open(args.counts) as f:
        doc = _json_object(json.load(f), "counts file")
    try:
        scene_counts = _json_object(doc["scene_counts"], "scene_counts")
        objects_per_scene = _json_object(doc["objects_per_scene"],
                                         "objects_per_scene")
        instances = _json_object(doc["instances_per_category"],
                                 "instances_per_category")
    except KeyError as e:
        raise UsageError(f"counts file missing key {e}")
    scene_table = CategoryTable(list(scene_counts.keys()),
                                list(scene_counts.values()))
    cat_labels = list(instances.keys())
    object_tables = []
    for scene in scene_table.labels:
        per_scene = _json_object(objects_per_scene.get(scene, {}),
                                 f"objects_per_scene[{scene!r}]")
        object_tables.append(CategoryTable(
            cat_labels, [per_scene.get(c, 0) for c in cat_labels]))
    dist = fit_scene_distribution(scene_table, object_tables,
                                  [instances[c] for c in cat_labels])
    dist.save(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _config_from_args(args) -> PipelineConfig:
    kwargs = {}
    for f in fields(PipelineConfig):
        if hasattr(args, f.name) and getattr(args, f.name) is not None:
            kwargs[f.name] = getattr(args, f.name)
    return PipelineConfig(**kwargs)


def _cmd_generate(args) -> int:
    config = _config_from_args(args)
    generate_dataset(config, args.out)
    return EXIT_OK


def _cmd_match(args) -> int:
    matches = match_pair_dir(args.pair, m_seeds=args.m_seeds,
                             theta=args.theta, full_pool=args.full_pool)
    doc = {"theta": matches.theta, "n_matches": len(matches),
           "matches": matches.to_records()}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        print(f"wrote {args.out} ({len(matches)} matches)")
    else:
        json.dump(doc, sys.stdout, indent=1, sort_keys=True)
        print()
    return EXIT_OK


def _cmd_losses(args) -> int:
    evaluate_losses(args.dataset, checkpoint=args.checkpoint,
                    report_path=args.report)
    return EXIT_OK


def gradcheck_batch(seed: int = 20240, n_objects: int = 4,
                    points_per_object: int = 64):
    """The canonical finite-difference batch: 2 pairs, 4 objects x 64 points.

    Network widths are kept small so the brute-force sweep over every
    parameter finishes well inside a minute; the relaxed matching threshold
    is widened so the sparse seed sets still produce a healthy match count.
    """
    from .catalog import load_default_scannet_parameters
    dist = load_default_scannet_parameters()
    source = ProceduralAssetSource(n_points=points_per_object)
    prepared = []
    for i in range(2):
        pair = make_scene_pair(dist, n_objects, source, mix64(seed, i))
        prepared.append(prepare_scene_pair(
            pair, n_seeds=18, m_matches=16, theta=0.25, u=3,
            rng_seed=mix64(seed, 100 + i)))
    enc_cfg = EncoderConfig(feature_dim=32, hidden=40,
                            proj_hidden=20, embed_dim=20)
    heads_cfg = HeadsConfig(feature_dim=32, hidden=24, u=3)
    encoder = ToyEncoder(enc_cfg, rng_seed=mix64(seed, 201))
    heads = DecoderHeads(heads_cfg, rng_seed=mix64(seed, 202))
    return prepared, encoder, heads


def _cmd_gradcheck(args) -> int:
    for flag in ("tau", "step", "rtol"):
        value = getattr(args, flag)
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"--{flag} must be finite and > 0, got {value}")
    prepared, encoder, heads = gradcheck_batch(seed=args.seed)
    result = gradient_check(prepared, encoder, heads, tau=args.tau,
                            step=args.step, rtol=args.rtol)
    for term, rel in sorted(result.per_term.items()):
        status = "ok" if rel <= args.rtol else "FAIL"
        print(f"{term}: max relative error {rel:.3e} "
              f"({result.worst[term]}) [{status}]")
    print(f"checked {result.n_entries} parameters; "
          f"{result.n_kink_entries} argmin crossings confirmed at refined step")
    print(f"gradcheck {'PASSED' if result.ok else 'FAILED'} "
          f"(max {result.max_rel_error:.3e}, tolerance {args.rtol:.0e})")
    return EXIT_OK if result.ok else EXIT_GRADCHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenepretext",
        description="Synthetic paired-scene datasets and pretext losses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit distribution parameters from counts")
    p.add_argument("counts", help="JSON with scene_counts, objects_per_scene,"
                                  " instances_per_category")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("generate", help="generate a paired-scene dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", dest="master_seed", type=int, required=True)
    p.add_argument("--n-scenes", dest="n_scenes", type=int)
    p.add_argument("--n-objects", dest="n_objects_per_scene", type=int)
    p.add_argument("--points-per-object", dest="points_per_object", type=int)
    p.add_argument("--epsilon", dest="epsilon", type=float)
    p.add_argument("--m-seeds", dest="m_seeds", type=int)
    p.add_argument("--theta", dest="theta", type=float)
    p.add_argument("--u", dest="u", type=int)
    p.add_argument("--n-encoder-seeds", dest="n_encoder_seeds", type=int)
    p.add_argument("--room-size", dest="room_size", type=float)
    p.add_argument("--export-format", dest="export_format",
                   choices=FORMAT_EXT)
    p.add_argument("--no-occlusion", dest="occlude", action="store_false",
                   default=None)
    p.add_argument("--asset-source", dest="asset_source",
                   help="'procedural' or a directory of asset files")
    p.add_argument("--distribution", dest="distribution_file",
                   help="SceneDistribution JSON (default: bundled)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("match", help="recompute a pair's match set")
    p.add_argument("pair", help="pair directory")
    p.add_argument("--m-seeds", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--full-pool", action="store_true",
                   help="match against every candidate point, not an FPS pool")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("losses", help="evaluate loss reports on a dataset")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--report", default=None, help="JSONL output path")
    p.set_defaults(func=_cmd_losses)

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients by finite differences")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--tau", type=float, default=TAU)
    p.add_argument("--step", type=float, default=GRADCHECK_STEP)
    p.add_argument("--rtol", type=float, default=GRADCHECK_RTOL)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; every error of its input exits 2.

    The library raises ScenePretextError for input it cannot use, the
    standard library OSError for an unreadable path and ValueError (a
    json.JSONDecodeError too) for unparsable values. Any other exception is
    a bug and propagates.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ScenePretextError, OSError, ValueError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
