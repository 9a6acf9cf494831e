"""Command-line interface.

Subcommands: fit, generate, match, losses, gradcheck. Exit codes: 0 ok,
2 invalid input, 1 a failed gradcheck (or an uncaught bug, which ends with
a traceback).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .assets import ProceduralAssetSource
from .catalog import CategoryTable, fit_scene_distribution
from .decoder import (GRADCHECK_RTOL, DecoderHeads, EncoderConfig,
                      HeadsConfig, ToyEncoder, gradient_check,
                      prepare_scene_pair)
from .errors import ScenePretextError, read_record, to_json, write_json
from .pipeline import (FORMAT_EXT, PipelineConfig, evaluate_losses,
                       generate_dataset, match_pair_dir)
from .scenegen import make_scene_pair
from .seeding import mix64

EXIT_OK = 0
EXIT_GRADCHECK_FAILED = 1
EXIT_USAGE = 2


def _table(value, what: str) -> dict:
    """``value``, a counts table; TypeError naming ``what`` if it is not a
    JSON object."""
    if not isinstance(value, dict):
        raise TypeError(f"{what}: {type(value).__name__} is not an object")
    return value


def _fit_counts(scene_counts: dict, objects_per_scene: dict,
                instances_per_category: dict):
    """The distribution fitted to a `fit` counts file's tables, each a JSON
    object (TypeError naming it otherwise) of counts that CategoryTable
    accepts."""
    cats = list(_table(instances_per_category, "instances_per_category"))
    scene_counts = _table(scene_counts, "scene_counts")
    per_scene = _table(objects_per_scene, "objects_per_scene")
    scene_table = CategoryTable(list(scene_counts),
                                list(scene_counts.values()))
    rows = [_table(per_scene.get(s, {}), f"objects_per_scene.{s}")
            for s in scene_table.labels]
    return fit_scene_distribution(
        scene_table, [CategoryTable(cats, [row.get(c, 0) for c in cats])
                      for row in rows],
        [instances_per_category[c] for c in cats])


def _cmd_fit(args) -> int:
    read_record(_fit_counts, args.counts).save(args.out)
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
        write_json(args.out, doc, indent=1)
        print(f"wrote {args.out} ({len(matches)} matches)")
    else:
        print(to_json(doc, 1))
    return EXIT_OK


def _cmd_losses(args) -> int:
    evaluate_losses(args.dataset, checkpoint=args.checkpoint,
                    report_path=args.report)
    return EXIT_OK


def gradcheck_batch(seed: int = 20240):
    """The canonical finite-difference batch: 2 pairs, 4 objects x 64 points.

    Network widths are kept small so the brute-force sweep over every
    parameter finishes well inside a minute; the relaxed matching threshold
    is widened so the sparse seed sets still produce a healthy match count.
    """
    from .catalog import load_default_scannet_parameters
    dist = load_default_scannet_parameters()
    source = ProceduralAssetSource(n_points=64)
    prepared = []
    for i in range(2):
        pair = make_scene_pair(dist, 4, source, mix64(seed, i))
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
    prepared, encoder, heads = gradcheck_batch(seed=args.seed)
    result = gradient_check(prepared, encoder, heads)
    for term, rel in sorted(result.per_term.items()):
        status = "ok" if rel <= GRADCHECK_RTOL else "FAIL"
        print(f"{term}: max relative error {rel:.3e} "
              f"({result.worst[term]}) [{status}]")
    print(f"checked {result.n_entries} parameters; "
          f"{result.n_kink_entries} argmin crossings confirmed at refined step")
    print(f"gradcheck {'PASSED' if result.ok else 'FAILED'} "
          f"(max {result.max_rel_error:.3e}, tolerance {GRADCHECK_RTOL:.0e})")
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
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; every error of its input exits 2.

    The library raises ScenePretextError for input it cannot use (a stored
    JSON file it cannot read gives CorruptManifest naming the file), OSError
    for another path it cannot open and ValueError for a flag value its
    checks refuse. Any other exception is a bug and propagates.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenePretextError, OSError, ValueError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
