"""The program functions the traced run wraps, and the per-layer metrics.

Layers are the program's modules. Each target below is a public function or
method of one module; its span is named ``<module>.<function>``. Per-layer
metrics of the measured phase are given per traced operation, so runs of
different length and speed compare directly. An operation that raised counts
in the denominator too: it adds the spans and counts of the work it did, and
no outcome counts, as it returned nothing to check. ``setup.*`` metrics are
per set-up.
"""

from __future__ import annotations

import os

from scenepretext import (assets, autodiff, catalog, correspondence, decoder,
                          losses, occlusion, pipeline, scenegen)


def _fps_counts(args, result):
    # one distance per point for each of the m picks
    return {"point_evals": len(args["points"]) * args["m"]}


def _match_counts(args, result):
    return {"matches": len(result), "anchors": args["seeds_a"].m}


def _chamfer_counts(args, result):
    pairs = args["x"].data.shape[0] * args["y"].data.shape[0]
    # one dense float64 d2 matrix per call
    return {"pair_evals": pairs, "bytes_computed": 8 * pairs}


def _export_counts(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# (span name, owner, attribute, counter, fields reported for the measured
# phase: calls, self_s or a counter's key)
TARGETS = [
    ("correspondence.farthest_point_sample", correspondence,
     "farthest_point_sample", _fps_counts, ("calls", "self_s", "point_evals")),
    ("correspondence.match_points", correspondence, "match_points",
     _match_counts, ("calls", "self_s")),
    ("decoder.prepare_scene_pair", decoder, "prepare_scene_pair", None,
     ("self_s",)),
    ("decoder.build_targets", decoder, "build_targets", None, ("self_s",)),
    ("decoder.encode_graph", decoder.ToyEncoder, "encode_graph", None,
     ("self_s",)),
    ("decoder.decode_graph", decoder, "decode_graph", None, ("self_s",)),
    ("decoder.forward_backward", decoder, "forward_backward", None,
     ("self_s",)),
    ("autodiff.chamfer", autodiff, "chamfer", _chamfer_counts,
     ("calls", "self_s", "pair_evals", "bytes_computed")),
    ("autodiff.Var.backward", autodiff.Var, "backward", None,
     ("calls", "self_s")),
    ("losses.object_level_graph", losses, "object_level_graph", None,
     ("self_s",)),
    ("losses.point_level_graph", losses, "point_level_graph", None,
     ("self_s",)),
    ("scenegen.make_scene_pair", scenegen, "make_scene_pair", None,
     ("self_s",)),
    ("scenegen.realize_scene", scenegen, "realize_scene", None, ("self_s",)),
    ("scenegen.sample_scene_spec", scenegen, "sample_scene_spec", None,
     ("self_s",)),
    ("assets.source", assets.ProceduralAssetSource, "__call__", None,
     ("calls", "self_s")),
    ("catalog.load_default_scannet_parameters", catalog,
     "load_default_scannet_parameters", None, ("calls", "self_s")),
    ("occlusion.occlude_scene", occlusion, "occlude_scene", None,
     ("calls", "self_s")),
    ("pipeline.generate_dataset", pipeline, "generate_dataset", None,
     ("self_s",)),
    ("pipeline.generate_pair", pipeline, "generate_pair", None, ("self_s",)),
    ("pipeline.export_point_cloud", pipeline, "export_point_cloud",
     _export_counts, ("self_s", "bytes")),
    ("pipeline.load_pair", pipeline, "load_pair", None, ("self_s",)),
    ("pipeline.load_point_cloud", pipeline, "load_point_cloud", None,
     ("self_s",)),
    ("pipeline.evaluate_losses", pipeline, "evaluate_losses", None,
     ("self_s",)),
]

# set-up phase: the layers that a set-up change would move
SETUP_SPANS = (
    "catalog.load_default_scannet_parameters",
    "assets.source",
    "scenegen.realize_scene",
    "occlusion.occlude_scene",
    "correspondence.farthest_point_sample",
    "pipeline.generate_dataset",
)

_FIELD_UNITS = {
    "calls": ("count/op", "lower"),
    "self_s": ("s/op", "lower"),
    "point_evals": ("count/op", "lower"),
    "pair_evals": ("count/op", "lower"),
    "bytes_computed": ("B/op", "lower"),
    "bytes": ("B/op", "lower"),
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    units = {}
    for span, _, _, _, fields in TARGETS:
        for field in fields:
            units[f"{span}.{field}"] = _FIELD_UNITS[field]
    units["correspondence.match_yield"] = ("ratio", "higher")
    units["pipeline.manifest_bytes"] = ("B/op", "lower")
    for span in SETUP_SPANS:
        units[f"setup.{span}.self_s"] = ("s", "lower")
    units["trace.overhead_frac"] = ("ratio", "lower")
    return units


def per_layer_metrics(tracer, n_ops: int, n_setups: int,
                      overhead_frac: float) -> dict[str, float]:
    """Per-layer values from a traced run of ``n_ops`` traced operations."""
    run = tracer.aggregate("run")
    setup = tracer.aggregate("setup")
    values = {}
    for span, _, _, _, fields in TARGETS:
        calls, self_s = run.get(span, (0, 0.0))
        for field in fields:
            if field == "calls":
                total = calls
            elif field == "self_s":
                total = self_s
            else:
                total = tracer.counted("run", f"{span}.{field}")
            values[f"{span}.{field}"] = total / n_ops
    anchors = tracer.counted("run", "correspondence.match_points.anchors")
    matches = tracer.counted("run", "correspondence.match_points.matches")
    values["correspondence.match_yield"] = (matches / anchors if anchors
                                            else 0.0)
    values["pipeline.manifest_bytes"] = (
        tracer.counted("run", "pipeline.manifest_bytes") / n_ops)
    for span in SETUP_SPANS:
        values[f"setup.{span}.self_s"] = (
            setup.get(span, (0, 0.0))[1] / n_setups)
    values["trace.overhead_frac"] = overhead_frac
    return values
