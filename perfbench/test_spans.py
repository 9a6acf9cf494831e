"""Self-tests of the benchmark's tracer and its metric table.

Run with the program on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np

from spans import PACKAGE, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    with tracer.span("root"):
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 2.0
            with tracer.span("c"):
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with tracer.span("b"):
            clock.now = 9.0
        clock.now = 10.0
    tracer.phase = "setup"
    with tracer.span("a"):
        clock.now = 12.0
    run = tracer.aggregate("run")
    assert run == {"root": (1, 10.0 - 3.0 - 4.0), "a": (1, 3.0 - 1.0),
                   "c": (1, 1.0), "b": (1, 4.0)}
    assert tracer.aggregate("setup") == {"a": (1, 2.0)}
    total = sum(s for _, s in run.values())
    assert total == 10.0   # self times partition the root span


def _package_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for attr, value in vars(module).items()}


def test_install_patches_from_imports_and_uninstall_restores():
    import layers
    from scenepretext import correspondence, decoder, pipeline, scenegen

    before = _package_bindings()
    class_attrs = {(owner, attr): vars(owner)[attr]
                   for _, owner, attr, *_ in layers.TARGETS
                   if isinstance(owner, type)}
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        # names bound by from-import are wrapped too
        assert decoder.farthest_point_sample is not \
            before[("scenepretext.correspondence", "farthest_point_sample")]
        assert pipeline.make_scene_pair is not \
            before[("scenepretext.scenegen", "make_scene_pair")]
        assert decoder.farthest_point_sample is \
            correspondence.farthest_point_sample
        pts = np.random.default_rng(0).normal(size=(50, 3))
        decoder.farthest_point_sample(pts, 5, 1)
        scenegen.sample_scene_spec(
            pipeline.PipelineConfig().load_distribution(), 3, 2)
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in class_attrs.items())
    run = tracer.aggregate("run")
    assert run["correspondence.farthest_point_sample"][0] == 1
    assert run["scenegen.sample_scene_spec"][0] == 1
    assert tracer.counted(
        "run", "correspondence.farthest_point_sample.point_evals") == 250


def test_benchmark_json_lists_the_metrics_the_run_prints():
    import layers
    import run

    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == layers.metric_units()
