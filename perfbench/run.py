#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload losses --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The output is an environment record, every metric by
name with its unit, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics with tracing off; ``--trace 1`` reports the
per-layer metrics of a traced run. ``attempted`` and ``failed`` count the
distinct inputs a run operated on and those whose operation raised; an
operation repeated on the same input must end the same way. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "pairs_per_s": "pairs/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import the checkout's own package, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import scenepretext
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import scenepretext from "
                         f"{ROOT / 'src'}: {e}")
    if not Path(scenepretext.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: scenepretext imported from "
                         f"{scenepretext.__file__}, not from this checkout")


def environment(numpy, workload, args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": workload.name,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_config": workload.describe(),
    }


def run(args) -> int:
    import numpy

    import layers
    from spans import Tracer
    from workloads import WORKLOADS, CheckFailed

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=WORK_ROOT))
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, work)
    print("# env " + json.dumps(environment(numpy, workload, args),
                                sort_keys=True), flush=True)

    correct = True
    failures: list[str] = []
    # first outcome per input key: None if it succeeded, else the error
    outcomes: dict[int, str | None] = {}
    durations: list[tuple[float, bool, bool]] = []   # (s, traced, ok)
    pairs = 0
    setup_times: list[float] = []
    finish_info: dict = {}
    try:
        for rep in range(workload.setup_reps):
            if tracer:
                tracer.phase = "setup"
                tracer.install(layers.TARGETS)
            t0 = time.perf_counter()
            workload.setup(rep)
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
        workload.after_setup()

        if tracer:
            tracer.phase = "run"
        measured = 0.0
        i = 0
        while measured < args.seconds or i < workload.min_ops:
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install(layers.TARGETS)
            error = None
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.op") if traced else nullcontext():
                    result = workload.op(i)
            except Exception as e:  # a failed operation is counted
                frame = traceback.extract_tb(e.__traceback__)[-1]
                error = (f"{type(e).__name__}: {e} "
                         f"[{Path(frame.filename).name}:{frame.lineno} "
                         f"in {frame.name}]")
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            measured += dt
            key = workload.input_key(i)
            if key not in outcomes:
                outcomes[key] = error
                if error is not None:
                    failures.append(f"op {i} on input {key}: {error}")
            elif outcomes[key] != error:
                raise CheckFailed(f"op {i} on input {key} ended "
                                  f"{error or 'ok'}, earlier "
                                  f"{outcomes[key] or 'ok'}")
            if error is None:
                outcome = workload.check(i, result)
                pairs += outcome.pairs
                if traced:
                    for name, value in outcome.counts.items():
                        tracer.count(name, value)
            durations.append((dt, traced, error is None))
            i += 1
        finish_info = workload.finish(i)
    except CheckFailed as e:
        correct = False
        print(f"# CHECK FAILED: {e}", flush=True)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    ok_times = [d for d, _, ok in durations if ok]
    if not ok_times:
        correct = False
        print("# CHECK FAILED: no operation succeeded", flush=True)
    attempted = len(outcomes)
    failed = sum(1 for error in outcomes.values() if error is not None)
    failure_types = collections.Counter(
        error.split(":")[0] for error in outcomes.values() if error)
    for line in failures:
        print(f"# failed {line}")
    print(f"# failed_frac = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} distinct inputs raised, by type "
          f"{dict(failure_types)}; {len(durations)} operations)")
    for key, value in finish_info.items():
        print(f"# {key} = {value}")

    metrics: dict[str, dict] = {}
    if ok_times and tracer is None:
        n = len(ok_times)
        p90 = (statistics.quantiles(ok_times, n=10, method="inclusive")[8]
               if n > 1 else ok_times[0])
        beyond = sum(1 for d in ok_times if d > p90)
        values = {
            # operations that raised cost time and add no pairs
            "pairs_per_s": pairs / sum(d for d, _, _ in durations),
            "op_p50_ms": 1e3 * statistics.median(ok_times),
            "op_p90_ms": 1e3 * p90,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"op_p50_ms": f"  (n={n})",
                   "op_p90_ms": f"  (n={n}, {beyond} beyond p90)",
                   "setup_s": f"  (median of {len(setup_times)})"}
        for name, value in values.items():
            unit = END_TO_END_UNITS[name]
            print(f"{name} = {value:.6g} {unit}{samples.get(name, '')}")
            metrics[name] = {"value": value, "unit": unit}
    elif ok_times:
        untraced = [d for d, t, ok in durations if ok and not t]
        traced_ops = [d for d, t, ok in durations if ok and t]
        n_traced = sum(1 for _, t, _ in durations if t)
        overhead = (statistics.median(traced_ops)
                    / statistics.median(untraced) - 1.0
                    if traced_ops and untraced else 0.0)
        values = layers.per_layer_metrics(tracer, max(n_traced, 1),
                                          len(setup_times), overhead)
        print(f"# traced operations: {n_traced} of {len(durations)}")
        print_top_layers(tracer, max(n_traced, 1))
        units = layers.metric_units()
        for name, value in values.items():
            unit = units[name][0]
            print(f"{name} = {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_top_layers(tracer, n_ops: int) -> None:
    """Self time per operation of every traced layer, largest first."""
    run_totals = tracer.aggregate("run")
    op_total = sum(s for _, s in run_totals.values())
    print("# self time per traced operation (bench.op: outside every "
          "wrapped function)")
    for name, (calls, self_s) in sorted(run_totals.items(),
                                        key=lambda kv: -kv[1][1]):
        print(f"#   {name:<42} {1e3 * self_s / n_ops:10.3f} ms/op "
              f"{100 * self_s / op_total:6.2f} %  "
              f"{calls / n_ops:8.1f} calls/op")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("generate", "losses", "train_step"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # fixed before numpy loads, so every run uses the same thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
