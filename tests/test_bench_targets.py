"""The benchmark's traced run names functions and arguments that exist.

``perfbench/layers.py`` wraps each ``TARGETS`` entry by owner and attribute,
and its counters read the wrapped call's arguments by parameter name. A
rename or deletion in the program would otherwise only show when a traced
benchmark run starts. These tests read the table and change nothing in it.
"""

import importlib.util
import inspect
import re
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


def _resolve(owner, attr):
    # the tracer replaces a class attribute on the class itself
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner,
                                                                      attr)


def _counter_args(counter) -> set[str]:
    return set(re.findall(r'args\["(\w+)"\]', inspect.getsource(counter)))


@pytest.mark.parametrize("target", layers.TARGETS,
                         ids=[t[0] for t in layers.TARGETS])
def test_target_resolves_and_counter_reads_its_parameters(target):
    span, owner, attr, counter, _ = target
    function = _resolve(owner, attr)
    assert callable(function), span
    if counter is not None:
        parameters = set(inspect.signature(function).parameters)
        missing = _counter_args(counter) - parameters
        assert not missing, f"{span}: counter reads {missing}"


def test_counter_arguments_are_the_known_set():
    read = set()
    for _, _, _, counter, _ in layers.TARGETS:
        if counter is not None:
            read |= _counter_args(counter)
    assert read == {"points", "m", "seeds_a", "x", "y", "path"}
