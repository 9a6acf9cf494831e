"""In-memory span tracer used by the benchmark's traced run.

The tracer wraps functions of the program from outside: ``install`` replaces
each listed function or method with a wrapper that records a span (name,
start, end, parent span, phase) and, optionally, counts computed from the
call's arguments and result. A module-level function is replaced in every
module of the package that holds it, so names bound by ``from``-import are
traced too. ``uninstall`` puts every original object back.

A layer's self time is its span time minus the time of its direct child
spans. The program is single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "scenepretext"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    phase: str


class Tracer:
    """Spans and counts of one benchmark run, keyed by phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "run"
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, 0.0, parent, self.phase)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = self.clock()
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- patching ----------------------------------------------------------

    def _traced(self, original, name: str, counter):
        signature = inspect.signature(original) if counter else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result).items():
                    self.count(f"{name}.{key}", value)
            return result

        return traced

    def _bindings(self, original) -> list[tuple[object, str]]:
        """Every (module, attribute) of the package bound to ``original``."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                    mod_name == PACKAGE
                    or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    found.append((module, attr))
        return found

    def install(self, targets) -> None:
        """Wrap each (span name, owner, attribute, counter, ...) target.

        ``owner`` is a module or a class; fields after ``counter`` are not
        the tracer's. A class attribute is replaced on
        the class; a module attribute in every module that bound it.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr, counter, *_ in targets:
            if isinstance(owner, type):
                original = vars(owner)[attr]
                places = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                places = self._bindings(original)
            traced = self._traced(original, name, counter)
            for place, key in places:
                self._patches.append((place, key, original))
                setattr(place, key, traced)

    def uninstall(self) -> None:
        for place, key, original in reversed(self._patches):
            setattr(place, key, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def aggregate(self, phase: str) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds) over one phase."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, tuple[int, float]] = {}
        for s, children in zip(self.spans, child_time):
            if s.phase != phase:
                continue
            calls, self_s = out.get(s.name, (0, 0.0))
            out[s.name] = (calls + 1, self_s + (s.end - s.start) - children)
        return out

    def counted(self, phase: str, name: str) -> float:
        return self.counts.get((phase, name), 0.0)
