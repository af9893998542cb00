"""Span tracer that wraps netoco's module-level names from the outside.

netoco's callers resolve collaborators through module globals at call time
(``bench._run_seed`` looks up ``netoco.bench.run_experiment`` on every call),
so replacing those globals with timing wrappers traces a run without touching
the program. Spans are aggregated in memory per (scenario, layer): inclusive
seconds, self seconds (duration minus the direct child spans) and calls.

A target that no longer exists is recorded as unmeasured rather than raised,
so later refactors that remove or fuse a function leave the benchmark running.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStat:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0


def footprint_bytes(obj) -> int:
    """Bytes held by the array attributes of obj, computed from their shapes."""
    return sum(
        value.nbytes
        for value in getattr(obj, "__dict__", {}).values()
        if isinstance(getattr(value, "nbytes", None), int)
    )


def _largest_footprint(tracer, layer, result):
    tracer.peak_bytes[layer] = max(tracer.peak_bytes[layer], footprint_bytes(result))


def _comparator_iterations(tracer, layer, result):
    tracer.comparator_iters += getattr(result, "iterations", 0)


# (module, attribute, layer, observer of the returned value)
TARGETS = (
    ("netoco.bench", "validate_scenario", "bench.validate", None),
    ("netoco.bench", "parse_libsvm", "problems.parse", None),
    ("netoco.bench", "synthetic_stream", "problems.stream", _largest_footprint),
    ("netoco.bench", "dataset_stream", "problems.stream", _largest_footprint),
    ("netoco.bench", "run_experiment", "algorithm.run", _largest_footprint),
    ("netoco.algorithm", "consensus_mix", "network.mix", None),
    ("netoco.bench", "metric_series", "metrics.series", None),
    ("netoco.metrics", "offline_comparator", "metrics.comparator", _comparator_iterations),
)


class Tracer:
    """Collects spans for one traced pass; create a fresh one per pass."""

    def __init__(self):
        self.stats: dict[tuple[str, str], SpanStat] = defaultdict(SpanStat)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.comparator_iters = 0
        self.unmeasured: list[str] = []
        self.scenario = ""
        self._children: list[list[float]] = []  # child seconds of each open span

    @contextmanager
    def span(self, layer: str, scenario: str):
        """A root span opened by the benchmark around one call into netoco."""
        self.scenario = scenario
        self._children.append([0.0])
        start = perf_counter()
        try:
            yield
        finally:
            self._close(layer, perf_counter() - start)

    def _close(self, layer, elapsed):
        child_seconds = self._children.pop()[0]
        if self._children:
            self._children[-1][0] += elapsed
        stat = self.stats[(self.scenario, layer)]
        stat.seconds += elapsed
        stat.self_seconds += elapsed - child_seconds
        stat.calls += 1

    def _wrap(self, fn, layer, observe):
        def traced(*args, **kwargs):
            self._children.append([0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, perf_counter() - start)
            if observe is not None:
                observe(self, layer, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        originals = []
        try:
            for module_name, attr, layer, observe in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                fn = getattr(module, attr, None)
                if fn is None:
                    self.unmeasured.append(f"{module_name}.{attr}")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, layer, observe))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def layer(self, layer: str, scenarios=None) -> SpanStat:
        """Totals of one layer, over all scenarios or the named ones."""
        total = SpanStat()
        for (scenario, name), stat in self.stats.items():
            if name == layer and (scenarios is None or scenario in scenarios):
                total.seconds += stat.seconds
                total.self_seconds += stat.self_seconds
                total.calls += stat.calls
        return total
