"""Span tracing for the per-layer pass.

The tracer wraps the public functions and methods that ``run_session``
and the audit path call, at the name each caller looks up, so the
engine itself stays untouched. Every call records a span (layer, start,
end, parent). Spans stay in memory until the pass ends, then are written
out and reduced to per-layer self time: a span's duration minus the time
its child spans cover.

A wrapped name that no longer exists is reported as an absent layer, so
a refactor that inlines or moves a function cannot break the run.
"""

from __future__ import annotations

import os
import time
from collections import Counter


def _count_ingest(counters: Counter, result, args) -> None:
    counters[f"streams.{getattr(result, 'value', result)}"] += 1


def _count_windows(counters: Counter, result, args) -> None:
    counters["streams.windows"] += len(result)


def _count_step(counters: Counter, result, args) -> None:
    candidates, decision = result
    counters["interventions.candidates"] += len(candidates)
    counters["interventions.decisions"] += decision is not None


def _count_records(counters: Counter, result, args) -> None:
    counters["scenario.records"] += len(result.records)


def _count_trace_bytes(counters: Counter, result, args) -> None:
    counters["session.trace_bytes"] += os.path.getsize(args[1])


def _count_events(counters: Counter, result, args) -> None:
    counters["session.events"] += len(result[1])


# (layer, module, attribute path, counter hook). The module is where the
# caller looks the name up: session.py imports the feature functions by
# name, so those are wrapped in the session module's namespace.
WRAPPED = (
    ("scenario.synthesize", "scenario", "synthesize", None),
    ("scenario.load", "scenario", "load_scenario", _count_records),
    ("session.run_session", "session", "run_session", None),
    ("streams.ingest", "streams", "StreamMerger.ingest", _count_ingest),
    ("model.envelope", "model", "SampleEnvelope.__init__", None),
    ("streams.pop_windows", "streams", "StreamMerger.pop_windows", _count_windows),
    ("gaze.window_features", "session", "window_gaze_features", None),
    ("behavior.score_posture", "session", "score_posture", None),
    ("cardio.window_hrv", "session", "window_hrv", None),
    ("state.infer_state", "session", "infer_state", None),
    ("state.compute_baseline", "session", "compute_baseline", None),
    ("interventions.step", "interventions", "InterventionEngine.step", _count_step),
    ("directives.render", "session", "build_directives", None),
    ("directives.render", "session", "render_prompt", None),
    ("session.write_trace", "session", "write_trace", _count_trace_bytes),
    ("session.read_trace", "session", "read_trace", _count_events),
    ("session.validate_trace", "session", "validate_trace", None),
    ("session.summarize", "session", "summarize", None),
)


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.span_layer: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _wrap(self, layer: str, fn, count):
        layer_id = self._layer_id(layer)
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, counters = self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(span_layer)
            span_layer.append(layer_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(span)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[span] = clock()
                stack.pop()
            if count is not None:
                count(counters, result, args)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every name in ``WRAPPED`` that the given modules still have."""
        for layer, module_name, path, count in WRAPPED:
            owner = modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if owner is None or original is None:
                name = f"{module_name}.{path}"
                if name not in self.missing:
                    self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(layer, original, count))
            self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped name."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def absent_layers(self) -> list[str]:
        """Layers none of whose wrapped names exist."""
        present = {layer for layer, module_name, path, _ in WRAPPED
                   if f"{module_name}.{path}" not in self.missing}
        return sorted({layer for layer, *_ in WRAPPED} - present)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, total time and self time."""
        n = len(self.span_layer)
        child_time = [0.0] * n
        for span in range(n):
            parent = self.span_parent[span]
            if parent >= 0:
                child_time[parent] += self.span_end[span] - self.span_start[span]
        totals = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer, *_ in WRAPPED}
        for span in range(n):
            entry = totals[self.layers[self.span_layer[span]]]
            duration = self.span_end[span] - self.span_start[span]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[span]
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tlayer\tstart_s\tend_s\tparent\n")
            for span in range(len(self.span_layer)):
                handle.write(
                    f"{span}\t{self.layers[self.span_layer[span]]}\t{self.span_start[span]:.9f}"
                    f"\t{self.span_end[span]:.9f}\t{self.span_parent[span]}\n"
                )
