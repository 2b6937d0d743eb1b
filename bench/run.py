"""Replay benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload in_order --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports cogloop from ``src/``.

The run is a closed loop with one caller on one thread: an iteration
starts when the previous one returns. An iteration replays the scenario
the way ``cogloop run --trace`` does (``load_scenario``, ``run_session``,
``write_trace``), audits the trace the way ``cogloop validate --trace``
plus ``cogloop summarize`` do (``read_trace``, ``validate_trace``,
``summarize``), and checks the outputs.

Every iteration also replays and audits the same workload with the
reference engine in ``cogloop_ref/``, a frozen copy of the engine, in
turn with this one. The time metrics are this engine's times over the
reference's, medians over the run: the shared hosts this runs on change
speed by 30-60% within seconds to minutes, and two replays a second
apart see the same speed.

``--trace 0`` prints the end-to-end metrics: set-up time (from set-ups
paired the same way), the replay and audit ratios, and the peak memory
of one replay in a fresh process. ``--trace 1`` runs the same loop, then
one traced iteration, and prints per-layer self times and counts. The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / ".work"

PACKAGE = "cogloop"
# the frozen engine every set-up, replay and audit is timed against
REFERENCE_PACKAGE = "cogloop_ref"
# The reference engine's set-up time for seed 101, the median of 15 on a
# 2-vCPU VM with Python 3.11.7. setup_s is this engine's set-up time as a
# share of the reference's, measured in pairs, times this: set-up time in
# seconds at that host speed.
REFERENCE_SETUP_S = {"in_order": 0.38, "dense_hop": 0.21, "jittered_arrivals": 0.48}

SETUP_REPEATS = 6
AUDIT_REPEATS = 5
TRACED_ITERATIONS = 4
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 170
MB = 1e6


def use_checkout_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "cogloop" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def import_engine(package: str) -> dict:
    """Import an engine package afresh and return its modules by short name."""
    for name in [m for m in sys.modules if m == package or m.startswith(f"{package}.")]:
        del sys.modules[name]
    importlib.import_module(package)
    modules = {}
    for short in ("scenario", "session", "streams", "model", "interventions"):
        try:
            modules[short] = importlib.import_module(f"{package}.{short}")
        except ModuleNotFoundError:
            pass  # the tracer reports its layers as absent
    return modules


@dataclass
class Setup:
    seconds: float
    modules: dict
    records: int
    session_s: float


def set_up(package: str, workload: str, seed: int, smoke: bool, scenario_path: Path,
           tracer: Tracer | None = None) -> Setup:
    """Import the engine, synthesize the workload, write the scenario file."""
    start = time.perf_counter()
    modules = import_engine(package)
    if tracer is not None:
        tracer.install(modules)
    try:
        scenario = workloads.build_scenario(modules["scenario"], workload, seed, smoke)
        modules["scenario"].write_scenario(scenario, scenario_path)
    finally:
        if tracer is not None:
            tracer.remove()
    return Setup(time.perf_counter() - start, modules, len(scenario.records), scenario.duration_s())


def replay(modules: dict, scenario_path: Path, trace_path: Path):
    """Scenario file to written trace. Returns (seconds, SessionResult)."""
    start = time.perf_counter()
    result = modules["session"].run_session(modules["scenario"].load_scenario(scenario_path))
    modules["session"].write_trace(result, trace_path)
    return time.perf_counter() - start, result


def audit(modules: dict, trace_path: Path):
    """Trace file to verdict and summary. Returns (seconds, events, violations, summary)."""
    session = modules["session"]
    start = time.perf_counter()
    header, events = session.read_trace(trace_path)
    violations = session.validate_trace(header, events)
    summary = session.summarize(header, events)
    return time.perf_counter() - start, events, violations, summary


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def decisions_sha256(events: list) -> str:
    decisions = [{"t": e.t, "payload": e.payload} for e in events if e.kind == "decision"]
    return hashlib.sha256(json.dumps(decisions, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class Digests:
    """Digests of the first iteration's trace; later ones must match."""

    trace_sha256: str | None = None
    decisions_sha256: str | None = None


def check_iteration(digests: Digests, trace_path: Path, result, events, violations, summary) -> list[str]:
    """Reasons this iteration failed; empty when its outputs are right."""
    reasons = []
    if violations:
        reasons.append(f"validate_trace found {len(violations)} violations: {'; '.join(violations[:5])}")
    digest = file_sha256(trace_path)
    if digests.trace_sha256 is None:
        digests.trace_sha256 = digest
        digests.decisions_sha256 = decisions_sha256(events)
    elif digest != digests.trace_sha256:
        reasons.append("trace bytes differ from the first iteration's")
    if events != result.events:
        reasons.append("read_trace did not return the events run_session produced")
    if summary["decisions_total"] != len(result.decisions):
        reasons.append(
            f"summarize counts {summary['decisions_total']} decisions, run_session made {len(result.decisions)}"
        )
    return reasons


class Pair(NamedTuple):
    """One iteration's times: this engine's, then the reference's."""

    replay_s: float
    audit_s: float
    ref_replay_s: float
    ref_audit_s: float
    ours_first: bool


class SetupPair(NamedTuple):
    """One set-up's time with each engine."""

    seconds: float
    ref_seconds: float
    ours_first: bool


def ratio(pairs: list, ours: str, theirs: str) -> float:
    """This engine's time over the reference's, over ``pairs``.

    The geometric mean of two medians, over the iterations where this
    engine went first and over those where it went second, so that what
    going first or second does to a time cancels out.
    """
    medians = []
    for first in (True, False):
        ratios = [getattr(p, ours) / getattr(p, theirs) for p in pairs if p.ours_first == first]
        if ratios:
            medians.append(statistics.median(ratios))
    return math.prod(medians) ** (1 / len(medians))


@dataclass
class Engine:
    """An engine's modules and the scenario and trace files it uses."""

    modules: dict
    scenario_path: Path
    trace_path: Path


@dataclass
class Loop:
    """A closed loop of checked replay-and-audit iterations, each paired
    with a replay and audit by the reference engine."""

    ours: Engine
    reference: Engine
    digests: Digests = field(default_factory=Digests)
    attempted: int = 0
    failed: int = 0
    pairs: list[Pair] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        print(f"iteration {self.attempted} failed: {reason}", file=sys.stderr)

    def iterate(self, audit_repeats: int = AUDIT_REPEATS) -> None:
        """Replay with both engines, then audit both traces in turn."""
        self.attempted += 1
        # which engine goes first alternates, so that neither always runs
        # with the other's replay result in memory
        engines = [self.ours, self.reference]
        if self.attempted % 2 == 0:
            engines.reverse()
        replay_s, results = {}, {}
        audit_s = {id(engine): 0.0 for engine in engines}
        try:
            # every replay and audit runs with all that came before it
            # frozen: the collector does not walk the results kept for the
            # checks, as it would not in a separate `cogloop validate`.
            # Both results stay, so the second replay always runs next to
            # the first one's result, whichever engine goes first.
            gc.collect()
            for engine in engines:
                gc.freeze()
                replay_s[id(engine)], results[id(engine)] = replay(
                    engine.modules, engine.scenario_path, engine.trace_path
                )
            gc.freeze()
            # an audit takes a sixth of a replay; several, in turns, make
            # it as exposed to the host's speed changes as the replay
            for repeat in range(audit_repeats):
                for engine in engines if repeat % 2 == 0 else engines[::-1]:
                    seconds, *outputs = audit(engine.modules, engine.trace_path)
                    audit_s[id(engine)] += seconds
                    if engine is self.ours:
                        ours_outputs = outputs
                    del outputs
            reasons = check_iteration(self.digests, self.ours.trace_path, results[id(self.ours)], *ours_outputs)
        except Exception:
            traceback.print_exc()
            self.fail("raised")
            return
        finally:
            gc.unfreeze()
        ours, theirs = id(self.ours), id(self.reference)
        self.pairs.append(Pair(replay_s[ours], audit_s[ours] / audit_repeats,
                               replay_s[theirs], audit_s[theirs] / audit_repeats, engines[0] is self.ours))
        if reasons:
            self.fail("; ".join(reasons))

    def run_for(self, seconds: float) -> None:
        """Iterate until ``seconds`` have passed and ``MIN_ITERATIONS`` ran."""
        start = time.perf_counter()
        while self.attempted < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            self.iterate()



def peak_memory_mb(loop: Loop) -> float | None:
    """Peak RSS of one replay in a fresh process; its trace must match too.

    None when that process failed; the failure counts in ``loop``.
    """
    loop.attempted += 1
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "replay_child.py"), str(SRC), str(loop.ours.scenario_path),
             str(loop.ours.trace_path)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        loop.fail(f"the fresh-process replay ran past {CHILD_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        loop.fail(f"the fresh-process replay exited with code {proc.returncode}")
        return None
    if file_sha256(loop.ours.trace_path) != loop.digests.trace_sha256:
        loop.fail("a fresh process wrote different trace bytes")
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_bytes"] / MB


def describe(values: list[float]) -> str:
    if not values:
        return "n=0"
    return (f"n={len(values)} min={min(values):.4f} median={statistics.median(values):.4f} "
            f"max={max(values):.4f}")


# per-layer metrics: name -> (layer, statistic) over the traced spans
LAYER_TIMES = {
    "scenario.load_s": ("scenario.load", "total_s"),
    "scenario.synthesize_s": ("scenario.synthesize", "total_s"),
    "streams.ingest.self_s": ("streams.ingest", "self_s"),
    "model.envelope.self_s": ("model.envelope", "self_s"),
    "streams.pop_windows.self_s": ("streams.pop_windows", "self_s"),
    "gaze.window_features.self_s": ("gaze.window_features", "self_s"),
    "behavior.score_posture.self_s": ("behavior.score_posture", "self_s"),
    "cardio.window_hrv.self_s": ("cardio.window_hrv", "self_s"),
    "state.infer_state.self_s": ("state.infer_state", "self_s"),
    "state.compute_baseline.self_s": ("state.compute_baseline", "self_s"),
    "interventions.step.self_s": ("interventions.step", "self_s"),
    "directives.render.self_s": ("directives.render", "self_s"),
    "session.run_session.self_s": ("session.run_session", "self_s"),
    "session.write_trace.self_s": ("session.write_trace", "self_s"),
    "session.read_trace.self_s": ("session.read_trace", "self_s"),
    "session.validate_trace.self_s": ("session.validate_trace", "self_s"),
    "session.summarize.self_s": ("session.summarize", "self_s"),
}
LAYER_CALLS = {
    "streams.ingest.calls": "streams.ingest",
    "gaze.windows": "gaze.window_features",
    "behavior.score_posture.calls": "behavior.score_posture",
    "cardio.window_hrv.calls": "cardio.window_hrv",
    "state.ticks": "state.infer_state",
}
LAYER_COUNTERS = (
    "scenario.records",
    "streams.reordered",
    "streams.dropped_late",
    "streams.windows",
    "interventions.candidates",
    "interventions.decisions",
    "session.trace_bytes",
    "session.events",
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    totals = tracer.layer_totals()
    counters = tracer.counters
    metrics: dict[str, tuple[float, str]] = {}
    for name, (layer, stat) in LAYER_TIMES.items():
        metrics[name] = (totals[layer][stat], "s")
    for name, layer in LAYER_CALLS.items():
        metrics[name] = (totals[layer]["calls"], "count")
    for name in LAYER_COUNTERS:
        metrics[name] = (counters[name], "count")
    ingested = totals["streams.ingest"]["calls"]
    kept = counters["streams.accepted"] + counters["streams.reordered"]
    metrics["streams.accepted_share"] = (kept / ingested if ingested else 0.0, "ratio")
    return metrics


def print_ranking(tracer: Tracer) -> None:
    totals = tracer.layer_totals()
    base = totals["session.run_session"]["total_s"] or 1.0
    print("layer: self time, as a share of run_session's total time, calls")
    ranked = sorted(totals.items(), key=lambda item: -item[1]["self_s"])
    for layer, entry in ranked:
        print(f"  {layer:26s} {entry['self_s']:9.4f} s {entry['self_s'] / base:7.1%} {entry['calls']:8d} calls")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer pass")
    parser.add_argument("--smoke", action="store_true", help="tiny sessions, for the smoke test")
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        print(f"bench: no cogloop sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK_DIR / args.workload
    work.mkdir(parents=True, exist_ok=True)
    scenario_path = work / "scenario.jsonl"
    trace_path = work / "trace.jsonl"
    ref_scenario_path = work / "reference_scenario.jsonl"
    ref_trace_path = work / "reference_trace.jsonl"
    tracer = Tracer() if args.trace else None
    try:
        # set-ups come in pairs too; the reference engine replays the
        # scenario it synthesized itself, so a change to the engine's file
        # formats cannot break the pairing
        setup_pairs: list[SetupPair] = []
        for repeat in range(SETUP_REPEATS if tracer is None else 1):
            ours_first = repeat % 2 == 0
            if not ours_first:
                ref_setup = set_up(REFERENCE_PACKAGE, args.workload, args.seed, args.smoke, ref_scenario_path)
            setup = set_up(PACKAGE, args.workload, args.seed, args.smoke, scenario_path, tracer)
            if ours_first:
                ref_setup = set_up(REFERENCE_PACKAGE, args.workload, args.seed, args.smoke, ref_scenario_path)
            setup_pairs.append(SetupPair(setup.seconds, ref_setup.seconds, ours_first))
        loop = Loop(Engine(setup.modules, scenario_path, trace_path),
                    Engine(ref_setup.modules, ref_scenario_path, ref_trace_path))
        # a --trace 1 run spends half its time on the untraced loop, which
        # only gives the base for the tracing overhead, and about as long
        # again on the traced iterations
        loop.run_for(args.seconds if tracer is None else args.seconds / 2)
        if tracer is None:
            peak_mb = peak_memory_mb(loop)
            # a failed run still reports its counts, without the figures it lacks
            setup_rel = ratio(setup_pairs, "seconds", "ref_seconds")
            metrics = {"setup_s": (setup_rel * REFERENCE_SETUP_S[args.workload], "s")}
            if loop.pairs:
                metrics["replay_rel"] = (ratio(loop.pairs, "replay_s", "ref_replay_s"), "ratio")
                metrics["audit_rel"] = (ratio(loop.pairs, "audit_s", "ref_audit_s"), "ratio")
            if peak_mb is not None:
                metrics["peak_mem_mb"] = (peak_mb, "MB")
            print(f"set-up wall s: {describe([p.seconds for p in setup_pairs])}")
            print(f"reference set-up wall s: {describe([p.ref_seconds for p in setup_pairs])}")
        else:
            untraced = len(loop.pairs)
            for repeat in range(TRACED_ITERATIONS):
                # the first traced iteration gives the layers; the others,
                # traced the same way, only time the tracing overhead
                iteration_tracer = tracer if repeat == 0 else Tracer()
                iteration_tracer.install(setup.modules)
                try:
                    # one audit, so that the audit layers read as one audit's
                    loop.iterate(audit_repeats=1)
                finally:
                    iteration_tracer.remove()
            # keep the traced iterations out of the untraced loop's figures
            traced = loop.pairs[untraced:]
            del loop.pairs[untraced:]
            overhead = 0.0
            if traced and loop.pairs:
                overhead = (ratio(traced, "replay_s", "ref_replay_s")
                            / ratio(loop.pairs, "replay_s", "ref_replay_s") - 1.0)
            spans_path = work / "spans.tsv"
            tracer.write_spans(spans_path)
            metrics = layer_metrics(tracer)
            metrics["tracing_overhead_share"] = (overhead, "ratio")
            metrics["failed_share"] = (loop.failed / loop.attempted, "ratio")
            print_ranking(tracer)
            print(f"absent layers: {', '.join(tracer.absent_layers()) or 'none'}")
            print(f"{len(tracer.span_layer)} spans written to {spans_path}")
    finally:
        for path in (scenario_path, trace_path, ref_scenario_path, ref_trace_path):
            path.unlink(missing_ok=True)

    print(f"workload={args.workload} seed={args.seed} records={setup.records} session_s={setup.session_s}")
    for name in Pair._fields[:4]:
        print(f"{name}: {describe([getattr(p, name) for p in loop.pairs])}")
    if loop.pairs:
        replay_s = statistics.median(p.replay_s for p in loop.pairs)
        print(f"realtime_factor: {setup.session_s / replay_s:.1f} session s per wall s, at the median replay_s")
    print(f"trace_sha256={loop.digests.trace_sha256}")
    print(f"decisions_sha256={loop.digests.decisions_sha256}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
