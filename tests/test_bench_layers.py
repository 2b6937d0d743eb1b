"""The benchmark's per-layer tracer still finds every layer of the engine.

``bench/tracer.py`` wraps engine names (``StreamMerger.ingest``,
``SampleEnvelope.__init__``, the feature functions in ``session``'s
namespace, ...) to time each layer. A refactor that renames a wrapped
name, or turns a record type into one whose ``__init__`` is not its own,
leaves that layer absent or miscounted. This test installs the tracer
around a small replay, the way ``bench/run.py --trace 1`` does.
"""

import importlib.util
from pathlib import Path

from cogloop import interventions, model, scenario, session, streams

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

PROFILE = {
    "seed": 21,
    "topic": "diffusion",
    "config": {"calibration_duration_s": 20.0, "window_hop_s": 5.0,
               "window_length.rr_interval": 20.0, "window_length.note_score": 20.0},
    "segments": [{"duration_s": 60.0, "channels": {}}],
    "note_interval_s": 10.0,
}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _replay_and_audit(scenario_path, trace_path):
    """What one benchmark iteration does, through the module attributes
    the tracer wraps."""
    result = session.run_session(scenario.load_scenario(scenario_path))
    session.write_trace(result, trace_path)
    header, events = session.read_trace(trace_path)
    assert session.validate_trace(header, events) == []
    session.summarize(header, events)
    return result


def test_tracer_sees_every_layer_once_per_record_without_changing_the_trace(tmp_path):
    scenario_path = tmp_path / "small.jsonl"
    scenario.write_scenario(scenario.synthesize(scenario.parse_profile(PROFILE)), scenario_path)
    records = len(scenario.load_scenario(scenario_path).records)

    untraced = _replay_and_audit(scenario_path, tmp_path / "untraced.trace.jsonl")

    wrapped = (session.run_session, streams.StreamMerger.ingest, model.SampleEnvelope.__init__)
    tracer = _tracer()
    tracer.install({"scenario": scenario, "session": session, "streams": streams,
                    "model": model, "interventions": interventions})
    try:
        traced = _replay_and_audit(scenario_path, tmp_path / "traced.trace.jsonl")
    finally:
        tracer.remove()

    assert tracer.absent_layers() == []
    totals = tracer.layer_totals()
    assert tracer.counters["streams.dropped_late"] == 0
    assert totals["scenario.load"]["calls"] == 1
    assert totals["streams.ingest"]["calls"] == records
    assert totals["model.envelope"]["calls"] == records
    assert totals["gaze.window_features"]["calls"] > 0
    assert totals["state.infer_state"]["calls"] > 0
    assert traced.events == untraced.events
    assert (tmp_path / "traced.trace.jsonl").read_bytes() == (
        tmp_path / "untraced.trace.jsonl"
    ).read_bytes()
    # the wrapped names are restored
    assert (session.run_session, streams.StreamMerger.ingest, model.SampleEnvelope.__init__) == wrapped
