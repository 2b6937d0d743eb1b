import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import urllib.error
import urllib.request
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cogloop
from cogloop import session
from cogloop.behavior import PostureWindows, categorize_posture, score_posture
from cogloop.config import SessionConfig, config_from_dict
from cogloop.errors import ConfigError, MissingLandmarksError, ScenarioError
from cogloop.interventions import CHALLENGE_LOAD_CEILING
from cogloop.model import Dimension, Modality, NoteScoreSample, PostureSample, StreamDescriptor, StreamKind
from cogloop.scenario import Scenario, ScenarioHeader, SyncRecord
from cogloop.session import expected_calibration_windows, resolve_config, run_session
from cogloop import state
from cogloop.state import CHANNEL_POSTURE, ChannelFeature
from cogloop.streams import StreamMerger
from cogloop.synth import load_profile, parse_profile, synthesize
from cogloop import trace
from cogloop.trace import TraceEvent, read_trace, summarize, validate_trace, write_trace

from scenario_lines import parse_scenario_lines

# calibration shortened so the whole session stays around five minutes
STRESS_PROFILE = {
    "seed": 404,
    "topic": "enzyme kinetics",
    "config": {"calibration_duration_s": 120.0},
    "dialogue": [{"role": "learner", "text": "why does the rate plateau?"}],
    "segments": [
        {"duration_s": 120.0, "channels": {}},
        {"duration_s": 120.0, "channels": {
            "rr_jitter_ms": {"kind": "ramp", "target_z": -7.0, "tau_s": 15.0},
            "rr_mean_ms": {"kind": "ramp", "target_z": -3.0, "tau_s": 15.0},
        }},
        {"duration_s": 60.0, "channels": {
            "rr_jitter_ms": {"kind": "ramp", "target_z": 0.0, "tau_s": 30.0},
            "rr_mean_ms": {"kind": "ramp", "target_z": 0.0, "tau_s": 30.0},
        }},
    ],
}


@pytest.fixture(scope="module")
def stress_result():
    return run_session(synthesize(parse_profile(STRESS_PROFILE)))


def _header_lines(streams, config=None, analyzer_replies=None):
    header = {"type": "header", "streams": streams, "seed": 1}
    if config:
        header["config"] = config
    if analyzer_replies:
        header["analyzer_replies"] = analyzer_replies
    return json.dumps(header)


NOTE_AND_HEART = [
    {"stream_id": "notes", "kind": "note_score", "nominal_rate_hz": 0.0167},
    {"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 200},
]


def _summaries(result):
    """The stream_summary payloads by stream id; one each."""
    summaries = [e.payload for e in result.events if e.kind == "stream_summary"]
    by_stream = {payload["stream"]: payload for payload in summaries}
    assert len(by_stream) == len(summaries)
    return by_stream


def _beats(start, end, rr=850.0):
    lines = []
    t = start
    while t <= end:
        lines.append(json.dumps({"type": "sample", "stream": "heart", "t": round(t, 3), "rr_ms": rr}))
        t += rr / 1000.0
    return lines


# ---------------------------------------------------------------------------
# end-to-end on a synthesized scenario

def test_events_are_totally_ordered(stress_result):
    keys = [e.sort_key() for e in stress_result.events]
    assert keys == sorted(keys)
    assert len({e.seq for e in stress_result.events}) == len(stress_result.events)


def test_every_sample_lands_in_the_trace(stress_result):
    scenario = synthesize(parse_profile(STRESS_PROFILE))
    sample_count = sum(1 for r in scenario.records if not isinstance(r, SyncRecord))
    summaries = _summaries(stress_result)
    assert list(summaries) == [d.stream_id for d in scenario.header.streams]
    assert sum(s["accepted"] for s in summaries.values()) == sample_count
    assert all(s["reordered"] == s["dropped_late"] == 0 for s in summaries.values())
    # in order, every sample is accepted and none has an event of its own
    assert not any(e.kind == "ingest" for e in stress_result.events)


def test_sustained_stress_produces_a_physiological_decision(stress_result):
    assert stress_result.decisions
    categories = {d.category.value for d in stress_result.decisions}
    assert "physiological" in categories
    templates = {d.template_id for d in stress_result.decisions}
    assert "box_breathing" in templates


def test_decisions_carry_directives_and_replies(stress_result):
    events = stress_result.events
    decision_ts = [e.t for e in events if e.kind == "decision"]
    assert decision_ts
    for t in decision_ts:
        at_t = {e.kind: e for e in events if e.t == t}
        directive = at_t["directive_sent"]
        assert "client_reply" in at_t
        prompt = directive.payload["prompt"]
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        assert directive.payload["prompt_sha256"] == digest
        assert "enzyme kinetics" in directive.payload["directive"]
        assert "why does the rate plateau?" in prompt  # dialogue history


def test_ticks_cover_the_post_calibration_span(stress_result):
    ticks = [e.t for e in stress_result.events if e.kind == "state_vector"]
    assert ticks[0] == pytest.approx(130.0)  # first hop after calibration
    assert ticks == sorted(ticks)
    steps = {round(b - a, 6) for a, b in zip(ticks, ticks[1:])}
    assert steps == {10.0}


def test_trace_validates_clean(stress_result):
    header = {"type": "header", "config": stress_result.config, "modality": stress_result.header.modality}
    assert validate_trace(header, stress_result.events) == []


def test_summary_matches_a_direct_recount(stress_result):
    header = {"type": "header", "engine": "x", "config": stress_result.config}
    summary = summarize(header, stress_result.events)
    events = stress_result.events
    assert summary["ingest"] == {
        "accepted": sum(e.payload["accepted"] for e in events if e.kind == "stream_summary")
    }
    assert summary["windows"] == sum(1 for e in events if e.kind == "window_features")
    assert summary["ticks"] == sum(1 for e in events if e.kind == "state_vector")
    assert summary["decisions_total"] == len(stress_result.decisions)
    assert sum(summary["decisions_by_category"].values()) == summary["decisions_total"]
    assert sum(summary["decisions_by_dimension"].values()) == summary["decisions_total"]
    hop = stress_result.config.window_hop_s
    for dim, seconds in summary["time_above_threshold_s"].items():
        supra = sum(
            1 for e in events if e.kind == "state_vector"
            and e.payload["dims"][dim]["score"] > stress_result.config.trigger_threshold
        )
        assert seconds == pytest.approx(supra * hop)


# ---------------------------------------------------------------------------
# trace round trip and validation of corrupted traces

def test_trace_file_round_trip(tmp_path, stress_result):
    path = tmp_path / "session.trace.jsonl"
    write_trace(stress_result, path)
    header, events = read_trace(path)
    assert header["engine"] == "cogloop-0.1.0"
    assert header["config"] == stress_result.config
    assert header["modality"] is stress_result.header.modality
    assert len(events) == len(stress_result.events)
    for ours, theirs in zip(stress_result.events, events):
        assert (ours.t, ours.kind, ours.seq) == (theirs.t, theirs.kind, theirs.seq)
        assert json.loads(json.dumps(ours.payload)) == theirs.payload


def test_a_trace_header_without_modality_fails_on_its_line(tmp_path, stress_result):
    # the engine writes the modality as it writes the config
    path = tmp_path / "session.trace.jsonl"
    write_trace(stress_result, path)
    header, *events = path.read_text().splitlines()
    header = json.loads(header)
    del header["modality"]
    path.write_text("\n".join([json.dumps(header), *events]) + "\n")
    with pytest.raises(ScenarioError) as error:
        read_trace(path)
    assert error.value.line_no == 1
    assert str(error.value) == "line 1: trace header needs a modality"


def test_trace_lines_that_are_not_one_object_report_their_line(tmp_path, stress_result):
    path = tmp_path / "session.trace.jsonl"
    write_trace(stress_result, path)
    header, first, *_ = path.read_text().splitlines()
    for bad, message in [
        (first + first, "line 2: invalid trace JSON: Extra data"),
        ("{not json", "line 2: invalid trace JSON: Expecting property name"),
        ("nope", "line 2: invalid trace JSON: Expecting value"),
        ("[1, 2]", "line 2: each trace line must be an object"),
    ]:
        path.write_text(f"{header}\n{bad}\n")
        with pytest.raises(ScenarioError, match=message):
            read_trace(path)


def test_validator_flags_unsorted_events(stress_result):
    header = {"type": "header", "config": stress_result.config, "modality": stress_result.header.modality}
    shuffled = list(reversed(stress_result.events))
    violations = validate_trace(header, shuffled)
    assert any("not sorted" in v for v in violations)


def test_validator_flags_decision_without_candidate(stress_result):
    header = {"type": "header", "config": stress_result.config, "modality": stress_result.header.modality}
    stripped = [e for e in stress_result.events if e.kind != "candidate"]
    violations = validate_trace(header, stripped)
    assert any("no matching candidate" in v for v in violations)


def test_validator_flags_low_confidence_decision(stress_result):
    header = {"type": "header", "config": stress_result.config, "modality": stress_result.header.modality}
    doctored = []
    for event in stress_result.events:
        if event.kind == "decision":
            payload = dict(event.payload, confidence=0.1)
            event = event._replace(payload=payload)
        doctored.append(event)
    violations = validate_trace(header, doctored)
    assert any("confidence" in v for v in violations)


def test_validator_flags_missing_run(stress_result):
    header = {"type": "header", "config": stress_result.config, "modality": stress_result.header.modality}
    first_decision = next(e for e in stress_result.events if e.kind == "decision")
    # erase the qualifying history: drop every state vector before it
    doctored = [
        e for e in stress_result.events
        if not (e.kind == "state_vector" and e.t < first_decision.t)
    ]
    violations = validate_trace(header, doctored)
    assert any("consecutive" in v or "span" in v or "qualifying" in v for v in violations)


def test_validator_flags_cooldown_violation(stress_result):
    header = {"type": "header", "config": stress_result.config, "modality": stress_result.header.modality}
    decision = next(e for e in stress_result.events if e.kind == "decision")
    rushed_t = decision.t + 10.0
    clone = decision._replace(t=rushed_t)
    doctored = sorted(stress_result.events + [clone], key=TraceEvent.sort_key)
    violations = validate_trace(header, doctored)
    assert any("cooldown" in v for v in violations)


def test_validator_checks_cooldowns_with_the_engines_arithmetic():
    # at hop 0.6 stress_ramp fires comprehension decisions at 460.8 and
    # 520.8; the engine allows the second (460.8 + 60 == 520.8), though
    # 520.8 - 460.8 is 59.99999999999994
    header = {"config": SessionConfig(), "modality": Modality.TEXT}  # comprehension cooldown 60 s

    def decision(t, seq):
        payload = {"dimension": "understanding", "category": "comprehension_oriented",
                   "confidence": 1.0, "composite": False}
        return TraceEvent(t, "decision", seq, payload)

    def cooldown_violations(events):
        return [v for v in validate_trace(header, events) if "cooldown" in v]

    assert cooldown_violations([decision(460.8, 0), decision(520.8, 1)]) == []
    assert len(cooldown_violations([decision(460.8, 0), decision(520.7, 1)])) == 1


def _under_challenged_trace(load_signed_score, dimension="engagement", **decision):
    """Three state vectors 10 s apart, with load at ``load_signed_score``
    and engagement above baseline in each, then a composite decision on
    ``dimension`` and its candidate at the last, with the fields the
    engine writes for a moderate composite reading."""
    dims = {dim.value: {"observed": True, "score": 0.0, "signed_score": 0.0, "confidence": 1.0, "supra_channels": 0}
            for dim in Dimension}
    dims[Dimension.COGNITIVE_LOAD.value]["signed_score"] = load_signed_score
    dims[Dimension.ENGAGEMENT.value]["signed_score"] = 0.5
    events = [TraceEvent(t, "state_vector", seq, {"dims": dims}) for seq, t in enumerate((10.0, 20.0, 30.0))]
    events.append(TraceEvent(30.0, "candidate", 3, {
        "dimension": dimension, "score": abs(load_signed_score), "confidence": 1.0, "severity": "moderate",
        "supra_channels": 0, "composite": True, "repeat_ordinal": 1,
    }))
    events.append(TraceEvent(30.0, "decision", 4, {
        "dimension": dimension, "category": "challenge_enhancement", "triggering_score": abs(load_signed_score),
        "confidence": 1.0, "composite": True, "severity": "moderate", "tier": "micro", "framing": "implicit",
        "modality": "text", "template_id": "advanced_application", **decision,
    }))
    return events


def test_validator_checks_the_composite_with_the_engines_load_ceiling():
    header = {"config": SessionConfig(), "modality": Modality.TEXT}

    def violations(load_signed_score):
        return validate_trace(header, _under_challenged_trace(load_signed_score))

    assert violations(CHALLENGE_LOAD_CEILING) == []
    assert violations(math.nextafter(CHALLENGE_LOAD_CEILING, 0.0)) == [
        "candidate t=30.0 engagement: no qualifying state vector at candidate time",
        "decision t=30.0 engagement: no qualifying state vector at decision time",
    ]


def test_validator_flags_a_route_the_engine_does_not_have():
    # load and engagement read as under-challenged, but the composite
    # acts on engagement only
    events = _under_challenged_trace(-1.2, dimension="stress")
    assert validate_trace({"config": SessionConfig(), "modality": Modality.TEXT}, events) == [
        "candidate t=30.0 stress: no trigger route for dimension stress with composite True",
        "decision t=30.0 stress: no trigger route for dimension stress with composite True",
    ]


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("triggering_score", 1.0, "triggering_score 1.0 is not the reading's 1.2"),
        ("confidence", 0.9, "confidence 0.9 is not the reading's 1.0"),
    ],
)
def test_validator_flags_a_decision_that_is_not_its_reading(field, value, message):
    events = _under_challenged_trace(-1.2, **{field: value})
    header = {"config": SessionConfig(), "modality": Modality.TEXT}
    assert validate_trace(header, events) == [f"decision t=30.0 engagement: {message}"]


def test_validator_pairs_a_decision_with_the_candidate_of_its_route():
    # engagement reads active on its plain route (score 2.0) and on the
    # composite one (load signed -1.2) at every tick; the engine's
    # composite candidate supersedes the plain one, so a composite
    # decision can only stand beside the composite candidate
    *states, composite, decision = _under_challenged_trace(-1.2)
    engagement = states[0].payload["dims"][Dimension.ENGAGEMENT.value]  # one dims object for every tick
    engagement.update(score=2.0, signed_score=2.0)
    plain = TraceEvent(30.0, "candidate", 3, {
        "dimension": "engagement", "score": 2.0, "confidence": 1.0, "severity": "pronounced",
        "supra_channels": 0, "composite": False, "repeat_ordinal": 1,
    })
    header = {"config": SessionConfig(), "modality": Modality.TEXT}
    assert validate_trace(header, [*states, composite, decision]) == []
    assert validate_trace(header, [*states, plain, decision]) == [
        "decision t=30.0 engagement: no matching candidate event",
    ]
    assert validate_trace(header, [*states, plain, composite._replace(seq=4), decision._replace(seq=5)]) == [
        "candidate t=30.0 engagement: both a plain and a composite candidate at one tick, "
        "where the composite supersedes the plain one",
    ]


def _bundled_stress_ramp(**profile):
    data = json.loads(resources.files("cogloop").joinpath("profiles", "stress_ramp.json").read_text(encoding="utf-8"))
    return synthesize(parse_profile({**data, **profile}))


def test_validator_flags_a_decision_whose_strategy_is_not_the_engines():
    result = run_session(_bundled_stress_ramp())
    header = {"config": result.config, "modality": result.header.modality}
    assert validate_trace(header, result.events) == []
    # the first decision: stress, pronounced, box_breathing at meso, explicit
    first = next(e for e in result.events if e.kind == "decision")
    edits = {"severity": "moderate", "template_id": "nonsense", "tier": "macro", "framing": "implicit"}
    doctored = [e._replace(payload={**e.payload, **edits}) if e is first else e for e in result.events]
    assert validate_trace(header, doctored) == [
        "decision t=350.0 stress: severity moderate is not the engine's pronounced",
        "decision t=350.0 stress: tier macro is not the engine's meso",
        "decision t=350.0 stress: framing implicit is not the engine's explicit",
        "decision t=350.0 stress: template_id nonsense is not the engine's box_breathing",
    ]


def test_validator_reads_the_strategy_table_of_the_config_at_the_headers_modality(tmp_path):
    result = run_session(
        _bundled_stress_ramp(modality="audio"), overrides={"strategy.stress.pronounced.audio": "reassurance"}
    )
    decisions = [e for e in result.events if e.kind == "decision"]
    stress = [e for e in decisions if e.payload["dimension"] == "stress"]
    assert stress and {e.payload["template_id"] for e in stress} == {"reassurance"}
    path = tmp_path / "audio.trace.jsonl"
    write_trace(result, path)
    header, events = read_trace(path)
    assert validate_trace(header, events) == []

    def flagged(header):
        return Counter(v.split(": ", 1)[1].split(" ")[0] for v in validate_trace(header, result.events))

    # the default table, or the override's table at another modality
    assert flagged({"config": result.config._replace(strategy_overrides={}), "modality": Modality.AUDIO}) == {
        "template_id": len(stress)
    }
    assert flagged({"config": result.config, "modality": Modality.TEXT}) == {
        "template_id": len(stress), "modality": len(decisions)
    }


def test_validator_judges_candidates_with_the_engines_route_rule():
    result = run_session(_bundled_stress_ramp())
    header = {"config": result.config, "modality": result.header.modality}
    candidates = [e for e in result.events if e.kind == "candidate"]
    # the first candidate at 350 s is cognitive load; fatigue reads
    # inactive there (score 1.39, under the 1.5 threshold)
    first, second = candidates[:2]
    assert (first.t, first.payload["dimension"]) == (350.0, "cognitive_load")
    doctored = [e._replace(payload={**e.payload, "dimension": "fatigue", "score": 9.0}) if e is first else e
                for e in result.events]
    assert validate_trace(header, doctored) == ["candidate t=350.0 fatigue: no qualifying state vector at candidate time"]
    # the second: stress, the reading 5.11 at confidence 1.0 over 3 channels
    edits = {"score": 2.0, "confidence": 0.7, "supra_channels": 9, "severity": "moderate"}
    doctored = [e._replace(payload={**e.payload, **edits}) if e is second else e for e in result.events]
    assert validate_trace(header, doctored) == [
        f"candidate t=350.0 stress: score 2.0 is not the reading's {second.payload['score']}",
        "candidate t=350.0 stress: confidence 0.7 is not the reading's 1.0",
        "candidate t=350.0 stress: supra_channels 9 is not the reading's 3",
        "candidate t=350.0 stress: severity moderate is not the engine's pronounced",
    ]


def test_validator_applies_the_trigger_gates_to_candidates():
    result = run_session(_bundled_stress_ramp())
    header = {"config": result.config, "modality": result.header.modality}
    # a stress candidate with the reading of the tick where stress first
    # reads active: a run of one state vector, spanning no time
    cfg = result.config
    states = [e for e in result.events if e.kind == "state_vector"]
    onset = next(e for e in states if trace._traced_reading((Dimension.STRESS, False), e, cfg) is not None)
    score, confidence, supra_channels = trace._traced_reading((Dimension.STRESS, False), onset, cfg)
    forged = TraceEvent(onset.t, "candidate", onset.seq, {
        "dimension": "stress", "score": score, "confidence": confidence, "severity": "pronounced",
        "supra_channels": supra_channels, "composite": False, "repeat_ordinal": 1,
    })
    assert validate_trace(header, sorted(result.events + [forged], key=TraceEvent.sort_key)) == [
        f"candidate t={onset.t} stress: only 1 consecutive qualifying windows, need 3",
        f"candidate t={onset.t} stress: qualifying span 0.0s is shorter than persistence 10.0s",
    ]


def test_one_audit_decodes_the_trace_config_once(tmp_path, stress_result, monkeypatch):
    path = tmp_path / "session.trace.jsonl"
    write_trace(stress_result, path)
    calls = []

    def counted(data):
        calls.append(data)
        return config_from_dict(data)

    monkeypatch.setattr(trace, "config_from_dict", counted)
    header, events = read_trace(path)
    assert validate_trace(header, events) == []
    summarize(header, events)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# analyzer reply handling

def test_malformed_analyzer_reply_becomes_warning_and_skip():
    lines = [
        _header_lines(
            NOTE_AND_HEART,
            config={"calibration_duration_s": 120.0},
            analyzer_replies=["total gibberish", "score=1.4; feedback=over-eager"],
        ),
        json.dumps({"type": "sample", "stream": "notes", "t": 30.0, "transcript": "osmosis is diffusion of water"}),
        json.dumps({"type": "sample", "stream": "notes", "t": 90.0, "transcript": "the membrane is selective"}),
    ] + _beats(0.0, 130.0)
    scenario = parse_scenario_lines(lines)
    result = run_session(scenario)
    warnings = {e.payload["reason"]: e for e in result.events if e.kind == "warning"}
    assert "malformed_note_reply" in warnings
    assert warnings["malformed_note_reply"].t == 30.0
    assert "note_score_clamped" in warnings
    # the malformed note never ingested, the clamped one did
    notes = _summaries(result)["notes"]
    assert notes["accepted"] == 1
    assert notes["first_t"] == notes["last_t"] == 90.0


def test_transcript_warning_is_stamped_at_its_session_time():
    # the notes clock runs 100 s behind the session: the transcript the
    # producer stamped 30 s was written at session time 130 s
    lines = [
        _header_lines(NOTE_AND_HEART, config={"calibration_duration_s": 120.0}, analyzer_replies=["gibberish"]),
        json.dumps({"type": "sync", "stream": "notes", "marks": [[0.0, 100.0], [10.0, 110.0]]}),
        json.dumps({"type": "sample", "stream": "notes", "t": 30.0, "transcript": "osmosis is diffusion of water"}),
    ] + _beats(0.0, 140.0)
    result = run_session(parse_scenario_lines(lines))
    warnings = [(e.t, e.payload["reason"]) for e in result.events if e.kind == "warning"]
    assert (130.0, "malformed_note_reply") in warnings
    assert validate_trace({"config": result.config, "modality": result.header.modality}, result.events) == []


def test_a_transcript_dropped_as_late_is_not_analyzed():
    # the transcript stamped 9.0 s comes after the beat at 12.0 s, past
    # the watermark: dropped without using up the first scripted reply
    config = {"calibration_duration_s": 20.0, "window_hop_s": 5.0, "window_length.note_score": 10.0}
    lines = [_header_lines(NOTE_AND_HEART, config=config,
                           analyzer_replies=["score=0.1; feedback=shaky", "score=0.9; feedback=solid"])]
    for beat in _beats(0.0, 45.0, rr=800.0):
        lines.append(beat)
        t = json.loads(beat)["t"]
        if t == 12.0:
            lines.append(json.dumps({"type": "sample", "stream": "notes", "t": 9.0, "transcript": "late"}))
        elif t == 30.4:
            lines.append(json.dumps({"type": "sample", "stream": "notes", "t": 30.4, "transcript": "on time"}))
    result = run_session(parse_scenario_lines(lines))
    notes = _summaries(result)["notes"]
    assert (notes["accepted"], notes["dropped_late"], notes["first_t"]) == (1, 1, 30.4)
    assert _ingest_runs(result.events) == [(9.0, "notes", "dropped_late", 1, 9.0)]
    errors = {e.t: e.payload["values"].get(state.CHANNEL_NOTE_ERROR) for e in result.events
              if e.kind == "window_features" and e.payload["stream_kind"] == "note_score"}
    assert (errors[35.0], errors[40.0]) == (pytest.approx(0.9), pytest.approx(0.9))
    assert validate_trace({"config": result.config, "modality": result.header.modality}, result.events) == []


def test_validator_flags_events_outside_the_session_span(stress_result):
    header = {"config": stress_result.config, "modality": stress_result.header.modality}
    stray = TraceEvent(1e9, "warning", len(stress_result.events), {"reason": "hand_edited"})
    assert validate_trace(header, [*stress_result.events, stray]) == [
        f"warning event at t=1000000000.0: outside the session span [0, {session.MAX_SESSION_S}]"
    ]


def test_failing_live_client_degrades_to_warnings(monkeypatch):
    def unreachable(request, timeout):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr(urllib.request, "urlopen", unreachable)
    monkeypatch.setenv("COGLOOP_GENERATION_URL", "http://localhost:9/generate")
    scenario = synthesize(parse_profile(STRESS_PROFILE))
    first_note = next(i for i, r in enumerate(scenario.records) if getattr(r, "stream_id", None) == "notes")
    scenario.records[first_note] = scenario.records[first_note]._replace(
        payload=None, transcript="osmosis is diffusion of water"
    )
    result = run_session(scenario, overrides={"client": "live"})
    assert result.decisions
    failures = [
        (e.t, e.payload["reason"]) for e in result.events
        if e.kind == "warning" and e.payload["reason"].endswith("_failed")
    ]
    assert failures == [
        (scenario.records[first_note].t, "analysis_failed"),
        *((d.t, "generation_failed") for d in result.decisions),
    ]
    assert not any(e.kind == "client_reply" for e in result.events)
    header = {"config": result.config, "modality": result.header.modality}
    assert validate_trace(header, result.events) == []


def test_underfilled_channel_warns_as_uncalibrated():
    lines = [
        _header_lines(NOTE_AND_HEART, config={"calibration_duration_s": 120.0}),
        json.dumps({"type": "sample", "stream": "notes", "t": 30.0, "correctness": 0.85}),
    ] + _beats(0.0, 130.0)
    result = run_session(parse_scenario_lines(lines))
    warnings = [e for e in result.events if e.kind == "warning"]
    assert len(warnings) == 1
    warning = warnings[0]
    assert warning.payload["reason"] == "uncalibrated_channel"
    assert warning.payload["channel"] == "note_error"
    assert warning.t == 120.0
    assert "note_error" not in result.baseline.channels
    assert "rmssd_ms" in result.baseline.channels


# ---------------------------------------------------------------------------
# sync marks and realtime pacing

def test_sync_marks_shift_later_ingests():
    lines = [
        _header_lines(NOTE_AND_HEART),
        json.dumps({"type": "sync", "stream": "heart", "marks": [[0.0, 2.0], [10.0, 12.0]]}),
        json.dumps({"type": "sample", "stream": "heart", "t": 10.0, "rr_ms": 800}),
    ]
    result = run_session(parse_scenario_lines(lines))
    sync_events = [e for e in result.events if e.kind == "sync"]
    assert len(sync_events) == 1
    assert sync_events[0].payload["offset_s"] == pytest.approx(2.0)
    assert sync_events[0].t == pytest.approx(12.0)
    # producer 10s + 2s offset
    assert _summaries(result)["heart"]["last_t"] == pytest.approx(12.0)


def test_sync_offset_is_applied_once_on_the_merged_timeline():
    # 2 s rr windows: the beat stamped 10 s by its producer must land in
    # [12, 14), the window its summary's first_t names, not two seconds later
    lines = [
        _header_lines(NOTE_AND_HEART, config={"window_hop_s": 2.0, "window_length.rr_interval": 2.0}),
        json.dumps({"type": "sync", "stream": "heart", "marks": [[0.0, 2.0], [10.0, 12.0]]}),
        json.dumps({"type": "sample", "stream": "heart", "t": 10.0, "rr_ms": 800}),
        json.dumps({"type": "sample", "stream": "heart", "t": 20.0, "rr_ms": 800}),
    ]
    result = run_session(parse_scenario_lines(lines))
    heart = _summaries(result)["heart"]
    assert (heart["accepted"], heart["first_t"], heart["last_t"]) == (2, 12.0, 22.0)
    occupied = [
        e.payload["start"] for e in result.events
        if e.kind == "window_features"
        and e.payload["stream_kind"] == "rr_interval"
        and e.payload["valid_intervals"]
    ]
    assert occupied == [12.0]


def test_negative_session_time_is_skipped_with_a_warning():
    lines = [
        _header_lines(NOTE_AND_HEART),
        json.dumps({"type": "sync", "stream": "heart", "marks": [[10.0, 0.0], [20.0, 10.0]]}),
        json.dumps({"type": "sample", "stream": "heart", "t": 1.0, "rr_ms": 800}),
        json.dumps({"type": "sample", "stream": "heart", "t": 15.0, "rr_ms": 800}),
    ]
    result = run_session(parse_scenario_lines(lines))
    warnings = [e for e in result.events if e.kind == "warning"]
    assert [(w.payload["reason"], w.payload["stream"]) for w in warnings] == [
        ("session_time_out_of_range", "heart")
    ]
    heart = _summaries(result)["heart"]
    assert (heart["accepted"], heart["first_t"]) == (1, 5.0)
    header = {"config": result.config, "modality": result.header.modality}
    assert validate_trace(header, result.events) == []
    assert summarize(header, result.events)["warnings"] == {"session_time_out_of_range": 1}


def _replay_in_a_subprocess(tmp_path, lines, *flags):
    """``cogloop run`` on the lines, in a child process given 60 s: a
    replay walking every hop to a session time of 1e9 runs for hours."""
    scenario, trace = tmp_path / "scenario.jsonl", tmp_path / "trace.jsonl"
    scenario.write_text("\n".join(lines) + "\n")
    src = str(Path(cogloop.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-m", "cogloop.cli", "run", "--scenario", str(scenario), "--trace", str(trace), *flags],
        env={**os.environ, "PYTHONPATH": src}, check=True, capture_output=True, timeout=60,
    )
    return read_trace(trace)


def _beats_at(*times):
    return [json.dumps({"type": "sample", "stream": "heart", "t": t, "rr_ms": 800}) for t in times]


def test_sample_past_the_session_span_is_skipped_without_replaying_or_pacing_the_gap(tmp_path):
    # --realtime sleeps 0.1 s between the first beats, and never for the gap
    lines = [_header_lines(NOTE_AND_HEART), *_beats_at(0.0, 0.05, 0.1, 1e9)]
    header, events = _replay_in_a_subprocess(tmp_path, lines, "--realtime")
    warnings = [(e.t, e.payload["reason"]) for e in events if e.kind == "warning"]
    # stamped at the session span's end, not at the producer time 1e9
    assert warnings == [(session.MAX_SESSION_S, "session_time_out_of_range")]
    assert str(session.MAX_SESSION_S) in next(e for e in events if e.kind == "warning").payload["detail"]
    heart = next(e.payload for e in events if e.kind == "stream_summary" and e.payload["stream"] == "heart")
    assert (heart["accepted"], heart["first_t"], heart["last_t"]) == (3, 0.0, 0.1)
    assert validate_trace(header, events) == []


def test_sync_offset_past_the_session_span_skips_later_samples(tmp_path):
    sync = json.dumps({"type": "sync", "stream": "heart", "marks": [[0.0, 1e9], [10.0, 1e9 + 10.0]]})
    lines = [_header_lines(NOTE_AND_HEART), *_beats_at(0.0, 0.8), sync, *_beats_at(1.6, 2.4)]
    header, events = _replay_in_a_subprocess(tmp_path, lines)
    warnings = [(e.t, e.payload["reason"]) for e in events if e.kind == "warning"]
    # stamped at their session times 1e9 + 1.6 and 1e9 + 2.4, clamped to the span
    assert warnings == [(session.MAX_SESSION_S, "session_time_out_of_range")] * 2
    assert [e.t for e in events if e.kind == "sync"] == [session.MAX_SESSION_S]
    heart = next(e.payload for e in events if e.kind == "stream_summary" and e.payload["stream"] == "heart")
    assert (heart["accepted"], heart["first_t"], heart["last_t"]) == (2, 0.0, 0.8)
    assert validate_trace(header, events) == []


def test_realtime_pacing_follows_session_time_and_never_goes_back():
    # the heart's producer clock runs 100 s ahead; a note arrives late
    lines = [
        _header_lines(NOTE_AND_HEART),
        json.dumps({"type": "sync", "stream": "heart", "marks": [[100.0, 0.0], [101.0, 1.0]]}),
        *_beats_at(100.0, 100.8),
        json.dumps({"type": "sample", "stream": "notes", "t": 0.5, "correctness": 0.8}),
        *_beats_at(101.6),
    ]
    naps = []
    run_session(parse_scenario_lines(lines), realtime=True, _sleep=naps.append)
    assert naps == [pytest.approx(0.8), pytest.approx(0.8)]


def test_gaze_sample_whose_session_time_does_not_advance_is_skipped_with_a_warning():
    # gaze at t = 0..20, a sync that moves the clock back 1 s, then
    # t = 21..59: producer t = 21 lands on session time 20 a second time
    def gaze(t):
        return json.dumps({"type": "sample", "stream": "gaze", "t": t, "x": 0.5, "y": 0.5,
                           "pupil_mm": 3.0, "confidence": 0.98})

    header = _header_lines(
        [{"stream_id": "gaze", "kind": "pupil_gaze", "nominal_rate_hz": 1}],
        config={"calibration_duration_s": 10.0, "window_hop_s": 10.0,
                "window_length.pupil_gaze": 10.0},
    )
    sync = json.dumps({"type": "sync", "stream": "gaze", "marks": [[10, 9], [20, 19]]})
    lines = [header, *map(gaze, range(21)), sync, *map(gaze, range(21, 60))]
    result = run_session(parse_scenario_lines(lines))
    skipped = [
        (e.t, e.payload["stream"]) for e in result.events
        if e.kind == "warning" and e.payload["reason"] == "session_time_not_increasing"
    ]
    assert skipped == [(20.0, "gaze")]
    gaze_summary = _summaries(result)["gaze"]
    assert gaze_summary["accepted"] == 59
    assert (gaze_summary["first_t"], gaze_summary["last_t"]) == (0.0, 58.0)
    assert [e.t for e in result.events if e.kind == "state_vector"] == [20.0, 30.0, 40.0, 50.0]
    header = {"config": result.config, "modality": result.header.modality}
    assert validate_trace(header, result.events) == []


def test_gaze_sample_under_a_nanosecond_after_its_predecessor_is_skipped_with_a_warning():
    # a sync maps producer t = 21 to 1e-12 s after the sample at session
    # time 20: a time step the parser refuses in producer times
    def gaze(t):
        return json.dumps({"type": "sample", "stream": "gaze", "t": t, "x": t % 2, "y": 0.5, "pupil_mm": 3.0})

    header = _header_lines(
        [{"stream_id": "gaze", "kind": "pupil_gaze", "nominal_rate_hz": 1}],
        config={"calibration_duration_s": 10.0, "window_hop_s": 10.0, "window_length.pupil_gaze": 10.0},
    )
    sync = json.dumps({"type": "sync", "stream": "gaze", "marks": [[21, 20 + 1e-12], [31, 30 + 1e-12]]})
    result = run_session(parse_scenario_lines([header, *map(gaze, range(21)), sync, *map(gaze, range(21, 60))]))
    skipped = [
        e.payload["detail"] for e in result.events
        if e.kind == "warning" and e.payload["reason"] == "session_time_not_increasing"
    ]
    assert len(skipped) == 1 and "less than 1e-09 s after the previous gaze sample at 20.0" in skipped[0]
    assert _summaries(result)["gaze"]["accepted"] == 59


def test_realtime_mode_paces_by_record_gaps():
    lines = [
        _header_lines(NOTE_AND_HEART),
        json.dumps({"type": "sample", "stream": "heart", "t": 0.0, "rr_ms": 800}),
        json.dumps({"type": "sample", "stream": "heart", "t": 0.8, "rr_ms": 800}),
        json.dumps({"type": "sample", "stream": "heart", "t": 1.6, "rr_ms": 800}),
    ]
    naps = []
    run_session(parse_scenario_lines(lines), realtime=True, _sleep=naps.append)
    assert naps == [pytest.approx(0.8), pytest.approx(0.8)]


# ---------------------------------------------------------------------------
# stream summaries: accepted samples are counted, the rest traced

# (stream, producer t) in arrival order; default 0.25 s jitter tolerance.
# Notes at 1.9 and 5.8 arrive behind a heart beat but inside the
# tolerance (reordered); notes at 2.9 and 3.0 arrive after the heart beat
# at 4.0 set the watermark to 3.75 (dropped).
ARRIVALS = [
    ("heart", 0.0), ("heart", 1.0), ("heart", 2.0), ("notes", 1.9), ("heart", 3.0), ("heart", 4.0),
    ("notes", 2.9), ("notes", 3.0), ("heart", 5.0), ("heart", 6.0), ("notes", 5.8),
]


def _arrival_lines(arrivals):
    samples = {
        "heart": lambda t: {"type": "sample", "stream": "heart", "t": t, "rr_ms": 800},
        "notes": lambda t: {"type": "sample", "stream": "notes", "t": t, "correctness": 0.8},
    }
    return [_header_lines(NOTE_AND_HEART, config={"jitter_tolerance_s": 0.25})] + [
        json.dumps(samples[stream](t)) for stream, t in arrivals
    ]


def _ingest_runs(events):
    return [
        (e.t, e.payload["stream"], e.payload["outcome"], e.payload["count"], e.payload["last_t"])
        for e in events if e.kind == "ingest"
    ]


def test_only_reordered_and_dropped_samples_get_ingest_events():
    result = run_session(parse_scenario_lines(_arrival_lines(ARRIVALS)))
    # the notes at 2.9 and 3.0 s are dropped one after the other: one run
    assert _ingest_runs(result.events) == [
        (1.9, "notes", "reordered", 1, 1.9),
        (2.9, "notes", "dropped_late", 2, 3.0),
        (5.8, "notes", "reordered", 1, 5.8),
    ]

    merger = StreamMerger(jitter_tolerance_s=0.25)
    for payload in NOTE_AND_HEART:
        merger.register_stream(StreamDescriptor(payload["stream_id"], StreamKind(payload["kind"]), 1.0))
    make = {"heart": lambda: 800.0, "notes": lambda: NoteScoreSample(correctness=0.8)}
    for stream, t in ARRIVALS:
        merger.ingest(merger.registrations[stream], t, make[stream]())
    merger.flush()
    summaries = _summaries(result)
    assert list(summaries) == ["notes", "heart"]  # header order
    for stream, registration in merger.registrations.items():
        summary = summaries[stream]
        assert (summary["accepted"], summary["reordered"], summary["dropped_late"]) == (
            registration.accepted, registration.reordered, registration.dropped
        )
    assert (summaries["heart"]["accepted"], summaries["heart"]["first_t"], summaries["heart"]["last_t"]) == (
        7, 0.0, 6.0
    )
    assert (summaries["notes"]["accepted"], summaries["notes"]["first_t"], summaries["notes"]["last_t"]) == (
        0, 1.9, 5.8
    )
    assert {e.t for e in result.events if e.kind == "stream_summary"} == {6.0}  # the final watermark

    header = {"config": result.config, "modality": result.header.modality}
    assert validate_trace(header, result.events) == []
    assert summarize(header, result.events)["ingest"] == {"accepted": 7, "dropped_late": 2, "reordered": 2}


def test_stream_without_samples_has_an_empty_summary():
    result = run_session(parse_scenario_lines(_arrival_lines([("heart", 0.0), ("heart", 1.0)])))
    assert _summaries(result)["notes"] == {
        "stream": "notes", "accepted": 0, "reordered": 0, "dropped_late": 0, "first_t": None, "last_t": None,
    }


def test_validator_flags_stream_summaries_that_disagree_with_the_trace():
    result = run_session(parse_scenario_lines(_arrival_lines(ARRIVALS)))
    header = {"config": result.config, "modality": result.header.modality}
    events = result.events
    notes_summary = next(e for e in events if e.kind == "stream_summary" and e.payload["stream"] == "notes")

    def with_notes_summary(**changes):
        doctored = notes_summary._replace(payload=dict(notes_summary.payload, **changes))
        return [doctored if e is notes_summary else e for e in events]

    assert validate_trace(header, with_notes_summary(reordered=1)) == [
        "stream 'notes': stream_summary counts 1 reordered, its reordered ingest runs count 2"
    ]
    assert validate_trace(header, with_notes_summary(dropped_late=0)) == [
        "stream 'notes': stream_summary counts 0 dropped_late, its dropped_late ingest runs count 2"
    ]
    dropped_run = next(e for e in events if e.kind == "ingest" and e.payload["outcome"] == "dropped_late")
    doctored_run = dropped_run._replace(payload=dict(dropped_run.payload, count=3))
    assert validate_trace(header, [doctored_run if e is dropped_run else e for e in events]) == [
        "stream 'notes': stream_summary counts 2 dropped_late, its dropped_late ingest runs count 3"
    ]
    missing = [e for e in events if e is not notes_summary]
    assert validate_trace(header, missing) == ["stream 'notes': ingest events but no stream_summary"]
    twice = sorted(events + [notes_summary._replace(seq=len(events))], key=TraceEvent.sort_key)
    assert validate_trace(header, twice) == ["stream 'notes': more than one stream_summary"]


STEADY_GAZE_PROFILE = {
    "seed": 31,
    "topic": "orbital mechanics",
    "config": {"calibration_duration_s": 20.0, "window_hop_s": 5.0,
               "window_length.rr_interval": 20.0, "window_length.note_score": 20.0},
    "segments": [{"duration_s": 60.0, "channels": {}}],
    "note_interval_s": 10.0,
    # steady gaze, so both rates give the same gaze features
    "noise": {"gaze_xy": 0.0, "blink": 0.0, "pupil_mm": 0.0},
}


def test_trace_grows_with_windows_and_ticks_not_with_records():
    def replay(rate_hz):
        scenario = synthesize(parse_profile(dict(STEADY_GAZE_PROFILE, gaze_rate_hz=rate_hz)))
        kinds = [e.kind for e in run_session(scenario).events if e.kind != "stream_summary"]
        return len(scenario.records), kinds

    records_30, kinds_30 = replay(30.0)
    records_60, kinds_60 = replay(60.0)
    assert records_60 - records_30 >= 29 * 60  # the extra gaze samples
    assert kinds_60 == kinds_30
    assert "ingest" not in kinds_60


def test_trace_grows_with_stalls_not_with_their_length():
    # gaze every 0.1 s and a beat every 0.5 s; the gaze samples from 10 s
    # to the end of the stall arrive 1 s after it, behind the beats
    def replay(stall_s):
        stall_end = 10.0 + stall_s
        records = []
        for i in range(300):
            t = i / 10
            arrival = stall_end + 1.0 if 10.0 <= t < stall_end + 1.0 else t
            records.append((arrival, t, json.dumps(
                {"type": "sample", "stream": "gaze", "t": t, "x": 0.5, "y": 0.5, "pupil_mm": 3.0}
            )))
        for i in range(60):
            t = i / 2
            records.append((t, t, json.dumps({"type": "sample", "stream": "heart", "t": t, "rr_ms": 500})))
        records.sort(key=lambda record: record[:2])
        streams = [
            {"stream_id": "gaze", "kind": "pupil_gaze", "nominal_rate_hz": 10.0},
            {"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 2.0},
        ]
        lines = [_header_lines(streams, config={"jitter_tolerance_s": 0.25})] + [line for _, _, line in records]
        result = run_session(parse_scenario_lines(lines))
        assert validate_trace({"config": result.config, "modality": result.header.modality}, result.events) == []
        return _ingest_runs(result.events)

    short, long = replay(2.0), replay(8.0)
    assert len(short) == len(long) == 2
    # dropped: 10 s up to the watermark, 0.25 s behind the beat at 0.5 s
    # after the stall; reordered: the two gaze samples after the watermark
    assert [run[2:4] for run in short] == [("dropped_late", 23), ("reordered", 2)]
    assert [run[2:4] for run in long] == [("dropped_late", 83), ("reordered", 2)]


_LATE_RUN_STREAMS = {
    "heart": ({"kind": "rr_interval", "nominal_rate_hz": 1.0}, {"rr_ms": 800}),
    "notes": ({"kind": "note_score", "nominal_rate_hz": 0.1}, {"correctness": 0.8}),
    "cam": (
        {"kind": "posture_landmarks", "nominal_rate_hz": 5.0},
        {"landmarks": {"shoulder_left": [0.4, 0.5], "shoulder_right": [0.6, 0.5]}},
    ),
}


@st.composite
def _late_arrivals(draw):
    """(stream ids, sample lines in arrival order) for two or three
    streams. Times are in tenths of a second; each sample is delayed by
    0-0.2 s, inside the 0.25 s jitter tolerance, or by 0.3-1.5 s,
    outside it, and never overtakes an earlier sample of its stream."""
    streams = draw(st.lists(st.sampled_from(sorted(_LATE_RUN_STREAMS)), min_size=2, max_size=3, unique=True))
    keyed = []
    for stream in streams:
        t = arrival = 0
        # breaks ties with other streams' samples of the same arrival
        rank = draw(st.integers(min_value=0, max_value=3))
        for index in range(draw(st.integers(min_value=1, max_value=12))):
            t += draw(st.integers(min_value=0, max_value=8))
            delay = draw(st.one_of(st.integers(min_value=0, max_value=2), st.integers(min_value=3, max_value=15)))
            arrival = max(arrival, t + delay)
            line = json.dumps({"type": "sample", "stream": stream, "t": t / 10, **_LATE_RUN_STREAMS[stream][1]})
            keyed.append((arrival, rank, stream, index, line))
    keyed.sort(key=lambda entry: entry[:4])
    return streams, [line for *_, line in keyed]


@settings(max_examples=150, deadline=None)
@given(arrivals=_late_arrivals())
def test_ingest_events_run_length_encode_the_mergers_outcomes(arrivals):
    streams, lines = arrivals
    descriptors = [{"stream_id": stream, **_LATE_RUN_STREAMS[stream][0]} for stream in streams]
    scenario = parse_scenario_lines([_header_lines(descriptors, config={"jitter_tolerance_s": 0.25})] + lines)

    # the oracle: a bare merger's per-sample outcomes, run-length encoded
    # per stream; a run opens at its first sample
    merger = StreamMerger(jitter_tolerance_s=0.25)
    open_runs, runs = {}, []
    for descriptor in scenario.header.streams:
        merger.register_stream(descriptor)
    for record in scenario.records:
        outcome = merger.ingest(merger.registrations[record.stream_id], record.t, record.payload).value
        run = open_runs.get(record.stream_id)
        if outcome == "accepted":
            open_runs.pop(record.stream_id, None)
        elif run is not None and run["outcome"] == outcome:
            run["count"] += 1
            run["last_t"] = record.t
        else:
            open_runs[record.stream_id] = run = {
                "t": record.t, "stream": record.stream_id, "outcome": outcome, "count": 1, "last_t": record.t,
            }
            runs.append(run)
    expected = [
        (run["t"], run["stream"], run["outcome"], run["count"], run["last_t"])
        for run in sorted(runs, key=lambda run: run["t"])  # stable: opening order within one time
    ]

    result = run_session(scenario)
    assert _ingest_runs(result.events) == expected
    assert validate_trace({"config": result.config, "modality": result.header.modality}, result.events) == []


# ---------------------------------------------------------------------------
# hand-edited traces fail with a line number

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(
        list(trace.KIND_PRIORITY) + list(trace.INGEST_OUTCOMES)
        + ["header", "event", "stress", "engagement", "physiological", "heart"]
    ),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_DELETE = object()


@pytest.fixture(scope="module")
def small_traces(stress_result, tmp_path_factory):
    """Trace lines of a replay with decisions and of one with reordered
    and dropped samples."""
    arrivals = run_session(parse_scenario_lines(_arrival_lines(ARRIVALS)))
    traces = []
    for index, result in enumerate([stress_result, arrivals]):
        path = tmp_path_factory.mktemp("traces") / f"{index}.trace.jsonl"
        write_trace(result, path)
        traces.append(path.read_text().splitlines())
    return traces


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_trace_fields_fail_cleanly_or_audit(small_traces, tmp_path_factory, data):
    lines = data.draw(st.sampled_from(small_traces))
    line_no = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    obj = json.loads(lines[line_no])
    # walk down to one field: a top-level key, or one inside the
    # payload, the header config or a state vector's dims
    parent = obj
    key = data.draw(st.sampled_from(sorted(parent)))
    while isinstance(parent[key], dict) and parent[key] and data.draw(st.booleans()):
        parent = parent[key]
        key = data.draw(st.sampled_from(sorted(parent)))
    value = data.draw(st.one_of(st.just(_DELETE), _JUNK))
    if value is _DELETE:
        del parent[key]
    else:
        parent[key] = value
    path = tmp_path_factory.mktemp("mutated") / "trace.jsonl"
    path.write_text("\n".join(lines[:line_no] + [json.dumps(obj)] + lines[line_no + 1:]) + "\n")
    try:
        header, events = read_trace(path)
    except ScenarioError:
        return
    validate_trace(header, events)
    summarize(header, events)


# Plain isinstance rules for what read_trace accepts in each field it
# checks. The checks themselves test the exact type of a decoded JSON
# value; these pin that they accept the same values.

def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value):
    return _number(value) and abs(value) <= sys.float_info.max


def _integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _integer_from(least):
    return lambda value: _integer(value) and value >= least


def _string_in(values=None):
    return lambda value: isinstance(value, str) and (values is None or value in values)


def _flag(value):
    return isinstance(value, bool)


def _number_or_null(value):
    return value is None or _number(value)


_DIMENSION_STATE_RULES = {
    "score": _number, "confidence": _number, "signed_score": _number, "observed": _flag,
    "supra_channels": _integer_from(0),
}


def _dims_rule(dims):
    return (
        isinstance(dims, dict)
        and set(dims) == {dim.value for dim in Dimension}
        and all(isinstance(ds, dict) and all(name in ds and rule(ds[name]) for name, rule in _DIMENSION_STATE_RULES.items())
                for ds in dims.values())
    )


_DIMENSIONS = tuple(dim.value for dim in Dimension)
_FIELD_RULES = {
    "ingest": {
        "stream": _string_in(), "outcome": _string_in(("reordered", "dropped_late")), "count": _integer_from(1),
        "last_t": _finite,
    },
    "stream_summary": {
        "stream": _string_in(), "accepted": _integer_from(0), "reordered": _integer_from(0),
        "dropped_late": _integer_from(0), "first_t": _number_or_null, "last_t": _number_or_null,
    },
    "state_vector": {"dims": _dims_rule},
    "candidate": {
        "dimension": _string_in(_DIMENSIONS), "score": _number, "confidence": _number,
        "severity": _string_in(("moderate", "pronounced")), "supra_channels": _integer_from(0), "composite": _flag,
        "repeat_ordinal": _integer_from(0),
    },
    "decision": {
        "dimension": _string_in(_DIMENSIONS),
        "category": _string_in(("cognitive_attentional", "physiological", "comprehension_oriented",
                                "challenge_enhancement")),
        "triggering_score": _number, "confidence": _number, "composite": _flag,
    },
    "warning": {"reason": _string_in()},
}
_ENVELOPE_RULES = {"t": _finite, "seq": _integer, "payload": lambda value: isinstance(value, dict)}

_STATE = {"score": 0.5, "confidence": 1.0, "descriptor": "nominal", "observed": True, "signed_score": -0.5,
          "supra_channels": 0}
_VALID_PAYLOADS = {
    "ingest": {"stream": "heart", "outcome": "dropped_late", "count": 2, "last_t": 1.5},
    "stream_summary": {"stream": "heart", "accepted": 3, "reordered": 1, "dropped_late": 0, "first_t": 0.0,
                       "last_t": 2.5},
    "state_vector": {"dims": {dim: dict(_STATE) for dim in _DIMENSIONS}},
    "candidate": {"dimension": "stress", "score": 2.5, "confidence": 0.9, "severity": "pronounced",
                  "supra_channels": 2, "composite": False, "repeat_ordinal": 1},
    "decision": {"dimension": "stress", "category": "physiological", "triggering_score": 2.5, "confidence": 0.9,
                 "composite": False},
    "warning": {"reason": "generation_failed"},
    "sync": {},
}
_FIELD_VALUES = st.one_of(_JUNK, st.sampled_from(
    [0, 1, 2, -1, 0.0, -0.0, 2.5, -2.5, 1e308, True, False, None, "", "heart", "moderate", "pronounced",
     "reordered", "dropped_late", "challenge_enhancement", *_DIMENSIONS, [], {}]
))


def _decoded(value):
    """The value as read_trace meets it: decoded from its JSON text."""
    return json.loads(json.dumps(value))


def _event_accepted(kind, payload, envelope=()):
    obj = _decoded({"type": "event", "t": 1.0, "kind": kind, "seq": 0, "payload": payload, **dict(envelope)})
    try:
        trace._trace_event(obj, 7)
    except ScenarioError as error:
        assert error.line_no == 7
        return False
    return True


def test_the_field_rules_cover_every_checked_field_and_accept_the_valid_payloads():
    assert {kind: set(fields) for kind, fields in _FIELD_RULES.items()} == {
        kind: set(fields) for kind, fields in trace.PAYLOAD_FIELDS.items()
    }
    for kind, payload in _VALID_PAYLOADS.items():
        assert _event_accepted(kind, payload)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_each_field_check_accepts_exactly_what_its_plain_rule_accepts(data):
    kind = data.draw(st.sampled_from(sorted(_FIELD_RULES)))
    name = data.draw(st.sampled_from(sorted(_FIELD_RULES[kind])))
    value = _decoded(data.draw(_FIELD_VALUES))
    assert _event_accepted(kind, {**_VALID_PAYLOADS[kind], name: value}) == _FIELD_RULES[kind][name](value)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_envelope_checks_accept_exactly_what_plain_rules_accept(data):
    name = data.draw(st.sampled_from(sorted(_ENVELOPE_RULES)))
    value = _decoded(data.draw(_FIELD_VALUES))
    # a sync payload has no checked field
    assert _event_accepted("sync", {}, {name: value}) == _ENVELOPE_RULES[name](value)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_the_state_vector_check_accepts_exactly_what_a_plain_rule_accepts(data):
    dims = _decoded(_VALID_PAYLOADS["state_vector"]["dims"])
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        edit = data.draw(st.sampled_from(["field", "delete_field", "state", "extra_dimension", "delete_dimension"]))
        dim = data.draw(st.sampled_from(sorted(dims)))
        if edit in ("field", "delete_field") and isinstance(dims[dim], dict):
            field = data.draw(st.sampled_from(sorted(_STATE)))
            if edit == "field":
                dims[dim][field] = _decoded(data.draw(_FIELD_VALUES))
            else:
                dims[dim].pop(field, None)
        elif edit == "state":
            dims[dim] = _decoded(data.draw(_FIELD_VALUES))
        elif edit == "extra_dimension":
            dims[data.draw(st.text(max_size=4))] = dict(_STATE)
        else:
            del dims[dim]
            if not dims:
                break
    assert _event_accepted("state_vector", {"dims": dims}) == _dims_rule(dims)


def _without(mapping, key):
    del mapping[key]


@pytest.mark.parametrize(
    "edit",
    [
        lambda dims: dims["stress"].update(score=True),
        lambda dims: _without(dims["fatigue"], "observed"),
        lambda dims: dims["attention"].update(supra_channels=-1),
        lambda dims: dims.update(boredom=dict(_STATE)),
        lambda dims: dims.update(engagement=[0.5, 1.0]),
    ],
    ids=["boolean_score", "missing_observed", "negative_supra_channels", "extra_dimension", "dimension_not_an_object"],
)
def test_a_bad_state_vector_fails_with_its_message_and_line(tmp_path, edit):
    dims = _decoded(_VALID_PAYLOADS["state_vector"]["dims"])
    edit(dims)
    path = tmp_path / "edited.trace.jsonl"
    lines = [
        {"type": "header", "config": {}, "modality": "text"},
        {"type": "event", "t": 1.0, "kind": "sync", "seq": 0, "payload": {}},
        {"type": "event", "t": 2.0, "kind": "state_vector", "seq": 1, "payload": {"dims": dims}},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(ScenarioError) as error:
        read_trace(path)
    assert error.value.line_no == 3
    assert str(error.value) == (
        "line 3: state_vector payload field 'dims' must be an object of every dimension's score, "
        f"confidence, signed_score, observed and supra_channels, got {dims!r}"
    )


def _engine_calls(function, *args) -> int:
    """How many frames of the engine's own code ``function(*args)`` runs,
    a generator's resumptions included: the ``call`` events under
    ``sys.setprofile`` whose code lies in the cogloop package (not, say,
    the text decoder's, whose calls follow the file's size)."""
    package = str(Path(cogloop.__file__).parent)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename.startswith(package)

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_reading_a_state_vector_takes_a_fixed_number_of_calls(tmp_path):
    result = run_session(_bundled_stress_ramp())
    full = tmp_path / "stress_ramp.trace.jsonl"
    write_trace(result, full)
    lines = full.read_text().splitlines(keepends=True)
    states = [line for line in lines if '"kind":"state_vector"' in line]
    assert len(states) > 10
    # the same trace without its state vectors, and with ten more fields
    # in each dimension's state
    without = tmp_path / "without.trace.jsonl"
    without.write_text("".join(line for line in lines if line not in states))
    wider = tmp_path / "wider.trace.jsonl"
    widened = []
    for line in lines:
        if line in states:
            obj = json.loads(line)
            for ds in obj["payload"]["dims"].values():
                ds.update({f"extra_{i}": i for i in range(10)})
            line = json.dumps(obj) + "\n"
        widened.append(line)
    wider.write_text("".join(widened))
    base = _engine_calls(read_trace, without)
    # per state vector: the event check, the dims check and TraceEvent
    assert _engine_calls(read_trace, full) - base == 3 * len(states)
    assert _engine_calls(read_trace, wider) - base == 3 * len(states)


# ---------------------------------------------------------------------------
# config resolution

def test_config_resolution_precedence():
    lines = [
        _header_lines(NOTE_AND_HEART, config={"trigger_threshold": 2.0}),
        json.dumps({"type": "sample", "stream": "heart", "t": 0.0, "rr_ms": 800}),
    ]
    scenario = parse_scenario_lines(lines)
    assert resolve_config(scenario.header).trigger_threshold == 2.0
    assert resolve_config(scenario.header, {"trigger_threshold": 2.5}).trigger_threshold == 2.5


def test_config_resolution_rejects_invalid_combinations():
    lines = [
        _header_lines(NOTE_AND_HEART, config={"window_hop_s": 200.0}),
        json.dumps({"type": "sample", "stream": "heart", "t": 0.0, "rr_ms": 800}),
    ]
    with pytest.raises(ConfigError, match="window_length"):
        resolve_config(parse_scenario_lines(lines).header)


def test_expected_calibration_window_counts():
    cfg = SessionConfig()
    assert expected_calibration_windows(cfg, StreamKind.PUPIL_GAZE) == 30
    assert expected_calibration_windows(cfg, StreamKind.RR_INTERVAL) == 25
    short = cfg._replace(calibration_duration_s=5.0)
    assert expected_calibration_windows(short, StreamKind.RR_INTERVAL) == 0


@pytest.mark.parametrize("calibration,length,hop", [(0.3, 0.1, 0.1), (0.6, 0.2, 0.1), (30.0, 10.0, 0.7)])
def test_expected_calibration_windows_count_the_grid(calibration, length, hop):
    # (0.3 - 0.1) / 0.1 is 1.9999999999999998: a floor of the quotient
    # missed the window [0.2, 0.3) that the merger does cut
    merger = StreamMerger(jitter_tolerance_s=0.0)
    heart = merger.register_stream(StreamDescriptor("heart", StreamKind.RR_INTERVAL, 1.0))
    merger.ingest(heart, calibration, 800.0)
    merger.flush()
    windows = merger.pop_windows(StreamKind.RR_INTERVAL, length, hop)
    cfg = SessionConfig(
        calibration_duration_s=calibration, window_hop_s=hop,
        window_length_s={**SessionConfig().window_length_s, StreamKind.RR_INTERVAL: length},
    )
    assert expected_calibration_windows(cfg, StreamKind.RR_INTERVAL) == len(windows)


def test_every_dense_hop_tick_sees_the_rr_window_ending_on_it():
    # A running sum of hops put the tick meant for 565.2 at
    # 565.1999999999999, just before the rr window ending at 565.2, so
    # that state vector came out with stress unobserved.
    ref = resources.files("cogloop").joinpath("profiles", "stress_ramp.json")
    with resources.as_file(ref) as path:
        result = run_session(synthesize(load_profile(path)), overrides={"window_hop_s": 0.3})
    rr_ends = {
        e.payload["end"] for e in result.events
        if e.kind == "window_features" and e.payload["stream_kind"] == "rr_interval"
    }
    states = {e.t: e.payload["dims"]["stress"] for e in result.events if e.kind == "state_vector"}
    assert 565.2 in rr_ends
    assert states[565.2]["observed"]
    assert set(states) <= rr_ends
    assert all(stress["observed"] for stress in states.values())


# ---------------------------------------------------------------------------
# posture windows against the per-window scoring they replaced

_POSE = {
    "shoulder_left": (0.38, 0.50),
    "shoulder_right": (0.62, 0.50),
    "ear_left": (0.44, 0.30),
    "ear_right": (0.56, 0.30),
    "hip_left": (0.42, 0.88),
    "hip_right": (0.58, 0.88),
}


def _oracle_posture(window, baseline_pose):
    """Score every frame of the window from scratch, skipping frames
    without both shoulders."""
    scores, confidences, skipped = [], [], 0
    if baseline_pose is not None:
        for envelope in window.samples:
            try:
                scores.append(score_posture(envelope.payload.geometry(), baseline_pose.geometry()))
                confidences.append(envelope.source_confidence)
            except MissingLandmarksError:
                skipped += 1
    if not scores:
        return 0.0, [], {"category": None, "skipped_samples": skipped}
    percent = statistics.fmean(scores)
    quality = statistics.fmean(confidences) * len(scores) / (len(scores) + skipped)
    extras = {"category": categorize_posture(scores[-1]).value, "skipped_samples": skipped}
    return quality, [ChannelFeature(CHANNEL_POSTURE, percent, quality, window.end)], extras


_FRAME = st.tuples(
    st.sampled_from([0.1, 0.25, 0.5, 1.0]),  # time step
    st.floats(min_value=-0.05, max_value=0.05),  # lean
    st.sampled_from([1.0, 1.0, 1.0, 0.2]),  # left shoulder visibility: 0.2 skips the frame
    st.sampled_from([0.3, 0.9, 1.0]),  # source confidence
)


@settings(max_examples=100, deadline=None)
@given(
    frames=st.lists(_FRAME, max_size=60),
    length=st.sampled_from([0.5, 1.0, 2.0, 5.0]),
    hop_share=st.sampled_from([0.3, 0.5, 0.7, 1.0]),
    calibrated=st.booleans(),
)
def test_posture_windows_equal_the_per_window_scoring(frames, length, hop_share, calibrated):
    merger = StreamMerger(jitter_tolerance_s=0.0)
    cam = merger.register_stream(StreamDescriptor("cam", StreamKind.POSTURE_LANDMARKS, 10.0))
    t = 0.0
    for dt, lean, visible, source_confidence in frames:
        t += dt
        landmarks = dict(_POSE, ear_left=(0.44 + lean, 0.30), ear_right=(0.56 + lean, 0.30))
        pose = PostureSample(landmarks=landmarks, visibility={"shoulder_left": visible})
        merger.ingest(cam, t, pose, source_confidence)
    merger.flush()
    windows = merger.pop_windows(StreamKind.POSTURE_LANDMARKS, length, length * hop_share)
    baseline_pose = PostureSample(landmarks=dict(_POSE)) if calibrated else None

    wanted = [_oracle_posture(window, baseline_pose) for window in windows]
    calls, derived = [], []
    derive = PostureSample.geometry
    PostureSample.geometry = lambda pose: derived.append(pose) or derive(pose)
    try:
        extract = PostureWindows(0.0, lambda *args: calls.append(args) or score_posture(*args))
        extract.freeze(derive(baseline_pose) if calibrated else None)
        for window, want in zip(windows, wanted):
            assert extract(window) == want
    finally:
        PostureSample.geometry = derive
    # every frame a window holds is scored exactly once
    scored = [args[0] for args in calls]
    assert len(scored) == len({id(pose) for pose in scored})
    assert len(derived) == len({id(pose) for pose in derived}) == len(scored)
    if calibrated and windows:
        assert len(scored) == windows[-1].hi


def test_a_session_derives_the_baseline_pose_geometry_once(monkeypatch):
    # every pose whose geometry is derived, with that geometry, kept alive
    # so ids stay unique
    derived = []
    derive = PostureSample.geometry
    monkeypatch.setattr(PostureSample, "geometry", lambda pose: derived.append((pose, derive(pose))) or derived[-1][1])
    baselines = []
    monkeypatch.setattr(
        session, "score_posture", lambda pose, baseline: baselines.append(baseline) or score_posture(pose, baseline)
    )
    run_session(synthesize(parse_profile(STRESS_PROFILE)))

    assert len(baselines) > 100
    assert all(baseline is baselines[0] for baseline in baselines)
    assert sum(geometry is baselines[0] for _, geometry in derived) == 1
    # and every frame's own geometry once
    assert len(derived) == len({id(pose) for pose, _ in derived})


# The channels each stream kind's windows carry. gaze.py, cardio.py and
# session.py each decide some of them; baselines and weights are keyed by
# channel, so no channel may come from two kinds.
KIND_CHANNELS = {
    StreamKind.PUPIL_GAZE: {
        state.CHANNEL_PUPIL, state.CHANNEL_FIXATION_DURATION, state.CHANNEL_FIXATION_COUNT,
        state.CHANNEL_GAZE_VELOCITY, state.CHANNEL_BLINK_RATE,
    },
    StreamKind.RR_INTERVAL: {state.CHANNEL_HEART_RATE, state.CHANNEL_RMSSD, state.CHANNEL_SDNN, state.CHANNEL_PNN50},
    StreamKind.POSTURE_LANDMARKS: {CHANNEL_POSTURE},
    StreamKind.NOTE_SCORE: {state.CHANNEL_NOTE_ERROR},
}


def test_each_stream_kind_emits_its_own_channels_on_every_bundled_profile():
    seen = {kind: set() for kind in StreamKind}
    for name in ("all_baseline", "stress_ramp", "load_excursion", "mixed_session"):
        ref = resources.files("cogloop").joinpath("profiles", f"{name}.json")
        with resources.as_file(ref) as path:
            result = run_session(synthesize(load_profile(path)))
        for event in result.events:
            if event.kind == "window_features":
                kind = StreamKind(event.payload["stream_kind"])
                assert set(event.payload["values"]) <= KIND_CHANNELS[kind], (name, event.t)
                seen[kind] |= set(event.payload["values"])
    assert seen == KIND_CHANNELS
    channels = [channel for kind in StreamKind for channel in KIND_CHANNELS[kind]]
    assert len(channels) == len(set(channels))  # disjoint
    assert set(channels) == set(state.ALL_CHANNELS)
