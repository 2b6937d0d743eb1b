import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cogloop
from cogloop.cli import main

PROFILE = {
    "seed": 13,
    "topic": "photosynthesis",
    "segments": [{"duration_s": 8.0, "channels": {}}],
    "gaze_rate_hz": 30.0,
    "note_interval_s": 4.0,
}


@pytest.fixture()
def profile_path(tmp_path):
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(PROFILE))
    return path


def _synth(tmp_path, profile_path):
    scenario = tmp_path / "scenario.jsonl"
    assert main(["synth", "--profile", str(profile_path), "--out", str(scenario)]) == 0
    return scenario


def test_synth_then_run_then_summarize(tmp_path, profile_path, capsys):
    scenario = _synth(tmp_path, profile_path)
    capsys.readouterr()

    trace = tmp_path / "out.trace.jsonl"
    assert main(["run", "--scenario", str(scenario), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "events: " in out
    assert "decisions: 0" in out  # flat profile, nothing to trigger

    assert main(["summarize", "--trace", str(trace)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["engine"] == "cogloop-0.1.0"
    assert summary["decisions_total"] == 0
    assert summary["ingest"]["accepted"] > 0


def test_synth_is_deterministic_on_disk(tmp_path, profile_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["synth", "--profile", str(profile_path), "--out", str(a)]) == 0
    assert main(["synth", "--profile", str(profile_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bundled_profile_names_resolve(tmp_path):
    out = tmp_path / "bundled.jsonl"
    assert main(["synth", "--profile", "all_baseline", "--out", str(out)]) == 0
    assert out.exists()


def _segment(**channel):
    """PROFILE's one segment, with the pupil channel given as ``channel``."""
    return [{"duration_s": 8.0, "channels": {"pupil_mm": {"kind": "ramp", **channel}}}]


# each of these ended in a traceback (exit 1) or was accepted
@pytest.mark.parametrize(
    "edit,message",
    [
        ({"gaze_rate_hz": 0}, "gaze_rate_hz must be a positive finite number, got 0"),
        ({"posture_rate_hz": "nan"}, "posture_rate_hz must be a positive finite number, got 'nan'"),
        ({"segments": [5]}, "segment 0 must be an object, got 5"),
        ({"segments": _segment(target_z="x")}, "segment 0: pupil_mm target_z must be a finite number, got 'x'"),
        ({"segments": _segment(tau_s="nan")}, "segment 0: pupil_mm tau_s must be a positive finite number, got 'nan'"),
        ({"segments": _segment(period_s=float("inf"))}, "segment 0: pupil_mm period_s must be a positive finite number, got inf"),
        ({"segments": _segment(amplitude_z=float("nan"))}, "segment 0: pupil_mm amplitude_z must be a finite number, got nan"),
        ({"segments": [{"duration_s": 8.0, "channels": [1]}]}, "segment 0: channels must be an object"),
        ({"segments": [{"duration_s": 8.0, "channels": {"pupil_mm": "ramp"}}]}, "segment 0: pupil_mm must be an object"),
        ({"segments": [{"duration_s": float("nan")}]}, "segment 0: duration_s must be a positive finite number"),
        ({"segments": [{"duration_s": 50_000}] * 2}, "segments span 100000.0 s, past the session span (86400.0 s)"),
        ({"noise": {"pupil_mm": float("inf")}}, "noise pupil_mm must be a finite number, got inf"),
        ({"noise": {"pupil_mm": -0.02}}, "noise pupil_mm must not be negative, got -0.02"),
        ({"noise": [0.0]}, "noise must be an object"),
        ({"note_interval_s": -1.0}, "note_interval_s must be a positive finite number, got -1.0"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"config": "x"}, "config must be an object"),
        ({"gaze_rate_hz": 1e308}, "gaze_rate_hz (1e+308) over the segments' 8.0 s gives more than 2**23 samples"),
        ({"posture_rate_hz": 1e308}, "posture_rate_hz (1e+308) over the segments' 8.0 s gives more than 2**23 samples"),
    ],
    ids=[
        "zero_gaze_rate", "nan_posture_rate", "segment_not_object", "text_target_z", "nan_tau",
        "infinite_period", "nan_amplitude", "channels_not_object", "spec_not_object", "nan_duration",
        "span_past_24h", "infinite_noise", "negative_noise", "noise_not_object", "negative_note_interval",
        "text_seed", "config_not_object", "overflowing_gaze_rate", "overflowing_posture_rate",
    ],
)
def test_hostile_profile_exits_2(tmp_path, capsys, edit, message):
    profile = tmp_path / "hostile.json"
    profile.write_text(json.dumps({**PROFILE, **edit}))
    assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "out.jsonl")]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _cogloop_in_a_child(*args):
    """``cogloop`` with ``args`` in a child process given 60 s and 1 GiB
    of address space: an input that asks for unbounded work fails the
    test instead of running for hours or filling the host's memory."""
    src = str(Path(cogloop.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "cogloop.cli", *args],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize(
    "edit",
    [{"note_interval_s": 0}, {"segments": [{"duration_s": 1e300}]}, {"note_interval_s": 1e-9}],
    ids=["zero_note_interval", "duration_1e300", "tiny_note_interval"],
)
def test_hanging_profile_exits_2_in_a_child_process(tmp_path, edit):
    # the first two looped for ever; the third made a note every
    # nanosecond, 8e9 records
    profile = tmp_path / "hostile.json"
    profile.write_text(json.dumps({**PROFILE, **edit}))
    child = _cogloop_in_a_child("synth", "--profile", str(profile), "--out", str(tmp_path / "out.jsonl"))
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("error: ")


def test_replay_at_a_hop_below_the_floor_exits_2_in_a_child_process(tmp_path):
    # at a 1 ms hop, one beat near the end of the session span would
    # walk 86 million ticks
    header = {
        "type": "header",
        "streams": [{"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1}],
        "config": {"window_hop_s": 1e-3},
    }
    beats = [{"type": "sample", "stream": "heart", "t": t, "rr_ms": 800} for t in (0.0, 86_000.0)]
    scenario = tmp_path / "scenario.jsonl"
    scenario.write_text("".join(json.dumps(line) + "\n" for line in [header, *beats]))
    child = _cogloop_in_a_child("run", "--scenario", str(scenario), "--trace", str(tmp_path / "trace.jsonl"))
    assert child.returncode == 2, child.stderr
    assert "window_hop_s (0.001) is below the floor of 0.1 s" in child.stderr


def test_validate_scenario_and_trace(tmp_path, profile_path, capsys):
    scenario = _synth(tmp_path, profile_path)
    trace = tmp_path / "out.trace.jsonl"
    main(["run", "--scenario", str(scenario), "--trace", str(trace)])
    capsys.readouterr()
    code = main(["validate", "--scenario", str(scenario), "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario ok" in out
    assert "trace ok" in out


def test_validate_requires_an_input(capsys):
    assert main(["validate"]) == 2
    assert "needs --scenario or --trace" in capsys.readouterr().err


def test_malformed_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


HEART_HEADER = json.dumps({
    "type": "header",
    "streams": [{"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 200}],
})


@pytest.mark.parametrize(
    "marks", [[[0, float("nan")], [1, 2]], [1, 2], [["a", "b"], [1, 2]], [[0, 1]]]
)
def test_bad_sync_marks_exit_2_with_the_line(tmp_path, capsys, marks):
    scenario = tmp_path / "sync.jsonl"
    sync = json.dumps({"type": "sync", "stream": "heart", "marks": marks})
    scenario.write_text(f"{HEART_HEADER}\n{sync}\n")
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert "error: line 2: sync marks" in capsys.readouterr().err


def test_two_gaze_streams_exit_2_with_the_line(tmp_path, capsys):
    # two streams of one kind shared one timeline, and equal timestamps
    # across them made a zero gaze time step: a traceback, not an error
    header = json.dumps({
        "type": "header",
        "streams": [
            {"stream_id": "g1", "kind": "pupil_gaze", "nominal_rate_hz": 10},
            {"stream_id": "g2", "kind": "pupil_gaze", "nominal_rate_hz": 10},
        ],
    })
    samples = [
        json.dumps({"type": "sample", "stream": stream, "t": round(i * 0.1, 3),
                    "x": 0.5, "y": 0.5, "pupil_mm": 3.0, "confidence": 0.98})
        for i in range(200)
        for stream in ("g1", "g2")
    ]
    scenario = tmp_path / "two_gaze.jsonl"
    scenario.write_text("\n".join([header, *samples]) + "\n")
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert "error: line 1: stream 'g2' is a second pupil_gaze stream" in capsys.readouterr().err


def _gaze_only(tmp_path, samples):
    """A gaze-only scenario with a 20 s calibration; samples are
    (t, x, pupil_mm)."""
    header = json.dumps({
        "type": "header",
        "streams": [{"stream_id": "gaze", "kind": "pupil_gaze", "nominal_rate_hz": 10}],
        "config": {"calibration_duration_s": 20.0},
    })
    lines = [
        json.dumps({"type": "sample", "stream": "gaze", "t": t, "x": x, "y": 0.5, "pupil_mm": pupil})
        for t, x, pupil in samples
    ]
    scenario = tmp_path / "gaze.jsonl"
    scenario.write_text("\n".join([header, *lines]) + "\n")
    return scenario


def test_pupil_past_the_physical_maximum_exits_2_with_the_line(tmp_path, capsys):
    # three pupils of 1e308 overflowed the window mean (OverflowError);
    # 5e307 replayed
    samples = [(0.0, 0.5, 1e308), (0.1, 0.5, 1e308), (0.2, 0.5, 1e308), (12.0, 0.5, 3.0)]
    assert main(["run", "--scenario", str(_gaze_only(tmp_path, samples))]) == 2
    assert "error: line 2: bad pupil_gaze payload: pupil_mm must be at most 10.0" in capsys.readouterr().err
    samples[:3] = [(t, x, 10.0) for t, x, _ in samples[:3]]
    assert main(["run", "--scenario", str(_gaze_only(tmp_path, samples))]) == 0


def test_gaze_step_under_a_nanosecond_exits_2_with_the_line(tmp_path, capsys):
    # steps of 5e-324 s made an infinite window velocity, and the
    # baseline's pstdev failed on the NaN it led to (ValueError)
    samples = [(0.0, 0.0, 3.0), (5e-324, 1.0, 3.0), (1e-323, 0.0, 3.0)]
    samples += [(round(i * 0.1, 6), 0.5, 3.0) for i in range(1, 400)]
    assert main(["run", "--scenario", str(_gaze_only(tmp_path, samples))]) == 2
    assert "error: line 3: gaze timestamps must strictly increase, by at least 1e-09 s" in capsys.readouterr().err
    samples[1:3] = [(1e-9, 1.0, 3.0), (2e-9, 0.0, 3.0)]
    assert main(["run", "--scenario", str(_gaze_only(tmp_path, samples))]) == 0


def test_sample_before_session_start_is_a_warning(tmp_path, capsys):
    scenario = tmp_path / "early.jsonl"
    lines = [
        HEART_HEADER,
        json.dumps({"type": "sync", "stream": "heart", "marks": [[10, 0], [20, 10]]}),
        json.dumps({"type": "sample", "stream": "heart", "t": 1, "rr_ms": 800}),
    ]
    scenario.write_text("\n".join(lines) + "\n")
    trace = tmp_path / "early.trace.jsonl"
    assert main(["run", "--scenario", str(scenario), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["summarize", "--trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == {"session_time_out_of_range": 1}


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "absent.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_layered_on_run(tmp_path, profile_path, capsys):
    scenario = _synth(tmp_path, profile_path)
    config = tmp_path / "tweak.cfg"
    config.write_text("trigger_threshold = not_a_number\n")
    assert main(["run", "--scenario", str(scenario), "--config", str(config)]) == 2
    assert "trigger_threshold" in capsys.readouterr().err


# each of these ran: exit 0, or exit 1 with a traceback at the first
# decision that picked the unknown template
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("strategy.stress.pronounced.text", "nope", "unknown template id 'nope'"),
        ("weight.stress.rmsd_ms", 0.3, "weight.stress.rmsd_ms: unknown channel"),
    ],
)
@pytest.mark.parametrize("source", ["header", "config_file"])
def test_unknown_config_name_exits_2(tmp_path, profile_path, capsys, key, value, message, source):
    scenario = _synth(tmp_path, profile_path)
    command = ["run", "--scenario", str(scenario)]
    if source == "header":
        header, rest = scenario.read_text().split("\n", 1)
        edited = json.loads(header)
        edited.setdefault("config", {})[key] = value
        scenario.write_text(json.dumps(edited) + "\n" + rest)
    else:
        config = tmp_path / "typo.cfg"
        config.write_text(f"{key} = {value}\n")
        command += ["--config", str(config)]
    capsys.readouterr()
    assert main(command) == 2
    assert message in capsys.readouterr().err


def test_boolean_header_seed_exits_2(tmp_path, profile_path, capsys):
    # it replayed, exit 0, and wrote "seed":true into the trace header
    scenario = _synth(tmp_path, profile_path)
    header, rest = scenario.read_text().split("\n", 1)
    scenario.write_text(json.dumps({**json.loads(header), "seed": True}) + "\n" + rest)
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert "error: line 1: seed must be an integer, got True" in capsys.readouterr().err


def test_sync_that_moves_gaze_time_back_is_a_warning(tmp_path, capsys):
    # a sync that moves the gaze clock back maps a sample onto its
    # predecessor's session time: a zero gaze time step, once a traceback
    def gaze(t):
        return json.dumps({"type": "sample", "stream": "gaze", "t": t, "x": 0.5, "y": 0.5,
                           "pupil_mm": 3.0, "confidence": 0.98})

    header = json.dumps({
        "type": "header",
        "streams": [{"stream_id": "gaze", "kind": "pupil_gaze", "nominal_rate_hz": 1}],
        "config": {"calibration_duration_s": 10, "window_hop_s": 10, "window_length.pupil_gaze": 10},
    })
    sync = json.dumps({"type": "sync", "stream": "gaze", "marks": [[10, 9], [20, 19]]})
    scenario = tmp_path / "sync_back.jsonl"
    scenario.write_text("\n".join([header, *map(gaze, range(21)), sync, *map(gaze, range(21, 60))]) + "\n")
    trace = tmp_path / "sync_back.trace.jsonl"
    assert main(["run", "--scenario", str(scenario), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["summarize", "--trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"]["session_time_not_increasing"] == 1


CONFIG_HEADER = json.dumps({"type": "header", "config": {}})


def _ingest_event(**changes):
    payload = {"stream": "heart", "outcome": "dropped_late", "count": 2, "last_t": 1.5, **changes}
    return {"t": 1.0, "kind": "ingest", "payload": payload}


def _state_vector_event(supra_channels):
    dims = {dimension: {"score": 0.0, "confidence": 1.0, "signed_score": 0.0, "observed": True, "supra_channels": 0}
            for dimension in ["attention", "cognitive_load", "engagement", "fatigue", "stress", "understanding"]}
    dims["engagement"]["supra_channels"] = supra_channels
    return {"t": 1.0, "kind": "state_vector", "payload": {"dims": dims}}


def _decision_event(**changes):
    payload = {"dimension": "stress", "category": "physiological", "triggering_score": 2.0, "confidence": 1.0,
               "composite": False, **changes}
    return {"t": 1.0, "kind": "decision", "payload": payload}


def _candidate_event(**changes):
    payload = {"dimension": "stress", "score": 2.0, "confidence": 1.0, "severity": "pronounced", "supra_channels": 2,
               "composite": False, "repeat_ordinal": 1, **changes}
    return {"t": 1.0, "kind": "candidate", "payload": payload}


@pytest.mark.parametrize(
    "commands,lines,message",
    [
        (["validate"], [CONFIG_HEADER, {"t": 1.0, "kind": "nonsense", "payload": {}}],
         "line 2: unknown trace event kind 'nonsense'"),
        (["validate", "summarize"], [CONFIG_HEADER, {"t": 1.0, "kind": "decision", "payload": {}}],
         "line 2: decision payload missing field 'dimension'"),
        (["validate", "summarize"], [json.dumps({"type": "header"}), {"t": 1.0, "kind": "sync", "payload": {}}],
         "line 1: trace header needs a config object"),
        (["summarize"], [CONFIG_HEADER, {"t": 1.0, "kind": "ingest", "payload": {"stream": "heart"}}],
         "line 2: ingest payload missing field 'outcome'"),
        # an ingest event is a run of late samples; accepted ones are only counted
        (["validate", "summarize"], [CONFIG_HEADER, _ingest_event(outcome="accepted")],
         "line 2: ingest payload field 'outcome' must be one of reordered, dropped_late, got 'accepted'"),
        (["validate", "summarize"], [CONFIG_HEADER, _ingest_event(count=0)],
         "line 2: ingest payload field 'count' must be an integer of at least 1, got 0"),
        (["validate", "summarize"], [CONFIG_HEADER, _ingest_event(last_t=math.inf)],
         "line 2: ingest payload field 'last_t' must be a finite number, got inf"),
        # the audit reads these with the engine's own trigger rule
        (["validate", "summarize"], [CONFIG_HEADER, _state_vector_event(supra_channels="2")],
         "line 2: state_vector payload field 'dims' must be an object of every dimension's score, "
         "confidence, signed_score, observed and supra_channels, got"),
        (["validate", "summarize"], [CONFIG_HEADER, _decision_event(triggering_score="2.0")],
         "line 2: decision payload field 'triggering_score' must be a number, got '2.0'"),
        # the audit frames a decision from its candidate, at the header's modality
        (["validate", "summarize"],
         [CONFIG_HEADER, {"t": 1.0, "kind": "candidate", "payload": {"dimension": "stress", "supra_channels": 2}}],
         "line 2: candidate payload missing field 'repeat_ordinal'"),
        # the audit judges a candidate by its route's reading, as a decision
        (["validate", "summarize"], [CONFIG_HEADER, _candidate_event(score="2.0")],
         "line 2: candidate payload field 'score' must be a number, got '2.0'"),
        (["validate", "summarize"], [CONFIG_HEADER, _candidate_event(severity="severe")],
         "line 2: candidate payload field 'severity' must be one of moderate, pronounced, got 'severe'"),
        (["validate", "summarize"], [CONFIG_HEADER, _candidate_event(composite=1)],
         "line 2: candidate payload field 'composite' must be true or false, got 1"),
        (["validate", "summarize"],
         [json.dumps({"type": "header", "config": {}, "modality": "telepathy"}),
          {"t": 1.0, "kind": "sync", "payload": {}}],
         "line 1: trace header modality must be one of text, image, audio, video, got 'telepathy'"),
        # a config the engine would not run with: no severity below the moderate floor
        (["validate", "summarize"],
         [json.dumps({"type": "header", "config": {"trigger_threshold": 0.5}}),
          {"t": 1.0, "kind": "sync", "payload": {}}],
         "line 1: trace header config: trigger_threshold (0.5) is below the moderate deviation floor (1.0)"),
    ],
    ids=[
        "unknown_kind", "empty_decision", "header_without_config", "ingest_without_outcome",
        "ingest_of_accepted_samples", "ingest_run_of_no_samples", "ingest_run_ending_at_infinity",
        "state_vector_supra_channels_not_a_count", "decision_triggering_score_not_a_number",
        "candidate_without_repeat_ordinal", "candidate_score_not_a_number", "candidate_severity_unknown",
        "candidate_composite_not_a_flag", "header_modality_unknown", "header_config_invalid",
    ],
)
def test_hand_edited_trace_exits_2_with_the_line(tmp_path, capsys, commands, lines, message):
    # each fails in read_trace with its line, not in a KeyError traceback
    # inside the audit, and not silently past it
    trace = tmp_path / "edited.trace.jsonl"
    header, event = lines
    trace.write_text(f"{header}\n{json.dumps(dict(type='event', seq=0, **event))}\n")
    for command in commands:
        assert main([command, "--trace", str(trace)]) == 2
        assert f"error: {message}" in capsys.readouterr().err


def _spoil(path, line_no):
    """Put a byte that is not UTF-8 (0xff) into line ``line_no`` of a file
    whose lines end in a newline."""
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] = lines[line_no - 1][:1] + b"\xff" + lines[line_no - 1][1:]
    path.write_bytes(b"\n".join(lines))


def _scenario_and_trace(tmp_path, profile_path):
    scenario = _synth(tmp_path, profile_path)
    trace = tmp_path / "out.trace.jsonl"
    assert main(["run", "--scenario", str(scenario), "--trace", str(trace)]) == 0
    return scenario, trace


# each of these ended in a UnicodeDecodeError traceback, exit 1


def test_run_of_a_scenario_that_is_not_utf8_exits_2_with_the_line(tmp_path, profile_path, capsys):
    scenario, _ = _scenario_and_trace(tmp_path, profile_path)
    # past the header's first read: the replay reaches the byte
    last = len(scenario.read_bytes().splitlines())
    assert scenario.stat().st_size > 3 * 8192
    _spoil(scenario, last)
    capsys.readouterr()
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err == f"error: line {last}: not UTF-8 text\n"


def test_validate_of_a_scenario_that_is_not_utf8_exits_2_with_the_line(tmp_path, profile_path, capsys):
    scenario, _ = _scenario_and_trace(tmp_path, profile_path)
    _spoil(scenario, 3)
    capsys.readouterr()
    assert main(["validate", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"


@pytest.mark.parametrize("command", ["validate", "summarize"])
def test_a_trace_that_is_not_utf8_exits_2_with_the_line(tmp_path, profile_path, capsys, command):
    _, trace = _scenario_and_trace(tmp_path, profile_path)
    _spoil(trace, 4)
    capsys.readouterr()
    assert main([command, "--trace", str(trace)]) == 2
    assert capsys.readouterr().err == "error: line 4: not UTF-8 text\n"


def test_synth_of_a_profile_that_is_not_utf8_exits_2_with_the_line(tmp_path, capsys):
    # lines end in a lone \r, which text mode counts as a line end too
    profile = tmp_path / "profile.json"
    profile.write_bytes(json.dumps(PROFILE, indent=1).replace("\n", "\r").encode("utf-8"))
    assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "out.jsonl")]) == 0
    profile.write_bytes(profile.read_bytes().replace(b'"topic"', b'"topic\xff"'))
    capsys.readouterr()
    assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "out.jsonl")]) == 2
    assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"


def test_run_with_a_config_that_is_not_utf8_exits_2_with_the_line(tmp_path, profile_path, capsys):
    scenario = _synth(tmp_path, profile_path)
    config = tmp_path / "tweak.cfg"
    config.write_bytes(b"# tuned\r\ntrigger_threshold = 2.5\r\nconsecutive_windows = 2\xff\r\n")
    capsys.readouterr()
    assert main(["run", "--scenario", str(scenario), "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"
    config.write_bytes(config.read_bytes().replace(b"\xff", b""))
    assert main(["run", "--scenario", str(scenario), "--config", str(config)]) == 0


def _readme_console_block():
    """(command, printed lines) for each command in the README's Quick start."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```console\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("$ "):
            commands.append((line[2:].split(), []))
        elif line:
            commands[-1][1].append(line)
    return commands


def test_quick_start_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_console_block()
    assert [argv[:2] for argv, _ in commands] == [
        ["cogloop", "synth"], ["cogloop", "run"], ["cogloop", "validate"], ["cogloop", "summarize"],
    ]
    # summarize's output is abridged in the README; the rest is verbatim
    for argv, printed in commands[:3]:
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out.splitlines() == printed
