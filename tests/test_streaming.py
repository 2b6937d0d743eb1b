"""A replay streams from file to decision.

``load_scenario`` reads the header and leaves the records in the file,
``Session.push`` cuts each window and walks each tick as soon as the
merger's watermark makes it final, and the merger's timelines forget what
no later window reaches. So a decision comes out once a record stamped
a jitter tolerance past its tick is in, and a replay's memory does not
grow with the session's length.
"""

import json
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cogloop
from cogloop.cli import main
from cogloop.errors import ScenarioError
from cogloop.model import StreamDescriptor, StreamKind
from cogloop.scenario import (
    SampleRecord,
    Scenario,
    ScenarioFile,
    SyncRecord,
    iter_records,
    load_scenario,
    write_scenario,
)
from cogloop.session import Session, run_session
from cogloop.streams import StreamMerger
from cogloop.synth import parse_profile, synthesize
from cogloop.trace import validate_trace, write_trace

from scenario_lines import parse_scenario_lines, scenario_to_lines

ROOT = Path(__file__).resolve().parents[1]
REPLAY_CHILD = ROOT / "bench" / "replay_child.py"
SRC = Path(cogloop.__file__).resolve().parents[1]

STRESS_PROFILE = {
    "seed": 404,
    "topic": "enzyme kinetics",
    "config": {"calibration_duration_s": 120.0},
    "segments": [
        {"duration_s": 120.0, "channels": {}},
        {"duration_s": 120.0, "channels": {
            "rr_jitter_ms": {"kind": "ramp", "target_z": -7.0, "tau_s": 15.0},
            "rr_mean_ms": {"kind": "ramp", "target_z": -3.0, "tau_s": 15.0},
        }},
        {"duration_s": 60.0, "channels": {}},
    ],
}


# ---------------------------------------------------------------------------
# decisions come out while the records are still arriving

def _first_record_past(records, t):
    return next((i for i, r in enumerate(records) if not isinstance(r, SyncRecord) and r.t > t), None)


@pytest.mark.parametrize("hop", [10.0, 2.5])
def test_every_decision_is_out_before_a_record_a_hop_past_its_tick(hop):
    scenario = synthesize(parse_profile(STRESS_PROFILE))
    records = scenario.records
    session = Session(scenario.header, {"window_hop_s": hop})
    out_after = []  # decisions out after each push
    for record in records:
        session.push(record)
        out_after.append(len(session.decisions))
    result = session.close()

    assert result.decisions == run_session(scenario, {"window_hop_s": hop}).decisions
    assert len(result.decisions) >= 2
    for index, decision in enumerate(result.decisions):
        late = _first_record_past(records, decision.t + result.config.jitter_tolerance_s)
        assert late is not None
        assert out_after[late - 1] > index, f"decision at {decision.t} waited past {records[late].t}"


def test_ticks_inside_a_silence_are_walked_before_close(monkeypatch):
    # beats up to 199.2 s, then nothing until one at 500 s: that beat
    # alone moves the watermark past every tick of the silence
    walked = []
    infer_state = cogloop.session.infer_state

    def recording(features, baseline, weights, t, **kwargs):
        walked.append(t)
        return infer_state(features, baseline, weights, t, **kwargs)

    monkeypatch.setattr(cogloop.session, "infer_state", recording)
    header = json.dumps({
        "type": "header",
        "streams": [{"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1}],
        "config": {"calibration_duration_s": 60.0, "window_hop_s": 10.0},
    })
    beats = [json.dumps({"type": "sample", "stream": "heart", "t": t, "rr_ms": 800})
             for t in [round(i * 0.8, 1) for i in range(250)] + [500.0]]
    scenario = parse_scenario_lines([header, *beats])
    assert scenario.records[-2].t == 199.2
    session = Session(scenario.header)
    for record in scenario.records:
        session.push(record)
    assert walked == [70.0 + 10.0 * i for i in range(43)]  # up to 490 s
    session.close()
    assert walked[-1] == 500.0


def test_an_arrival_sorts_before_the_engine_events_of_its_time():
    # the transcript stamped at the end of calibration arrives behind a
    # beat at 10.25 s, which moved the watermark to 10.0 s: the baseline
    # froze and warned there, the transcript is not late, so it is
    # analyzed (its reply clamped) and reordered
    header = json.dumps({
        "type": "header",
        "streams": [{"stream_id": "notes", "kind": "note_score", "nominal_rate_hz": 0.1},
                    {"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1}],
        "config": {"calibration_duration_s": 10.0, "window_hop_s": 5.0,
                   "window_length.rr_interval": 5.0, "window_length.note_score": 5.0},
        "analyzer_replies": ["score=1.5; feedback=sure"],
    })
    # one scored note in calibration, in time order between the beats at
    # 1.6 and 2.4 s: too few for a note_error baseline
    first = json.dumps({"type": "sample", "stream": "notes", "t": 2.0, "correctness": 0.8})
    beats = [json.dumps({"type": "sample", "stream": "heart", "t": i * 0.8, "rr_ms": 800}) for i in range(38)]
    freeze = json.dumps({"type": "sample", "stream": "heart", "t": 10.25, "rr_ms": 800})
    behind = json.dumps({"type": "sample", "stream": "notes", "t": 10.0, "transcript": "notes at the watermark"})
    lines = [header, *beats[:3], first, *beats[3:13], freeze, behind, *beats[13:]]
    result = run_session(parse_scenario_lines(lines))
    at_10 = [(e.kind, e.payload.get("reason")) for e in result.events if e.t == 10.0 and e.kind != "window_features"]
    assert at_10 == [
        ("ingest", None),  # reordered: behind the beat at 10.25 s
        ("warning", "note_score_clamped"),
        ("warning", "uncalibrated_channel"),
    ]
    assert validate_trace({"config": result.config, "modality": result.header.modality}, result.events) == []


def test_a_session_shorter_than_calibration_freezes_the_baseline_at_close():
    scenario = synthesize(parse_profile({**STRESS_PROFILE, "config": {"calibration_duration_s": 900.0}}))
    session = Session(scenario.header)
    for record in scenario.records:
        session.push(record)
        assert session.baseline is None
    result = session.close()
    assert result.baseline is not None
    assert not [e for e in result.events if e.kind == "state_vector"]


@pytest.mark.parametrize("hop", [None, 0.6])
def test_each_tick_fuses_the_live_features_since_the_previous_tick_once(monkeypatch, hop):
    # wrapped where the session looks it up, as the bench's tracer does
    fused = []
    infer_state = cogloop.session.infer_state

    def recording(features, baseline, weights, t, **kwargs):
        fused.append((t, list(features)))
        return infer_state(features, baseline, weights, t, **kwargs)

    monkeypatch.setattr(cogloop.session, "infer_state", recording)
    text = resources.files("cogloop").joinpath("profiles", "stress_ramp.json").read_text(encoding="utf-8")
    overrides = None if hop is None else {"window_hop_s": hop}
    result = run_session(synthesize(parse_profile(json.loads(text))), overrides=overrides)
    cfg = result.config

    assert fused
    previous = cfg.calibration_duration_s
    for tick, features in fused:
        assert tick - previous == pytest.approx(cfg.window_hop_s)
        assert all(previous < feature.t <= tick for feature in features)
        previous = tick
    fused_values = Counter((f.channel_id, f.t, f.value) for _, features in fused for f in features)
    # a window ending after the last tick is cut at close and read by no tick
    cut_values = Counter(
        (channel, event.t, value)
        for event in result.events
        if event.kind == "window_features" and cfg.calibration_duration_s < event.t <= previous
        for channel, value in event.payload["values"].items()
    )
    assert fused_values == cut_values
    assert set(fused_values.values()) == {1}


def test_the_session_cuts_a_kind_only_when_it_has_a_final_window(monkeypatch):
    returned = []
    pop_windows = StreamMerger.pop_windows

    def counted(self, kind, length_s, hop_s):
        windows = pop_windows(self, kind, length_s, hop_s)
        returned.append(len(windows))
        return windows

    monkeypatch.setattr(StreamMerger, "pop_windows", counted)
    result = run_session(synthesize(parse_profile(STRESS_PROFILE)), {"window_hop_s": 2.5})
    assert 0 not in returned
    assert sum(returned) == sum(1 for e in result.events if e.kind == "window_features")


def test_a_kind_no_stream_declares_traces_each_of_its_windows_as_absent():
    # heart only, beats 0.8 s apart up to 200 s: the gaze, posture and
    # note windows hold nothing, and each is still cut and traced
    header = json.dumps({
        "type": "header",
        "streams": [{"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1}],
        "config": {"calibration_duration_s": 60.0},
    })
    beats = [json.dumps({"type": "sample", "stream": "heart", "t": round(i * 0.8, 1), "rr_ms": 800})
             for i in range(251)]
    result = run_session(parse_scenario_lines([header, *beats]))
    spans: dict[tuple[str, bool], list[tuple[float, float]]] = {}
    for e in result.events:
        if e.kind == "window_features":
            w = e.payload
            spans.setdefault((w["stream_kind"], w["present"]), []).append((w["start"], w["end"]))
            assert w["present"] == (w["quality"] > 0.0) == bool(w["values"])
    # gaze and posture windows from the start, RR and note windows of
    # 60 s, the note windows cut from the end of calibration on
    short = [(10.0 * k, 10.0 * k + 10.0) for k in range(20)]
    long = [(10.0 * k, 10.0 * k + 60.0) for k in range(15)]
    assert spans == {
        ("pupil_gaze", False): short,
        ("posture_landmarks", False): short,
        ("rr_interval", True): long,
        ("note_score", False): long,
    }


# ---------------------------------------------------------------------------
# windows cut as the watermark moves equal windows cut once at the end

@settings(max_examples=150, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0.0, max_value=40.0), max_size=120),
    jitter=st.sampled_from([0.0, 0.25, 2.0]),
    length=st.sampled_from([1.0, 2.5, 4.0]),
    hop_share=st.sampled_from([0.3, 0.5, 1.0]),
)
def test_windows_cut_after_every_ingest_equal_windows_cut_once(times, jitter, length, hop_share):
    hop = length * hop_share

    def merger_with(arrivals, pop_each_time):
        merger = StreamMerger(jitter_tolerance_s=jitter)
        heart = merger.register_stream(StreamDescriptor("heart", StreamKind.RR_INTERVAL, 1.0))
        windows = []
        for t in arrivals:
            merger.ingest(heart, t, 800.0)
            if pop_each_time:
                windows += merger.pop_windows(StreamKind.RR_INTERVAL, length, hop)
        merger.flush()
        windows += merger.pop_windows(StreamKind.RR_INTERVAL, length, hop)
        return windows

    streamed = merger_with(times, pop_each_time=True)
    assert streamed == merger_with(times, pop_each_time=False)
    # each window holds exactly the kept samples in its span
    for window in streamed:
        assert all(window.start <= env.timestamp < window.end for env in window.samples)


def test_the_timeline_forgets_what_no_later_window_reaches():
    merger = StreamMerger(jitter_tolerance_s=0.0)
    heart = merger.register_stream(StreamDescriptor("heart", StreamKind.RR_INTERVAL, 1.0))
    for t in range(1000):
        merger.ingest(heart, t * 0.5, 500.0)
        merger.pop_windows(StreamKind.RR_INTERVAL, 10.0, 5.0)
    # the next window is [490, 500): samples from 490 s on stay
    assert [env.timestamp for env in merger.timeline(StreamKind.RR_INTERVAL)][:2] == [490.0, 490.5]
    assert len(merger.timeline(StreamKind.RR_INTERVAL)) == 20


# ---------------------------------------------------------------------------
# a loaded scenario parses its records as they are replayed

def _written(tmp_path, lines):
    path = tmp_path / "scenario.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_loaded_records_are_a_reiterable_view_of_the_file(tmp_path):
    scenario = synthesize(parse_profile({"seed": 3, "segments": [{"duration_s": 6.0}], "note_interval_s": 2.0}))
    path = tmp_path / "scenario.jsonl"
    write_scenario(scenario, path)
    loaded = load_scenario(path)
    assert isinstance(loaded.records, ScenarioFile)
    assert loaded.header == scenario.header
    assert list(loaded.records) == scenario.records
    assert list(loaded.records) == scenario.records  # a second pass parses again
    assert len(loaded.records) == len(scenario.records)
    assert list(iter_records(scenario_to_lines(scenario))) == scenario.records


def test_a_bad_line_late_in_the_file_raises_when_the_replay_reaches_it(tmp_path, capsys):
    header = json.dumps({"type": "header", "streams": [{"stream_id": "heart", "kind": "rr_interval",
                                                          "nominal_rate_hz": 1}]})
    beats = [json.dumps({"type": "sample", "stream": "heart", "t": t, "rr_ms": 800}) for t in range(5)]
    path = _written(tmp_path, [header, *beats, json.dumps({"type": "sample", "stream": "heart", "t": 9})])
    scenario = load_scenario(path)  # the header is fine
    with pytest.raises(ScenarioError, match="line 7: bad rr_interval payload"):
        run_session(scenario)
    with pytest.raises(ScenarioError, match="line 7"):
        len(scenario.records)
    assert main(["run", "--scenario", str(path)]) == 2
    assert "line 7" in capsys.readouterr().err


def test_a_bad_header_raises_at_load(tmp_path):
    with pytest.raises(ScenarioError, match="line 1: first line must be the header"):
        load_scenario(_written(tmp_path, [json.dumps({"type": "sample", "stream": "heart", "t": 0})]))
    with pytest.raises(ScenarioError, match="line 1: scenario is empty"):
        load_scenario(_written(tmp_path, [""]))


# ---------------------------------------------------------------------------
# a file replay hands each sample line straight to the session
#
# run_session on a ScenarioFile passes Session.place to the parser, which
# calls it with each checked sample's fields; a list of records goes
# through Session.push. Both must make the same replay.

def _hand_made_lines() -> list[str]:
    """Beats every 0.8 s for 60 s, in arrival order with: notes 0.1 s
    behind the newest beat (reordered) and 3 s or 0.4 s behind it
    (dropped), one of the reordered ones a transcript, a sync that moves
    the heart clock 0.3 s on from 24 s, and a note past the session
    span."""
    header = {
        "type": "header",
        "streams": [{"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1.25},
                    {"stream_id": "notes", "kind": "note_score", "nominal_rate_hz": 0.1}],
        "config": {"calibration_duration_s": 20.0, "window_hop_s": 5.0,
                   "window_length.rr_interval": 10.0, "window_length.note_score": 10.0},
        "analyzer_replies": ["score=0.7; feedback=fine"],
    }
    notes = {
        5.6: {"t": 5.5, "correctness": 0.9},
        12.0: {"t": 9.0, "correctness": 0.8},
        30.4: {"t": 30.6, "transcript": "notes on enzyme rates"},
        40.0: {"t": 39.9, "correctness": 0.85},
    }
    lines = [json.dumps(header)]
    for i in range(75):
        t = round(i * 0.8, 1)
        lines.append(json.dumps({"type": "sample", "stream": "heart", "t": t, "rr_ms": 800}))
        if t in notes:
            lines.append(json.dumps({"type": "sample", "stream": "notes", **notes[t]}))
        if t == 24.0:
            lines.append(json.dumps({"type": "sync", "stream": "heart", "marks": [[0.0, 0.3], [10.0, 10.3]]}))
    lines.append(json.dumps({"type": "sample", "stream": "notes", "t": 1e6, "correctness": 0.9}))
    return lines


def _bundled_lines(name: str) -> list[str]:
    text = resources.files("cogloop").joinpath("profiles", f"{name}.json").read_text(encoding="utf-8")
    return scenario_to_lines(synthesize(parse_profile(json.loads(text))))


def _record_replay(lines) -> Scenario:
    return Scenario(parse_scenario_lines(lines[:1]).header, list(iter_records(lines)))


@pytest.mark.parametrize("name", ["all_baseline", "load_excursion", "mixed_session", "stress_ramp", "hand_made"])
def test_a_file_replay_and_a_record_replay_write_the_same_trace(tmp_path, name):
    lines = _hand_made_lines() if name == "hand_made" else _bundled_lines(name)
    from_file, from_records = tmp_path / "file.trace.jsonl", tmp_path / "records.trace.jsonl"
    write_trace(run_session(load_scenario(_written(tmp_path, lines))), from_file)
    result = run_session(_record_replay(lines))
    write_trace(result, from_records)
    assert from_file.read_bytes() == from_records.read_bytes()
    if name == "hand_made":
        kinds = Counter(
            (e.kind, e.payload.get("outcome") or e.payload.get("reason")) for e in result.events
            if e.kind in ("sync", "ingest", "warning")
        )
        assert kinds == {
            ("sync", None): 1,
            ("ingest", "reordered"): 2,
            ("ingest", "dropped_late"): 2,
            ("warning", "session_time_out_of_range"): 1,
        }
        # the transcript was scored by the analyzer's scripted reply, 0.7
        note_errors = [e.payload["values"]["note_error"] for e in result.events
                       if e.kind == "window_features" and e.payload["stream_kind"] == "note_score"
                       and e.t in (35.0, 40.0)]
        assert note_errors == [pytest.approx(0.3)] * 2


def test_a_malformed_line_raises_the_same_error_on_both_paths(tmp_path):
    lines = _hand_made_lines()
    bad = json.dumps({"type": "sample", "stream": "heart", "t": 60.0, "rr_ms": "fast"})
    lines.insert(-1, bad)
    errors = []
    for replay in (lambda: run_session(load_scenario(_written(tmp_path, lines))),
                   lambda: run_session(_record_replay(lines))):
        with pytest.raises(ScenarioError) as error:
            replay()
        errors.append((str(error.value), error.value.line_no))
    assert errors[0] == errors[1] == (
        f"line {len(lines) - 1}: bad rr_interval payload: rr_ms must be a positive finite number, got 'fast'",
        len(lines) - 1,
    )


def test_a_file_replay_builds_no_sample_record(tmp_path, monkeypatch):
    # tests/test_bench_layers.py checks that it still makes one ingest
    # and one envelope per record
    built = []
    init = SampleRecord.__init__

    def counted(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(SampleRecord, "__init__", counted)
    lines = _hand_made_lines()
    scenario = load_scenario(_written(tmp_path, lines))
    run_session(scenario)
    assert built == []
    # iterating the file still builds each sample's record
    samples = [line for line in lines if '"sample"' in line]
    assert len([r for r in scenario.records if isinstance(r, SampleRecord)]) == len(built) == len(samples)


def test_realtime_paces_the_same_session_times_on_both_paths(tmp_path):
    lines = _hand_made_lines()
    slept = {"file": [], "records": []}
    run_session(load_scenario(_written(tmp_path, lines)), realtime=True, _sleep=slept["file"].append)
    run_session(_record_replay(lines), realtime=True, _sleep=slept["records"].append)
    assert slept["file"] == slept["records"]
    # from the first beat to the last, shifted by the sync's 0.3 s
    assert sum(slept["file"]) == pytest.approx(59.2 + 0.3)


# ---------------------------------------------------------------------------
# memory does not grow with the session's length

def _shrunk_mixed_session(scale: float) -> dict:
    """The bundled mixed_session with every time constant scaled, and
    its calibration span with it."""
    text = resources.files("cogloop").joinpath("profiles", "mixed_session.json").read_text(encoding="utf-8")
    data = json.loads(text)
    for segment in data["segments"]:
        segment["duration_s"] *= scale
        for spec in segment.get("channels", {}).values():
            for key in ("tau_s", "period_s"):
                if key in spec:
                    spec[key] *= scale
    data.setdefault("config", {})["calibration_duration_s"] = 300.0 * scale
    return data


def _peak_rss_of_a_replay(tmp_path, data, name) -> int:
    """VmHWM of a fresh process that loads, replays and writes the trace
    of the profile's scenario."""
    scenario_path, trace_path = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.trace.jsonl"
    write_scenario(synthesize(parse_profile(data)), scenario_path)
    child = subprocess.run(
        [sys.executable, str(REPLAY_CHILD), str(SRC), str(scenario_path), str(trace_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])["peak_rss_bytes"]


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="VmHWM is read from /proc")
def test_peak_memory_of_a_replay_grows_little_with_session_length(tmp_path):
    short = _peak_rss_of_a_replay(tmp_path, _shrunk_mixed_session(0.2), "short")  # 240 s
    long = _peak_rss_of_a_replay(tmp_path, _shrunk_mixed_session(1.0), "long")  # 1,200 s
    assert long <= 1.5 * short, f"{long / 1e6:.1f} MB for 1,200 s against {short / 1e6:.1f} MB for 240 s"


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="VmHWM is read from /proc")
def test_peak_memory_of_a_replay_does_not_grow_with_its_calibration(tmp_path):
    # the 1,200 s mixed_session, calibrated over 60 s and over 900 s:
    # the calibration frames are folded as they go by, not kept
    data = _shrunk_mixed_session(1.0)
    data["config"]["calibration_duration_s"] = 60.0
    short = _peak_rss_of_a_replay(tmp_path, data, "short")
    data["config"]["calibration_duration_s"] = 900.0
    long = _peak_rss_of_a_replay(tmp_path, data, "long")
    assert abs(long - short) <= 1e6, f"{long / 1e6:.1f} MB calibrating 900 s against {short / 1e6:.1f} MB for 60 s"


# ``cogloop synth`` through the command line's ``main`` in a fresh
# process; prints its peak resident set size (VmHWM, as
# bench/replay_child.py reads it) on its last line.
_SYNTH_CHILD = """
import sys
from cogloop.cli import main
assert main(["synth", "--profile", sys.argv[1], "--out", sys.argv[2]]) == 0
with open("/proc/self/status", encoding="ascii") as status:
    print(next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:")))
"""


def _peak_rss_of_cogloop_synth(tmp_path, data, name) -> int:
    profile_path = tmp_path / f"{name}.profile.json"
    profile_path.write_text(json.dumps(data), encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-c", _SYNTH_CHILD, str(profile_path), str(tmp_path / f"{name}.jsonl")],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return int(child.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="VmHWM is read from /proc")
def test_peak_memory_of_cogloop_synth_grows_little_with_session_length(tmp_path):
    # the writer draws and writes a chunk of session time at a time
    short = _peak_rss_of_cogloop_synth(tmp_path, _shrunk_mixed_session(0.2), "short")  # 240 s
    long = _peak_rss_of_cogloop_synth(tmp_path, _shrunk_mixed_session(1.0), "long")  # 1,200 s
    assert long <= 1.5 * short, f"{long / 1e6:.1f} MB for 1,200 s against {short / 1e6:.1f} MB for 240 s"
