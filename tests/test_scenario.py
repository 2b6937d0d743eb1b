import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogloop.model import MAX_SESSION_S
from cogloop.errors import ConfigError, ScenarioError
from cogloop.model import (
    POSTURE_POINTS,
    NoteScoreSample,
    PostureSample,
    StreamDescriptor,
    StreamKind,
)
from cogloop.scenario import (
    MAX_PUPIL_MM,
    MIN_GAZE_STEP_S,
    SampleRecord,
    Scenario,
    ScenarioHeader,
    SyncRecord,
    _render,
    _is_finite_number,
    _is_mark,
    _parse_header,
    _shared_fields,
    load_scenario,
    write_scenario,
)
from cogloop.session import run_session
from cogloop.streams import estimate_offset
from cogloop.synth import CONTROLS, GeneratorSpec, _ControlCurve, load_profile, parse_profile, synthesize
from cogloop.trace import validate_trace

from scenario_lines import parse_scenario_lines, scenario_to_lines

HEADER = json.dumps({
    "type": "header",
    "streams": [
        {"stream_id": "gaze", "kind": "pupil_gaze", "nominal_rate_hz": 60},
        {"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 200},
        {"stream_id": "notes", "kind": "note_score", "nominal_rate_hz": 0.0167},
    ],
    "seed": 5,
    "topic": "osmosis",
})


def _gaze_line(t, x=0.5, y=0.5, pupil=3.0):
    return json.dumps({
        "type": "sample", "stream": "gaze", "t": t, "x": x, "y": y,
        "pupil_mm": pupil, "confidence": 0.98,
    })


# ---------------------------------------------------------------------------
# parsing

def test_minimal_scenario_parses():
    scenario = parse_scenario_lines([HEADER, _gaze_line(0.0), _gaze_line(0.016)])
    assert scenario.header.seed == 5
    assert scenario.header.topic == "osmosis"
    assert len(scenario.records) == 2
    assert scenario.duration_s() == pytest.approx(0.016)


def test_t_ms_is_converted():
    line = json.dumps({"type": "sample", "stream": "heart", "t_ms": 1500, "rr_ms": 820})
    scenario = parse_scenario_lines([HEADER, line])
    assert scenario.records[0].t == pytest.approx(1.5)


@pytest.mark.parametrize(
    "stamp", [{"t": -1.0}, {"t": 10**400}, {"t": True}, {"t_ms": "1500"}, {"t_ms": 10**400}]
)
def test_bad_timestamps_rejected_with_line_number(stamp):
    line = json.dumps({"type": "sample", "stream": "heart", "rr_ms": 820, **stamp})
    with pytest.raises(ScenarioError, match="line 2: bad timestamp"):
        parse_scenario_lines([HEADER, line])


def test_both_time_fields_rejected_with_line_number():
    line = json.dumps({"type": "sample", "stream": "heart", "t": 1.0, "t_ms": 1000, "rr_ms": 820})
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_lines([HEADER, line])
    assert excinfo.value.line_no == 2
    assert "both t and t_ms" in str(excinfo.value)


def test_invalid_json_reports_its_line():
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_lines([HEADER, _gaze_line(0.0), "{not json"])
    assert excinfo.value.line_no == 3
    # no value where one starts: json's own message
    with pytest.raises(ScenarioError, match="line 2: invalid JSON: Expecting value"):
        parse_scenario_lines([HEADER, "]"])
    # two objects on one line: trailing data is an error, as in json.loads
    with pytest.raises(ScenarioError, match="line 3: invalid JSON: Extra data") as excinfo:
        parse_scenario_lines([HEADER, _gaze_line(0.0), _gaze_line(0.1) + " " + _gaze_line(0.2)])
    assert excinfo.value.line_no == 3
    # surrounding whitespace is not trailing data
    assert len(parse_scenario_lines([HEADER, "  " + _gaze_line(0.0) + " \t"]).records) == 1


def test_header_must_come_first():
    with pytest.raises(ScenarioError, match="first line must be the header"):
        parse_scenario_lines([_gaze_line(0.0), HEADER])
    with pytest.raises(ScenarioError, match="duplicate header"):
        parse_scenario_lines([HEADER, HEADER])
    with pytest.raises(ScenarioError, match="empty"):
        parse_scenario_lines([])


def test_undeclared_stream_rejected():
    line = json.dumps({"type": "sample", "stream": "ghost", "t": 0.0, "rr_ms": 800})
    with pytest.raises(ScenarioError, match="undeclared stream 'ghost'"):
        parse_scenario_lines([HEADER, line])
    sync = json.dumps({"type": "sync", "stream": "ghost", "marks": [[0, 0], [1, 1]]})
    with pytest.raises(ScenarioError, match="undeclared stream 'ghost'"):
        parse_scenario_lines([HEADER, sync])


def test_gaze_timestamps_must_strictly_increase():
    with pytest.raises(ScenarioError, match="strictly increase"):
        parse_scenario_lines([HEADER, _gaze_line(1.0), _gaze_line(1.0)])
    with pytest.raises(ScenarioError, match="strictly increase"):
        parse_scenario_lines([HEADER, _gaze_line(1.0), _gaze_line(0.5)])


def test_non_gaze_streams_may_repeat_timestamps_but_not_decrease():
    beat = lambda t: json.dumps({"type": "sample", "stream": "heart", "t": t, "rr_ms": 800})
    scenario = parse_scenario_lines([HEADER, beat(1.0), beat(1.0)])
    assert len(scenario.records) == 2
    with pytest.raises(ScenarioError, match="decrease"):
        parse_scenario_lines([HEADER, beat(1.0), beat(0.9)])


def test_note_records_need_exactly_one_of_score_or_transcript():
    both = json.dumps({
        "type": "sample", "stream": "notes", "t": 30.0,
        "correctness": 0.8, "transcript": "osmosis moves water",
    })
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario_lines([HEADER, both])
    neither = json.dumps({"type": "sample", "stream": "notes", "t": 30.0})
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario_lines([HEADER, neither])

    transcript = json.dumps({
        "type": "sample", "stream": "notes", "t": 30.0, "transcript": "water moves",
    })
    scenario = parse_scenario_lines([HEADER, transcript])
    assert scenario.records[0].transcript == "water moves"
    assert scenario.records[0].payload is None


def test_non_positive_pupil_becomes_absent():
    scenario = parse_scenario_lines([HEADER, _gaze_line(0.0, pupil=0.0)])
    assert scenario.records[0].payload == (0.5, 0.5, None, 0.98)


def test_source_confidence_range_checked():
    line = json.dumps({
        "type": "sample", "stream": "heart", "t": 0.0, "rr_ms": 800,
        "source_confidence": 1.5,
    })
    with pytest.raises(ScenarioError, match="source_confidence"):
        parse_scenario_lines([HEADER, line])


def test_unknown_record_type_rejected():
    line = json.dumps({"type": "checkpoint", "t": 0.0})
    with pytest.raises(ScenarioError, match="unknown record type"):
        parse_scenario_lines([HEADER, line])


def test_sync_records_parse_marks():
    sync = json.dumps({"type": "sync", "stream": "heart", "marks": [[0, 5], [10, 15]]})
    scenario = parse_scenario_lines([HEADER, sync])
    record = scenario.records[0]
    assert isinstance(record, SyncRecord)
    assert record.marks == ((0.0, 5.0), (10.0, 15.0))


@pytest.mark.parametrize(
    "marks",
    [
        [[0, float("nan")], [1, 2]],
        [[0, float("inf")], [1, 2]],
        [1, 2],
        [["a", "b"], [1, 2]],
        [[0, 1]],
        [],
        [[0, 1], [1, 2, 3]],
        [[True, 1], [1, 2]],
        [[0, 10**400], [1, 2]],
        {"0": 1, "1": 2},
        # finite marks whose median offset overflows
        [[-1e308, 1e308], [-1e308, 1e308]],
    ],
)
def test_malformed_sync_marks_rejected_with_line_number(marks):
    sync = json.dumps({"type": "sync", "stream": "heart", "marks": marks})
    with pytest.raises(ScenarioError, match="line 2: sync marks"):
        parse_scenario_lines([HEADER, sync])


# Any finite mark value: replay walks every window and tick up to the
# latest session time, and skips a sample mapped past MAX_SESSION_S with
# a warning, so an offset of years makes no replay of years.
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers())
_JUNK = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), True, None, "", "7", [], [1.0], [1.0, 2.0, 3.0]]
)


@st.composite
def _mutated_marks(draw):
    """A valid list of marks, then at most one mutation of it."""
    marks = draw(st.lists(st.lists(_FINITE, min_size=2, max_size=2), min_size=2, max_size=4))
    mutation = draw(st.sampled_from(["none", "value", "mark", "drop", "whole"]))
    i = draw(st.integers(min_value=0, max_value=len(marks) - 1))
    if mutation == "value":
        marks[i][draw(st.integers(min_value=0, max_value=1))] = draw(_JUNK)
    elif mutation == "mark":
        marks[i] = draw(_JUNK)
    elif mutation == "drop":
        marks = marks[:1]
    elif mutation == "whole":
        marks = draw(_JUNK)
    return marks


_BEATS = [
    json.dumps({"type": "sample", "stream": "heart", "t": round(i * 0.8, 3), "rr_ms": 800})
    for i in range(40)
] + [json.dumps({"type": "sample", "stream": "notes", "t": 20.0, "correctness": 0.9})]
_SHORT = {"calibration_duration_s": 10.0, "window_hop_s": 5.0, "window_length.rr_interval": 5.0}


@settings(max_examples=80, deadline=None)
@given(
    stream=st.sampled_from(["heart", "heart", "notes", "ghost"]),
    marks=_mutated_marks(),
    position=st.integers(min_value=0, max_value=len(_BEATS)),
)
def test_mutated_sync_lines_fail_cleanly_or_replay_clean(stream, marks, position):
    sync = json.dumps({"type": "sync", "stream": stream, "marks": marks})
    header = json.loads(HEADER)
    header["config"] = _SHORT
    lines = [json.dumps(header)] + _BEATS[:position] + [sync] + _BEATS[position:]
    try:
        scenario = parse_scenario_lines(lines)
    except ScenarioError:
        return
    result = run_session(scenario)
    assert validate_trace({"config": result.config, "modality": result.header.modality}, result.events) == []


# A small valid scenario with one stream of every kind, then one mutated
# header or sample line. Timestamps are any finite number, for the
# reason given above the sync property. No junk value is a positive
# number under 0.5, which as window_hop_s would make a replay of
# millions of windows.
_CAM = {
    "shoulder_left": [0.38, 0.5], "shoulder_right": [0.62, 0.5], "ear_left": [0.44, 0.3],
    "ear_right": [0.56, 0.3], "hip_left": [0.42, 0.88], "hip_right": [0.58, 0.88],
}
_FULL_HEADER = {
    "type": "header",
    "streams": [
        {"stream_id": "gaze", "kind": "pupil_gaze", "nominal_rate_hz": 5},
        {"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1},
        {"stream_id": "cam", "kind": "posture_landmarks", "nominal_rate_hz": 1},
        {"stream_id": "notes", "kind": "note_score", "nominal_rate_hz": 0.1},
    ],
    "seed": 5,
    "modality": "text",
    "topic": "osmosis",
    "analyzer_replies": ["score=0.7; feedback=fine"],
    "dialogue": [{"role": "learner", "text": "why?"}],
    "config": {
        "calibration_duration_s": 10.0, "window_hop_s": 2.5, "baseline_min_samples": 2,
        "window_length.pupil_gaze": 5.0, "window_length.rr_interval": 5.0,
        "window_length.posture_landmarks": 5.0, "window_length.note_score": 10.0,
    },
}


def _stressed_beats():
    """Calm beats through calibration, then fast and steady ones: enough
    for a stress decision, so the directive path runs too."""
    beats, t, i = [], 0.0, 0
    while t < 25.0:
        rr = 800 + (i % 5) * 10 if t < 10.0 else 520 + (i % 2) * 2
        beats.append({"type": "sample", "stream": "heart", "t": round(t, 3), "rr_ms": rr})
        t, i = t + rr / 1000.0, i + 1
    return beats


_STRESSED_BEATS = _stressed_beats()
_SAMPLES = sorted(
    [{"type": "sample", "stream": "gaze", "t": i / 5, "x": 0.5 + (i % 7) / 100, "y": 0.5,
      "pupil_mm": None if i % 23 == 5 else 3.0 + (i % 3) / 10, "confidence": 0.95,
      "source_confidence": 0.9} for i in range(125)]
    + _STRESSED_BEATS
    + [{"type": "sample", "stream": "cam", "t": float(i), "landmarks": _CAM,
        "visibility": {"hip_left": 0.9}} for i in range(25)]
    + [{"type": "sample", "stream": "notes", "t": 8.0, "correctness": 0.6, "feedback": "ok"},
       {"type": "sample", "stream": "notes", "t": 18.0, "transcript": "water moves in"}],
    key=lambda obj: obj["t"],
)
_JUNK = st.sampled_from([
    None, True, False, "", "7", "pupil_gaze", [], [1.0], [0.5, 0.5], {}, {"x": 1},
    float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), 1e308,
    -1, 0, 0.5, 1, 3, 60.0, 999.0,
])
# timestamps: any finite number, or values that are no timestamp
_JUNK_T = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.sampled_from([None, True, "", "7", [], float("nan"), float("inf"), float("-inf"), 10**400]),
)
_SAMPLE_KEYS = [
    "type", "stream", "t", "t_ms", "x", "y", "pupil_mm", "confidence", "source_confidence",
    "rr_ms", "landmarks", "visibility", "correctness", "feedback", "transcript",
]
_HEADER_KEYS = ["type", "streams", "seed", "modality", "topic", "analyzer_replies", "dialogue", "config"]
_CONFIG_KEYS = [
    "calibration_duration_s", "window_hop_s", "jitter_tolerance_s", "ivt_velocity_threshold",
    "min_fixation_duration_s", "rolling_median_width", "quality_floor", "trigger_threshold",
    "persistence_s", "consecutive_windows", "confidence_min", "sigma_floor", "baseline_min_samples",
    "history_turns", "client", "window_length.pupil_gaze", "window_length.rr_interval",
    "cooldown.physiological", "weight.stress.rmssd", "strategy.stress.high.text", "no_such_key",
]


@st.composite
def _mutated_scenario(draw):
    """The valid scenario above with one header or sample field replaced,
    removed or nested junk put in its place."""
    header = json.loads(json.dumps(_FULL_HEADER))
    samples = json.loads(json.dumps(_SAMPLES))
    target = draw(st.sampled_from(["header", "stream", "config", "sample", "landmark"]))
    if target == "header":
        key = draw(st.sampled_from(_HEADER_KEYS))
        if draw(st.booleans()):
            header.pop(key, None)
        else:
            header[key] = draw(_JUNK)
    elif target == "stream":
        entry = draw(st.sampled_from(header["streams"]))
        key = draw(st.sampled_from(["stream_id", "kind", "nominal_rate_hz"]))
        entry[key] = draw(st.one_of(_JUNK, st.sampled_from(["gaze", "heart", "rr_interval", "ghost"])))
    elif target == "config":
        header["config"][draw(st.sampled_from(_CONFIG_KEYS))] = draw(_JUNK)
    else:
        sample = draw(st.sampled_from(samples))
        if target == "landmark":
            sample.setdefault("landmarks", dict(_CAM))[draw(st.sampled_from(sorted(_CAM)))] = draw(_JUNK)
        else:
            key = draw(st.sampled_from(_SAMPLE_KEYS))
            if draw(st.booleans()) and key in sample:
                del sample[key]
            else:
                sample[key] = draw(_JUNK_T if key in ("t", "t_ms") else _JUNK)
    return [json.dumps(header)] + [json.dumps(obj) for obj in samples]


@settings(max_examples=150, deadline=None)
@given(lines=_mutated_scenario())
def test_mutated_header_and_sample_lines_fail_cleanly_or_replay_clean(lines):
    try:
        scenario = parse_scenario_lines(lines)
        result = run_session(scenario)
    except (ScenarioError, ConfigError):
        return
    assert validate_trace({"config": result.config, "modality": result.header.modality}, result.events) == []


# ---------------------------------------------------------------------------
# the per-stream parsers against the single-pass parser they replaced

def _oracle_unit_interval(name, value):
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a finite number in [0, 1], got {value!r}")


def _oracle_finite(name, value):
    if not (isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _oracle_payload(kind, raw, line_no):
    """The parser's payload step, with the checks the payload
    constructors used to make, in their order."""
    try:
        if kind is StreamKind.PUPIL_GAZE:
            pupil = raw.get("pupil_mm")
            if isinstance(pupil, bool):
                raise ValueError("pupil_mm must be a number")
            if pupil is not None and pupil <= 0:
                pupil = None
            row = (raw["x"], raw["y"], pupil, raw.get("confidence", 1.0))
            _oracle_unit_interval("x", row[0])
            _oracle_unit_interval("y", row[1])
            _oracle_unit_interval("confidence", row[3])
            if pupil is not None:
                _oracle_finite("pupil_mm", pupil)
                if pupil <= 0:
                    raise ValueError("pupil_mm must be positive when present")
                if pupil > MAX_PUPIL_MM:
                    raise ValueError("pupil_mm must be at most MAX_PUPIL_MM")
            return row, None
        if kind is StreamKind.RR_INTERVAL:
            rr = raw["rr_ms"]
            _oracle_finite("rr_ms", rr)
            if rr <= 0:
                raise ValueError("rr_ms must be positive")
            return rr, None
        if kind is StreamKind.POSTURE_LANDMARKS:
            landmarks, visibility = raw["landmarks"], raw.get("visibility", {})
            if not (isinstance(landmarks, dict) and isinstance(visibility, dict)):
                raise ScenarioError("posture landmarks and visibility must be objects", line_no)
            sample = PostureSample(
                landmarks={name: tuple(point) for name, point in landmarks.items()}, visibility=visibility
            )
            for name, point in sample.landmarks.items():
                if name not in POSTURE_POINTS:
                    raise ValueError(f"unknown landmark {name!r}")
                x, y = point
                _oracle_unit_interval(f"{name}.x", x)
                _oracle_unit_interval(f"{name}.y", y)
            for name, vis in sample.visibility.items():
                if name not in POSTURE_POINTS:
                    raise ValueError(f"unknown landmark {name!r}")
                _oracle_unit_interval(f"{name}.visibility", vis)
            return sample, None
        has_score = "correctness" in raw
        has_transcript = "transcript" in raw
        if has_score == has_transcript:
            raise ScenarioError("note record needs exactly one of correctness/transcript", line_no)
        if has_transcript:
            transcript = raw["transcript"]
            if not isinstance(transcript, str) or not transcript.strip():
                raise ScenarioError("note transcript must be a non-empty string", line_no)
            return None, transcript
        sample = NoteScoreSample(correctness=raw["correctness"], feedback_text=raw.get("feedback", ""))
        _oracle_unit_interval("correctness", sample.correctness)
        return sample, None
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ScenarioError(f"bad {kind.value} payload: {error}", line_no) from None


def _oracle_time(raw, line_no):
    if "t" in raw and "t_ms" in raw:
        raise ScenarioError("record carries both t and t_ms", line_no)
    if "t" in raw:
        t, scale = raw["t"], 1.0
    elif "t_ms" in raw:
        t, scale = raw["t_ms"], 1000.0
    else:
        raise ScenarioError("record missing timestamp (t or t_ms)", line_no)
    if not (_is_finite_number(t) and t >= 0):
        raise ScenarioError(f"bad timestamp {t!r}", line_no)
    return float(t) / scale


def _oracle_parse(lines):
    """The single pass that checked every sample line with shared helpers
    and constructor checks, kept as the reference."""
    header, records, kinds, last_t = None, [], {}, {}
    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid JSON: {error.msg}", line_no) from None
        if not isinstance(obj, dict) or "type" not in obj:
            raise ScenarioError("each line must be an object with a 'type'", line_no)
        if obj["type"] == "header":
            if header is not None:
                raise ScenarioError("duplicate header", line_no)
            if records:
                raise ScenarioError("header must be the first record", line_no)
            header = _parse_header(obj, line_no)
            kinds = {d.stream_id: d.kind for d in header.streams}
            continue
        if header is None:
            raise ScenarioError("first line must be the header", line_no)
        if obj["type"] == "sync":
            stream_id = obj.get("stream")
            if not isinstance(stream_id, str) or stream_id not in kinds:
                raise ScenarioError(f"sync for undeclared stream {stream_id!r}", line_no)
            marks = obj.get("marks")
            if not (isinstance(marks, list) and len(marks) >= 2 and all(map(_is_mark, marks))):
                raise ScenarioError("sync marks", line_no)
            marks = tuple((float(p), float(s)) for p, s in marks)
            if not math.isfinite(estimate_offset(marks)):
                raise ScenarioError("sync marks give a non-finite clock offset", line_no)
            records.append(SyncRecord(stream_id=stream_id, marks=marks))
            continue
        if obj["type"] != "sample":
            raise ScenarioError(f"unknown record type {obj['type']!r}", line_no)
        stream_id = obj.get("stream")
        if not isinstance(stream_id, str) or stream_id not in kinds:
            raise ScenarioError(f"sample for undeclared stream {stream_id!r}", line_no)
        t = _oracle_time(obj, line_no)
        kind = kinds[stream_id]
        previous = last_t.get(stream_id)
        if previous is not None:
            if kind is StreamKind.PUPIL_GAZE and t - previous < MIN_GAZE_STEP_S:
                raise ScenarioError("gaze timestamps must strictly increase", line_no)
            if t < previous:
                raise ScenarioError("timestamps decrease", line_no)
        last_t[stream_id] = t
        source_confidence = obj.get("source_confidence", 1.0)
        if not (isinstance(source_confidence, (int, float)) and 0.0 <= source_confidence <= 1.0):
            raise ScenarioError(f"bad source_confidence {source_confidence!r}", line_no)
        payload, transcript = _oracle_payload(kind, obj, line_no)
        records.append(SampleRecord(stream_id, t, float(source_confidence), payload, transcript))
    if header is None:
        raise ScenarioError("scenario is empty (no header)", 1)
    return header, records


# Integers either side of the largest one that still converts to a
# finite float (it rounds down to the largest float): a bound written
# as a float comparison and one that converts disagree between them.
_EDGE_NUMBERS = st.sampled_from(
    [2**1024 - 2**970 - 1, 2**1024 - 2**970, 2**1023, True, False, -0.0, 0, 1, 1.0000000000000002, 5e-324]
)
_POINT_JUNK = st.one_of(_JUNK, st.lists(st.one_of(_JUNK, _EDGE_NUMBERS, st.floats()), max_size=3))


@st.composite
def _parser_junk(draw):
    """_mutated_scenario's lines, or the valid scenario with junk in a
    posture, note or numeric field, a sample stamped with its
    predecessor's time, or one sample line moved."""
    target = draw(st.sampled_from(
        ["mutated", "landmarks", "visibility", "note", "time", "number", "repeat", "order"]
    ))
    if target == "mutated":
        return draw(_mutated_scenario())
    samples = json.loads(json.dumps(_SAMPLES))
    stream = {"landmarks": "cam", "visibility": "cam", "note": "notes"}.get(target)
    # junk times and numbers go into an early sample, where a junk time
    # that a check let through would not be refused for its order instead
    early = target not in ("time", "number") or None
    sample = draw(st.sampled_from([
        obj for obj in samples if stream in (None, obj["stream"]) and (early or obj["t"] < 1.0)
    ]))
    if target in ("landmarks", "visibility"):
        names = st.sampled_from([*sorted(_CAM), "nose", ""])
        field = sample.setdefault(target, {})
        if draw(st.booleans()):
            field[draw(names)] = draw(_POINT_JUNK if target == "landmarks" else st.one_of(_JUNK, _EDGE_NUMBERS))
        else:
            sample[target] = draw(st.one_of(_JUNK, st.dictionaries(names, _POINT_JUNK, max_size=3)))
    elif target == "note":
        key = draw(st.sampled_from(["correctness", "feedback", "transcript"]))
        if draw(st.booleans()) and key in sample:
            del sample[key]
        else:
            sample[key] = draw(st.one_of(_JUNK, _EDGE_NUMBERS, st.text(max_size=3)))
    elif target == "time":
        sample.pop("t")
        sample[draw(st.sampled_from(["t", "t_ms"]))] = draw(st.one_of(_EDGE_NUMBERS, _JUNK_T))
    elif target == "number":
        key = draw(st.sampled_from(["t", "t_ms", "x", "y", "pupil_mm", "confidence", "rr_ms", "source_confidence"]))
        sample[key] = draw(st.one_of(_EDGE_NUMBERS, st.floats(), _JUNK))
    elif target == "repeat":
        same = [obj for obj in samples if obj["stream"] == sample["stream"]]
        i = same.index(sample)
        if i > 0:
            del sample["t"]
            sample[draw(st.sampled_from(["t", "t_ms"]))] = same[i - 1]["t"] * (1 if draw(st.booleans()) else 1000)
    else:
        samples.insert(draw(st.integers(0, len(samples))), samples.pop(samples.index(sample)))
    return [json.dumps(_FULL_HEADER)] + [json.dumps(obj) for obj in samples]


@settings(max_examples=400, deadline=None)
@given(lines=_parser_junk())
def test_stream_parsers_agree_with_the_single_pass_parser(lines):
    try:
        expected = _oracle_parse(lines)
    except ScenarioError as error:
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_lines(lines)
        assert excinfo.value.line_no == error.line_no
        return
    scenario = parse_scenario_lines(lines)
    assert (scenario.header, scenario.records) == expected


def test_second_stream_of_a_kind_rejected_with_line_number():
    header = json.dumps({
        "type": "header",
        "streams": [
            {"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 200},
            {"stream_id": "g1", "kind": "pupil_gaze", "nominal_rate_hz": 60},
            {"stream_id": "g2", "kind": "pupil_gaze", "nominal_rate_hz": 60},
        ],
    })
    with pytest.raises(ScenarioError, match="line 1: stream 'g2' is a second pupil_gaze stream"):
        parse_scenario_lines([header])


def test_duplicate_stream_id_rejected_with_line_number():
    # the parser is the one owner of this rule: the merger registers
    # each declared stream without looking for a second one of its id
    header = json.dumps({
        "type": "header",
        "streams": [
            {"stream_id": "s", "kind": "rr_interval", "nominal_rate_hz": 1},
            {"stream_id": "s", "kind": "pupil_gaze", "nominal_rate_hz": 60},
        ],
    })
    with pytest.raises(ScenarioError, match="line 1: duplicate stream id 's'"):
        parse_scenario_lines([header])


def test_bad_stream_descriptor_in_header():
    header = json.dumps({
        "type": "header",
        "streams": [{"stream_id": "gaze", "kind": "tea_leaves", "nominal_rate_hz": 60}],
    })
    with pytest.raises(ScenarioError, match="bad stream descriptor"):
        parse_scenario_lines([header])


@pytest.mark.parametrize("seed", [True, False])
def test_header_seed_must_be_an_integer_not_a_boolean(seed):
    # a boolean seed replayed and was written into the trace header
    header = json.dumps({
        "type": "header",
        "streams": [{"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1}],
        "seed": seed,
    })
    with pytest.raises(ScenarioError, match="line 1: seed must be an integer"):
        parse_scenario_lines([header])


def test_blank_lines_are_skipped():
    scenario = parse_scenario_lines([HEADER, "", _gaze_line(0.0), "   "])
    assert len(scenario.records) == 1


# ---------------------------------------------------------------------------
# round-tripping

def _tiny_profile(**kwargs):
    data = {
        "seed": 21,
        "topic": "osmosis",
        "segments": [{"duration_s": 5.0, "channels": {}}],
        "gaze_rate_hz": 30.0,
        "note_interval_s": 4.0,
    }
    data.update(kwargs)
    return parse_profile(data)


def test_scenario_write_load_round_trip(tmp_path):
    scenario = synthesize(_tiny_profile())
    path = tmp_path / "round.jsonl"
    write_scenario(scenario, path)
    reloaded = load_scenario(path)
    assert scenario_to_lines(reloaded) == scenario_to_lines(scenario)
    assert reloaded.header.seed == scenario.header.seed
    assert len(reloaded.records) == len(scenario.records)


def test_serialization_is_canonical():
    lines = scenario_to_lines(synthesize(_tiny_profile()))
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def _sample_to_obj(record: SampleRecord, kind: StreamKind) -> dict:
    """The writer's oracle: a sample line as one object, which
    ``json.dumps`` with sorted keys renders as the line."""
    obj: dict = {"type": "sample", "stream": record.stream_id, "t": record.t}
    if record.source_confidence != 1.0:
        obj["source_confidence"] = record.source_confidence
    if record.transcript is not None:
        obj["transcript"] = record.transcript
        return obj
    payload = record.payload
    if kind is StreamKind.PUPIL_GAZE:
        x, y, pupil, confidence = payload
        obj.update(x=x, y=y, pupil_mm=pupil, confidence=confidence)
    elif kind is StreamKind.RR_INTERVAL:
        obj["rr_ms"] = payload
    elif kind is StreamKind.POSTURE_LANDMARKS:
        obj["landmarks"] = {name: list(point) for name, point in sorted(payload.landmarks.items())}
        if payload.visibility:
            obj["visibility"] = dict(sorted(payload.visibility.items()))
    else:
        obj["correctness"] = payload.correctness
        if payload.feedback_text:
            obj["feedback"] = payload.feedback_text
    return obj


def _oracle_line(record, kinds) -> str:
    if isinstance(record, SyncRecord):
        obj = {"type": "sync", "stream": record.stream_id, "marks": [list(m) for m in record.marks]}
    else:
        obj = _sample_to_obj(record, kinds[record.stream_id])
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# any JSON number the writer may meet: floats of every kind (NaN, the
# infinities, -0.0), and the ints and bools a unit field may hold
_NUMBER = st.one_of(st.floats(), st.integers(min_value=-(2**70), max_value=2**70), st.booleans())
_UNIT = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 1), st.booleans(), st.just(math.nan))
# strings with the characters a template must carry through: the
# separators, quotes, escapes, % and non-ASCII
_TEXT = st.text(alphabet=st.one_of(st.sampled_from(',"\\%:{}[]\n é中😀'), st.characters()), max_size=8)
_KINDS = (StreamKind.PUPIL_GAZE, StreamKind.RR_INTERVAL, StreamKind.POSTURE_LANDMARKS, StreamKind.NOTE_SCORE)


def _point_map(draw, values):
    names = draw(st.lists(st.sampled_from(POSTURE_POINTS), unique=True))
    return {name: draw(values) for name in names}


@st.composite
def _written_scenario(draw):
    ids = draw(st.lists(_TEXT.filter(bool), min_size=4, max_size=4, unique=True))
    streams = [StreamDescriptor(stream_id, kind, 1.0) for stream_id, kind in zip(ids, _KINDS)]
    records = []
    for _ in range(draw(st.integers(0, 12))):
        index = draw(st.integers(0, 3))
        stream_id, kind = ids[index], _KINDS[index]
        if draw(st.integers(0, 9)) == 0:
            marks = draw(st.lists(st.tuples(_NUMBER, _NUMBER), min_size=2, max_size=3))
            records.append(SyncRecord(stream_id, tuple(marks)))
            continue
        t = draw(_NUMBER)
        source_confidence = draw(st.one_of(st.just(1.0), _UNIT))
        if draw(st.integers(0, 9)) == 0:
            records.append(SampleRecord(stream_id, t, source_confidence, transcript=draw(_TEXT)))
            continue
        if kind is StreamKind.PUPIL_GAZE:
            pupil = draw(st.one_of(st.none(), _NUMBER))
            payload = (draw(_UNIT), draw(_UNIT), pupil, draw(_UNIT))
        elif kind is StreamKind.RR_INTERVAL:
            payload = draw(_NUMBER)
        elif kind is StreamKind.POSTURE_LANDMARKS:
            landmarks = _point_map(draw, st.tuples(_UNIT, _UNIT))
            payload = PostureSample(landmarks, _point_map(draw, _UNIT))
        else:
            payload = NoteScoreSample(draw(_UNIT), draw(_TEXT))
        records.append(SampleRecord(stream_id, t, source_confidence, payload))
    # the header fields a header line without them is read with
    return Scenario(ScenarioHeader(streams=streams, **_shared_fields({})), records)


@settings(max_examples=150, deadline=None)
@given(scenario=_written_scenario())
def test_every_written_line_is_the_oracles_json(scenario):
    kinds = {d.stream_id: d.kind for d in scenario.header.streams}
    lines = scenario_to_lines(scenario)
    assert lines[1:] == [_oracle_line(record, kinds) for record in scenario.records]


def test_values_whose_text_holds_a_comma_are_rendered_alone():
    assert _render([1.5, [1, 2], None, True, math.nan]) == ["1.5", "[1,2]", "null", "true", "NaN"]
    assert _render([]) == []


# ---------------------------------------------------------------------------
# profiles

def test_profile_rejects_unknown_control():
    with pytest.raises(ScenarioError, match="unknown control"):
        parse_profile({
            "segments": [{"duration_s": 10, "channels": {"caffeine": {"kind": "ramp"}}}],
        })


def test_profile_rejects_unknown_generator_kind():
    with pytest.raises(ScenarioError, match="unknown generator kind"):
        parse_profile({
            "segments": [{"duration_s": 10, "channels": {"pupil_mm": {"kind": "steps"}}}],
        })


def test_profile_needs_segments():
    with pytest.raises(ScenarioError, match="segments"):
        parse_profile({"segments": []})
    with pytest.raises(ScenarioError, match="duration_s"):
        parse_profile({"segments": [{"duration_s": -3}]})


def test_profile_rejects_unknown_noise_key():
    with pytest.raises(ScenarioError, match="unknown noise key"):
        parse_profile({"segments": [{"duration_s": 5}], "noise": {"sparkle": 1.0}})


def test_profile_may_span_the_whole_session_span_and_no_more():
    half = {"duration_s": MAX_SESSION_S / 2}
    assert parse_profile({"segments": [half, half]}).duration_s() == MAX_SESSION_S
    with pytest.raises(ScenarioError, match="past the session span"):
        parse_profile({"segments": [half, half, {"duration_s": 0.5}]})


def test_profile_rejects_non_positive_tau():
    with pytest.raises(ScenarioError, match="tau_s"):
        parse_profile({
            "segments": [
                {"duration_s": 5, "channels": {"pupil_mm": {"kind": "ramp", "tau_s": 0}}}
            ],
        })


# ---------------------------------------------------------------------------
# control curves

def test_ramp_approaches_target_and_hands_off_continuously():
    profile = parse_profile({
        "segments": [
            {"duration_s": 30, "channels": {"pupil_mm": {"kind": "ramp", "target_z": 2.0, "tau_s": 5}}},
            {"duration_s": 30, "channels": {"pupil_mm": {"kind": "ramp", "target_z": 0.0, "tau_s": 5}}},
        ],
    })
    curve = _ControlCurve(profile, "pupil_mm")
    assert curve.z(0.0) == pytest.approx(0.0)
    assert curve.z(5.0) == pytest.approx(2.0 * (1 - math.exp(-1.0)))
    # 6 time constants in: effectively at target
    assert curve.z(30.0 - 1e-9) == pytest.approx(2.0, abs=0.01)
    # the second ramp starts where the first ended
    z_end_first = 2.0 + (0.0 - 2.0) * math.exp(-30.0 / 5.0)
    assert curve.z(30.0) == pytest.approx(z_end_first, abs=1e-9)
    # and decays back toward zero
    assert curve.z(59.999) == pytest.approx(0.0, abs=0.01)
    # holds the final state past the end
    assert curve.z(120.0) == curve.z(200.0)


def test_oscillation_and_value_mapping():
    profile = parse_profile({
        "segments": [
            {"duration_s": 60, "channels": {
                "rr_mean_ms": {"kind": "oscillation", "amplitude_z": 1.5, "period_s": 20},
            }},
        ],
    })
    curve = _ControlCurve(profile, "rr_mean_ms")
    assert curve.z(5.0) == pytest.approx(1.5)   # quarter period: peak
    assert curve.z(10.0) == pytest.approx(0.0, abs=1e-12)
    assert curve.z(15.0) == pytest.approx(-1.5)
    mu, sigma = CONTROLS["rr_mean_ms"]
    assert curve.value(5.0) == pytest.approx(mu + 1.5 * sigma)


_GENERATOR = st.one_of(
    st.fixed_dictionaries({"kind": st.just("baseline")}),
    st.fixed_dictionaries({
        "kind": st.just("ramp"),
        "target_z": st.floats(-4, 4),
        "tau_s": st.floats(1e-3, 1e3),
    }),
    st.fixed_dictionaries({
        "kind": st.just("oscillation"),
        "amplitude_z": st.floats(-4, 4),
        "period_s": st.floats(1e-3, 1e3),
    }),
)


@settings(max_examples=150, deadline=None)
@given(
    segments=st.lists(
        st.tuples(st.floats(1e-3, 500), st.one_of(st.none(), _GENERATOR)), min_size=1, max_size=6
    ),
    data=st.data(),
)
def test_values_over_a_grid_equal_value_at_each_time_bit_for_bit(segments, data):
    profile = parse_profile({
        "segments": [
            {"duration_s": duration, "channels": {} if spec is None else {"pupil_mm": spec}}
            for duration, spec in segments
        ],
    })
    curve = _ControlCurve(profile, "pupil_mm")
    end = curve.pieces[-1][1]
    # times on each piece boundary and either side of it, a sample grid,
    # and random times up to well past the last piece
    boundaries = [b for start, stop, _, _ in curve.pieces for b in (start, stop)]
    near = [math.nextafter(b, direction) for b in boundaries for direction in (-math.inf, math.inf)]
    dt = data.draw(st.floats(1e-3, 50), label="dt")
    grid = [round(k * dt, 6) for k in range(min(int(end * 1.2 / dt), 500))]
    drawn = data.draw(st.lists(st.floats(0.0, 2.0 * end), max_size=40), label="times")
    times = sorted(t for t in [*boundaries, *near, *grid, *drawn] if t >= 0.0)
    assert list(map(float.hex, curve.values(times))) == [curve.value(t).hex() for t in times]


# ---------------------------------------------------------------------------
# synthesis

def test_synthesis_is_deterministic():
    profile = _tiny_profile()
    lines_a = scenario_to_lines(synthesize(profile))
    lines_b = scenario_to_lines(synthesize(_tiny_profile()))
    assert lines_a == lines_b


def test_seed_override_changes_the_output():
    profile = _tiny_profile()
    assert scenario_to_lines(synthesize(profile)) != scenario_to_lines(
        synthesize(profile, seed=22)
    )


def test_zero_noise_produces_constant_streams():
    profile = _tiny_profile(noise={
        "pupil_mm": 0.0, "note_correctness": 0.0, "gaze_xy": 0.0,
        "blink": 0.0, "rr_ms": 0.0, "posture": 0.0,
    })
    scenario = synthesize(profile)
    by_stream = {}
    for record in scenario.records:
        by_stream.setdefault(record.stream_id, []).append(record)

    for record in by_stream["gaze"]:
        x, y, pupil, _ = record.payload
        assert (x, y) == (0.5, 0.5)
        assert pupil == 3.0  # never a blink
    for record in by_stream["heart"]:
        assert record.payload == 850.0
    for record in by_stream["notes"]:
        assert record.payload.correctness == 0.9
    poses = {tuple(sorted(r.payload.landmarks.items())) for r in by_stream["cam"]}
    assert len(poses) == 1  # frozen base pose


def test_synthesized_records_are_time_ordered_and_parseable():
    scenario = synthesize(_tiny_profile())
    times = [r.t for r in scenario.records]
    assert times == sorted(times)
    reparsed = parse_scenario_lines(scenario_to_lines(scenario))
    assert len(reparsed.records) == len(scenario.records)


@pytest.mark.parametrize("name", ["all_baseline", "load_excursion", "mixed_session", "stress_ramp"])
def test_every_bundled_profile_survives_write_and_parse(tmp_path, name):
    # synthesized payloads are built with no checks; the parser checks them
    ref = resources.files("cogloop").joinpath("profiles", f"{name}.json")
    with resources.as_file(ref) as path:
        scenario = synthesize(load_profile(path))
    write_scenario(scenario, tmp_path / "scenario.jsonl")
    reloaded = load_scenario(tmp_path / "scenario.jsonl")
    assert reloaded.header == scenario.header
    assert list(reloaded.records) == scenario.records


def test_stream_rngs_are_independent():
    # changing gaze behavior must not perturb the heart stream
    quiet = _tiny_profile(noise={"blink": 0.0})
    noisy = _tiny_profile(noise={"blink": 5.0})
    hearts = lambda s: [r.payload for r in s.records if r.stream_id == "heart"]
    assert hearts(synthesize(quiet)) == hearts(synthesize(noisy))


def test_synthesized_gaze_has_blinks_and_fixation_structure():
    profile = parse_profile({
        "seed": 3,
        "segments": [{"duration_s": 60.0, "channels": {}}],
    })
    scenario = synthesize(profile)
    gaze = [r for r in scenario.records if r.stream_id == "gaze"]
    assert len(gaze) == 60 * 60
    blinks = [r for r in gaze if r.payload[2] is None]
    # nominal blink rate 0.28Hz for 60s: expect roughly 17 blink episodes,
    # each several samples long
    assert len(blinks) > 20
    xs = {r.payload[0] for r in gaze}
    assert len(xs) > 100  # wandering, not frozen
