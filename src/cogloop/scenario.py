"""Scenario files and the synthetic stream generator.

A scenario is JSON Lines: a header object first, then one record per
line in session-time order. Records are either samples or sync-mark
batches. Timestamps are seconds (``t``) or milliseconds (``t_ms``).

The synthesizer turns a profile (ordered segments with per-control
generators) into a fully deterministic scenario. Generators steer a
small set of physical controls in z-units of their nominal spread:

    pupil_mm         mean pupil diameter (mm)
    gaze_drift_speed within-fixation wander speed (units/s)
    blink_rate_hz    blink frequency
    rr_mean_ms       mean beat interval
    rr_jitter_ms     beat-to-beat variability (sd of the interval)
    posture_slump    composite slouch factor (tilt, ear drift, lean)
    note_correctness mean note score

The ``noise`` map gates every stochastic element; an all-zero noise map
produces constant streams at each control's nominal mean.
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import ScenarioError
from .model import (
    POSTURE_POINTS,
    GazeSample,
    Modality,
    NoteScoreSample,
    Payload,
    PostureSample,
    RRSample,
    StreamDescriptor,
    StreamKind,
    Timestamp,
)
from .streams import estimate_offset

# ---------------------------------------------------------------------------
# scenario records


@dataclass(slots=True)
class SampleRecord:
    stream_id: str
    t: Timestamp
    source_confidence: float
    payload: Payload | None = None
    transcript: str | None = None  # note awaiting analysis


@dataclass(frozen=True)
class SyncRecord:
    stream_id: str
    marks: tuple[tuple[float, float], ...]


@dataclass
class ScenarioHeader:
    streams: list[StreamDescriptor]
    config_entries: dict[str, object] = field(default_factory=dict)
    seed: int = 0
    modality: Modality = Modality.TEXT
    topic: str = "the current topic"
    analyzer_replies: tuple[str, ...] = ()
    dialogue: tuple[dict[str, str], ...] = ()


@dataclass
class Scenario:
    header: ScenarioHeader
    records: list[SampleRecord | SyncRecord]

    def duration_s(self) -> float:
        return max((r.t for r in self.records if isinstance(r, SampleRecord)), default=0.0)


_FLOAT_MAX = sys.float_info.max
_NUMBER = (int, float)


def _is_finite_number(value) -> bool:
    """A JSON number that converts to a finite float; booleans are not
    numbers here, and integers too large for a float are refused."""
    return (
        isinstance(value, _NUMBER)
        and not isinstance(value, bool)
        and abs(value) <= _FLOAT_MAX
    )


def _is_mark(mark) -> bool:
    return isinstance(mark, list) and len(mark) == 2 and all(map(_is_finite_number, mark))


# ---------------------------------------------------------------------------
# sample parsers: one per declared stream, the only owner of sample checks
#
# A record builder reads one kind's payload fields from a decoded sample
# line, checks each once and builds the record; the payload constructors
# check nothing. It raises KeyError, TypeError, ValueError or
# OverflowError on a malformed field, which the stream's parser reports
# with the line.
# A unit-interval field is a number (booleans included, as 0 and 1) in
# [0, 1]: the range comparison is False for NaN and both infinities.

_LANDMARKS = frozenset(POSTURE_POINTS)


def _outside_unit_interval(name: str, value) -> ValueError:
    return ValueError(f"{name} must be a finite number in [0, 1], got {value!r}")


def _gaze_record(obj: dict, stream_id: str, t: float, source_confidence: float) -> SampleRecord:
    pupil = obj.get("pupil_mm")
    if pupil is not None:
        if pupil <= 0:
            pupil = None  # trackers report 0 while the eye is shut
        elif not math.isfinite(pupil):
            raise ValueError(f"pupil_mm must be finite, got {pupil!r}")
    x, y, confidence = obj["x"], obj["y"], obj.get("confidence", 1.0)
    if not (isinstance(x, _NUMBER) and 0.0 <= x <= 1.0):
        raise _outside_unit_interval("x", x)
    if not (isinstance(y, _NUMBER) and 0.0 <= y <= 1.0):
        raise _outside_unit_interval("y", y)
    if not (isinstance(confidence, _NUMBER) and 0.0 <= confidence <= 1.0):
        raise _outside_unit_interval("confidence", confidence)
    return SampleRecord(stream_id, t, source_confidence, GazeSample(x, y, pupil, confidence))


def _rr_record(obj: dict, stream_id: str, t: float, source_confidence: float) -> SampleRecord:
    rr = obj["rr_ms"]
    if not (isinstance(rr, _NUMBER) and math.isfinite(rr) and rr > 0):
        raise ValueError(f"rr_ms must be a positive finite number, got {rr!r}")
    return SampleRecord(stream_id, t, source_confidence, RRSample(rr))


def _posture_record(obj: dict, stream_id: str, t: float, source_confidence: float) -> SampleRecord:
    landmarks, visibility = obj["landmarks"], obj.get("visibility", {})
    if not (isinstance(landmarks, dict) and isinstance(visibility, dict)):
        raise ValueError("landmarks and visibility must be objects")
    points: dict[str, tuple[float, float]] = {}
    for name, point in landmarks.items():
        if name not in _LANDMARKS:
            raise ValueError(f"unknown landmark {name!r}")
        x, y = point
        if not (isinstance(x, _NUMBER) and 0.0 <= x <= 1.0):
            raise _outside_unit_interval(f"{name}.x", x)
        if not (isinstance(y, _NUMBER) and 0.0 <= y <= 1.0):
            raise _outside_unit_interval(f"{name}.y", y)
        points[name] = (x, y)
    for name, value in visibility.items():
        if name not in _LANDMARKS:
            raise ValueError(f"unknown landmark {name!r}")
        if not (isinstance(value, _NUMBER) and 0.0 <= value <= 1.0):
            raise _outside_unit_interval(f"{name}.visibility", value)
    return SampleRecord(stream_id, t, source_confidence, PostureSample(points, visibility))


def _note_record(obj: dict, stream_id: str, t: float, source_confidence: float) -> SampleRecord:
    # either a pre-assessed correctness or a transcript for the
    # analyzer, never both
    if ("correctness" in obj) == ("transcript" in obj):
        raise ValueError("a note needs exactly one of correctness/transcript")
    if "transcript" in obj:
        transcript = obj["transcript"]
        if not (isinstance(transcript, str) and transcript.strip()):
            raise ValueError("a note transcript must be a non-empty string")
        return SampleRecord(stream_id, t, source_confidence, transcript=transcript)
    correctness = obj["correctness"]
    if not (isinstance(correctness, _NUMBER) and 0.0 <= correctness <= 1.0):
        raise _outside_unit_interval("correctness", correctness)
    feedback = obj.get("feedback", "")
    return SampleRecord(stream_id, t, source_confidence, NoteScoreSample(correctness, feedback))


_RECORD_BUILDERS = {
    StreamKind.PUPIL_GAZE: _gaze_record,
    StreamKind.RR_INTERVAL: _rr_record,
    StreamKind.POSTURE_LANDMARKS: _posture_record,
    StreamKind.NOTE_SCORE: _note_record,
}


def _sample_parser(descriptor: StreamDescriptor) -> Callable[[dict, int], SampleRecord]:
    """The parser of one declared stream's sample lines.

    It checks a line's timestamp (``t`` in seconds or ``t_ms``, finite
    and non-negative), its order after the stream's previous sample
    (gaze strictly increasing, other streams non-decreasing) and its
    source confidence, then its payload fields through the stream
    kind's builder. Each check runs once per sample.
    """
    stream_id = descriptor.stream_id
    kind = descriptor.kind
    build = _RECORD_BUILDERS[kind]
    # gaze velocity needs strictly advancing clocks; other streams may
    # legitimately repeat a timestamp
    strictly = kind is StreamKind.PUPIL_GAZE
    last_t = -math.inf

    def parse(obj: dict, line_no: int) -> SampleRecord:
        nonlocal last_t
        if "t" in obj:
            if "t_ms" in obj:
                raise ScenarioError("record carries both t and t_ms", line_no)
            t, scale = obj["t"], 1.0
        elif "t_ms" in obj:
            t, scale = obj["t_ms"], 1000.0
        else:
            raise ScenarioError("record missing timestamp (t or t_ms)", line_no)
        # booleans are not timestamps, and integers too large for a
        # float are refused; the comparison is False for NaN
        if not ((type(t) is float or type(t) is int) and 0 <= t <= _FLOAT_MAX):
            raise ScenarioError(f"bad timestamp {t!r}", line_no)
        t = float(t) / scale
        if t <= last_t and (strictly or t < last_t):
            if strictly:
                raise ScenarioError(f"gaze timestamps must strictly increase ({t} after {last_t})", line_no)
            raise ScenarioError(f"stream {stream_id!r} timestamps decrease ({t} after {last_t})", line_no)
        last_t = t
        source_confidence = obj.get("source_confidence", 1.0)
        if not (isinstance(source_confidence, _NUMBER) and 0.0 <= source_confidence <= 1.0):
            raise ScenarioError(f"bad source_confidence {source_confidence!r}", line_no)
        try:
            return build(obj, stream_id, t, float(source_confidence))
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ScenarioError(f"bad {kind.value} payload: {error}", line_no) from None

    return parse


# One decoder for every line. The lines are stripped, so decoding from
# position 0 and refusing anything after the value accepts and rejects
# what json.loads does, without its whitespace scans.
_decode = json.JSONDecoder().raw_decode


def parse_scenario_lines(lines) -> Scenario:
    header: ScenarioHeader | None = None
    records: list[SampleRecord | SyncRecord] = []
    # one parser per declared stream, built when the header is read
    parsers: dict[str, Callable[[dict, int], SampleRecord]] = {}

    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        try:
            obj, end = _decode(line)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid JSON: {error.msg}", line_no) from None
        if end != len(line):
            raise ScenarioError("invalid JSON: Extra data", line_no)
        if not isinstance(obj, dict) or "type" not in obj:
            raise ScenarioError("each line must be an object with a 'type'", line_no)

        record_type = obj["type"]
        if record_type == "sample" and header is not None:
            stream_id = obj.get("stream")
            parse = parsers.get(stream_id) if isinstance(stream_id, str) else None
            if parse is None:
                raise ScenarioError(f"sample for undeclared stream {stream_id!r}", line_no)
            records.append(parse(obj, line_no))
            continue
        if record_type == "header":
            if header is not None:
                raise ScenarioError("duplicate header", line_no)
            if records:
                raise ScenarioError("header must be the first record", line_no)
            header = _parse_header(obj, line_no)
            parsers = {d.stream_id: _sample_parser(d) for d in header.streams}
            continue
        if header is None:
            raise ScenarioError("first line must be the header", line_no)
        if record_type != "sync":
            raise ScenarioError(f"unknown record type {record_type!r}", line_no)

        stream_id = obj.get("stream")
        if not isinstance(stream_id, str) or stream_id not in parsers:
            raise ScenarioError(f"sync for undeclared stream {stream_id!r}", line_no)
        marks = obj.get("marks")
        if not (isinstance(marks, list) and len(marks) >= 2 and all(map(_is_mark, marks))):
            raise ScenarioError(
                "sync marks must be a list of at least 2 [producer_t, session_t] "
                "pairs of finite numbers",
                line_no,
            )
        marks = tuple((float(p), float(s)) for p, s in marks)
        if not math.isfinite(estimate_offset(marks)):
            raise ScenarioError("sync marks give a non-finite clock offset", line_no)
        records.append(SyncRecord(stream_id=stream_id, marks=marks))

    if header is None:
        raise ScenarioError("scenario is empty (no header)", 1)
    return Scenario(header=header, records=records)


def _parse_header(obj: dict, line_no: int) -> ScenarioHeader:
    streams_raw = obj.get("streams")
    if not isinstance(streams_raw, list) or not streams_raw:
        raise ScenarioError("header must declare at least one stream", line_no)
    streams: list[StreamDescriptor] = []
    seen: set[str] = set()
    # one stream per kind: windows are cut from a per-kind timeline, and
    # two gaze streams on one timeline make pairs with no time step
    kind_owner: dict[StreamKind, str] = {}
    for entry in streams_raw:
        if not (isinstance(entry, dict) and isinstance(entry.get("stream_id"), str)):
            raise ScenarioError("each stream must be an object with a string stream_id", line_no)
        try:
            descriptor = StreamDescriptor(
                stream_id=entry["stream_id"],
                kind=StreamKind(entry["kind"]),
                nominal_rate_hz=entry["nominal_rate_hz"],
            )
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ScenarioError(f"bad stream descriptor: {error}", line_no) from None
        if descriptor.stream_id in seen:
            raise ScenarioError(f"duplicate stream id {descriptor.stream_id!r}", line_no)
        if descriptor.kind in kind_owner:
            raise ScenarioError(
                f"stream {descriptor.stream_id!r} is a second {descriptor.kind.value} stream "
                f"(after {kind_owner[descriptor.kind]!r}); declare at most one stream per kind",
                line_no,
            )
        seen.add(descriptor.stream_id)
        kind_owner[descriptor.kind] = descriptor.stream_id
        streams.append(descriptor)

    modality_raw = obj.get("modality", Modality.TEXT.value)
    try:
        modality = Modality(modality_raw)
    except ValueError:
        raise ScenarioError(f"unknown modality {modality_raw!r}", line_no) from None

    seed = obj.get("seed", 0)
    if not isinstance(seed, int):
        raise ScenarioError(f"seed must be an integer, got {seed!r}", line_no)

    config_entries = obj.get("config", {})
    if not isinstance(config_entries, dict):
        raise ScenarioError("header config must be an object", line_no)

    analyzer_replies = obj.get("analyzer_replies", [])
    if not (isinstance(analyzer_replies, list) and all(isinstance(r, str) for r in analyzer_replies)):
        raise ScenarioError("header analyzer_replies must be a list of strings", line_no)
    dialogue = obj.get("dialogue", [])
    if not (isinstance(dialogue, list) and all(isinstance(turn, dict) for turn in dialogue)):
        raise ScenarioError("header dialogue must be a list of objects", line_no)

    return ScenarioHeader(
        streams=streams,
        config_entries=config_entries,
        seed=seed,
        modality=modality,
        topic=str(obj.get("topic", "the current topic")),
        analyzer_replies=tuple(analyzer_replies),
        dialogue=tuple(dialogue),
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_lines(handle)


# ---------------------------------------------------------------------------
# serialization

# one encoder for every line written: sorted keys, no spaces
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _sample_to_obj(record: SampleRecord, kind: StreamKind) -> dict:
    obj: dict = {"type": "sample", "stream": record.stream_id, "t": record.t}
    if record.source_confidence != 1.0:
        obj["source_confidence"] = record.source_confidence
    if record.transcript is not None:
        obj["transcript"] = record.transcript
        return obj
    payload = record.payload
    if kind is StreamKind.PUPIL_GAZE:
        obj.update(
            x=payload.x, y=payload.y, pupil_mm=payload.pupil_diameter_mm,
            confidence=payload.confidence,
        )
    elif kind is StreamKind.RR_INTERVAL:
        obj["rr_ms"] = payload.rr_ms
    elif kind is StreamKind.POSTURE_LANDMARKS:
        obj["landmarks"] = {name: list(point) for name, point in sorted(payload.landmarks.items())}
        if payload.visibility:
            obj["visibility"] = dict(sorted(payload.visibility.items()))
    else:
        obj["correctness"] = payload.correctness
        if payload.feedback_text:
            obj["feedback"] = payload.feedback_text
    return obj


def scenario_to_lines(scenario: Scenario) -> list[str]:
    header = scenario.header
    header_obj = {
        "type": "header",
        "streams": [
            {"stream_id": d.stream_id, "kind": d.kind.value, "nominal_rate_hz": d.nominal_rate_hz}
            for d in header.streams
        ],
        "config": header.config_entries,
        "seed": header.seed,
        "modality": header.modality.value,
        "topic": header.topic,
        "analyzer_replies": list(header.analyzer_replies),
        "dialogue": list(header.dialogue),
    }
    kinds = {d.stream_id: d.kind for d in header.streams}
    lines = [_encode(header_obj)]
    for record in scenario.records:
        if isinstance(record, SyncRecord):
            obj = {"type": "sync", "stream": record.stream_id, "marks": [list(m) for m in record.marks]}
        else:
            obj = _sample_to_obj(record, kinds[record.stream_id])
        lines.append(_encode(obj))
    return lines


def write_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in scenario_to_lines(scenario):
            handle.write(line + "\n")


# ---------------------------------------------------------------------------
# synthetic profiles

# control -> (nominal mean, nominal spread); generator z-units refer to
# the spread
CONTROLS: dict[str, tuple[float, float]] = {
    "pupil_mm": (3.0, 0.15),
    "gaze_drift_speed": (0.2, 0.05),
    "blink_rate_hz": (0.28, 0.06),
    "rr_mean_ms": (850.0, 30.0),
    "rr_jitter_ms": (53.0, 6.0),
    "posture_slump": (0.0, 0.5),
    "note_correctness": (0.9, 0.04),
}

NOISE_DEFAULTS: dict[str, float] = {
    "pupil_mm": 0.02,        # absolute sd on pupil readings
    "note_correctness": 0.04,  # absolute sd on note scores
    "gaze_xy": 1.0,          # scales wander and enables saccades/jumps
    "blink": 1.0,            # scales blink frequency
    "rr_ms": 1.0,            # scales beat-to-beat jitter
    "posture": 1.0,          # scales landmark jitter (sd 0.003)
}

_GENERATOR_KINDS = ("baseline", "ramp", "oscillation")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    target_z: float = 0.0
    tau_s: float = 10.0
    amplitude_z: float = 0.0
    period_s: float = 60.0


@dataclass(frozen=True)
class ProfileSegment:
    duration_s: float
    channels: dict[str, GeneratorSpec] = field(default_factory=dict)


@dataclass
class SyntheticProfile:
    segments: list[ProfileSegment]
    seed: int = 0
    topic: str = "the current topic"
    modality: Modality = Modality.TEXT
    noise: dict[str, float] = field(default_factory=dict)
    config_entries: dict[str, object] = field(default_factory=dict)
    analyzer_replies: tuple[str, ...] = ()
    dialogue: tuple[dict[str, str], ...] = ()
    gaze_rate_hz: float = 60.0
    posture_rate_hz: float = 5.0
    note_interval_s: float = 60.0

    def duration_s(self) -> float:
        return sum(segment.duration_s for segment in self.segments)


def load_profile(path) -> SyntheticProfile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid profile JSON: {error.msg}", error.lineno) from None
    return parse_profile(data)


def parse_profile(data: dict) -> SyntheticProfile:
    if not isinstance(data, dict):
        raise ScenarioError("profile must be a JSON object")
    segments_raw = data.get("segments")
    if not isinstance(segments_raw, list) or not segments_raw:
        raise ScenarioError("profile needs a non-empty segments list")
    segments: list[ProfileSegment] = []
    for index, seg in enumerate(segments_raw):
        duration = seg.get("duration_s")
        if not (isinstance(duration, (int, float)) and duration > 0):
            raise ScenarioError(f"segment {index}: duration_s must be positive")
        channels: dict[str, GeneratorSpec] = {}
        for control, spec in seg.get("channels", {}).items():
            if control not in CONTROLS:
                raise ScenarioError(f"segment {index}: unknown control {control!r}")
            kind = spec.get("kind")
            if kind not in _GENERATOR_KINDS:
                raise ScenarioError(f"segment {index}: unknown generator kind {kind!r}")
            generator = GeneratorSpec(
                kind=kind,
                target_z=float(spec.get("target_z", 0.0)),
                tau_s=float(spec.get("tau_s", 10.0)),
                amplitude_z=float(spec.get("amplitude_z", 0.0)),
                period_s=float(spec.get("period_s", 60.0)),
            )
            if generator.tau_s <= 0 or generator.period_s <= 0:
                raise ScenarioError(f"segment {index}: tau_s and period_s must be positive")
            channels[control] = generator
        segments.append(ProfileSegment(duration_s=float(duration), channels=channels))

    noise = dict(NOISE_DEFAULTS)
    for key, value in data.get("noise", {}).items():
        if key not in NOISE_DEFAULTS:
            raise ScenarioError(f"unknown noise key {key!r}")
        noise[key] = float(value)

    try:
        modality = Modality(data.get("modality", Modality.TEXT.value))
    except ValueError:
        raise ScenarioError(f"unknown modality {data.get('modality')!r}") from None

    return SyntheticProfile(
        segments=segments,
        seed=int(data.get("seed", 0)),
        topic=str(data.get("topic", "the current topic")),
        modality=modality,
        noise=noise,
        config_entries=dict(data.get("config", {})),
        analyzer_replies=tuple(data.get("analyzer_replies", [])),
        dialogue=tuple(data.get("dialogue", [])),
        gaze_rate_hz=float(data.get("gaze_rate_hz", 60.0)),
        posture_rate_hz=float(data.get("posture_rate_hz", 5.0)),
        note_interval_s=float(data.get("note_interval_s", 60.0)),
    )


class _ControlCurve:
    """Piecewise z-trajectory of one control across the segments.

    Ramps approach their target exponentially from wherever the
    previous segment left the control, so hand-offs are continuous.
    """

    def __init__(self, profile: SyntheticProfile, control: str):
        self.pieces: list[tuple[float, float, GeneratorSpec, float]] = []
        t0 = 0.0
        z_start = 0.0
        for segment in profile.segments:
            spec = segment.channels.get(control, GeneratorSpec(kind="baseline"))
            self.pieces.append((t0, t0 + segment.duration_s, spec, z_start))
            z_start = self._z_at(spec, z_start, segment.duration_s)
            t0 += segment.duration_s
        self.mu, self.sigma = CONTROLS[control]

    @staticmethod
    def _z_at(spec: GeneratorSpec, z_start: float, elapsed: float) -> float:
        if spec.kind == "baseline":
            return 0.0
        if spec.kind == "ramp":
            return spec.target_z + (z_start - spec.target_z) * math.exp(-elapsed / spec.tau_s)
        return spec.amplitude_z * math.sin(2.0 * math.pi * elapsed / spec.period_s)

    def z(self, t: float) -> float:
        for start, end, spec, z_start in self.pieces:
            if start <= t < end:
                return self._z_at(spec, z_start, t - start)
        # past the final segment: hold its end state
        start, end, spec, z_start = self.pieces[-1]
        return self._z_at(spec, z_start, end - start)

    def value(self, t: float) -> float:
        return self.mu + self.z(t) * self.sigma


_BASE_POSE = {
    "shoulder_left": (0.38, 0.50),
    "shoulder_right": (0.62, 0.50),
    "ear_left": (0.44, 0.30),
    "ear_right": (0.56, 0.30),
    "hip_left": (0.42, 0.88),
    "hip_right": (0.58, 0.88),
}

# slump factor 1.0 produces this much shoulder tilt, forward lean and
# ear drift
_SLUMP_TILT_DEG = 5.0
_SLUMP_LEAN_DEG = 7.0
_SLUMP_EAR_DRIFT = 0.035
_TRUNK_LENGTH = 0.38
_SHOULDER_HALF_WIDTH = 0.12


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


def synthesize(profile: SyntheticProfile, seed: int | None = None) -> Scenario:
    """Generate a complete scenario from the profile, deterministically.

    Each stream draws from its own RNG keyed by (seed, stream name), so
    editing one stream's parameters never perturbs the others.
    """
    seed = profile.seed if seed is None else seed
    duration = profile.duration_s()
    curves = {name: _ControlCurve(profile, name) for name in CONTROLS}
    noise = {**NOISE_DEFAULTS, **profile.noise}

    records: list[SampleRecord] = []
    records.extend(_gen_gaze(profile, curves, noise, seed, duration))
    records.extend(_gen_rr(curves, noise, seed, duration))
    records.extend(_gen_posture(profile, curves, noise, seed, duration))
    records.extend(_gen_notes(profile, curves, noise, seed, duration))
    records.sort(key=lambda r: (r.t, r.stream_id))

    header = ScenarioHeader(
        streams=[
            StreamDescriptor("gaze", StreamKind.PUPIL_GAZE, profile.gaze_rate_hz),
            StreamDescriptor("heart", StreamKind.RR_INTERVAL, 200.0),
            StreamDescriptor("cam", StreamKind.POSTURE_LANDMARKS, profile.posture_rate_hz),
            StreamDescriptor("notes", StreamKind.NOTE_SCORE, 1.0 / profile.note_interval_s),
        ],
        config_entries=dict(profile.config_entries),
        seed=seed,
        modality=profile.modality,
        topic=profile.topic,
        analyzer_replies=profile.analyzer_replies,
        dialogue=profile.dialogue,
    )
    return Scenario(header=header, records=records)


def _gen_gaze(profile, curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:gaze")
    dt = 1.0 / profile.gaze_rate_hz
    motion_scale = noise["gaze_xy"]
    blink_scale = noise["blink"]
    pupil_noise = noise["pupil_mm"]

    records: list[SampleRecord] = []
    anchor_x, anchor_y = 0.5, 0.5
    offset_x = offset_y = 0.0
    dwell_left = rng.uniform(0.8, 2.5)
    blink_left = 0.0

    n = int(round(duration * profile.gaze_rate_hz))
    for k in range(n):
        t = round(k * dt, 6)
        blinking = blink_left > 0.0
        if blinking:
            blink_left -= dt
        elif blink_scale > 0 and rng.random() < curves["blink_rate_hz"].value(t) * blink_scale * dt:
            blink_left = rng.uniform(0.08, 0.15)
            blinking = True

        if not blinking and motion_scale > 0:
            dwell_left -= dt
            if dwell_left <= 0:
                anchor_x = rng.uniform(0.15, 0.85)
                anchor_y = rng.uniform(0.15, 0.85)
                offset_x = offset_y = 0.0
                dwell_left = rng.uniform(0.8, 2.5)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            step = curves["gaze_drift_speed"].value(t) * dt * motion_scale
            offset_x = (offset_x + step * math.cos(angle)) * 0.95
            offset_y = (offset_y + step * math.sin(angle)) * 0.95

        x = _clamp(anchor_x + offset_x, 0.0, 1.0)
        y = _clamp(anchor_y + offset_y, 0.0, 1.0)
        if blinking:
            pupil = None
            confidence = 0.05
        else:
            pupil = curves["pupil_mm"].value(t)
            if pupil_noise > 0:
                pupil += rng.gauss(0.0, pupil_noise)
            pupil = round(_clamp(pupil, 1.0, 9.0), 6)
            confidence = 0.98
        records.append(
            SampleRecord(
                stream_id="gaze",
                t=t,
                source_confidence=0.99,
                payload=GazeSample(
                    x=round(x, 6), y=round(y, 6),
                    pupil_diameter_mm=pupil, confidence=confidence,
                ),
            )
        )
    return records


def _gen_rr(curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:rr")
    jitter_scale = noise["rr_ms"]
    records: list[SampleRecord] = []
    t = 0.0
    while True:
        rr = curves["rr_mean_ms"].value(t)
        jitter = max(0.0, curves["rr_jitter_ms"].value(t)) * jitter_scale
        if jitter > 0:
            rr += rng.gauss(0.0, jitter)
        rr = round(_clamp(rr, 300.0, 2000.0), 3)
        t_next = t + rr / 1000.0
        if t_next >= duration:
            break
        records.append(
            SampleRecord(
                stream_id="heart",
                t=round(t_next, 6),
                source_confidence=1.0,
                payload=RRSample(rr_ms=rr),
            )
        )
        t = t_next
    return records


def _gen_posture(profile, curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:posture")
    jitter_sd = 0.003 * noise["posture"]
    dt = 1.0 / profile.posture_rate_hz
    records: list[SampleRecord] = []
    n = int(round(duration * profile.posture_rate_hz))
    for k in range(n):
        t = round(k * dt, 6)
        slump = curves["posture_slump"].value(t)
        tilt_dy = math.tan(math.radians(_SLUMP_TILT_DEG * slump)) * _SHOULDER_HALF_WIDTH
        lean_dx = math.tan(math.radians(_SLUMP_LEAN_DEG * slump)) * _TRUNK_LENGTH
        ear_dx = _SLUMP_EAR_DRIFT * slump

        def place(base_x: float, base_y: float, dx: float = 0.0, dy: float = 0.0):
            jx = rng.gauss(0.0, jitter_sd) if jitter_sd > 0 else 0.0
            jy = rng.gauss(0.0, jitter_sd) if jitter_sd > 0 else 0.0
            return (
                round(_clamp(base_x + dx + jx, 0.0, 1.0), 6),
                round(_clamp(base_y + dy + jy, 0.0, 1.0), 6),
            )

        landmarks = {
            "shoulder_left": place(*_BASE_POSE["shoulder_left"], dx=lean_dx, dy=tilt_dy),
            "shoulder_right": place(*_BASE_POSE["shoulder_right"], dx=lean_dx, dy=-tilt_dy),
            "ear_left": place(*_BASE_POSE["ear_left"], dx=lean_dx + ear_dx),
            "ear_right": place(*_BASE_POSE["ear_right"], dx=lean_dx + ear_dx),
            "hip_left": place(*_BASE_POSE["hip_left"]),
            "hip_right": place(*_BASE_POSE["hip_right"]),
        }
        records.append(
            SampleRecord(
                stream_id="cam",
                t=t,
                source_confidence=1.0,
                payload=PostureSample(landmarks=landmarks),
            )
        )
    return records


def _gen_notes(profile, curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:notes")
    note_noise = noise["note_correctness"]
    records: list[SampleRecord] = []
    t = profile.note_interval_s / 2.0
    while t < duration:
        value = curves["note_correctness"].value(t)
        if note_noise > 0:
            value += rng.gauss(0.0, note_noise)
        records.append(
            SampleRecord(
                stream_id="notes",
                t=round(t, 6),
                source_confidence=1.0,
                payload=NoteScoreSample(correctness=round(_clamp(value, 0.0, 1.0), 4)),
            )
        )
        t += profile.note_interval_s
    return records
