"""Scenario files and the synthetic stream generator.

A scenario is JSON Lines: a header object first, then one record per
line in session-time order. Records are either samples or sync-mark
batches. Timestamps are seconds (``t``) or milliseconds (``t_ms``).
A loaded scenario reads its header at once and parses its records a
line at a time, each time they are iterated.

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
import re
import sys
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from operator import attrgetter
from typing import NamedTuple, TextIO

from .config import MAX_SESSION_S
from .errors import ScenarioError
from .model import (
    POSTURE_POINTS,
    GazeSample,
    Modality,
    NoteScoreSample,
    Payload,
    PostureSample,
    RRSample,
    Slotted,
    StreamDescriptor,
    StreamKind,
    Timestamp,
)
from .streams import estimate_offset

# ---------------------------------------------------------------------------
# scenario records


class SampleRecord(Slotted):
    __slots__ = ("stream_id", "t", "source_confidence", "payload", "transcript")

    def __init__(
        self,
        stream_id: str,
        t: Timestamp,
        source_confidence: float,
        payload: Payload | None = None,
        transcript: str | None = None,  # note awaiting analysis
    ):
        self.stream_id = stream_id
        self.t = t
        self.source_confidence = source_confidence
        self.payload = payload
        self.transcript = transcript


class SyncRecord(NamedTuple):
    stream_id: str
    marks: tuple[tuple[float, float], ...]


class ScenarioHeader(Slotted):
    __slots__ = ("streams", "config_entries", "seed", "modality", "topic", "analyzer_replies", "dialogue")

    def __init__(
        self,
        streams: list[StreamDescriptor],
        config_entries: dict[str, object] | None = None,
        seed: int = 0,
        modality: Modality = Modality.TEXT,
        topic: str = "the current topic",
        analyzer_replies: tuple[str, ...] = (),
        dialogue: tuple[dict[str, str], ...] = (),
    ):
        self.streams = streams
        self.config_entries = {} if config_entries is None else config_entries
        self.seed = seed
        self.modality = modality
        self.topic = topic
        self.analyzer_replies = analyzer_replies
        self.dialogue = dialogue


class Scenario(Slotted):
    """A header and its records: a list when synthesized or parsed from
    lines, a ``ScenarioFile`` when loaded from a file."""

    __slots__ = ("header", "records")

    def __init__(self, header: ScenarioHeader, records: list[SampleRecord | SyncRecord] | ScenarioFile):
        self.header = header
        self.records = records

    def duration_s(self) -> float:
        return max((r.t for r in self.records if isinstance(r, SampleRecord)), default=0.0)


_FLOAT_MAX = sys.float_info.max
_NUMBER = (int, float)
# where a parser sends a checked sample's fields: SampleRecord, or Session.place
Emit = Callable[[str, Timestamp, float, Payload | None, str | None], object]


def _is_finite_number(value) -> bool:
    """A JSON number that converts to a finite float; booleans are not
    numbers here, and integers too large for a float are refused."""
    return (
        isinstance(value, _NUMBER)
        and not isinstance(value, bool)
        and abs(value) <= _FLOAT_MAX
    )


def _is_int(value) -> bool:
    """A JSON integer; booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_mark(mark) -> bool:
    return isinstance(mark, list) and len(mark) == 2 and all(map(_is_finite_number, mark))


# ---------------------------------------------------------------------------
# sample parsers: one per declared stream, the only owner of sample checks
#
# A payload builder reads one kind's payload fields from a decoded sample
# line, checks each once and returns (payload, transcript), one of them
# None; the payload constructors check nothing. It raises KeyError,
# TypeError, ValueError or OverflowError on a malformed field, which the
# stream's parser reports with the line.
# A unit-interval field is a number (booleans included, as 0 and 1) in
# [0, 1]: the range comparison is False for NaN and both infinities.

_LANDMARKS = frozenset(POSTURE_POINTS)


def _outside_unit_interval(name: str, value) -> ValueError:
    return ValueError(f"{name} must be a finite number in [0, 1], got {value!r}")


# Gaze bounds that keep every window statistic finite. No human pupil
# is wider than about 9 mm (the synthesizer clamps pupils to [1, 9]),
# and a few readings near the float maximum overflow a window's mean.
# Gaze velocity divides by the time step, and a step under the
# nanosecond that window bounds are rounded to (streams.grid_time) can
# make it infinite.
MAX_PUPIL_MM = 10.0
MIN_GAZE_STEP_S = 1e-9


def _gaze_payload(obj: dict) -> tuple[GazeSample, None]:
    pupil = obj.get("pupil_mm")
    if pupil is not None:
        if pupil <= 0:
            pupil = None  # trackers report 0 while the eye is shut
        elif not pupil <= MAX_PUPIL_MM:
            raise ValueError(f"pupil_mm must be at most {MAX_PUPIL_MM}, got {pupil!r}")
    x, y, confidence = obj["x"], obj["y"], obj.get("confidence", 1.0)
    if not (isinstance(x, _NUMBER) and 0.0 <= x <= 1.0):
        raise _outside_unit_interval("x", x)
    if not (isinstance(y, _NUMBER) and 0.0 <= y <= 1.0):
        raise _outside_unit_interval("y", y)
    if not (isinstance(confidence, _NUMBER) and 0.0 <= confidence <= 1.0):
        raise _outside_unit_interval("confidence", confidence)
    return GazeSample(x, y, pupil, confidence), None


def _rr_payload(obj: dict) -> tuple[RRSample, None]:
    rr = obj["rr_ms"]
    if not (isinstance(rr, _NUMBER) and math.isfinite(rr) and rr > 0):
        raise ValueError(f"rr_ms must be a positive finite number, got {rr!r}")
    return RRSample(rr), None


def _posture_payload(obj: dict) -> tuple[PostureSample, None]:
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
    return PostureSample(points, visibility), None


def _note_payload(obj: dict) -> tuple[NoteScoreSample, None] | tuple[None, str]:
    # either a pre-assessed correctness or a transcript for the
    # analyzer, never both
    if ("correctness" in obj) == ("transcript" in obj):
        raise ValueError("a note needs exactly one of correctness/transcript")
    if "transcript" in obj:
        transcript = obj["transcript"]
        if not (isinstance(transcript, str) and transcript.strip()):
            raise ValueError("a note transcript must be a non-empty string")
        return None, transcript
    correctness = obj["correctness"]
    if not (isinstance(correctness, _NUMBER) and 0.0 <= correctness <= 1.0):
        raise _outside_unit_interval("correctness", correctness)
    feedback = obj.get("feedback", "")
    return NoteScoreSample(correctness, feedback), None


_PAYLOAD_BUILDERS = {
    StreamKind.PUPIL_GAZE: _gaze_payload,
    StreamKind.RR_INTERVAL: _rr_payload,
    StreamKind.POSTURE_LANDMARKS: _posture_payload,
    StreamKind.NOTE_SCORE: _note_payload,
}


def _sample_parser(descriptor: StreamDescriptor, emit: Emit) -> Callable[[dict, int], object]:
    """The parser of one declared stream's sample lines.

    It checks a line's timestamp (``t`` in seconds or ``t_ms``, finite
    and non-negative), its order after the stream's previous sample
    (gaze at least ``MIN_GAZE_STEP_S`` later, other streams
    non-decreasing) and its source confidence, then its payload fields
    through the kind's builder, each once; it returns what ``emit`` makes of them.
    """
    stream_id = descriptor.stream_id
    kind = descriptor.kind
    build = _PAYLOAD_BUILDERS[kind]
    # gaze velocity needs advancing clocks; other streams may
    # legitimately repeat a timestamp
    min_step = MIN_GAZE_STEP_S if kind is StreamKind.PUPIL_GAZE else 0.0
    last_t = -math.inf

    def parse(obj: dict, line_no: int):
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
        t = t / scale
        if t - last_t < min_step:
            if min_step:
                rule = f"gaze timestamps must strictly increase, by at least {min_step} s"
                raise ScenarioError(f"{rule} ({t} after {last_t})", line_no)
            raise ScenarioError(f"stream {stream_id!r} timestamps decrease ({t} after {last_t})", line_no)
        last_t = t
        source_confidence = obj.get("source_confidence", 1.0)
        if not (isinstance(source_confidence, _NUMBER) and 0.0 <= source_confidence <= 1.0):
            raise ScenarioError(f"bad source_confidence {source_confidence!r}", line_no)
        try:
            payload, transcript = build(obj)
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ScenarioError(f"bad {kind.value} payload: {error}", line_no) from None
        return emit(stream_id, t, float(source_confidence), payload, transcript)

    return parse


# One decoder for every scenario and trace line: json's scanner, without raw_decode's
# frame. The lines are stripped, so scanning from 0 and refusing anything after the value
# accepts and rejects what json.loads does; StopIteration is its "Expecting value".
_decode = json.scanner.make_scanner(json.JSONDecoder())


def _scan(lines, emit: Emit = SampleRecord) -> Iterator[ScenarioHeader | SampleRecord | SyncRecord]:
    """The header, then each record, of a scenario's lines, one at a time (a sample
    as ``emit`` returns it, unless None); a malformed line raises ScenarioError with its number."""
    header: ScenarioHeader | None = None
    # one parser per declared stream, built when the header is read
    parsers: dict[str, Callable[[dict, int], object]] = {}

    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        try:
            obj, end = _decode(line, 0)
        except StopIteration:
            raise ScenarioError("invalid JSON: Expecting value", line_no) from None
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid JSON: {error.msg}", line_no) from None
        if end != len(line):
            raise ScenarioError("invalid JSON: Extra data", line_no)
        try:
            record_type = obj["type"]
        except (KeyError, TypeError):
            raise ScenarioError("each line must be an object with a 'type'", line_no) from None

        if record_type == "sample" and header is not None:
            try:
                parse = parsers[obj["stream"]]
            except (KeyError, TypeError):
                raise ScenarioError(f"sample for undeclared stream {obj.get('stream')!r}", line_no) from None
            record = parse(obj, line_no)
            if record is not None:
                yield record
            continue
        if record_type == "header":
            if header is not None:
                raise ScenarioError("duplicate header", line_no)
            header = _parse_header(obj, line_no)
            parsers = {d.stream_id: _sample_parser(d, emit) for d in header.streams}
            yield header
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
        yield SyncRecord(stream_id=stream_id, marks=marks)

    if header is None:
        raise ScenarioError("scenario is empty (no header)", 1)


def iter_records(lines, emit: Emit = SampleRecord) -> Iterator[SampleRecord | SyncRecord]:
    """The records of a scenario's lines, parsed one at a time as they
    are taken, with every check ``parse_scenario_lines`` makes. The
    header is checked here and skipped. ``emit`` takes each sample (``_scan``)."""
    scan = _scan(lines, emit)
    next(scan)
    return scan


def parse_scenario_lines(lines) -> Scenario:
    """A scenario with all its records parsed into memory."""
    scan = _scan(lines)
    header = next(scan)
    return Scenario(header=header, records=list(scan))


def _shared_fields(obj: dict, line_no: int | None = None) -> dict:
    """The fields a scenario header and a profile share, checked and
    keyed by their names on ``ScenarioHeader`` and ``SyntheticProfile``;
    ``line_no`` is the header's line, None for a profile."""
    modality_raw = obj.get("modality", Modality.TEXT.value)
    try:
        modality = Modality(modality_raw)
    except ValueError:
        raise ScenarioError(f"unknown modality {modality_raw!r}", line_no) from None
    seed = obj.get("seed", 0)
    if not _is_int(seed):
        raise ScenarioError(f"seed must be an integer, got {seed!r}", line_no)
    config_entries = obj.get("config", {})
    if not isinstance(config_entries, dict):
        raise ScenarioError(f"config must be an object, got {config_entries!r}", line_no)
    analyzer_replies = obj.get("analyzer_replies", [])
    if not (isinstance(analyzer_replies, list) and all(isinstance(r, str) for r in analyzer_replies)):
        raise ScenarioError("analyzer_replies must be a list of strings", line_no)
    dialogue = obj.get("dialogue", [])
    if not (isinstance(dialogue, list) and all(isinstance(turn, dict) for turn in dialogue)):
        raise ScenarioError("dialogue must be a list of objects", line_no)
    return {
        "modality": modality,
        "seed": seed,
        "topic": str(obj.get("topic", "the current topic")),
        "config_entries": dict(config_entries),
        "analyzer_replies": tuple(analyzer_replies),
        "dialogue": tuple(dialogue),
    }


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

    return ScenarioHeader(streams=streams, **_shared_fields(obj, line_no))


# errors="surrogateescape" decodes each byte that is not UTF-8 to one of these
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def first_escaped_line(lines: Iterable[str]) -> int:
    """The number of the first of ``lines``, decoded with
    errors="surrogateescape", that holds a byte that is not UTF-8."""
    return next(line_no for line_no, line in enumerate(lines, start=1) if _ESCAPED_BYTE.search(line))


@contextmanager
def utf8_text(path) -> Iterator[TextIO]:
    """A text file opened as UTF-8. A byte that is not UTF-8 raises
    ScenarioError with the number of its line, counted as text mode
    counts lines: the file is read again, only then, to find it."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as escaped:
                line_no = first_escaped_line(escaped)
            raise ScenarioError("not UTF-8 text", line_no) from None


class ScenarioFile:
    """The records of a scenario file, read afresh on each iteration.

    Each iteration opens the file and parses it a line at a time
    (``iter_records``), so a replay holds one record at a time and a
    malformed line raises its ScenarioError when the iteration reaches
    it. ``len`` parses the whole file once and keeps the count.
    """

    def __init__(self, path):
        self.path = path
        self._count: int | None = None

    def scan(self, emit: Emit = SampleRecord) -> Iterator[SampleRecord | SyncRecord]:
        """One iteration, each sample going to ``emit`` (``iter_records``)."""
        with utf8_text(self.path) as handle:
            yield from iter_records(handle, emit)

    __iter__ = scan

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self)
        return self._count


def load_scenario(path) -> Scenario:
    """The scenario in a file: its header read and checked now, its
    records a ``ScenarioFile`` view, parsed as they are replayed."""
    with utf8_text(path) as handle:
        header = next(_scan(handle))
    return Scenario(header=header, records=ScenarioFile(path))


# ---------------------------------------------------------------------------
# serialization

# one encoder for every scenario and trace line written: sorted keys,
# no spaces
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _literal(value) -> str:
    """JSON text of a value that is part of a line template, its % signs
    escaped."""
    return _encode(value).replace("%", "%%")


def _template(stream_id: str, has_source_confidence: bool, fields: dict[str, str]) -> str:
    """A sample line with one "%s" per number. ``fields`` maps each
    payload key to its text; the keys come out sorted, as the encoder
    sorts them, so the numbers fill it in sorted key order."""
    fields = {**fields, "stream": _literal(stream_id), "t": "%s", "type": '"sample"'}
    if has_source_confidence:
        fields["source_confidence"] = "%s"
    return "{" + ",".join(f"{_literal(key)}:{text}" for key, text in sorted(fields.items())) + "}"


def _render(numbers: list) -> list[str]:
    """The JSON text of each number (or null), from one encoder call.

    The encoder renders a list's items as it renders each alone, so
    splitting the list's text on commas gives each item's text, unless
    some item's text holds a comma; then each item is rendered alone.
    """
    texts = _encode(numbers)[1:-1].split(",")
    if len(texts) != len(numbers):
        texts = [_encode(number) for number in numbers]
    return texts


def _sample_templates(records, kinds: dict[str, StreamKind]):
    """Yield (template, numbers) for each record of a scenario: the line
    template, and the numbers that fill it in order. A sync line is
    finished text, its % signs escaped, with no numbers. Landmark points
    are (x, y) pairs, as ``PostureSample`` declares."""
    known: dict[tuple, str] = {}
    for record in records:
        if isinstance(record, SyncRecord):
            marks = [list(mark) for mark in record.marks]
            yield _literal({"type": "sync", "stream": record.stream_id, "marks": marks}), ()
            continue
        stream_id, payload, t = record.stream_id, record.payload, record.t
        source_confidence = record.source_confidence
        has_sc = source_confidence != 1.0
        head = (source_confidence, t) if has_sc else (t,)
        if record.transcript is not None:
            fields = {"transcript": _literal(record.transcript)}
            yield _template(stream_id, has_sc, fields), head
            continue
        kind = kinds[stream_id]
        if kind is StreamKind.PUPIL_GAZE:
            key = (stream_id, has_sc)
            template = known.get(key)
            if template is None:
                fields = {"confidence": "%s", "pupil_mm": "%s", "x": "%s", "y": "%s"}
                template = known[key] = _template(stream_id, has_sc, fields)
            yield template, (payload.confidence, payload.pupil_diameter_mm, *head, payload.x, payload.y)
        elif kind is StreamKind.RR_INTERVAL:
            key = (stream_id, has_sc)
            template = known.get(key)
            if template is None:
                template = known[key] = _template(stream_id, has_sc, {"rr_ms": "%s"})
            yield template, (payload.rr_ms, *head)
        elif kind is StreamKind.POSTURE_LANDMARKS:
            landmarks = sorted(payload.landmarks.items())
            visibility = sorted(payload.visibility.items())
            key = (stream_id, has_sc, *[name for name, _ in landmarks], None, *[name for name, _ in visibility])
            template = known.get(key)
            if template is None:
                fields = {"landmarks": "{" + ",".join(f"{_literal(name)}:[%s,%s]" for name, _ in landmarks) + "}"}
                if visibility:
                    fields["visibility"] = "{" + ",".join(f"{_literal(name)}:%s" for name, _ in visibility) + "}"
                template = known[key] = _template(stream_id, has_sc, fields)
            yield template, (
                *[coordinate for _, point in landmarks for coordinate in point],
                *head,
                *[value for _, value in visibility],
            )
        else:
            fields = {"correctness": "%s"}
            if payload.feedback_text:
                fields["feedback"] = _literal(payload.feedback_text)
            yield _template(stream_id, has_sc, fields), (payload.correctness, *head)


def scenario_to_lines(scenario: Scenario) -> list[str]:
    """The scenario's lines: canonical JSON, sorted keys, no spaces.

    Sample lines are filled from templates (strings encoded into them,
    keys sorted), and the numbers of all lines are rendered by one
    encoder call.
    """
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
    templates: list[str] = []
    numbers: list = []
    for template, values in _sample_templates(scenario.records, kinds):
        templates.append(template)
        numbers += values
    lines = [_encode(header_obj)]
    if templates:
        lines += ("\n".join(templates) % tuple(_render(numbers))).split("\n")
    return lines


def write_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(scenario_to_lines(scenario)) + "\n")


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

# The most samples a profile may make on one stream. Synthesis holds
# every record it makes, so its work and memory grow with the rates,
# not with the span; 24 h of gaze at 60 Hz is 5.2M samples.
MAX_STREAM_SAMPLES = 2**23


class GeneratorSpec(NamedTuple):
    kind: str
    target_z: float = 0.0
    tau_s: float = 10.0
    amplitude_z: float = 0.0
    period_s: float = 60.0


class ProfileSegment(NamedTuple):
    duration_s: float
    channels: dict[str, GeneratorSpec]


class SyntheticProfile(NamedTuple):
    """A parsed profile; ``parse_profile`` sets every field."""

    segments: list[ProfileSegment]
    seed: int
    topic: str
    modality: Modality
    noise: dict[str, float]
    config_entries: dict[str, object]
    analyzer_replies: tuple[str, ...]
    dialogue: tuple[dict[str, str], ...]
    gaze_rate_hz: float
    posture_rate_hz: float
    note_interval_s: float

    def duration_s(self) -> float:
        return sum(segment.duration_s for segment in self.segments)


def load_profile(path) -> SyntheticProfile:
    with utf8_text(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid profile JSON: {error.msg}", error.lineno) from None
    return parse_profile(data)


def _profile_number(value, what: str, positive: bool = False) -> float:
    """A profile number as a float: a finite JSON number, above zero
    when ``positive``. A non-finite rate, duration or time constant
    would hang or crash the synthesizer, so each is refused here."""
    if not (_is_finite_number(value) and (value > 0 or not positive)):
        qualifier = "positive " if positive else ""
        raise ScenarioError(f"{what} must be a {qualifier}finite number, got {value!r}")
    return float(value)


def _profile_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be an object, got {value!r}")
    return value


def parse_profile(data: dict) -> SyntheticProfile:
    """Check a decoded profile and build it; any malformed field is a
    ScenarioError, and the segments may span at most MAX_SESSION_S,
    the span a replay covers."""
    _profile_object(data, "profile")
    segments_raw = data.get("segments")
    if not isinstance(segments_raw, list) or not segments_raw:
        raise ScenarioError("profile needs a non-empty segments list")
    segments: list[ProfileSegment] = []
    for index, seg in enumerate(segments_raw):
        where = f"segment {index}"
        _profile_object(seg, where)
        duration = _profile_number(seg.get("duration_s"), f"{where}: duration_s", positive=True)
        channels: dict[str, GeneratorSpec] = {}
        for control, spec in _profile_object(seg.get("channels", {}), f"{where}: channels").items():
            if control not in CONTROLS:
                raise ScenarioError(f"{where}: unknown control {control!r}")
            _profile_object(spec, f"{where}: {control}")
            kind = spec.get("kind")
            if kind not in _GENERATOR_KINDS:
                raise ScenarioError(f"{where}: unknown generator kind {kind!r}")
            channels[control] = GeneratorSpec(
                kind=kind,
                target_z=_profile_number(spec.get("target_z", 0.0), f"{where}: {control} target_z"),
                tau_s=_profile_number(spec.get("tau_s", 10.0), f"{where}: {control} tau_s", positive=True),
                amplitude_z=_profile_number(spec.get("amplitude_z", 0.0), f"{where}: {control} amplitude_z"),
                period_s=_profile_number(spec.get("period_s", 60.0), f"{where}: {control} period_s", positive=True),
            )
        segments.append(ProfileSegment(duration_s=duration, channels=channels))

    noise = dict(NOISE_DEFAULTS)
    for key, value in _profile_object(data.get("noise", {}), "noise").items():
        if key not in NOISE_DEFAULTS:
            raise ScenarioError(f"unknown noise key {key!r}")
        noise[key] = _profile_number(value, f"noise {key}")

    profile = SyntheticProfile(
        segments=segments,
        noise=noise,
        **_shared_fields(data),
        gaze_rate_hz=_profile_number(data.get("gaze_rate_hz", 60.0), "gaze_rate_hz", positive=True),
        posture_rate_hz=_profile_number(data.get("posture_rate_hz", 5.0), "posture_rate_hz", positive=True),
        note_interval_s=_profile_number(data.get("note_interval_s", 60.0), "note_interval_s", positive=True),
    )
    span = profile.duration_s()
    if span > MAX_SESSION_S:
        raise ScenarioError(f"segments span {span} s, past the session span ({MAX_SESSION_S} s)")
    # gaze and posture count their samples as round(span * rate), notes
    # come one per note_interval_s
    counts = {
        "gaze_rate_hz": span * profile.gaze_rate_hz,
        "posture_rate_hz": span * profile.posture_rate_hz,
        "note_interval_s": span / profile.note_interval_s,
    }
    for name, count in counts.items():
        if not count <= MAX_STREAM_SAMPLES:
            raise ScenarioError(
                f"{name} ({getattr(profile, name)}) over the segments' {span} s gives more than 2**23 samples"
            )
    return profile


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

    def values(self, times: list[float]) -> list[float]:
        """``value(t)`` for each of ``times``, which are non-negative and
        increasing, bit for bit: one piece at a time, with the float
        expressions of ``z`` and ``value``."""
        mu, sigma = self.mu, self.sigma
        exp, sin = math.exp, math.sin
        two_pi = 2.0 * math.pi
        out: list[float] = []
        lo = 0
        for start, end, spec, z_start in self.pieces:
            hi = bisect_left(times, end, lo)
            span = times[lo:hi]
            lo = hi
            if spec.kind == "baseline":
                out += [mu + 0.0 * sigma] * len(span)
            elif spec.kind == "ramp":
                target, tau = spec.target_z, spec.tau_s
                out += [mu + (target + (z_start - target) * exp(-(t - start) / tau)) * sigma for t in span]
            else:
                amplitude, period = spec.amplitude_z, spec.period_s
                out += [mu + (amplitude * sin(two_pi * (t - start) / period)) * sigma for t in span]
        # past the final segment: hold its end state
        start, end, spec, z_start = self.pieces[-1]
        out += [mu + self._z_at(spec, z_start, end - start) * sigma] * (len(times) - lo)
        return out


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
    records.sort(key=attrgetter("t", "stream_id"))

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


# The generators clamp with max(lo, min(hi, v)), which turns a -0.0
# into a lo of 0.0 where a conditional would keep it, and draw
# rng.uniform(a, b) as its body on every supported CPython,
# a + (b - a) * rng.random(). Each keeps its RNG calls in one fixed
# order, so a seed gives the same bytes.


def _gen_gaze(profile, curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:gaze")
    draw, gauss = rng.random, rng.gauss
    cos, sin = math.cos, math.sin
    two_pi = 2.0 * math.pi
    dt = 1.0 / profile.gaze_rate_hz
    motion_scale = noise["gaze_xy"]
    blink_scale = noise["blink"]
    pupil_noise = noise["pupil_mm"]

    n = int(round(duration * profile.gaze_rate_hz))
    times = [round(k * dt, 6) for k in range(n)]
    blink_rates = curves["blink_rate_hz"].values(times)
    drift_speeds = curves["gaze_drift_speed"].values(times)
    pupil_means = curves["pupil_mm"].values(times)

    records: list[SampleRecord] = []
    append = records.append
    anchor_x, anchor_y = 0.5, 0.5
    offset_x = offset_y = 0.0
    dwell_left = 0.8 + (2.5 - 0.8) * draw()
    blink_left = 0.0
    for t, blink_rate, drift_speed, pupil in zip(times, blink_rates, drift_speeds, pupil_means):
        blinking = blink_left > 0.0
        if blinking:
            blink_left -= dt
        elif blink_scale > 0 and draw() < blink_rate * blink_scale * dt:
            blink_left = 0.08 + (0.15 - 0.08) * draw()
            blinking = True

        if not blinking and motion_scale > 0:
            dwell_left -= dt
            if dwell_left <= 0:
                anchor_x = 0.15 + (0.85 - 0.15) * draw()
                anchor_y = 0.15 + (0.85 - 0.15) * draw()
                offset_x = offset_y = 0.0
                dwell_left = 0.8 + (2.5 - 0.8) * draw()
            angle = 0.0 + (two_pi - 0.0) * draw()
            step = drift_speed * dt * motion_scale
            offset_x = (offset_x + step * cos(angle)) * 0.95
            offset_y = (offset_y + step * sin(angle)) * 0.95

        x = max(0.0, min(1.0, anchor_x + offset_x))
        y = max(0.0, min(1.0, anchor_y + offset_y))
        if blinking:
            pupil = None
            confidence = 0.05
        else:
            if pupil_noise > 0:
                pupil += gauss(0.0, pupil_noise)
            pupil = round(max(1.0, min(9.0, pupil)), 6)
            confidence = 0.98
        append(SampleRecord("gaze", t, 0.99, GazeSample(round(x, 6), round(y, 6), pupil, confidence)))
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
        rr = round(max(300.0, min(2000.0, rr)), 3)
        t_next = t + rr / 1000.0
        if t_next >= duration:
            break
        records.append(SampleRecord("heart", round(t_next, 6), 1.0, RRSample(rr)))
        t = t_next
    return records


# (name, base x, base y) of each landmark, in the order of its draws
_POSE = tuple((name, *_BASE_POSE[name]) for name in POSTURE_POINTS)


def _gen_posture(profile, curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:posture")
    gauss = rng.gauss
    tan, radians = math.tan, math.radians
    jitter_sd = 0.003 * noise["posture"]
    dt = 1.0 / profile.posture_rate_hz
    n = int(round(duration * profile.posture_rate_hz))
    times = [round(k * dt, 6) for k in range(n)]

    records: list[SampleRecord] = []
    for t, slump in zip(times, curves["posture_slump"].values(times)):
        tilt_dy = tan(radians(_SLUMP_TILT_DEG * slump)) * _SHOULDER_HALF_WIDTH
        lean_dx = tan(radians(_SLUMP_LEAN_DEG * slump)) * _TRUNK_LENGTH
        ear_dx = _SLUMP_EAR_DRIFT * slump
        # shoulders lean and tilt, ears lean and drift, hips stay
        dxs = (lean_dx, lean_dx, lean_dx + ear_dx, lean_dx + ear_dx, 0.0, 0.0)
        dys = (tilt_dy, -tilt_dy, 0.0, 0.0, 0.0, 0.0)
        landmarks = {}
        for (name, base_x, base_y), dx, dy in zip(_POSE, dxs, dys):
            jx = gauss(0.0, jitter_sd) if jitter_sd > 0 else 0.0
            jy = gauss(0.0, jitter_sd) if jitter_sd > 0 else 0.0
            landmarks[name] = (
                round(max(0.0, min(1.0, base_x + dx + jx)), 6),
                round(max(0.0, min(1.0, base_y + dy + jy)), 6),
            )
        records.append(SampleRecord("cam", t, 1.0, PostureSample(landmarks)))
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
        correctness = round(max(0.0, min(1.0, value)), 4)
        records.append(SampleRecord("notes", round(t, 6), 1.0, NoteScoreSample(correctness)))
        t += profile.note_interval_s
    return records
