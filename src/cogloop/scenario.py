"""Scenario files: their format, parser and writer.

A scenario is JSON Lines: a header object first, then one record per
line in session-time order. Records are either samples or sync-mark
batches. Timestamps are seconds (``t``) or milliseconds (``t_ms``).
A loaded scenario reads its header at once and parses its records a
line at a time, each time they are iterated. Profiles and the
synthesizer that turns one into a scenario are in ``synth``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import NamedTuple, TextIO

from .errors import ScenarioError
from .model import (
    POSTURE_POINTS,
    GazeRow,
    Modality,
    NoteScoreSample,
    Payload,
    PostureSample,
    Slotted,
    StreamDescriptor,
    StreamKind,
    Timestamp,
)
from .streams import estimate_offset

# The profile functions that moved to ``synth``, still read from here by
# the benchmark under ``bench/``: ``__getattr__`` resolves each one on
# first use and keeps it in this module's globals. ``synth`` imports
# this module, so the import waits for the first use.
_SYNTH_NAMES = ("synthesize", "parse_profile")


def __getattr__(name: str):
    if name not in _SYNTH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import synth

    value = globals()[name] = getattr(synth, name)
    return value


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
        config_entries: dict[str, object],
        seed: int,
        modality: Modality,
        topic: str,
        analyzer_replies: tuple[str, ...],
        dialogue: tuple[dict[str, str], ...],
    ):
        self.streams = streams
        self.config_entries = config_entries
        self.seed = seed
        self.modality = modality
        self.topic = topic
        self.analyzer_replies = analyzer_replies
        self.dialogue = dialogue


class Scenario(Slotted):
    """A header and its records: a list when built in memory (or once a
    synthesized scenario's are read), a ``ScenarioFile`` when loaded
    from a file."""

    __slots__ = ("header", "records")

    def __init__(self, header: ScenarioHeader, records: list[SampleRecord | SyncRecord] | ScenarioFile):
        self.header = header
        self.records = records

    def duration_s(self) -> float:
        return max((r.t for r in self.records if isinstance(r, SampleRecord)), default=0.0)

    def scan(self, emit: Emit) -> Iterable[SampleRecord | SyncRecord]:
        """The records for ``Session.push``; a file's samples go straight to ``emit``."""
        records = self.records
        return records.scan(emit) if isinstance(records, ScenarioFile) else records

    def write(self, handle: TextIO) -> None:
        handle.write(_scenario_text(self) + "\n")


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
# [0, 1]: the range comparison is False for NaN and both infinities. A
# physical quantity (a pupil in mm, an RR interval, a stream's rate) is
# never a boolean: its type is float or int, as a timestamp's is.

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


def _gaze_payload(obj: dict) -> tuple[GazeRow, None]:
    pupil = obj.get("pupil_mm")
    if pupil is not None:
        if not (type(pupil) is float or type(pupil) is int):
            raise ValueError(f"pupil_mm must be a number, got {pupil!r}")
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
    return (x, y, pupil, confidence), None


def _rr_payload(obj: dict) -> tuple[float, None]:
    rr = obj["rr_ms"]
    if not ((type(rr) is float or type(rr) is int) and math.isfinite(rr) and rr > 0):
        raise ValueError(f"rr_ms must be a positive finite number, got {rr!r}")
    return rr, None


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
    are taken. The header is checked here and skipped. ``emit`` takes
    each sample (``_scan``)."""
    scan = _scan(lines, emit)
    next(scan)
    return scan


def _refuse_unknown_keys(obj: dict, known, what: str, line_no: int | None = None, where: str = "") -> None:
    """Refuse the first key of ``obj`` not in ``known`` as an unknown
    key of ``what``; ``where`` prefixes the message."""
    for key in obj:
        if key not in known:
            raise ScenarioError(f"{where}unknown {what} key {key!r}", line_no)


# the keys _shared_fields reads, and those of a dialogue turn, each
# optional: render_prompt reads a turn's missing role as the learner's
# and its missing text as empty
_SHARED_KEYS = ("modality", "seed", "config", "analyzer_replies", "dialogue", "topic")
_TURN_KEYS = ("role", "text")


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
    for turn in dialogue:
        _refuse_unknown_keys(turn, _TURN_KEYS, "dialogue turn", line_no)
        if not all(isinstance(value, str) for value in turn.values()):
            raise ScenarioError(f"a dialogue turn's role and text must be strings, got {turn!r}", line_no)
    topic = obj.get("topic", "the current topic")
    if not isinstance(topic, str):
        raise ScenarioError(f"topic must be a string, got {topic!r}", line_no)
    return {
        "modality": modality,
        "seed": seed,
        "topic": topic,
        "config_entries": dict(config_entries),
        "analyzer_replies": tuple(analyzer_replies),
        "dialogue": tuple(dialogue),
    }


_HEADER_KEYS = ("type", "streams", *_SHARED_KEYS)


def _parse_header(obj: dict, line_no: int) -> ScenarioHeader:
    """The header on line ``line_no``; a key it does not define is refused,
    in the header and in each stream entry, whose keys are the
    descriptor's fields."""
    _refuse_unknown_keys(obj, _HEADER_KEYS, "header", line_no)
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
        _refuse_unknown_keys(entry, StreamDescriptor.__slots__, "stream", line_no)
        try:
            rate = entry["nominal_rate_hz"]
            if isinstance(rate, bool):
                raise TypeError(f"nominal_rate_hz must be a number, got {rate!r}")
            descriptor = StreamDescriptor(
                stream_id=entry["stream_id"],
                kind=StreamKind(entry["kind"]),
                nominal_rate_hz=rate,
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
    it. ``len`` parses the whole file on each call, so a file that
    changed is counted as it is now.
    """

    def __init__(self, path):
        self.path = path

    def scan(self, emit: Emit = SampleRecord) -> Iterator[SampleRecord | SyncRecord]:
        """One iteration, each sample going to ``emit`` (``iter_records``)."""
        with utf8_text(self.path) as handle:
            yield from iter_records(handle, emit)

    __iter__ = scan

    def __len__(self) -> int:
        return sum(1 for _ in self)


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
            x, y, pupil, confidence = payload
            yield template, (confidence, pupil, *head, x, y)
        elif kind is StreamKind.RR_INTERVAL:
            key = (stream_id, has_sc)
            template = known.get(key)
            if template is None:
                template = known[key] = _template(stream_id, has_sc, {"rr_ms": "%s"})
            yield template, (payload, *head)
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


def _scenario_text(scenario: Scenario) -> str:
    """The scenario's lines, joined by newlines: canonical JSON, sorted
    keys, no spaces.

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
    text = _encode(header_obj)
    if templates:
        text += "\n" + "\n".join(templates) % tuple(_render(numbers))
    return text


def write_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        scenario.write(handle)
