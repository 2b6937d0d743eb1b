"""Core data model: stream descriptors, sample payloads and envelopes.

Timestamps are seconds on the session clock, stored as plain floats.
Producers with their own clocks are aligned via per-stream offsets at
ingestion (see :mod:`cogloop.streams`).

Records are declared with what the interpreter loads at startup, so a
replay never imports a class generator that brings ``inspect``,
``ast``, ``dis`` and ``tokenize`` with it. Which of the two a record
is follows its build cost. A record built once per sample or event, or
several times per window, is a ``Slotted`` class with a hand-written
``__init__``: gaze and posture samples, envelopes, and
``state.ChannelFeature``, which builds in about 200 ns, against
330 ns as a ``NamedTuple`` (CPython 3.11, positional arguments). So is
a record that checks its fields in its constructor or that changes
after it. A record built once per window, tick or config is a
``NamedTuple``. An RR payload needs no record: it is its interval in
milliseconds, a plain number. Nothing mutates a sample or an envelope
once built.

Payload constructors check nothing. Each input rule is checked once,
by the one boundary that owns it, and the engine behind it trusts it:

- the parser in :mod:`cogloop.scenario` owns the header (its keys,
  distinct stream ids, one stream per kind), sync marks (at least two)
  and every sample, field by field, with its stream's parser;
- ``config.validate_config`` owns every knob's range, from the window
  hop and lengths to the template ids of the strategy overrides;
- ``session.Session`` owns session time: a sample off the session span,
  or a gaze sample less than ``MIN_GAZE_STEP_S`` after the one before
  it, is a warning, and its tick grid hands the intervention engine
  strictly increasing times.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

Timestamp = float

# The longest session a replay covers, in seconds. Replay walks every
# window and decision tick up to the last session time, so its cost
# grows with the timestamps, not with the data: a sample whose session
# time lies past this is skipped with a warning, not replayed through a
# gap of years, and every trace event lies in [0, MAX_SESSION_S]. A
# constant, not a config key: one value is in use. The synthesizer
# holds a profile to it too.
MAX_SESSION_S = 24 * 3600.0


class Slotted:
    """Base of the records declared as plain ``__slots__`` classes.

    Equality, ``repr`` and ``_replace`` (named as a ``NamedTuple`` names
    it) go over the fields the subclass lists in ``__slots__``, and its
    ``__init__`` takes each field by that name. An instance hashes only
    if its class defines ``__hash__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def _replace(self, **changes):
        """A copy with ``changes`` applied to its fields."""
        fields = dict(zip(self.__slots__, self._values()))
        fields.update(changes)
        return type(self)(**fields)


class StreamKind(str, Enum):
    PUPIL_GAZE = "pupil_gaze"
    RR_INTERVAL = "rr_interval"
    POSTURE_LANDMARKS = "posture_landmarks"
    NOTE_SCORE = "note_score"


class Dimension(str, Enum):
    COGNITIVE_LOAD = "cognitive_load"
    ATTENTION = "attention"
    ENGAGEMENT = "engagement"
    UNDERSTANDING = "understanding"
    STRESS = "stress"
    FATIGUE = "fatigue"


class Modality(str, Enum):
    TEXT = "text"
    IMAGE = "image"
    AUDIO = "audio"
    VIDEO = "video"


class StreamDescriptor(Slotted):
    """Identity and nominal cadence of one producer stream."""

    __slots__ = ("stream_id", "kind", "nominal_rate_hz")

    def __init__(self, stream_id: str, kind: StreamKind, nominal_rate_hz: float):
        if not stream_id:
            raise ValueError("stream_id must be non-empty")
        if not (math.isfinite(nominal_rate_hz) and nominal_rate_hz > 0):
            raise ValueError(f"nominal_rate_hz must be positive, got {nominal_rate_hz!r}")
        self.stream_id = stream_id
        self.kind = kind
        self.nominal_rate_hz = nominal_rate_hz


class GazeSample(Slotted):
    """One eye-tracker sample in screen-normalized coordinates.

    ``pupil_diameter_mm`` is None while the pupil is not measurable
    (blinks, track loss). ``confidence`` is the tracker's own quality
    estimate for the sample.
    """

    __slots__ = ("x", "y", "pupil_diameter_mm", "confidence")

    def __init__(self, x: float, y: float, pupil_diameter_mm: float | None = None, confidence: float = 1.0):
        self.x = x
        self.y = y
        self.pupil_diameter_mm = pupil_diameter_mm
        self.confidence = confidence


# Landmark names used by the posture scorer. Coordinates are
# normalized to [0, 1] with y growing downward (image convention).
POSTURE_POINTS = (
    "shoulder_left",
    "shoulder_right",
    "ear_left",
    "ear_right",
    "hip_left",
    "hip_right",
)

# A landmark whose visibility is under this is treated as hidden.
VISIBILITY_FLOOR = 0.5


class PoseGeometry(NamedTuple):
    """What posture scoring compares between a pose and the baseline.

    ``shoulder_tilt_deg`` is the shoulder line's angle; ``neck_offset``
    the horizontal drift of the ear midpoint from the shoulder midpoint;
    ``trunk_angle_deg`` the shoulder-to-hip midpoint line's angle from
    vertical. Each is None unless both shoulders, and its own landmark
    pair, are visible.
    """

    shoulder_tilt_deg: float | None
    neck_offset: float | None
    trunk_angle_deg: float | None


class PostureSample(Slotted):
    """One pose's landmarks, with the visibility of those the source
    scored."""

    __slots__ = ("landmarks", "visibility")

    def __init__(self, landmarks: dict[str, tuple[float, float]], visibility: dict[str, float] | None = None):
        self.landmarks = landmarks
        self.visibility = {} if visibility is None else visibility

    def point_visible(self, name: str) -> bool:
        if name not in self.landmarks:
            return False
        return self.visibility.get(name, 1.0) >= VISIBILITY_FLOOR

    def _pair_visible(self, left: str, right: str) -> bool:
        return self.point_visible(left) and self.point_visible(right)

    def geometry(self) -> PoseGeometry:
        """The pose's geometry, derived on each call: a session derives
        it once for each frame and once for the baseline pose, and keeps
        it in place of the landmarks."""
        if not self._pair_visible("shoulder_left", "shoulder_right"):
            return PoseGeometry(None, None, None)
        points = self.landmarks
        (lx, ly), (rx, ry) = points["shoulder_left"], points["shoulder_right"]
        shoulder_x, shoulder_y = (lx + rx) / 2.0, (ly + ry) / 2.0
        neck = trunk = None
        if self._pair_visible("ear_left", "ear_right"):
            neck = (points["ear_left"][0] + points["ear_right"][0]) / 2.0 - shoulder_x
        if self._pair_visible("hip_left", "hip_right"):
            (hlx, hly), (hrx, hry) = points["hip_left"], points["hip_right"]
            # y grows downward in image coordinates
            trunk = math.degrees(math.atan2(shoulder_x - (hlx + hrx) / 2.0, (hly + hry) / 2.0 - shoulder_y))
        return PoseGeometry(math.degrees(math.atan2(ry - ly, rx - lx)), neck, trunk)


class NoteScoreSample(NamedTuple):
    """Assessed correctness of the learner's recent notes, in [0, 1]."""

    correctness: float
    feedback_text: str = ""
    clamped: bool = False


# an RR payload is the beat-to-beat interval in milliseconds
Payload = GazeSample | float | PostureSample | NoteScoreSample


class SampleEnvelope(Slotted):
    """A payload at its session time, with the confidence its source
    gave it.

    Neither the constructor nor the merger checks anything: the parser
    checks the source confidence, and ``Session.place`` the session time,
    before the merger builds one.
    """

    __slots__ = ("timestamp", "payload", "source_confidence")

    def __init__(self, timestamp: Timestamp, payload: Payload, source_confidence: float = 1.0):
        self.timestamp = timestamp
        self.payload = payload
        self.source_confidence = source_confidence
