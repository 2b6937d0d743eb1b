"""Core data model: stream descriptors, sample payloads and envelopes.

Timestamps are seconds on the session clock, stored as plain floats.
Producers with their own clocks are aligned via per-stream offsets at
ingestion (see :mod:`cogloop.streams`).

The types built once per record (gaze and RR samples, envelopes) are
slotted dataclasses and not frozen: a frozen dataclass sets each field
through ``object.__setattr__``, which costs several times a plain slot
store. Nothing mutates them after construction.

Payload constructors check nothing. A sample from a scenario file is
checked once, field by field, by its stream's parser in
:mod:`cogloop.scenario`; that parser is the only owner of sample
validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

Timestamp = float


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


@dataclass(frozen=True)
class StreamDescriptor:
    """Identity and nominal cadence of one producer stream."""

    stream_id: str
    kind: StreamKind
    nominal_rate_hz: float

    def __post_init__(self):
        if not self.stream_id:
            raise ValueError("stream_id must be non-empty")
        if not (math.isfinite(self.nominal_rate_hz) and self.nominal_rate_hz > 0):
            raise ValueError(f"nominal_rate_hz must be positive, got {self.nominal_rate_hz!r}")


@dataclass(slots=True)
class GazeSample:
    """One eye-tracker sample in screen-normalized coordinates.

    ``pupil_diameter_mm`` is None while the pupil is not measurable
    (blinks, track loss). ``confidence`` is the tracker's own quality
    estimate for the sample.
    """

    x: float
    y: float
    pupil_diameter_mm: float | None = None
    confidence: float = 1.0


@dataclass(slots=True)
class RRSample:
    """One beat-to-beat interval in milliseconds."""

    rr_ms: float


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


@dataclass(frozen=True)
class PostureSample:
    landmarks: dict[str, tuple[float, float]]
    visibility: dict[str, float] = field(default_factory=dict)

    def point_visible(self, name: str, floor: float = VISIBILITY_FLOOR) -> bool:
        if name not in self.landmarks:
            return False
        return self.visibility.get(name, 1.0) >= floor

    def _pair_visible(self, left: str, right: str) -> bool:
        return self.point_visible(left) and self.point_visible(right)

    @cached_property
    def geometry(self) -> PoseGeometry:
        """The pose's geometry, derived once: the baseline pose is
        compared with every frame of a session."""
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


@dataclass(frozen=True)
class NoteScoreSample:
    """Assessed correctness of the learner's recent notes, in [0, 1]."""

    correctness: float
    feedback_text: str = ""
    clamped: bool = False


Payload = GazeSample | RRSample | PostureSample | NoteScoreSample


@dataclass(slots=True)
class SampleEnvelope:
    """A payload at its session time, with the confidence its source
    gave it.

    The constructor checks nothing: the merger range-checks the session
    time it computes and the source confidence before building one.
    """

    timestamp: Timestamp
    payload: Payload
    source_confidence: float = 1.0
