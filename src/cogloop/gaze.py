"""Gaze processing: blink handling, pupil despiking, velocity-threshold
fixation detection, and per-window feature aggregation.

Velocity between consecutive samples is the Euclidean step in
screen-normalized units divided by the time step. Samples moving slower
than the velocity threshold are fixation samples; maximal runs of them
become fixation events, and runs shorter than the minimum duration are
discarded as noise. Blink samples break runs on both sides.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .errors import TooFewSamplesError, ZeroDtError
from .model import GazeSample, SampleEnvelope, Timestamp
from .streams import Window

# Tracker confidence below this marks the sample as a blink even when a
# pupil value is reported.
BLINK_CONFIDENCE_FLOOR = 0.2


@dataclass(frozen=True)
class GazePoint:
    """A gaze sample bound to its session timestamp."""

    t: Timestamp
    x: float
    y: float
    pupil_mm: float | None = None
    confidence: float = 1.0
    is_blink: bool = False

    @classmethod
    def from_envelope(cls, envelope: SampleEnvelope) -> "GazePoint":
        sample = envelope.payload
        if not isinstance(sample, GazeSample):
            raise TypeError(f"expected GazeSample payload, got {type(sample).__name__}")
        return cls(
            t=envelope.timestamp,
            x=sample.x,
            y=sample.y,
            pupil_mm=sample.pupil_diameter_mm,
            confidence=sample.confidence,
        )


@dataclass(frozen=True)
class FixationEvent:
    start: Timestamp
    end: Timestamp

    @property
    def duration_s(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SaccadeEvent:
    start: Timestamp
    end: Timestamp

    @property
    def duration_s(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class DespikeResult:
    points: tuple[GazePoint, ...]
    blink_events: tuple[tuple[Timestamp, Timestamp], ...]

    @property
    def blink_count(self) -> int:
        return len(self.blink_events)


def _is_blink(point: GazePoint) -> bool:
    if point.pupil_mm is None or point.pupil_mm <= 0:
        return True
    return point.confidence < BLINK_CONFIDENCE_FLOOR


def despike_pupil(points: list[GazePoint], median_width: int) -> DespikeResult:
    """Replace the pupil series with a centered rolling median.

    Blink samples (absent or non-positive pupil, or confidence under
    the blink floor) are flagged and excluded from every median window;
    their pupil stays absent rather than being invented. Windows shrink
    at the series edges. Sample count is always preserved.
    """
    if median_width < 3 or median_width % 2 == 0:
        raise ValueError(f"median_width must be odd and >= 3, got {median_width}")
    n = len(points)
    blink = [_is_blink(p) for p in points]
    half = median_width // 2
    out: list[GazePoint] = []
    for i, point in enumerate(points):
        if blink[i]:
            out.append(replace(point, pupil_mm=None, is_blink=True))
            continue
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        window = [points[j].pupil_mm for j in range(lo, hi) if not blink[j]]
        out.append(replace(point, pupil_mm=statistics.median(window), is_blink=False))

    events: list[tuple[Timestamp, Timestamp]] = []
    run_start: int | None = None
    for i in range(n + 1):
        if i < n and blink[i]:
            if run_start is None:
                run_start = i
        elif run_start is not None:
            events.append((points[run_start].t, points[i - 1].t))
            run_start = None
    return DespikeResult(points=tuple(out), blink_events=tuple(events))


def gaze_velocity(prev: GazePoint, cur: GazePoint) -> float:
    """Angular-free point-to-point speed in normalized units per second."""
    dt = cur.t - prev.t
    if dt <= 0:
        raise ZeroDtError(f"time step must be positive, got {dt}")
    return math.hypot(cur.x - prev.x, cur.y - prev.y) / dt


def _pair_velocities(points: Sequence[GazePoint]) -> list[float | None]:
    """Velocity of each consecutive pair, computed once; None where a
    blink sample touches the pair."""
    return [
        None if prev.is_blink or cur.is_blink else gaze_velocity(prev, cur)
        for prev, cur in zip(points, points[1:])
    ]


def _segment(
    points: Sequence[GazePoint],
    velocities: list[float | None],
    velocity_threshold: float,
    min_fixation_duration_s: float,
) -> tuple[list[FixationEvent], list[SaccadeEvent]]:
    fixations: list[FixationEvent] = []
    saccades: list[SaccadeEvent] = []
    run_label: bool | None = None  # True = fixation pairs
    run_first = 0  # index of the first member sample

    def close_run(last_member: int) -> None:
        start, end = points[run_first].t, points[last_member].t
        if run_label:
            if end - start >= min_fixation_duration_s:
                fixations.append(FixationEvent(start=start, end=end))
        else:
            saccades.append(SaccadeEvent(start=start, end=end))

    for i, velocity in enumerate(velocities, start=1):
        label = None if velocity is None else velocity < velocity_threshold
        if label != run_label:
            if run_label is not None:
                close_run(i - 1)
            run_label = label
            run_first = i - 1
    if run_label is not None:
        close_run(len(points) - 1)
    return fixations, saccades


def detect_fixations(
    points: list[GazePoint],
    velocity_threshold: float,
    min_fixation_duration_s: float,
) -> tuple[list[FixationEvent], list[SaccadeEvent]]:
    """Classify the trace into fixation and saccade events.

    Each consecutive pair of non-blink samples is labeled by its
    velocity (below threshold: fixation, otherwise saccade); maximal
    runs of equally labeled pairs become events spanning from the first
    to the last sample of the run, so neighboring events share their
    boundary sample. Pairs touching a blink sample carry no label and
    split runs. Fixation candidates shorter than the minimum duration
    are dropped.
    """
    if len(points) < 2:
        raise TooFewSamplesError(f"need at least 2 samples, got {len(points)}")
    if velocity_threshold <= 0:
        raise ValueError(f"velocity_threshold must be positive, got {velocity_threshold}")
    return _segment(points, _pair_velocities(points), velocity_threshold, min_fixation_duration_s)


@dataclass(frozen=True)
class GazeFeatures:
    """Window-level aggregates handed to state inference."""

    start: Timestamp
    end: Timestamp
    present: bool
    quality: float
    fixation_count: int = 0
    mean_fixation_duration_s: float | None = None
    saccade_count: int = 0
    mean_gaze_velocity: float | None = None
    blink_rate_per_min: float = 0.0
    mean_pupil_mm: float | None = None
    valid_pupil_fraction: float = 0.0


def window_gaze_features(
    window: Window,
    median_width: int = 5,
    velocity_threshold: float = 1.0,
    min_fixation_duration_s: float = 0.1,
) -> GazeFeatures:
    """Despike, detect events, and aggregate one gaze window.

    Values stay in physical units; baseline normalization happens in
    state inference. Windows with fewer than two samples come back
    absent with quality zero.
    """
    if len(window.samples) < 2:
        return GazeFeatures(start=window.start, end=window.end, present=False, quality=0.0)

    points = [GazePoint.from_envelope(env) for env in window.samples]
    despiked = despike_pupil(points, median_width)
    pair_velocities = _pair_velocities(despiked.points)
    fixations, saccades = _segment(
        despiked.points, pair_velocities, velocity_threshold, min_fixation_duration_s
    )
    velocities = [v for v in pair_velocities if v is not None]

    pupils = [p.pupil_mm for p in despiked.points if p.pupil_mm is not None]
    quality = statistics.fmean(env.source_confidence for env in window.samples)
    duration = window.duration_s
    return GazeFeatures(
        start=window.start,
        end=window.end,
        present=True,
        quality=quality,
        fixation_count=len(fixations),
        mean_fixation_duration_s=(
            statistics.fmean(f.duration_s for f in fixations) if fixations else None
        ),
        saccade_count=len(saccades),
        mean_gaze_velocity=statistics.fmean(velocities) if velocities else None,
        blink_rate_per_min=despiked.blink_count / duration * 60.0 if duration > 0 else 0.0,
        mean_pupil_mm=statistics.fmean(pupils) if pupils else None,
        valid_pupil_fraction=len(pupils) / len(despiked.points),
    )
