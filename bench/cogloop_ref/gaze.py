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
    centroid_x: float
    centroid_y: float
    dispersion: float
    mean_pupil_mm: float | None

    @property
    def duration_s(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SaccadeEvent:
    start: Timestamp
    end: Timestamp
    peak_velocity: float

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


def _max_pairwise_distance(xs: list[float], ys: list[float]) -> float:
    """Diameter of a point set. Exact; uses the convex hull for large
    sets since the farthest pair always lies on it."""
    n = len(xs)
    if n < 2:
        return 0.0
    points = list(zip(xs, ys))
    if n > 64:
        points = _convex_hull(points)
    best = 0.0
    for i in range(len(points)):
        xi, yi = points[i]
        for xj, yj in points[i + 1:]:
            d = math.hypot(xj - xi, yj - yi)
            if d > best:
                best = d
    return best


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    points = sorted(set(points))
    if len(points) <= 2:
        return points

    def half(iterable):
        hull: list[tuple[float, float]] = []
        for p in iterable:
            while len(hull) >= 2:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return hull

    lower = half(points)
    upper = half(reversed(points))
    return lower[:-1] + upper[:-1]


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

    fixations: list[FixationEvent] = []
    saccades: list[SaccadeEvent] = []

    run_label: bool | None = None  # True = fixation pairs
    run_first = 0  # index of the first member sample
    run_velocities: list[float] = []

    def close_run(last_member: int) -> None:
        nonlocal run_label
        if run_label is None:
            return
        members = points[run_first:last_member + 1]
        start, end = members[0].t, members[-1].t
        if run_label:
            if end - start >= min_fixation_duration_s:
                fixations.append(_build_fixation(members))
        else:
            saccades.append(
                SaccadeEvent(start=start, end=end, peak_velocity=max(run_velocities))
            )
        run_label = None
        run_velocities.clear()

    for i in range(1, len(points)):
        prev, cur = points[i - 1], points[i]
        if prev.is_blink or cur.is_blink:
            close_run(i - 1)
            continue
        velocity = gaze_velocity(prev, cur)
        label = velocity < velocity_threshold
        if label != run_label:
            close_run(i - 1)
            run_label = label
            run_first = i - 1
        run_velocities.append(velocity)
    close_run(len(points) - 1)
    return fixations, saccades


def _build_fixation(members: list[GazePoint]) -> FixationEvent:
    xs = [p.x for p in members]
    ys = [p.y for p in members]
    pupils = [p.pupil_mm for p in members if p.pupil_mm is not None]
    return FixationEvent(
        start=members[0].t,
        end=members[-1].t,
        centroid_x=statistics.fmean(xs),
        centroid_y=statistics.fmean(ys),
        dispersion=_max_pairwise_distance(xs, ys),
        mean_pupil_mm=statistics.fmean(pupils) if pupils else None,
    )


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
    fixations, saccades = detect_fixations(
        list(despiked.points), velocity_threshold, min_fixation_duration_s
    )

    velocities: list[float] = []
    for i in range(1, len(despiked.points)):
        prev, cur = despiked.points[i - 1], despiked.points[i]
        if not (prev.is_blink or cur.is_blink):
            velocities.append(gaze_velocity(prev, cur))

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
