"""Posture scoring against a personal baseline pose, the posture
windows' features, and parsing of note-assessment replies.

Posture quality is the mean of up to three sub-scores, each
100 * max(0, 1 - deviation / tolerance):

  shoulder_level:   change of the shoulder line's tilt angle (degrees)
  neck_alignment:   horizontal drift of the ear midpoint relative to
                    the shoulder midpoint (normalized units)
  back_straightness: change of the trunk line's angle from vertical
                    (degrees)

Scoring compares a pose's geometry (``model.PoseGeometry``) with the
baseline pose's and returns the percentage. Sub-scores are computed only
when their landmarks are visible in both the sample and the baseline;
the percentage averages whatever is available. Both shoulders are
mandatory. A posture window's band is taken once, from its last scored
frame.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from enum import Enum

from .errors import MalformedReplyError, MissingLandmarksError, OutOfRangeError
from .model import NoteScoreSample, PoseGeometry, PostureSample, SampleEnvelope
from .state import CHANNEL_POSTURE, ChannelFeature, Extraction
from .stats import fmean
from .streams import Window

SHOULDER_TILT_TOLERANCE_DEG = 10.0
NECK_OFFSET_TOLERANCE = 0.05
TRUNK_ANGLE_TOLERANCE_DEG = 12.0


class PostureCategory(str, Enum):
    IDEAL = "ideal"
    AVERAGE = "average"
    BELOW_AVERAGE = "below_average"
    POOR = "poor"


def categorize_posture(percent: float) -> PostureCategory:
    """Band a posture percentage: 90 and up ideal, 75 to 89 average,
    60 to 74 below average, under 60 poor."""
    if not (0.0 <= percent <= 100.0):
        raise OutOfRangeError(f"posture percent must lie in [0, 100], got {percent!r}")
    if percent >= 90.0:
        return PostureCategory.IDEAL
    if percent >= 75.0:
        return PostureCategory.AVERAGE
    if percent >= 60.0:
        return PostureCategory.BELOW_AVERAGE
    return PostureCategory.POOR


def _sub_score(deviation: float, tolerance: float) -> float:
    return 100.0 * max(0.0, 1.0 - abs(deviation) / tolerance)


def score_posture(pose: PoseGeometry, base: PoseGeometry) -> float:
    """The posture percentage of a pose's geometry against the calibrated
    baseline pose's."""
    if pose.shoulder_tilt_deg is None or base.shoulder_tilt_deg is None:
        raise MissingLandmarksError("both shoulders must be visible in sample and baseline")

    sub_scores = [_sub_score(pose.shoulder_tilt_deg - base.shoulder_tilt_deg, SHOULDER_TILT_TOLERANCE_DEG)]
    if pose.neck_offset is not None and base.neck_offset is not None:
        sub_scores.append(_sub_score(pose.neck_offset - base.neck_offset, NECK_OFFSET_TOLERANCE))
    if pose.trunk_angle_deg is not None and base.trunk_angle_deg is not None:
        sub_scores.append(_sub_score(pose.trunk_angle_deg - base.trunk_angle_deg, TRUNK_ANGLE_TOLERANCE_DEG))
    return fmean(sub_scores)


# ---------------------------------------------------------------------------
# posture windows

class PostureWindows:
    """The posture extractor: posture windows, cut from the start of the
    session.

    Frames are scored against the baseline pose, the mean of the
    calibration frames, known only once calibration is over. Until then
    each window cut is held back (the extractor returns None). Each
    frame is read once, when the first window holds it, into one store:
    its geometry, its source confidence and, once scored, its score.
    While calibration is open its visible landmarks also go into
    per-landmark running sums, which ``mean_pose`` finishes. ``freeze``
    extracts the held windows; from then on each window is extracted as
    it is cut. Each frame is scored once, and forgotten once the windows
    have moved past it.
    """

    def __init__(self, calibration_s: float, score: Callable[[PoseGeometry, PoseGeometry], float]):
        # ``score`` is ``score_posture`` as the caller names it, so a
        # profiler that wraps the caller's name sees each frame's call
        self._calibration_s = calibration_s
        self._score = score
        # landmark -> (sum of x, sum of y, count) over the calibration frames
        self._sums: dict[str, tuple[float, float, int]] = {}
        # the windows held back until the freeze, as (start, end, lo, hi)
        self._held: list[tuple[float, float, int, int]] = []
        self._frozen = False
        self._baseline: PoseGeometry | None = None
        # geometries[i], confidences[i] and, once scored, scores[i] belong to
        # timeline position base + i; a score is None where a shoulder is missing
        self._geometries: list[PoseGeometry] = []
        self._confidences: list[float] = []
        self._scores: list[float | None] = []
        self._base = 0

    def __call__(self, window: Window) -> Extraction | None:
        # without a baseline pose nothing is scored, so nothing is read
        if not self._frozen or self._baseline is not None:
            self._read(window)
        if self._frozen:
            return self._extract(window.end, window.lo, window.hi)
        self._held.append((window.start, window.end, window.lo, window.hi))
        return None

    def _read(self, window: Window) -> None:
        """Store the frames of the window that no earlier window held."""
        fresh = window.samples[self._base + len(self._geometries) - window.lo:]
        poses = [envelope.payload for envelope in fresh]
        if not self._frozen:
            # before the freeze the watermark, and so every frame a
            # window holds, is before the calibration end
            self._fold(poses)
        self._geometries += [pose.geometry() for pose in poses]
        self._confidences += [envelope.source_confidence for envelope in fresh]

    def _fold(self, poses: list[PostureSample]) -> None:
        sums = self._sums
        for pose in poses:
            for name in pose.landmarks:
                if not pose.point_visible(name):
                    continue
                x, y = pose.landmarks[name]
                sx, sy, n = sums.get(name, (0.0, 0.0, 0))
                sums[name] = (sx + x, sy + y, n + 1)

    def mean_pose(self, timeline: list[SampleEnvelope]) -> PoseGeometry | None:
        """The baseline pose's geometry, once calibration is over.

        The calibration frames on the posture ``timeline`` that no window
        has held, those from the end of the last window cut on, are
        folded into the sums first. So the sums take every calibration
        frame in timeline order: a frame placed after a window was cut
        lies after every frame the window held. Each landmark is averaged
        over the frames where it is visible; the pose is usable only if
        both shoulders made it in.
        """
        read_to = self._held[-1][1] if self._held else -math.inf
        calibration_s = self._calibration_s
        self._fold([env.payload for env in timeline if read_to <= env.timestamp < calibration_s])
        landmarks = {name: (sx / n, sy / n) for name, (sx, sy, n) in self._sums.items()}
        if "shoulder_left" not in landmarks or "shoulder_right" not in landmarks:
            return None
        return PostureSample(landmarks=landmarks).geometry()

    def freeze(self, baseline: PoseGeometry | None) -> list[tuple[float, float, Extraction]]:
        """Score from now on against ``baseline``; returns each held
        window's (start, end, extraction), in the order they were cut."""
        self._frozen, self._baseline = True, baseline
        held, self._held = self._held, []
        return [(start, end, self._extract(end, lo, hi)) for start, end, lo, hi in held]

    def _extract(self, end: float, lo: int, hi: int) -> Extraction:
        """The window of positions [lo, hi): the positions before ``lo``
        are forgotten, and its frames not yet scored are scored first."""
        drop = lo - self._base
        del self._geometries[:drop], self._confidences[:drop], self._scores[:drop]
        self._base = lo
        scores, baseline, score = self._scores, self._baseline, self._score
        if baseline is not None:
            for geometry in self._geometries[len(scores):hi - lo]:
                try:
                    scores.append(score(geometry, baseline))
                except MissingLandmarksError:
                    scores.append(None)
        window_scores = scores[:hi - lo]
        scored = [s for s in window_scores if s is not None]
        skipped = len(window_scores) - len(scored)
        if not scored:
            return 0.0, [], {"category": None, "skipped_samples": skipped}
        percent = fmean(scored)
        confidences = [c for c, s in zip(self._confidences, window_scores) if s is not None]
        quality = fmean(confidences) * len(scored) / (len(scored) + skipped)
        # the category is the band of the latest scored pose in the window
        extras = {"category": categorize_posture(scored[-1]).value, "skipped_samples": skipped}
        return quality, [ChannelFeature(CHANNEL_POSTURE, percent, quality, end)], extras


# ---------------------------------------------------------------------------
# note assessment replies

# Expected reply shape: score=<number>; feedback=<free text>
_REPLY_RE = re.compile(r"^\s*score\s*=\s*(?P<score>[^;]+);\s*feedback\s*=\s*(?P<feedback>.*)$", re.DOTALL)


def ingest_note_assessment(raw_response: str) -> NoteScoreSample:
    """Parse an analyzer reply into a note score.

    Scores outside [0, 1] are clamped and the result is marked
    ``clamped`` so the caller can surface a warning. A reply that does
    not parse, including a non-numeric score, raises
    MalformedReplyError; it is never silently defaulted.
    """
    match = _REPLY_RE.match(raw_response)
    if match is None:
        raise MalformedReplyError(f"reply does not match 'score=<float>; feedback=<text>': {raw_response!r}")
    score_text = match.group("score").strip()
    try:
        score = float(score_text)
    except ValueError:
        raise MalformedReplyError(f"non-numeric score {score_text!r}") from None
    if math.isnan(score) or math.isinf(score):
        raise MalformedReplyError(f"non-finite score {score_text!r}")

    clamped = not (0.0 <= score <= 1.0)
    return NoteScoreSample(
        correctness=min(1.0, max(0.0, score)),
        feedback_text=match.group("feedback").strip(),
        clamped=clamped,
    )
