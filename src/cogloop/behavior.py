"""Posture scoring against a personal baseline pose, and parsing of
note-assessment replies.

Posture quality is the mean of up to three sub-scores, each
100 * max(0, 1 - deviation / tolerance):

  shoulder_level:   change of the shoulder line's tilt angle (degrees)
  neck_alignment:   horizontal drift of the ear midpoint relative to
                    the shoulder midpoint (normalized units)
  back_straightness: change of the trunk line's angle from vertical
                    (degrees)

Sub-scores are computed only when their landmarks are visible in both
the sample and the baseline; the final percentage averages whatever is
available. Both shoulders are mandatory.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import NamedTuple

from .errors import MalformedReplyError, MissingLandmarksError, OutOfRangeError
from .model import NoteScoreSample, PostureSample
from .stats import fmean

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


class PostureScore(NamedTuple):
    percent: float
    category: PostureCategory
    sub_scores: dict[str, float]


def _sub_score(deviation: float, tolerance: float) -> float:
    return 100.0 * max(0.0, 1.0 - abs(deviation) / tolerance)


def score_posture(sample: PostureSample, baseline: PostureSample) -> PostureScore:
    """Score a pose against the calibrated baseline pose."""
    pose, base = sample.geometry, baseline.geometry
    if pose.shoulder_tilt_deg is None or base.shoulder_tilt_deg is None:
        raise MissingLandmarksError("both shoulders must be visible in sample and baseline")

    sub_scores: dict[str, float] = {
        "shoulder_level": _sub_score(pose.shoulder_tilt_deg - base.shoulder_tilt_deg, SHOULDER_TILT_TOLERANCE_DEG)
    }
    if pose.neck_offset is not None and base.neck_offset is not None:
        sub_scores["neck_alignment"] = _sub_score(pose.neck_offset - base.neck_offset, NECK_OFFSET_TOLERANCE)
    if pose.trunk_angle_deg is not None and base.trunk_angle_deg is not None:
        sub_scores["back_straightness"] = _sub_score(
            pose.trunk_angle_deg - base.trunk_angle_deg, TRUNK_ANGLE_TOLERANCE_DEG
        )

    percent = fmean(sub_scores.values())
    return PostureScore(percent, categorize_posture(percent), sub_scores)


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
