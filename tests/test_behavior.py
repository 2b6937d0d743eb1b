import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogloop.behavior import (
    NECK_OFFSET_TOLERANCE,
    SHOULDER_TILT_TOLERANCE_DEG,
    TRUNK_ANGLE_TOLERANCE_DEG,
    PostureCategory,
    PostureWindows,
    categorize_posture,
    ingest_note_assessment,
    score_posture,
)
from cogloop.errors import MalformedReplyError, MissingLandmarksError, OutOfRangeError
from cogloop.model import PostureSample, SampleEnvelope
from cogloop.streams import Window

UPRIGHT = {
    "shoulder_left": (0.38, 0.50),
    "shoulder_right": (0.62, 0.50),
    "ear_left": (0.44, 0.30),
    "ear_right": (0.56, 0.30),
    "hip_left": (0.42, 0.88),
    "hip_right": (0.58, 0.88),
}


def _pose(overrides=None, drop=(), visibility=None):
    landmarks = {k: v for k, v in UPRIGHT.items() if k not in drop}
    landmarks.update(overrides or {})
    return PostureSample(landmarks=landmarks, visibility=visibility or {})


# ---------------------------------------------------------------------------
# scoring: the percentage is the mean of the sub-scores whose landmarks
# both poses show

def _tilted(drop=()):
    # raise the right shoulder so the shoulder line tilts by 5 degrees:
    # half the 10-degree tolerance, so the shoulder sub-score drops to 50
    dx = 0.62 - 0.38
    dy = dx * math.tan(math.radians(5.0))
    return _pose({"shoulder_right": (0.62, 0.50 - dy)}, drop=drop)


def test_identical_pose_scores_100_ideal():
    percent = score_posture(_pose().geometry(), _pose().geometry())
    assert percent == pytest.approx(100.0)
    assert categorize_posture(percent) is PostureCategory.IDEAL


def test_shoulder_tilt_degrades_its_sub_score():
    # shoulder 50, neck and back unchanged at 100
    percent = score_posture(_tilted().geometry(), _pose().geometry())
    assert percent == pytest.approx(statistics.fmean([50.0, 100.0, 100.0]), abs=1e-9)


def test_forward_head_drift_degrades_neck_alignment():
    # ear midpoint shifted by the full 0.05 tolerance: neck 0, shoulder
    # and back unchanged at 100
    shifted = _pose({
        "ear_left": (0.44 + 0.05, 0.30),
        "ear_right": (0.56 + 0.05, 0.30),
    })
    percent = score_posture(shifted.geometry(), _pose().geometry())
    assert percent == pytest.approx(statistics.fmean([100.0, 0.0, 100.0]), abs=1e-9)


def test_degradation_is_monotone_in_lean():
    def leaned(deg):
        dx = math.tan(math.radians(deg)) * 0.38
        return _pose({
            "shoulder_left": (0.38 + dx, 0.50),
            "shoulder_right": (0.62 + dx, 0.50),
            "ear_left": (0.44 + dx, 0.30),
            "ear_right": (0.56 + dx, 0.30),
        })

    percents = [score_posture(leaned(d).geometry(), _pose().geometry()) for d in (0.0, 2.0, 4.0, 8.0)]
    assert percents == sorted(percents, reverse=True)
    assert percents[0] > percents[-1]


def test_missing_shoulders_raise():
    with pytest.raises(MissingLandmarksError):
        score_posture(_pose(drop=("shoulder_left",)).geometry(), _pose().geometry())
    with pytest.raises(MissingLandmarksError):
        score_posture(_pose().geometry(), _pose(drop=("shoulder_right",)).geometry())
    # low visibility counts as missing
    with pytest.raises(MissingLandmarksError):
        score_posture(_pose(visibility={"shoulder_left": 0.2}).geometry(), _pose().geometry())


def test_sub_scores_shrink_to_visible_landmarks():
    # hidden ears take the neck term out of the mean: shoulder 50 and back 100,
    # whether the frame or the baseline hides them
    ears = ("ear_left", "ear_right")
    for pose, base in (
        (_tilted(ears), _pose()),
        (_tilted(), _pose(drop=ears)),
        (_tilted(), _pose(visibility={"ear_left": 0.2})),
    ):
        assert score_posture(pose.geometry(), base.geometry()) == pytest.approx(75.0, abs=1e-9)

    # shoulders only: the percentage is the shoulder sub-score
    shoulders_only = _tilted(ears + ("hip_left", "hip_right"))
    assert score_posture(shoulders_only.geometry(), _pose().geometry()) == pytest.approx(50.0, abs=1e-9)


def test_a_posture_windows_category_is_the_band_of_its_last_scored_frame():
    # ideal, ideal, poor, below average, then a frame without its left
    # shoulder: the first frame's band is ideal, the mean's (79.2) average
    # and the worst frame's poor, but the window's is its last scored
    # frame's
    drift = {"ear_left": (0.49, 0.30), "ear_right": (0.56 + 0.05, 0.30)}
    poor = _pose({**drift, "shoulder_right": _tilted().landmarks["shoulder_right"]})
    below_average = _pose(drift)
    frames = [_pose(), _pose(), poor, below_average, _pose(drop=("shoulder_left",))]
    percents = [100.0, 100.0, 50.0, statistics.fmean([100.0, 0.0, 100.0])]
    window = Window(0.0, 2.5, tuple(SampleEnvelope(0.5 * i, pose) for i, pose in enumerate(frames)))

    # held back through calibration, and cut after the freeze
    held, live = PostureWindows(10.0, score_posture), PostureWindows(0.0, score_posture)
    assert held(window) is None
    [(_, _, from_held)] = held.freeze(_pose().geometry())
    assert live.freeze(_pose().geometry()) == []
    for _, features, extras in (from_held, live(window)):
        assert [feature.value for feature in features] == [pytest.approx(statistics.fmean(percents))]
        assert extras == {"category": PostureCategory.BELOW_AVERAGE.value, "skipped_samples": 1}


# ---------------------------------------------------------------------------
# the pose geometry, derived once per pose, against the formulas it replaced

def _visible(pose, left, right):
    return all(
        name in pose.landmarks and pose.visibility.get(name, 1.0) >= 0.5 for name in (left, right)
    )


def _midpoint(pose, left, right):
    (ax, ay), (bx, by) = pose.landmarks[left], pose.landmarks[right]
    return (ax + bx) / 2.0, (ay + by) / 2.0


def _tilt(pose):
    (lx, ly), (rx, ry) = pose.landmarks["shoulder_left"], pose.landmarks["shoulder_right"]
    return math.degrees(math.atan2(ry - ly, rx - lx))


def _neck(pose):
    return _midpoint(pose, "ear_left", "ear_right")[0] - _midpoint(pose, "shoulder_left", "shoulder_right")[0]


def _trunk(pose):
    shoulder = _midpoint(pose, "shoulder_left", "shoulder_right")
    hip = _midpoint(pose, "hip_left", "hip_right")
    return math.degrees(math.atan2(shoulder[0] - hip[0], hip[1] - shoulder[1]))


def _oracle_score(sample, baseline):
    """Every angle and offset derived from scratch, for both poses, on
    every call."""
    if not (_visible(sample, "shoulder_left", "shoulder_right") and _visible(baseline, "shoulder_left", "shoulder_right")):
        raise MissingLandmarksError("both shoulders must be visible in sample and baseline")

    def sub_score(deviation, tolerance):
        return 100.0 * max(0.0, 1.0 - abs(deviation) / tolerance)

    sub_scores = {"shoulder_level": sub_score(_tilt(sample) - _tilt(baseline), SHOULDER_TILT_TOLERANCE_DEG)}
    if _visible(sample, "ear_left", "ear_right") and _visible(baseline, "ear_left", "ear_right"):
        sub_scores["neck_alignment"] = sub_score(_neck(sample) - _neck(baseline), NECK_OFFSET_TOLERANCE)
    if _visible(sample, "hip_left", "hip_right") and _visible(baseline, "hip_left", "hip_right"):
        sub_scores["back_straightness"] = sub_score(_trunk(sample) - _trunk(baseline), TRUNK_ANGLE_TOLERANCE_DEG)
    return statistics.fmean(sub_scores.values())


# each landmark is absent, hidden (visibility under the floor), on the
# floor, or seen, at a random place
_LANDMARK = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([None, 0.0, 0.49, 0.5, 0.9]),
    ),
)
_POSE_STRATEGY = st.fixed_dictionaries({name: _LANDMARK for name in UPRIGHT})


def _pose_from(drawn):
    landmarks = {name: point[:2] for name, point in drawn.items() if point is not None}
    visibility = {
        name: point[2] for name, point in drawn.items() if point is not None and point[2] is not None
    }
    return PostureSample(landmarks=landmarks, visibility=visibility)


@settings(max_examples=300, deadline=None)
@given(baseline=_POSE_STRATEGY, samples=st.lists(_POSE_STRATEGY, min_size=1, max_size=4))
def test_cached_geometry_scores_equal_the_uncached_formula(baseline, samples):
    # one baseline against several frames, as in a session: its
    # geometry is derived once and compared with each frame's
    baseline = _pose_from(baseline)
    baseline_geometry = baseline.geometry()
    for drawn in samples:
        sample = _pose_from(drawn)
        try:
            want = _oracle_score(sample, baseline)
        except MissingLandmarksError:
            with pytest.raises(MissingLandmarksError):
                score_posture(sample.geometry(), baseline_geometry)
            continue
        assert score_posture(sample.geometry(), baseline_geometry) == want


# ---------------------------------------------------------------------------
# banding

def test_posture_bands():
    assert categorize_posture(95.0) is PostureCategory.IDEAL
    assert categorize_posture(90.0) is PostureCategory.IDEAL
    assert categorize_posture(89.999) is PostureCategory.AVERAGE
    assert categorize_posture(80.0) is PostureCategory.AVERAGE
    assert categorize_posture(75.0) is PostureCategory.AVERAGE
    assert categorize_posture(72.0) is PostureCategory.BELOW_AVERAGE
    assert categorize_posture(60.0) is PostureCategory.BELOW_AVERAGE
    assert categorize_posture(59.9) is PostureCategory.POOR
    assert categorize_posture(0.0) is PostureCategory.POOR


def test_posture_band_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        categorize_posture(-1.0)
    with pytest.raises(OutOfRangeError):
        categorize_posture(100.5)


# ---------------------------------------------------------------------------
# note assessment replies

def test_reply_parses_score_and_feedback():
    sample = ingest_note_assessment("score=0.8; feedback=solid summary")
    assert sample.correctness == pytest.approx(0.8)
    assert sample.feedback_text == "solid summary"
    assert not sample.clamped


def test_reply_whitespace_is_tolerated():
    sample = ingest_note_assessment("  score = 0.55 ;  feedback =  needs detail  ")
    assert sample.correctness == pytest.approx(0.55)
    assert sample.feedback_text == "needs detail"


def test_out_of_range_scores_clamp_and_flag():
    high = ingest_note_assessment("score=1.2; feedback=great")
    assert high.correctness == 1.0
    assert high.clamped
    low = ingest_note_assessment("score=-0.3; feedback=off track")
    assert low.correctness == 0.0
    assert low.clamped


def test_malformed_replies_raise():
    for raw in (
        "no structure at all",
        "score=; feedback=x",
        "score=abc; feedback=x",
        "score=nan; feedback=x",
        "score=inf; feedback=x",
        "feedback=x; score=0.5",
        "",
    ):
        with pytest.raises(MalformedReplyError):
            ingest_note_assessment(raw)
