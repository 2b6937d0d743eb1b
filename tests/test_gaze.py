import math
import random

import pytest

from cogloop.errors import TooFewSamplesError, ZeroDtError
from cogloop.gaze import (
    GazePoint,
    despike_pupil,
    detect_fixations,
    gaze_velocity,
    window_gaze_features,
)
from cogloop.model import GazeSample, SampleEnvelope, StreamKind
from cogloop.streams import Window


def _pt(t, x=0.5, y=0.5, pupil=3.0, conf=1.0):
    return GazePoint(t=t, x=x, y=y, pupil_mm=pupil, confidence=conf)


# ---------------------------------------------------------------------------
# despiking

def test_median_filter_flattens_a_spike():
    points = [_pt(i * 0.1, pupil=p) for i, p in enumerate([3.0, 3.0, 9.0, 3.0, 3.0])]
    result = despike_pupil(points, median_width=3)
    assert [p.pupil_mm for p in result.points] == [3.0] * 5


def test_despike_preserves_length_and_order():
    rng = random.Random(1)
    points = [_pt(i * 0.1, pupil=rng.uniform(2, 5)) for i in range(50)]
    result = despike_pupil(points, median_width=5)
    assert len(result.points) == 50
    assert [p.t for p in result.points] == [p.t for p in points]


def test_even_or_tiny_width_rejected():
    points = [_pt(0.0), _pt(0.1)]
    with pytest.raises(ValueError):
        despike_pupil(points, median_width=4)
    with pytest.raises(ValueError):
        despike_pupil(points, median_width=1)


def test_blink_samples_stay_absent_and_are_excluded_from_windows():
    points = [
        _pt(0.0, pupil=3.0),
        _pt(0.1, pupil=None),
        _pt(0.2, pupil=9.0),
        _pt(0.3, pupil=9.0),
    ]
    result = despike_pupil(points, median_width=3)
    assert result.points[1].pupil_mm is None
    assert result.points[1].is_blink
    # the window for index 2 sees only non-blink neighbors {9.0, 9.0}
    assert result.points[2].pupil_mm == 9.0
    # index 0's shrunken window is {3.0} alone, not contaminated by the blink
    assert result.points[0].pupil_mm == 3.0


def test_low_confidence_counts_as_blink_even_with_pupil_value():
    points = [_pt(0.0), _pt(0.1, pupil=3.0, conf=0.1), _pt(0.2)]
    result = despike_pupil(points, median_width=3)
    assert result.points[1].is_blink
    assert result.points[1].pupil_mm is None


def test_blink_runs_become_single_events():
    pupils = [3.0, None, None, 3.0, 3.0, None, 3.0]
    points = [_pt(i * 0.1, pupil=p) for i, p in enumerate(pupils)]
    result = despike_pupil(points, median_width=3)
    assert result.blink_count == 2
    assert result.blink_events[0] == (pytest.approx(0.1), pytest.approx(0.2))
    assert result.blink_events[1] == (pytest.approx(0.5), pytest.approx(0.5))


# ---------------------------------------------------------------------------
# velocity

def test_velocity_worked_example():
    a = _pt(0.0, x=0.1, y=0.2)
    b = _pt(0.1, x=0.4, y=0.6)
    # step hypot(0.3, 0.4) = 0.5 over 0.1s
    assert gaze_velocity(a, b) == pytest.approx(5.0)


def test_velocity_translation_invariance():
    rng = random.Random(3)
    for _ in range(100):
        x, y = rng.random() * 0.5, rng.random() * 0.5
        dx, dy, dt = rng.random() * 0.3, rng.random() * 0.3, rng.uniform(0.01, 0.2)
        ox, oy = rng.random() * 0.2, rng.random() * 0.2
        v1 = gaze_velocity(_pt(0.0, x=x, y=y), _pt(dt, x=x + dx, y=y + dy))
        v2 = gaze_velocity(_pt(0.0, x=x + ox, y=y + oy), _pt(dt, x=x + ox + dx, y=y + oy + dy))
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_zero_dt_raises():
    with pytest.raises(ZeroDtError):
        gaze_velocity(_pt(1.0), _pt(1.0))
    with pytest.raises(ZeroDtError):
        gaze_velocity(_pt(1.0), _pt(0.9))


# ---------------------------------------------------------------------------
# fixation detection against an independent pair-label oracle

def _oracle_events(points, threshold, min_duration):
    """Straightforward re-derivation: label pairs, group equal labels,
    blink-adjacent pairs split groups."""
    labels = []
    for prev, cur in zip(points, points[1:]):
        if prev.is_blink or cur.is_blink:
            labels.append(None)
        else:
            v = math.hypot(cur.x - prev.x, cur.y - prev.y) / (cur.t - prev.t)
            labels.append("fix" if v < threshold else "sac")

    fixations, saccades = [], []
    i = 0
    while i < len(labels):
        if labels[i] is None:
            i += 1
            continue
        j = i
        while j + 1 < len(labels) and labels[j + 1] == labels[i]:
            j += 1
        members = points[i:j + 2]
        if labels[i] == "fix":
            if members[-1].t - members[0].t >= min_duration:
                fixations.append((members[0].t, members[-1].t))
        else:
            saccades.append((members[0].t, members[-1].t))
        i = j + 1
    return fixations, saccades


def _random_trace(rng, n):
    points = []
    t = 0.0
    x, y = 0.5, 0.5
    for _ in range(n):
        t += rng.uniform(0.01, 0.03)
        roll = rng.random()
        if roll < 0.08:
            points.append(GazePoint(t=t, x=x, y=y, pupil_mm=None, confidence=0.05, is_blink=True))
            continue
        if roll < 0.25:  # jump
            x = min(1.0, max(0.0, x + rng.uniform(-0.4, 0.4)))
            y = min(1.0, max(0.0, y + rng.uniform(-0.4, 0.4)))
        else:  # drift
            x = min(1.0, max(0.0, x + rng.uniform(-0.005, 0.005)))
            y = min(1.0, max(0.0, y + rng.uniform(-0.005, 0.005)))
        points.append(GazePoint(t=t, x=x, y=y, pupil_mm=3.0, confidence=0.95))
    return points


def test_fixation_events_match_oracle_on_fuzzed_traces():
    rng = random.Random(1234)
    threshold, min_dur = 1.0, 0.1
    for _ in range(500):
        points = _random_trace(rng, rng.randrange(2, 120))
        fixations, saccades = detect_fixations(points, threshold, min_dur)
        oracle_fix, oracle_sac = _oracle_events(points, threshold, min_dur)
        assert [(f.start, f.end) for f in fixations] == oracle_fix
        assert [(s.start, s.end) for s in saccades] == oracle_sac


def test_stationary_trace_is_one_fixation():
    points = [_pt(i * 0.02) for i in range(100)]
    fixations, saccades = detect_fixations(points, 1.0, 0.1)
    assert len(fixations) == 1
    assert saccades == []
    assert fixations[0].start == points[0].t
    assert fixations[0].end == points[-1].t


def test_two_dwells_share_the_saccade_boundary_samples():
    dwell1 = [_pt(i * 0.02, x=0.2, y=0.2) for i in range(10)]
    dwell2 = [_pt(0.3 + i * 0.02, x=0.8, y=0.8) for i in range(10)]
    fixations, saccades = detect_fixations(dwell1 + dwell2, 1.0, 0.1)
    assert len(fixations) == 2
    assert len(saccades) == 1
    # the saccade spans from the last sample of dwell1 to the first of dwell2
    assert saccades[0].start == fixations[0].end
    assert saccades[0].end == fixations[1].start


def test_fixations_shorter_than_minimum_are_dropped():
    points = [_pt(t) for t in (0.0, 0.02, 0.04)]
    fixations, _ = detect_fixations(points, 1.0, min_fixation_duration_s=0.1)
    assert fixations == []
    fixations, _ = detect_fixations(points, 1.0, min_fixation_duration_s=0.04)
    assert len(fixations) == 1


def test_detect_needs_two_samples():
    with pytest.raises(TooFewSamplesError):
        detect_fixations([_pt(0.0)], 1.0, 0.1)


# ---------------------------------------------------------------------------
# window aggregation

def _gaze_window(samples, start=0.0, end=10.0):
    return Window(kind=StreamKind.PUPIL_GAZE, start=start, end=end, samples=tuple(samples))


def _gaze_env(t, x=0.5, y=0.5, pupil=3.0, conf=0.9, source_conf=1.0):
    return SampleEnvelope(
        stream_id="gaze",
        timestamp=t,
        payload=GazeSample(x=x, y=y, pupil_diameter_mm=pupil, confidence=conf),
        source_confidence=source_conf,
    )


def test_window_features_absent_below_two_samples():
    features = window_gaze_features(_gaze_window([_gaze_env(1.0)]))
    assert not features.present
    assert features.quality == 0.0


def test_window_features_blink_rate_and_pupil():
    samples = [_gaze_env(i * 0.1, pupil=(None if i in (3, 4) else 3.0)) for i in range(20)]
    features = window_gaze_features(_gaze_window(samples, end=10.0))
    assert features.present
    # one blink run in a 10s window -> 6 per minute
    assert features.blink_rate_per_min == pytest.approx(6.0)
    assert features.mean_pupil_mm == pytest.approx(3.0)
    assert features.valid_pupil_fraction == pytest.approx(18 / 20)


def test_window_quality_is_mean_source_confidence():
    samples = [_gaze_env(0.0, source_conf=1.0), _gaze_env(0.1, source_conf=0.5)]
    features = window_gaze_features(_gaze_window(samples))
    assert features.quality == pytest.approx(0.75)
