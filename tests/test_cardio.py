import random

import numpy as np
import pytest

from cogloop.cardio import (
    StressBand,
    classify_stress,
    pnn50,
    rmssd,
    sdnn,
    window_hrv,
)
from cogloop.errors import OutOfRangeError, TooFewIntervalsError
from cogloop.model import SampleEnvelope
from cogloop.state import CHANNEL_HEART_RATE, CHANNEL_PNN50, CHANNEL_RMSSD, CHANNEL_SDNN
from cogloop.streams import Window


def _series(rng, n):
    return [rng.uniform(400.0, 1400.0) for _ in range(n)]


# ---------------------------------------------------------------------------
# time-domain statistics

def test_rmssd_worked_example():
    # diffs 50, -50 -> sqrt(mean(2500, 2500)) = 50 exactly
    assert rmssd([800.0, 850.0, 800.0]) == 50.0


def test_rmssd_matches_numpy_oracle():
    rng = random.Random(101)
    for _ in range(300):
        rr = _series(rng, rng.randrange(2, 40))
        expected = float(np.sqrt(np.mean(np.diff(rr) ** 2)))
        assert rmssd(rr) == pytest.approx(expected, abs=1e-9)


def test_sdnn_matches_numpy_oracle():
    rng = random.Random(202)
    for _ in range(300):
        rr = _series(rng, rng.randrange(2, 40))
        assert sdnn(rr) == pytest.approx(float(np.std(rr)), abs=1e-9)


def test_pnn50_extremes():
    assert pnn50([800.0, 800.0, 800.0]) == 0.0
    assert pnn50([800.0, 900.0, 800.0]) == 100.0


def test_pnn50_threshold_is_strict():
    # a difference of exactly 50 ms does not count
    assert pnn50([800.0, 850.0]) == 0.0
    assert pnn50([800.0, 850.0 + 1e-9]) == 100.0
    assert pnn50([800.0, 851.0, 801.0, 802.0]) == pytest.approx(100.0 / 3.0)


def test_pnn50_matches_numpy_oracle():
    rng = random.Random(303)
    for _ in range(300):
        rr = _series(rng, rng.randrange(2, 40))
        diffs = np.abs(np.diff(rr))
        expected = 100.0 * float(np.count_nonzero(diffs > 50.0)) / len(diffs)
        assert pnn50(rr) == pytest.approx(expected, abs=1e-9)


def test_statistics_need_two_intervals():
    for fn in (rmssd, sdnn, pnn50):
        with pytest.raises(TooFewIntervalsError):
            fn([800.0])
        with pytest.raises(TooFewIntervalsError):
            fn([])


def test_rmssd_is_offset_invariant():
    rng = random.Random(404)
    rr = _series(rng, 20)
    shifted = [v + 137.5 for v in rr]
    assert rmssd(shifted) == pytest.approx(rmssd(rr), rel=1e-12)
    assert sdnn(shifted) == pytest.approx(sdnn(rr), rel=1e-12)
    assert pnn50(shifted) == pnn50(rr)


# ---------------------------------------------------------------------------
# stress banding

def test_stress_bands_and_boundaries():
    assert classify_stress(0.0) is StressBand.HIGH
    assert classify_stress(15.0) is StressBand.HIGH
    assert classify_stress(20.0) is StressBand.MODERATE  # boundary included
    assert classify_stress(35.0) is StressBand.MODERATE
    assert classify_stress(50.0) is StressBand.MODERATE  # boundary included
    assert classify_stress(60.0) is StressBand.LOW
    assert classify_stress(100.0) is StressBand.LOW


def test_stress_band_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        classify_stress(-0.1)
    with pytest.raises(OutOfRangeError):
        classify_stress(100.1)


# ---------------------------------------------------------------------------
# windowed features

def _rr_env(t, rr, conf=1.0):
    return SampleEnvelope(
        timestamp=t,
        payload=rr,
        source_confidence=conf,
    )


def _rr_window(values, confs=None):
    confs = confs or [1.0] * len(values)
    samples = tuple(
        _rr_env(i * 0.8, rr, conf) for i, (rr, conf) in enumerate(zip(values, confs))
    )
    return Window(start=0.0, end=60.0, samples=samples)


def _hrv(values):
    """(window quality, {channel: value}, extras) of one RR window; every
    channel carries the window quality."""
    quality, features, extras = window_hrv(_rr_window(values))
    assert [f.channel_id for f in features] in (
        [], [CHANNEL_HEART_RATE, CHANNEL_RMSSD, CHANNEL_SDNN, CHANNEL_PNN50]
    )
    assert all(f.quality == quality and f.t == 60.0 for f in features)
    return quality, {f.channel_id: f.value for f in features}, extras


def test_window_rejects_artifacts_and_computes_on_the_rest():
    values = [800.0, 150.0, 820.0, 810.0, 3500.0, 805.0, 815.0]
    _, features, extras = _hrv(values)
    assert features
    assert extras["artifact_intervals"] == 2
    assert extras["valid_intervals"] == 5
    clean = [800.0, 820.0, 810.0, 805.0, 815.0]
    assert features[CHANNEL_RMSSD] == pytest.approx(rmssd(clean))
    assert features[CHANNEL_SDNN] == pytest.approx(sdnn(clean))
    assert features[CHANNEL_HEART_RATE] == pytest.approx(60000.0 / np.mean(clean))


def test_window_quality_scales_with_artifact_fraction():
    values = [800.0, 150.0, 820.0, 810.0, 3500.0, 805.0, 815.0, 812.0]
    quality, _, _ = _hrv(values)
    assert quality == pytest.approx(6 / 8)


def test_window_with_too_few_valid_intervals_is_absent():
    quality, features, extras = _hrv([800.0, 810.0, 150.0, 820.0])
    assert not features
    assert quality == 0.0
    assert CHANNEL_RMSSD not in features
    assert extras == {"stress_band": None, "valid_intervals": 3, "artifact_intervals": 1}


def test_window_stress_band_comes_from_pnn50():
    steady = [800.0 + (i % 2) * 10.0 for i in range(10)]  # diffs 10ms -> pnn50 0
    _, features, extras = _hrv(steady)
    assert features[CHANNEL_PNN50] == 0.0
    assert extras["stress_band"] == StressBand.HIGH.value

    varied = [800.0 + (i % 2) * 80.0 for i in range(10)]  # diffs 80ms -> pnn50 100
    _, features, extras = _hrv(varied)
    assert extras["stress_band"] == StressBand.LOW.value
