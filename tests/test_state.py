import math
import random
import statistics

import pytest

from cogloop.model import Dimension
from cogloop.state import (
    ALL_CHANNELS,
    CHANNEL_HEART_RATE,
    CHANNEL_NOTE_ERROR,
    CHANNEL_PNN50,
    CHANNEL_PUPIL,
    CHANNEL_RMSSD,
    PRONOUNCED_FLOOR,
    SIGMA_FLOOR,
    ChannelFeature,
    Descriptor,
    compute_baseline,
    default_weight_matrix,
    infer_state,
    to_descriptor,
)


def _feat(channel, value=0.0, quality=1.0, t=0.0):
    return ChannelFeature(channel_id=channel, value=value, quality=quality, t=t)


def _baseline(values, minimum=2):
    """Baseline of the given values per channel, each channel needing ``minimum``."""
    return compute_baseline(values, {channel: minimum for channel in values}, SIGMA_FLOOR)


def _profile(**stats):
    """Baseline with given (mu, sigma) per channel, built from raw values."""
    return _baseline({channel: [mu - sigma, mu + sigma] for channel, (mu, sigma) in stats.items()})


# Every channel at mu = 0 and sigma = 1, so a feature's z is its value.
UNIT = _profile(**{channel: (0.0, 1.0) for channel in ALL_CHANNELS})


def _fuse(features, weights, dimension, quality_floor=0.0):
    """One dimension of the fused state, on the unit baseline."""
    return infer_state(features, UNIT, weights, 0.0, PRONOUNCED_FLOOR, quality_floor).dims[dimension]


def _z(baseline, value):
    return (value - baseline.mu) / baseline.sigma


# ---------------------------------------------------------------------------
# baseline

def test_baseline_mean_and_population_sigma():
    profile = _baseline({"pupil_mm": [4.0, 6.0]})
    baseline = profile.channels["pupil_mm"]
    assert baseline.mu == pytest.approx(5.0)
    assert baseline.sigma == pytest.approx(1.0)  # population, not sample
    assert baseline.n_samples == 2


def test_constant_channel_gets_sigma_floor():
    profile = _baseline({"pupil_mm": [3.0] * 10})
    baseline = profile.channels["pupil_mm"]
    assert baseline.sigma == pytest.approx(1e-6)
    assert _z(baseline, 3.0) == 0.0
    # one micrometer off the constant baseline is a huge deviation
    assert _z(baseline, 3.001) == pytest.approx(1000.0, rel=1e-6)
    state = infer_state(
        [_feat(CHANNEL_PUPIL, value=3.001)], profile, default_weight_matrix(), 0.0, PRONOUNCED_FLOOR, 0.0
    )
    assert state.dims[Dimension.COGNITIVE_LOAD].score == pytest.approx(1000.0, rel=1e-6)


def test_underfilled_channel_is_reported_not_fatal():
    profile = _baseline({"pupil_mm": [3.0] * 5, "rmssd_ms": [40.0] * 3}, minimum=5)
    assert "pupil_mm" in profile.channels
    assert "rmssd_ms" not in profile.channels
    assert "3 calibration samples" in profile.uncalibrated["rmssd_ms"]
    # a feature on the uncalibrated channel is dropped, not scored
    state = infer_state(
        [_feat(CHANNEL_RMSSD, value=40.0)], profile, default_weight_matrix(), 0.0, PRONOUNCED_FLOOR, 0.0
    )
    assert not state.dims[Dimension.STRESS].observed


def test_per_channel_minimum_overrides_global():
    profile = compute_baseline(
        {"note_error": [0.1] * 4, "pupil_mm": [3.0] * 4},
        {"note_error": 4, "pupil_mm": 30},
        SIGMA_FLOOR,
    )
    assert "note_error" in profile.channels
    assert "pupil_mm" not in profile.channels


def test_minimum_never_drops_below_two():
    profile = compute_baseline({"note_error": [0.1]}, {"note_error": 0}, SIGMA_FLOOR)
    assert "note_error" not in profile.channels
    assert profile.uncalibrated["note_error"] == "1 calibration samples, 2 required"


# ---------------------------------------------------------------------------
# fusion

def test_fusion_worked_example():
    # stress row: pnn50 0.4, rmssd 0.3, hr 0.3
    features = [
        _feat(CHANNEL_PNN50, value=-1.8, quality=1.0),
        _feat(CHANNEL_RMSSD, value=-1.2, quality=0.5),
        _feat(CHANNEL_HEART_RATE, value=0.9, quality=1.0),
    ]
    stress = _fuse(features, default_weight_matrix(), Dimension.STRESS)
    num = 0.4 * 1.0 * 1.8 + 0.3 * 0.5 * 1.2 + 0.3 * 1.0 * 0.9
    den = 0.4 * 1.0 + 0.3 * 0.5 + 0.3 * 1.0
    assert stress.score == pytest.approx(num / den, abs=1e-12)
    assert stress.confidence == pytest.approx(den / 1.0, abs=1e-12)
    assert stress.confidence == pytest.approx(0.85, abs=1e-12)


def test_missing_channel_lowers_confidence_not_score():
    features = [_feat(CHANNEL_PNN50, value=2.0, quality=1.0)]
    stress = _fuse(features, default_weight_matrix(), Dimension.STRESS)
    assert stress.score == pytest.approx(2.0, abs=1e-12)
    # only 0.4 of the full 1.0 weight row was observed
    assert stress.confidence == pytest.approx(0.4, abs=1e-12)


def test_fusion_matches_brute_force_oracle():
    rng = random.Random(777)
    weights = default_weight_matrix()
    dims = list(Dimension)
    for _ in range(10_000):
        dimension = rng.choice(dims)
        row = weights[dimension]
        features = []
        for channel in ALL_CHANNELS:
            if rng.random() < 0.35:
                continue
            quality = rng.random()
            features.append(_feat(channel, value=rng.uniform(-4.0, 4.0), quality=quality))
        num = den = 0.0
        for feature in features:
            w = row.get(feature.channel_id, 0.0)
            num += w * feature.quality * abs(feature.value)
            den += w * feature.quality
        state = _fuse(features, weights, dimension)
        if den <= 0:
            assert not state.observed
            continue
        assert state.observed
        assert state.score == pytest.approx(num / den, abs=1e-12)
        assert state.confidence == pytest.approx(den / sum(row.values()), abs=1e-12)


def test_score_is_invariant_under_weight_row_scaling():
    rng = random.Random(888)
    base = default_weight_matrix()
    scaled = default_weight_matrix()
    for row in scaled.values():
        for key in row:
            row[key] *= 7.5
    for _ in range(200):
        qualities = [rng.uniform(0.1, 1.0) for _ in ALL_CHANNELS]
        zs = [rng.uniform(-3, 3) for _ in ALL_CHANNELS]
        features = [_feat(c, value=z, quality=q) for c, q, z in zip(ALL_CHANNELS, qualities, zs)]
        s1 = infer_state(features, UNIT, base, 0.0, PRONOUNCED_FLOOR, 0.0)
        s2 = infer_state(features, UNIT, scaled, 0.0, PRONOUNCED_FLOOR, 0.0)
        for dimension in Dimension:
            d1, d2 = s1.dims[dimension], s2.dims[dimension]
            assert d1.score == pytest.approx(d2.score, rel=1e-12)
            assert d1.confidence == pytest.approx(d2.confidence, rel=1e-12)


def test_empty_weight_row_raises():
    weights = default_weight_matrix()
    weights[Dimension.STRESS] = {}
    stress = _fuse([_feat(CHANNEL_PNN50, value=1.0)], weights, Dimension.STRESS)
    assert not stress.observed
    assert (stress.score, stress.confidence) == (0.0, 0.0)


def test_all_quality_at_floor_raises():
    features = [_feat(CHANNEL_PNN50, value=2.0, quality=0.0)]
    assert not _fuse(features, default_weight_matrix(), Dimension.STRESS).observed
    # quality exactly at the floor is unusable too (strict comparison)
    features = [_feat(CHANNEL_PNN50, value=2.0, quality=0.3)]
    assert not _fuse(features, default_weight_matrix(), Dimension.STRESS, quality_floor=0.3).observed


def _oracle(features, profile, weights, dimension, trigger_threshold, quality_floor):
    """(observed, score, confidence, signed score, supra channels), by the
    rule as written: usable channels are calibrated, weighted above 0
    and of quality above the floor."""
    row = weights.get(dimension, {})
    usable = []
    for feature in features:
        baseline = profile.channels.get(feature.channel_id)
        w = row.get(feature.channel_id, 0.0)
        if baseline is not None and w > 0 and feature.quality > quality_floor:
            usable.append((w * feature.quality, _z(baseline, feature.value)))
    if not usable:
        return False, 0.0, 0.0, 0.0, 0
    den = math.fsum(wq for wq, _ in usable)
    return (
        True,
        math.fsum(wq * abs(z) for wq, z in usable) / den,
        den / math.fsum(row.values()),
        math.fsum(wq * z for wq, z in usable) / den,
        sum(abs(z) >= trigger_threshold for _, z in usable),
    )


def test_infer_state_matches_brute_force_oracle_over_all_readings():
    rng = random.Random(2323)
    for case in range(3_000):
        # a random share of the channels is calibrated; the rest have no baseline
        calibrated = [c for c in ALL_CHANNELS if rng.random() < 0.7]
        profile = _baseline({c: [rng.uniform(-5.0, 5.0) for _ in range(4)] for c in calibrated})
        weights = {
            dimension: {
                c: rng.choice((0.0, rng.uniform(0.05, 1.0))) for c in ALL_CHANNELS if rng.random() < 0.5
            }
            for dimension in Dimension
            if rng.random() < 0.95
        }
        quality_floor = rng.choice((0.0, 0.25, rng.uniform(0.05, 0.9)))
        features = []
        for _ in range(rng.randrange(0, 16)):  # a channel may repeat, as consecutive windows do
            quality = rng.choice((0.0, quality_floor, quality_floor * rng.random(), rng.uniform(quality_floor, 1.0)))
            features.append(_feat(rng.choice(ALL_CHANNELS), value=rng.uniform(-10.0, 10.0), quality=quality))
        trigger_threshold = rng.uniform(0.0, 3.0)
        scored = [f for f in features if f.channel_id in profile.channels]
        if scored and rng.random() < 0.3:
            # a threshold on some channel's |z| exactly: the boundary counts
            f = rng.choice(scored)
            trigger_threshold = abs(_z(profile.channels[f.channel_id], f.value))
        state = infer_state(features, profile, weights, 1.0, trigger_threshold, quality_floor)
        for dimension in Dimension:
            observed, score, confidence, signed, supra = _oracle(
                features, profile, weights, dimension, trigger_threshold, quality_floor
            )
            got = state.dims[dimension]
            assert got.observed is observed, (case, dimension)
            assert got.supra_channels == supra, (case, dimension)
            assert abs(got.score - score) <= 1e-12, (case, dimension)
            assert abs(got.confidence - confidence) <= 1e-12, (case, dimension)
            assert abs(got.signed_score - signed) <= 1e-12, (case, dimension)
            assert got.descriptor is to_descriptor(got.score)


# ---------------------------------------------------------------------------
# descriptors

def test_descriptor_band_edges():
    assert to_descriptor(0.0) is Descriptor.NOMINAL
    assert to_descriptor(0.999) is Descriptor.NOMINAL
    assert to_descriptor(1.0) is Descriptor.MODERATE
    assert to_descriptor(1.499) is Descriptor.MODERATE
    assert to_descriptor(1.5) is Descriptor.PRONOUNCED
    assert to_descriptor(9.0) is Descriptor.PRONOUNCED
    with pytest.raises(ValueError):
        to_descriptor(-0.1)


# ---------------------------------------------------------------------------
# full state inference

def test_infer_state_scores_observed_dimensions():
    profile = _profile(
        pnn50_percent=(30.0, 10.0),
        rmssd_ms=(40.0, 8.0),
        heart_rate_bpm=(70.0, 5.0),
    )
    features = [
        _feat(CHANNEL_PNN50, value=10.0),   # z = -2
        _feat(CHANNEL_RMSSD, value=24.0),   # z = -2
        _feat(CHANNEL_HEART_RATE, value=80.0),  # z = +2
    ]
    state = infer_state(features, profile, default_weight_matrix(), 100.0, PRONOUNCED_FLOOR, 0.0)
    stress = state.dims[Dimension.STRESS]
    assert stress.observed
    assert stress.score == pytest.approx(2.0, abs=1e-9)
    assert stress.descriptor is Descriptor.PRONOUNCED
    assert stress.confidence == pytest.approx(1.0)
    # signed average: (0.4*(-2) + 0.3*(-2) + 0.3*2) / 1.0 = -0.8
    assert stress.signed_score == pytest.approx(-0.8, abs=1e-9)
    assert stress.supra_channels == 3


def test_infer_state_marks_unobserved_dimensions():
    profile = _profile(pnn50_percent=(30.0, 10.0))
    features = [_feat(CHANNEL_PNN50, value=10.0)]
    state = infer_state(features, profile, default_weight_matrix(), 0.0, PRONOUNCED_FLOOR, 0.0)
    attention = state.dims[Dimension.ATTENTION]
    assert not attention.observed
    assert attention.score == 0.0
    assert attention.confidence == 0.0
    assert attention.descriptor is Descriptor.NOMINAL
    assert len(state.dims) == len(Dimension)


def test_infer_state_drops_uncalibrated_channels():
    profile = _profile(pnn50_percent=(30.0, 10.0))
    features = [
        _feat(CHANNEL_PNN50, value=50.0),       # z = +2
        _feat(CHANNEL_NOTE_ERROR, value=0.9),   # no baseline: ignored
    ]
    state = infer_state(features, profile, default_weight_matrix(), 0.0, PRONOUNCED_FLOOR, 0.0)
    assert state.dims[Dimension.STRESS].observed
    assert not state.dims[Dimension.UNDERSTANDING].observed


def test_supra_channel_count_uses_trigger_threshold():
    profile = _profile(pnn50_percent=(30.0, 10.0), rmssd_ms=(40.0, 8.0))
    features = [
        _feat(CHANNEL_PNN50, value=14.0),  # z = -1.6
        _feat(CHANNEL_RMSSD, value=44.0),  # z = +0.5
    ]
    state = infer_state(
        features, profile, default_weight_matrix(), t=0.0, trigger_threshold=1.5, quality_floor=0.0
    )
    assert state.dims[Dimension.STRESS].supra_channels == 1
    state = infer_state(
        features, profile, default_weight_matrix(), t=0.0, trigger_threshold=0.5, quality_floor=0.0
    )
    # |0.5| >= 0.5: the boundary counts
    assert state.dims[Dimension.STRESS].supra_channels == 2


def test_compute_baseline_matches_statistics_oracle():
    rng = random.Random(313)
    for _ in range(100):
        # a (value, quality) pair per calibration feature; the baseline reads the values alone
        pairs = [(rng.uniform(0, 100), rng.uniform(0.5, 1.0)) for _ in range(40)]
        values = [v for v, _ in pairs]
        profile = _baseline({"pupil_mm": values}, minimum=30)
        baseline = profile.channels["pupil_mm"]
        assert baseline.mu == pytest.approx(statistics.fmean(values), abs=1e-12)
        assert baseline.sigma == pytest.approx(statistics.pstdev(values), abs=1e-12)
        assert baseline.n_samples == 40
