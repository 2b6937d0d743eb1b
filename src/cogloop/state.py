"""Baseline calibration and fusion of channel features into dimension scores.

Each physiological or behavioral feature channel is normalized against
its own calibration baseline (mu, sigma and n per channel), z = (x - mu)
/ sigma, and the six learner dimensions are quality-weighted averages of
the absolute z-scores of their usable channels:

    score        = sum(w * q * |z|) / sum(w * q)
    confidence   = sum(w * q) / sum(w)
    signed_score = sum(w * q * z) / sum(w * q)

where w is the configured channel weight and q the channel's current
signal quality in [0, 1]. A channel is usable when w > 0 and q exceeds
the quality floor; ``supra_channels`` counts the usable channels with
|z| at or beyond the trigger threshold. The denominator of the
confidence uses the full weight row, so missing channels lower
confidence rather than silently renormalizing it away. A dimension with
no usable channel is unobserved: score 0, confidence 0.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .model import Dimension, Slotted, Timestamp
from .stats import fmean, pstdev

# Channel identifiers produced by the feature pipelines.
CHANNEL_PUPIL = "pupil_mm"
CHANNEL_FIXATION_DURATION = "fixation_duration_s"
CHANNEL_FIXATION_COUNT = "fixation_count"
CHANNEL_GAZE_VELOCITY = "gaze_velocity"
CHANNEL_BLINK_RATE = "blink_rate_per_min"
CHANNEL_HEART_RATE = "heart_rate_bpm"
CHANNEL_RMSSD = "rmssd_ms"
CHANNEL_SDNN = "sdnn_ms"
CHANNEL_PNN50 = "pnn50_percent"
CHANNEL_POSTURE = "posture_percent"
CHANNEL_NOTE_ERROR = "note_error"

ALL_CHANNELS = (
    CHANNEL_PUPIL,
    CHANNEL_FIXATION_DURATION,
    CHANNEL_FIXATION_COUNT,
    CHANNEL_GAZE_VELOCITY,
    CHANNEL_BLINK_RATE,
    CHANNEL_HEART_RATE,
    CHANNEL_RMSSD,
    CHANNEL_SDNN,
    CHANNEL_PNN50,
    CHANNEL_POSTURE,
    CHANNEL_NOTE_ERROR,
)

WeightMatrix = dict[Dimension, dict[str, float]]


def default_weight_matrix() -> WeightMatrix:
    """Starting weights per dimension; every row is configurable."""
    return {
        Dimension.COGNITIVE_LOAD: {
            CHANNEL_PUPIL: 0.5,
            CHANNEL_FIXATION_DURATION: 0.3,
            CHANNEL_HEART_RATE: 0.2,
        },
        Dimension.STRESS: {
            CHANNEL_PNN50: 0.4,
            CHANNEL_RMSSD: 0.3,
            CHANNEL_HEART_RATE: 0.3,
        },
        Dimension.ATTENTION: {
            CHANNEL_GAZE_VELOCITY: 0.4,
            CHANNEL_FIXATION_COUNT: 0.3,
            CHANNEL_BLINK_RATE: 0.3,
        },
        Dimension.ENGAGEMENT: {
            CHANNEL_POSTURE: 0.4,
            CHANNEL_PUPIL: 0.3,
            CHANNEL_FIXATION_DURATION: 0.3,
        },
        Dimension.UNDERSTANDING: {
            CHANNEL_NOTE_ERROR: 0.7,
            CHANNEL_FIXATION_DURATION: 0.3,
        },
        Dimension.FATIGUE: {
            CHANNEL_BLINK_RATE: 0.4,
            CHANNEL_GAZE_VELOCITY: 0.3,
            CHANNEL_POSTURE: 0.3,
        },
    }


class Descriptor(str, Enum):
    """Semantic band of a dimension score."""

    NOMINAL = "nominal"
    MODERATE = "moderate"
    PRONOUNCED = "pronounced"


# Band edges for the semantic descriptor, in |z| units.
MODERATE_FLOOR = 1.0
PRONOUNCED_FLOOR = 1.5

SIGMA_FLOOR = 1e-6


def to_descriptor(score: float) -> Descriptor:
    """Map a non-negative dimension score onto its semantic band."""
    if score < 0:
        raise ValueError(f"score must be non-negative, got {score!r}")
    if score < MODERATE_FLOOR:
        return Descriptor.NOMINAL
    if score < PRONOUNCED_FLOOR:
        return Descriptor.MODERATE
    return Descriptor.PRONOUNCED


class ChannelFeature(Slotted):
    """One windowed feature value with its signal quality, in [0, 1]: a
    mean of source confidences, which the parser holds to that range,
    times at most 1."""

    __slots__ = ("channel_id", "value", "quality", "t")

    def __init__(self, channel_id: str, value: float, quality: float, t: Timestamp):
        self.channel_id = channel_id
        self.value = value
        self.quality = quality
        self.t = t


# What every window extractor returns: the window's quality, its channel
# features in fusion order (fusion sums them in list order), and the
# kind's own trace fields. A window with no features is absent.
Extraction = tuple[float, list[ChannelFeature], dict]


class ChannelBaseline(NamedTuple):
    mu: float
    sigma: float
    n_samples: int


class CalibrationProfile(Slotted):
    """Per-channel baseline statistics captured during calibration."""

    __slots__ = ("channels", "uncalibrated")

    def __init__(self, channels: dict[str, ChannelBaseline] | None = None, uncalibrated: dict[str, str] | None = None):
        self.channels = {} if channels is None else channels
        self.uncalibrated = {} if uncalibrated is None else uncalibrated


def compute_baseline(
    values_per_channel: dict[str, list[float]],
    minimums: dict[str, int],
    sigma_floor: float,
) -> CalibrationProfile:
    """Build a calibration profile from each channel's calibration values.

    sigma is the population standard deviation, floored at
    ``sigma_floor`` so later z-scores stay finite on constant channels.
    A channel needs ``minimums[channel]`` values, and never fewer than
    2; one with fewer is excluded and listed in ``profile.uncalibrated``
    instead of failing the run.
    """
    profile = CalibrationProfile()
    for channel_id, values in sorted(values_per_channel.items()):
        needed = max(2, minimums[channel_id])
        if len(values) < needed:
            profile.uncalibrated[channel_id] = f"{len(values)} calibration samples, {needed} required"
            continue
        mu = fmean(values)
        sigma = max(pstdev(values, mu=mu), sigma_floor)
        profile.channels[channel_id] = ChannelBaseline(mu=mu, sigma=sigma, n_samples=len(values))
    return profile


class DimensionState(NamedTuple):
    score: float
    confidence: float
    observed: bool
    signed_score: float
    supra_channels: int

    @property
    def descriptor(self) -> Descriptor:
        """The score's semantic band (``to_descriptor``)."""
        return to_descriptor(self.score)


class StateVector(NamedTuple):
    """All six dimension states at one instant."""

    t: Timestamp
    dims: dict[Dimension, DimensionState]


_UNOBSERVED = DimensionState(
    score=0.0,
    confidence=0.0,
    observed=False,
    signed_score=0.0,
    supra_channels=0,
)


def infer_state(
    features: list[ChannelFeature],
    profile: CalibrationProfile,
    weights: WeightMatrix,
    t: Timestamp,
    trigger_threshold: float,
    quality_floor: float,
) -> StateVector:
    """Score all six dimensions from the window's channel features.

    Features on uncalibrated channels are dropped; every other feature
    gets its z once. Each dimension then sums score, confidence, signed
    score and supra count over its usable channels in one pass, in
    feature order. A dimension with no usable channel comes back
    unobserved: score 0, confidence 0, so a nominal descriptor.
    """
    channels = profile.channels
    calibrated: list[tuple[str, float, float]] = []  # (channel, quality, z)
    for feature in features:
        baseline = channels.get(feature.channel_id)
        if baseline is not None:
            calibrated.append((feature.channel_id, feature.quality, (feature.value - baseline.mu) / baseline.sigma))

    dims: dict[Dimension, DimensionState] = {}
    for dimension in Dimension:
        row = weights.get(dimension, {})
        num = den = signed_num = 0.0
        supra = 0
        for channel_id, q, z in calibrated:
            w = row.get(channel_id, 0.0)
            if w > 0 and q > quality_floor:
                wq = w * q
                num += wq * abs(z)
                den += wq
                signed_num += wq * z
                if abs(z) >= trigger_threshold:
                    supra += 1
        if den <= 0:
            dims[dimension] = _UNOBSERVED
            continue
        dims[dimension] = DimensionState(
            score=num / den,
            confidence=den / sum(row.values()),
            observed=True,
            signed_score=signed_num / den,
            supra_channels=supra,
        )
    return StateVector(t=t, dims=dims)
