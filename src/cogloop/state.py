"""Baseline calibration and fusion of channel features into dimension scores.

Each physiological or behavioral feature channel is normalized against
its own calibration baseline, z = (x - mu) / sigma, and the six learner
dimensions are quality-weighted averages of the absolute z-scores of
their channels:

    score      = sum(w * q * |z|) / sum(w * q)
    confidence = sum(w * q) / sum(w)

where w is the configured channel weight and q the channel's current
signal quality in [0, 1]. The denominator of the confidence uses the
full weight row, so missing channels lower confidence rather than
silently renormalizing it away.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import NoUsableChannelsError, UncalibratedChannelError
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
    """One windowed feature value with its signal quality."""

    __slots__ = ("channel_id", "value", "quality", "t")

    def __init__(self, channel_id: str, value: float, quality: float, t: Timestamp):
        if not (0.0 <= quality <= 1.0):
            raise ValueError(f"quality must lie in [0, 1], got {quality!r}")
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
    quality_mean: float


class CalibrationProfile(Slotted):
    """Per-channel baseline statistics captured during calibration."""

    __slots__ = ("channels", "uncalibrated")

    def __init__(self, channels: dict[str, ChannelBaseline] | None = None, uncalibrated: dict[str, str] | None = None):
        self.channels = {} if channels is None else channels
        self.uncalibrated = {} if uncalibrated is None else uncalibrated

    def is_calibrated(self, channel_id: str) -> bool:
        return channel_id in self.channels


def compute_baseline(
    values_per_channel: dict[str, list[tuple[float, float]]],
    min_samples: int = 30,
    sigma_floor: float = SIGMA_FLOOR,
    min_samples_per_channel: dict[str, int] | None = None,
) -> CalibrationProfile:
    """Build a calibration profile from (value, quality) pairs per channel.

    sigma is the population standard deviation, floored at
    ``sigma_floor`` so later z-scores stay finite on constant channels.
    Channels with fewer than the required samples are excluded and
    listed in ``profile.uncalibrated`` instead of failing the run.
    Slow channels may override the global minimum through
    ``min_samples_per_channel``.
    """
    profile = CalibrationProfile()
    for channel_id, pairs in sorted(values_per_channel.items()):
        needed = min_samples
        if min_samples_per_channel and channel_id in min_samples_per_channel:
            needed = min_samples_per_channel[channel_id]
        if len(pairs) < max(2, needed):
            profile.uncalibrated[channel_id] = (
                f"{len(pairs)} calibration samples, {max(2, needed)} required"
            )
            continue
        values = [v for v, _ in pairs]
        qualities = [q for _, q in pairs]
        mu = fmean(values)
        sigma = max(pstdev(values, mu=mu), sigma_floor)
        profile.channels[channel_id] = ChannelBaseline(
            mu=mu,
            sigma=sigma,
            n_samples=len(values),
            quality_mean=fmean(qualities),
        )
    return profile


def zscore(x: float, profile: CalibrationProfile, channel_id: str) -> float:
    """Baseline-normalized deviation of ``x`` on the given channel."""
    baseline = profile.channels.get(channel_id)
    if baseline is None:
        raise UncalibratedChannelError(f"channel {channel_id!r} has no baseline")
    return (x - baseline.mu) / baseline.sigma


def dimension_score(
    features: list[ChannelFeature],
    zs: list[float],
    weights: WeightMatrix,
    dimension: Dimension,
    quality_floor: float = 0.0,
) -> tuple[float, float]:
    """Quality-weighted mean absolute deviation for one dimension.

    ``zs`` is aligned with ``features`` (signed z-scores; the score uses
    their magnitudes). Features whose quality does not exceed
    ``quality_floor`` are treated as unusable. Raises
    NoUsableChannelsError when every weighted channel is unusable.
    """
    if len(features) != len(zs):
        raise ValueError("features and zs must be aligned")
    row = weights.get(dimension, {})
    weight_total = sum(row.values())
    if weight_total <= 0:
        raise NoUsableChannelsError(f"{dimension.value}: empty weight row")
    num = 0.0
    den = 0.0
    for feature, z in zip(features, zs):
        w = row.get(feature.channel_id, 0.0)
        if w <= 0:
            continue
        q = feature.quality if feature.quality > quality_floor else 0.0
        num += w * q * abs(z)
        den += w * q
    if den <= 0:
        raise NoUsableChannelsError(f"{dimension.value}: no usable channels")
    return num / den, den / weight_total


class DimensionState(NamedTuple):
    score: float
    confidence: float
    descriptor: Descriptor
    observed: bool
    signed_score: float
    supra_channels: int


class StateVector(NamedTuple):
    """All six dimension states at one instant."""

    t: Timestamp
    dims: dict[Dimension, DimensionState]

    def score(self, dimension: Dimension) -> float:
        return self.dims[dimension].score


_UNOBSERVED = DimensionState(
    score=0.0,
    confidence=0.0,
    descriptor=Descriptor.NOMINAL,
    observed=False,
    signed_score=0.0,
    supra_channels=0,
)


def infer_state(
    features: list[ChannelFeature],
    profile: CalibrationProfile,
    weights: WeightMatrix,
    t: Timestamp,
    trigger_threshold: float = PRONOUNCED_FLOOR,
    quality_floor: float = 0.0,
) -> StateVector:
    """Score all six dimensions from the window's channel features.

    Features on uncalibrated channels are dropped. Dimensions with no
    usable channel come back unobserved: score 0, confidence 0,
    nominal descriptor. ``signed_score`` keeps the direction of the
    deviation (the same weighted average without the absolute value),
    which downstream policy uses for direction-sensitive rules.
    ``supra_channels`` counts usable channels at or beyond the trigger
    threshold.
    """
    usable: list[ChannelFeature] = []
    zs: list[float] = []
    for feature in features:
        if not profile.is_calibrated(feature.channel_id):
            continue
        usable.append(feature)
        zs.append(zscore(feature.value, profile, feature.channel_id))

    dims: dict[Dimension, DimensionState] = {}
    for dimension in Dimension:
        try:
            score, confidence = dimension_score(
                usable, zs, weights, dimension, quality_floor=quality_floor
            )
        except NoUsableChannelsError:
            dims[dimension] = _UNOBSERVED
            continue
        row = weights[dimension]
        signed_num = 0.0
        signed_den = 0.0
        supra = 0
        for feature, z in zip(usable, zs):
            w = row.get(feature.channel_id, 0.0)
            q = feature.quality if feature.quality > quality_floor else 0.0
            if w <= 0 or q <= 0:
                continue
            signed_num += w * q * z
            signed_den += w * q
            if abs(z) >= trigger_threshold:
                supra += 1
        dims[dimension] = DimensionState(
            score=score,
            confidence=confidence,
            descriptor=to_descriptor(score),
            observed=True,
            signed_score=signed_num / signed_den,
            supra_channels=supra,
        )
    return StateVector(t=t, dims=dims)
