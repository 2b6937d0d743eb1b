"""Heart-rate variability channels from beat-to-beat intervals.

Time-domain definitions over an interval series rr (milliseconds):

    rmssd = sqrt(mean(d_i^2))        d_i = rr_{i+1} - rr_i
    sdnn  = population std of rr
    pnn50 = 100 * |{i : |d_i| > 50}| / (n - 1)

pnn50 uses a strict 50 ms comparison: a difference of exactly 50 does
not count. ``window_hrv`` turns one RR window into the heart rate, rmssd,
sdnn and pnn50 channels of state inference, in the shape every window
extractor returns (``state.Extraction``).
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import OutOfRangeError, TooFewIntervalsError
from .state import CHANNEL_HEART_RATE, CHANNEL_PNN50, CHANNEL_RMSSD, CHANNEL_SDNN, ChannelFeature, Extraction
from .stats import fmean, pstdev
from .streams import Window

# Intervals outside this physiological range are treated as artifacts
# (missed or spurious beats) and excluded from windowed features.
RR_ARTIFACT_LOW_MS = 200.0
RR_ARTIFACT_HIGH_MS = 3000.0

# Fewer valid intervals than this makes a window's features unusable.
MIN_VALID_INTERVALS = 5

PNN50_THRESHOLD_MS = 50.0


class StressBand(str, Enum):
    HIGH = "high"
    MODERATE = "moderate"
    LOW = "low"


def _successive_diffs(rr_ms: list[float]) -> list[float]:
    if len(rr_ms) < 2:
        raise TooFewIntervalsError(f"need at least 2 intervals, got {len(rr_ms)}")
    return [b - a for a, b in zip(rr_ms, rr_ms[1:])]


def rmssd(rr_ms: list[float]) -> float:
    """Root mean square of successive differences."""
    diffs = _successive_diffs(rr_ms)
    return math.sqrt(fmean([d * d for d in diffs]))


def sdnn(rr_ms: list[float]) -> float:
    """Population standard deviation of the interval series."""
    if len(rr_ms) < 2:
        raise TooFewIntervalsError(f"need at least 2 intervals, got {len(rr_ms)}")
    return pstdev(rr_ms)


def pnn50(rr_ms: list[float]) -> float:
    """Percentage of successive differences strictly beyond 50 ms."""
    diffs = _successive_diffs(rr_ms)
    beyond = len([d for d in diffs if abs(d) > PNN50_THRESHOLD_MS])
    return 100.0 * beyond / len(diffs)


def classify_stress(pnn50_percent: float) -> StressBand:
    """Band a pnn50 percentage: under 20 high stress, 20 to 50 moderate
    (both ends included), above 50 low."""
    if not (0.0 <= pnn50_percent <= 100.0):
        raise OutOfRangeError(f"pnn50 must lie in [0, 100], got {pnn50_percent!r}")
    if pnn50_percent < 20.0:
        return StressBand.HIGH
    if pnn50_percent <= 50.0:
        return StressBand.MODERATE
    return StressBand.LOW


def window_hrv(window: Window) -> Extraction:
    """Windowed HRV channels with artifact rejection.

    Intervals outside [200, 3000] ms are dropped before computing the
    statistics; a window with fewer than five remaining intervals has no
    channels and quality zero. Otherwise it yields mean heart rate,
    RMSSD, SDNN and pNN50, in this order, each carrying the window
    quality: the mean source confidence of the valid samples times the
    fraction that survived the artifact filter. The extras carry the
    stress band (None when absent) and the valid and artifact counts.
    """
    rr: list[float] = []
    confidences: list[float] = []
    artifacts = 0
    for envelope in window.samples:
        rr_ms = envelope.payload
        if RR_ARTIFACT_LOW_MS <= rr_ms <= RR_ARTIFACT_HIGH_MS:
            rr.append(rr_ms)
            confidences.append(envelope.source_confidence)
        else:
            artifacts += 1

    extras = {"stress_band": None, "valid_intervals": len(rr), "artifact_intervals": artifacts}
    if len(rr) < MIN_VALID_INTERVALS:
        return 0.0, [], extras

    quality = fmean(confidences) * (len(rr) / (len(rr) + artifacts))
    end, pnn = window.end, pnn50(rr)
    extras["stress_band"] = classify_stress(pnn).value
    return quality, [
        ChannelFeature(CHANNEL_HEART_RATE, 60000.0 / fmean(rr), quality, end),
        ChannelFeature(CHANNEL_RMSSD, rmssd(rr), quality, end),
        ChannelFeature(CHANNEL_SDNN, sdnn(rr), quality, end),
        ChannelFeature(CHANNEL_PNN50, pnn, quality, end),
    ], extras
