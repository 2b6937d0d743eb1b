"""Gaze processing: blink handling, pupil despiking, velocity-threshold
fixation detection, and per-window feature aggregation.

Velocity between consecutive samples is the Euclidean step in
screen-normalized units divided by the time step. Samples moving slower
than the velocity threshold are fixation samples; maximal runs of them
become fixation events, and runs shorter than the minimum duration are
discarded as noise. Blink samples break runs on both sides.

None of the per-sample quantities (blink flag, pair velocity, I-VT
label, despiked pupil) depends on the window, so a ``GazeTrack``
computes each once per channel timeline, and every window aggregates
its index slice of the track. Only the pupil medians within half a
median width of a window edge are recomputed there, because the edge
truncates their neighbourhood.
"""

from __future__ import annotations

import math
import re
import statistics
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

from .errors import ZeroDtError
from .model import GazeSample, SampleEnvelope, Timestamp
from .streams import Window

# Tracker confidence below this marks the sample as a blink even when a
# pupil value is reported.
BLINK_CONFIDENCE_FLOOR = 0.2

# I-VT label of the pair (i-1, i). Pairs touching a blink carry none;
# a pair whose time step is not positive has no velocity at all.
NO_LABEL, FIXATION, SACCADE, ZERO_DT = 0, 1, 2, 3
_RUNS = re.compile(b"\x01+|\x02+")


def is_blink(sample: GazeSample) -> bool:
    """Absent or non-positive pupil, or tracker confidence under the floor."""
    pupil = sample.pupil_diameter_mm
    if pupil is None or pupil <= 0:
        return True
    return sample.confidence < BLINK_CONFIDENCE_FLOOR


class GazeTrack:
    """Per-sample gaze quantities of one channel timeline, each computed once.

    Every column is indexed by timeline position minus ``base``. Sample
    columns: ``valid`` (1 for a usable sample, 0 for a blink), the raw
    and the despiked pupil (NaN on blinks), and the source confidence.
    Pair columns hold the pair (i-1, i) at position i: its velocity and
    its I-VT label.

    Windows are read in order of their start. ``advance`` computes the
    columns of each sample the first time a window reaches it and drops
    those no later window can reach, so the track holds about one window
    of samples at a time, however long the timeline.

    Computing a column raises nothing: a pair whose time step is not
    positive is labelled ``ZERO_DT``, and only a window holding it
    raises ``ZeroDtError``.
    """

    def __init__(
        self,
        samples: Sequence[SampleEnvelope],
        median_width: int = 5,
        velocity_threshold: float = 1.0,
    ):
        if median_width < 3 or median_width % 2 == 0:
            raise ValueError(f"median_width must be odd and >= 3, got {median_width}")
        if velocity_threshold <= 0:
            raise ValueError(f"velocity_threshold must be positive, got {velocity_threshold}")
        self.samples = samples
        self.half = median_width // 2
        self.velocity_threshold = velocity_threshold
        self.base = 0
        self._last_lo = 0
        # valid and raw_pupil run half a median width ahead of the rest:
        # the median at sample i reaches sample i + half
        self.valid = bytearray()
        self.raw_pupil = array("d")
        self.pupil = array("d")
        self.confidence = array("d")
        self.velocity = array("d")
        self.label = bytearray()

    def advance(self, lo: int, hi: int) -> None:
        """Cover the window [lo, hi) of the timeline."""
        if lo < self._last_lo:
            raise ValueError(f"windows must come in order of their start, got {lo} after {self._last_lo}")
        self._last_lo = lo
        # a median at lo or later looks back at most half a width
        drop = min(lo - self.half, self.base + len(self.valid)) - self.base
        if drop > 0:
            columns = (self.valid, self.raw_pupil, self.pupil, self.confidence, self.velocity, self.label)
            for column in columns:
                del column[:drop]
            self.base += drop
        self._compute(hi)

    def _compute(self, hi: int) -> None:
        samples, base, half = self.samples, self.base, self.half
        n = len(samples)
        valid, raw = self.valid, self.raw_pupil
        for j in range(base + len(valid), min(n, hi + half)):
            gaze = samples[j].payload
            ok = not is_blink(gaze)
            valid.append(ok)
            raw.append(gaze.pupil_diameter_mm if ok else math.nan)
        for i in range(base + len(self.pupil), hi):
            k = i - base
            if valid[k]:
                # _median(i, base, n), inlined: this runs once per sample
                near = range(max(0, k - half), min(n - base, k + half + 1))
                around = sorted([raw[j] for j in near if valid[j]])
                m = len(around) // 2
                self.pupil.append(around[m] if len(around) % 2 else (around[m - 1] + around[m]) / 2)
            else:
                self.pupil.append(math.nan)
            self.confidence.append(samples[i].source_confidence)
            velocity, label = 0.0, NO_LABEL
            if k > 0 and valid[k - 1] and valid[k]:
                prev, cur = samples[i - 1], samples[i]
                dt = cur.timestamp - prev.timestamp
                if dt <= 0:
                    label = ZERO_DT
                else:
                    velocity = math.hypot(cur.payload.x - prev.payload.x, cur.payload.y - prev.payload.y) / dt
                    label = FIXATION if velocity < self.velocity_threshold else SACCADE
            self.velocity.append(velocity)
            self.label.append(label)

    def _median(self, i: int, lo: int, hi: int) -> float:
        """Median of the valid raw pupils around sample i, within [lo, hi).

        The arithmetic of ``statistics.median``: the middle value of the
        sorted neighbours, or the mean of the two middle ones.
        """
        valid, raw, base = self.valid, self.raw_pupil, self.base
        near = range(max(lo, i - self.half) - base, min(hi, i + self.half + 1) - base)
        around = sorted([raw[k] for k in near if valid[k]])
        m = len(around) // 2
        return around[m] if len(around) % 2 else (around[m - 1] + around[m]) / 2

    def despiked_pupils(self, lo: int, hi: int) -> list[float]:
        """The despiked pupils of the valid samples in [lo, hi), in order.

        Equal to a rolling median over the window's samples alone: the
        window edge truncates the neighbourhood of the first and last
        ``half`` samples, so those medians are recomputed; the others
        come from the track.
        """
        valid, base = self.valid, self.base
        head_end = min(lo + self.half, hi)
        tail_start = max(hi - self.half, head_end)
        head = [self._median(i, lo, hi) for i in range(lo, head_end) if valid[i - base]]
        tail = [self._median(i, lo, hi) for i in range(tail_start, hi) if valid[i - base]]
        a, b = head_end - base, tail_start - base
        return head + list(compress(self.pupil[a:b], valid[a:b])) + tail

    def velocities(self, lo: int, hi: int) -> list[float]:
        """Velocities of the labelled pairs inside [lo, hi), in order."""
        a, b = lo + 1 - self.base, hi - self.base
        return list(compress(self.velocity[a:b], self.label[a:b]))

    def blink_count(self, lo: int, hi: int) -> int:
        """Blink runs inside [lo, hi); a run cut by a window edge counts."""
        valid = self.valid[lo - self.base:hi - self.base]
        return valid.count(b"\x01\x00") + valid.startswith(b"\x00")

    def quality(self, lo: int, hi: int) -> float:
        """Mean source confidence of the samples in [lo, hi)."""
        return statistics.fmean(self.confidence[lo - self.base:hi - self.base])

    def segment(
        self, lo: int, hi: int, min_fixation_duration_s: float
    ) -> tuple[list[tuple[Timestamp, Timestamp]], list[tuple[Timestamp, Timestamp]]]:
        """Fixation and saccade events of the samples in [lo, hi).

        Each consecutive pair of non-blink samples is labeled by its
        velocity (below threshold: fixation, otherwise saccade); maximal
        runs of equally labeled pairs become (start, end) events spanning
        from the first to the last sample of the run, so neighboring
        events share their boundary sample. Pairs touching a blink sample
        carry no label and split runs; runs cut by a window edge end at
        it. Fixation candidates shorter than the minimum duration are
        dropped.
        """
        base = self.base
        zero_dt = self.label.find(ZERO_DT, lo + 1 - base, hi - base)
        if zero_dt >= 0:
            i = zero_dt + base
            raise ZeroDtError(
                f"time step must be positive, got {self.samples[i].timestamp - self.samples[i - 1].timestamp}"
            )
        samples, label = self.samples, self.label
        fixations: list[tuple[Timestamp, Timestamp]] = []
        saccades: list[tuple[Timestamp, Timestamp]] = []
        # a run of pairs p..q spans the samples p-1..q
        for run in _RUNS.finditer(label, lo + 1 - base, hi - base):
            start = samples[run.start() - 1 + base].timestamp
            end = samples[run.end() - 1 + base].timestamp
            if label[run.start()] == SACCADE:
                saccades.append((start, end))
            elif end - start >= min_fixation_duration_s:
                fixations.append((start, end))
        return fixations, saccades


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
    track: GazeTrack,
    min_fixation_duration_s: float = 0.1,
) -> GazeFeatures:
    """Aggregate one gaze window from its slice [lo, hi) of the track.

    Values stay in physical units; baseline normalization happens in
    state inference. Windows with fewer than two samples come back
    absent with quality zero.
    """
    lo, hi = window.lo, window.hi
    if hi - lo < 2:
        return GazeFeatures(start=window.start, end=window.end, present=False, quality=0.0)

    track.advance(lo, hi)
    fixations, saccades = track.segment(lo, hi, min_fixation_duration_s)
    velocities = track.velocities(lo, hi)
    pupils = track.despiked_pupils(lo, hi)
    duration = window.duration_s
    return GazeFeatures(
        start=window.start,
        end=window.end,
        present=True,
        quality=track.quality(lo, hi),
        fixation_count=len(fixations),
        mean_fixation_duration_s=(
            statistics.fmean(end - start for start, end in fixations) if fixations else None
        ),
        saccade_count=len(saccades),
        mean_gaze_velocity=statistics.fmean(velocities) if velocities else None,
        blink_rate_per_min=track.blink_count(lo, hi) / duration * 60.0 if duration > 0 else 0.0,
        mean_pupil_mm=statistics.fmean(pupils) if pupils else None,
        valid_pupil_fraction=len(pupils) / (hi - lo),
    )
