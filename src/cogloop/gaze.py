"""Gaze processing: blink handling, pupil despiking, velocity-threshold
fixation detection, and the per-window gaze channels.

Velocity between consecutive samples is the Euclidean step in
screen-normalized units divided by the time step. Samples moving slower
than the velocity threshold are fixation samples; maximal runs of them
become fixation events, and runs shorter than the minimum duration are
discarded as noise. Blink samples break runs on both sides.

None of the per-sample quantities (blink flag, pair velocity, I-VT
label, despiked pupil) depends on the window, so a ``GazeTrack``
computes each once per channel timeline, from the samples of the
windows it is given, and every window aggregates its index slice of the
track. Each quantity depends only on a sample and its neighbours, so the
track builds it as a whole column for a window's new samples: one
``zip`` turns their payload rows ``(x, y, pupil_mm or None,
confidence)`` into columns, then ``map`` over C functions,
comprehensions, and ``sorted`` over shifted slices for the medians,
rather than one pass of a Python loop body per sample. Only the pupil
medians within half a median width of a window edge are recomputed
there, because the edge truncates their neighbourhood.

A window's means are read straight off the track's columns: ``math.fsum``
over a column slice ``compress``-ed by its blink flags or pair labels,
over a count that ``bytearray.count`` takes, so no window builds a list
of its values. ``fsum`` is exact, so each mean is bit for bit the mean
of the list. ``window_gaze_features`` returns a window's channels in the
shape every window extractor returns (``state.Extraction``).
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator, Sequence
from itertools import chain, compress
from operator import attrgetter, itemgetter, sub, truediv

from .model import SampleEnvelope, Timestamp
from .state import (
    CHANNEL_BLINK_RATE,
    CHANNEL_FIXATION_COUNT,
    CHANNEL_FIXATION_DURATION,
    CHANNEL_GAZE_VELOCITY,
    CHANNEL_PUPIL,
    ChannelFeature,
    Extraction,
)
from .stats import fmean, median
from .streams import Window

# A sample is a blink when it has no pupil, a pupil of 0 or less, or a
# tracker confidence below this floor, even with a pupil value reported.
BLINK_CONFIDENCE_FLOOR = 0.2

# I-VT label of the pair (i-1, i). Pairs touching a blink carry none.
NO_LABEL, FIXATION, SACCADE = 0, 1, 2
_RUNS = re.compile(b"\x01+|\x02+")
_BLINKS = re.compile(b"\x00+")

_payload = attrgetter("payload")
_timestamp = attrgetter("timestamp")
_source_confidence = attrgetter("source_confidence")


class GazeTrack:
    """Per-sample gaze quantities of one channel timeline, each computed once.

    Every column is indexed by timeline position minus ``base``. Sample
    columns: ``valid`` (1 for a usable sample, 0 for a blink), the raw
    and the despiked pupil (NaN on blinks), the time and the source
    confidence. Pair columns hold the pair (i-1, i) at position i: its
    velocity and its I-VT label. The columns come from the envelopes'
    times and source confidences and their payload rows; no sample
    object is built or kept. The readers of a window's pupils and
    velocities hand back an iterator over the columns with its count,
    for ``stats.fmean``.

    Windows are given in order of their start, each with its samples,
    as the merger cuts them.
    ``advance`` drops the columns before the window, which no later
    window reaches, and computes the columns of each sample the first
    time a window holds it, one pass per column over the window's new
    samples, so the track holds one window of samples at a time and
    never reads outside the window it is given. A despiked
    pupil is computed once its whole neighbourhood is in: only the
    pupils at least half a median width inside some window are read
    from the track, and those have it.

    The track checks none of its inputs; their owners do. The median
    width is odd and at least 3 and the velocity threshold positive
    (``config.validate_config``), and each time step is positive: the
    parser allows one gaze stream, and ``Session.place`` places a gaze
    sample only ``MIN_GAZE_STEP_S`` or more after the one before it.
    """

    def __init__(self, median_width: int, velocity_threshold: float):
        self.half = median_width // 2
        self.velocity_threshold = velocity_threshold
        self.base = 0
        self.valid = bytearray()
        self.raw_pupil: list[float] = []
        self.pupil: list[float] = []
        self.times: list[Timestamp] = []
        self.confidence: list[float] = []
        self.velocity: list[float] = []
        self.label = bytearray()

    def advance(self, lo: int, samples: Sequence[SampleEnvelope]) -> None:
        """Cover the window whose samples sit at positions [lo, lo + len(samples))."""
        drop = lo - self.base
        if drop > 0:
            columns = (self.valid, self.raw_pupil, self.pupil, self.times, self.confidence, self.velocity, self.label)
            for column in columns:
                del column[:drop]
            self.base = lo
        self._compute(samples)

    def _compute(self, samples: Sequence[SampleEnvelope]) -> None:
        # base is the window's lo: column position k holds samples[k]
        valid, n = self.valid, len(samples)
        a = len(valid)
        if a < n:
            # the new samples, after the one before them when the track
            # holds it, for the pair at a
            prev = 1 if a else 0
            envelopes = samples[a - prev:]
            xs, ys, pupils, confidences = zip(*map(_payload, envelopes))
            times = list(map(_timestamp, envelopes))
            pupils = pupils[prev:]
            ok = [
                not (pupil is None or pupil <= 0 or confidence < BLINK_CONFIDENCE_FLOOR)
                for pupil, confidence in zip(pupils, confidences[prev:])
            ]
            valid.extend(ok)
            self.raw_pupil.extend([pupil if good else math.nan for pupil, good in zip(pupils, ok)])
            self.times.extend(times[prev:])
            self.confidence.extend(map(_source_confidence, envelopes[prev:]))
            if not a:
                # the pair at the window's first sample is read by no window
                self.velocity.append(0.0)
                self.label.append(NO_LABEL)
            if len(times) > 1:
                self._pairs(xs, ys, times, valid[a - prev:])
        lo, hi = len(self.pupil), n - self.half
        if lo < hi:
            self.pupil.extend(self._medians(lo, hi))

    def _pairs(self, xs: tuple[float, ...], ys: tuple[float, ...], times: list[Timestamp], valid: bytearray) -> None:
        """Append the velocity and the I-VT label of each consecutive pair
        of samples; ``xs``, ``ys``, ``times`` and ``valid`` hold their
        coordinates, times and blink flags."""
        dts = map(sub, times[1:], times)
        velocity = list(map(truediv, map(math.hypot, map(sub, xs[1:], xs), map(sub, ys[1:], ys)), dts))
        threshold = self.velocity_threshold
        label = [
            (FIXATION if v < threshold else SACCADE) if before and after else NO_LABEL
            for v, before, after in zip(velocity, valid, valid[1:])
        ]
        self.velocity.extend(velocity)
        self.label.extend(label)

    def _medians(self, lo: int, hi: int) -> list[float]:
        """Despiked pupils of column positions [lo, hi), NaN on blinks.

        Each is the median of the valid raw pupils within half a median
        width, cut at the track's start. The sorted neighbourhoods come
        from shifted slices of the raw pupils; only those that hold a
        blink (a NaN) or reach before the track's start are computed
        again, from their valid pupils alone.
        """
        half, raw, valid = self.half, self.raw_pupil, self.valid
        head = range(lo, min(max(lo, half), hi))
        shifted = [raw[head.stop - half + j:hi - half + j] for j in range(2 * half + 1)]
        medians = [math.nan] * len(head)
        medians.extend(map(itemgetter(half), map(sorted, zip(*shifted))))
        near_blinks = (
            k
            for run in _BLINKS.finditer(valid, head.stop - half, hi + half)
            for k in range(max(run.start() - half, head.stop), min(run.end() + half, hi))
        )
        base, end = self.base, self.base + len(valid)
        for k in (*head, *near_blinks):
            medians[k - lo] = self._median(base + k, base, end) if valid[k] else math.nan
        return medians

    def _median(self, i: int, lo: int, hi: int) -> float:
        """Median of the valid raw pupils around sample i, within [lo, hi)."""
        valid, raw, base = self.valid, self.raw_pupil, self.base
        a, b = max(lo, i - self.half) - base, min(hi, i + self.half + 1) - base
        return median(compress(raw[a:b], valid[a:b]))

    def despiked_pupils(self, lo: int, hi: int) -> tuple[Iterator[float], int]:
        """The despiked pupils of the valid samples in [lo, hi), in order,
        read straight off the track, and their count.

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
        pupils = chain(head, compress(self.pupil[a:b], valid[a:b]), tail)
        return pupils, valid.count(1, lo - base, hi - base)

    def velocities(self, lo: int, hi: int) -> tuple[Iterator[float], int]:
        """Velocities of the labelled pairs inside [lo, hi), in order,
        read straight off the track, and their count."""
        a, b, label = lo + 1 - self.base, hi - self.base, self.label
        return compress(self.velocity[a:b], label[a:b]), b - a - label.count(NO_LABEL, a, b)

    def blink_count(self, lo: int, hi: int) -> int:
        """Blink runs inside [lo, hi); a run cut by a window edge counts."""
        valid = self.valid[lo - self.base:hi - self.base]
        return valid.count(b"\x01\x00") + valid.startswith(b"\x00")

    def quality(self, lo: int, hi: int) -> float:
        """Mean source confidence of the samples in [lo, hi)."""
        return fmean(self.confidence[lo - self.base:hi - self.base])

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
        base, times, label = self.base, self.times, self.label
        fixations: list[tuple[Timestamp, Timestamp]] = []
        saccades: list[tuple[Timestamp, Timestamp]] = []
        # a run of pairs p..q spans the samples p-1..q
        for run in _RUNS.finditer(label, lo + 1 - base, hi - base):
            start = times[run.start() - 1]
            end = times[run.end() - 1]
            if label[run.start()] == SACCADE:
                saccades.append((start, end))
            elif end - start >= min_fixation_duration_s:
                fixations.append((start, end))
        return fixations, saccades


def window_gaze_features(
    window: Window,
    track: GazeTrack,
    min_fixation_duration_s: float,
) -> Extraction:
    """Aggregate one gaze window from its slice [lo, hi) of the track.

    Channels, in this order: mean despiked pupil, mean fixation duration
    (each only when the window has one), fixation count, mean velocity
    (when a pair has one) and blink rate. Every channel carries the
    window quality, the mean source confidence; the pupil's is scaled by
    the fraction of samples with a valid pupil. Values stay in physical
    units; baseline normalization happens in state inference. A window
    with fewer than two samples has no channels and quality zero. The
    extras carry the saccade count.
    """
    lo, hi = window.lo, window.hi
    if hi - lo < 2:
        return 0.0, [], {"saccade_count": 0}

    track.advance(lo, window.samples)
    fixations, saccades = track.segment(lo, hi, min_fixation_duration_s)
    velocities, velocity_count = track.velocities(lo, hi)
    pupils, pupil_count = track.despiked_pupils(lo, hi)
    quality, end, duration = track.quality(lo, hi), window.end, window.duration_s
    features: list[ChannelFeature] = []
    if pupil_count:
        pupil_quality = quality * (pupil_count / (hi - lo))
        features.append(ChannelFeature(CHANNEL_PUPIL, fmean(pupils, pupil_count), pupil_quality, end))
    if fixations:
        mean_duration = fmean([stop - start for start, stop in fixations])
        features.append(ChannelFeature(CHANNEL_FIXATION_DURATION, mean_duration, quality, end))
    features.append(ChannelFeature(CHANNEL_FIXATION_COUNT, float(len(fixations)), quality, end))
    if velocity_count:
        features.append(ChannelFeature(CHANNEL_GAZE_VELOCITY, fmean(velocities, velocity_count), quality, end))
    blink_rate = track.blink_count(lo, hi) / duration * 60.0 if duration > 0 else 0.0
    features.append(ChannelFeature(CHANNEL_BLINK_RATE, blink_rate, quality, end))
    return quality, features, {"saccade_count": len(saccades)}
