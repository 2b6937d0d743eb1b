"""Multi-stream alignment: clock offsets, late-sample dropping, windowing.

Samples from independent producers are shifted onto the session clock
by their stream's offset, and each kept sample goes straight onto its
stream's timeline, in session-time order; samples of equal time keep
their arrival order. A scenario declares at most one stream per kind,
so a stream's timeline is its kind's. A stream's registration is the
one place that sets its clock offset (``set_offset``; a session time is
the producer time plus ``clock_offset_s``, which ``Session.place``
adds) and keeps its counts and its timeline, and the merger the one
place that builds an envelope. The watermark, the newest time seen less
``jitter_tolerance_s``, absorbs cross-stream jitter: a sample at or
after it is placed; one stamped before it is late, and is dropped and
counted.

The watermark is the one finality rule: a window is final once the
watermark has reached its end, because no later sample can land before
the watermark. Each kind's timeline forgets the envelopes that start
before its next window, so it holds about one window of samples, however
long the session; window positions count from the start of the timeline.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from .model import Payload, SampleEnvelope, StreamDescriptor, StreamKind, Timestamp
from .stats import median


class IngestOutcome(str, Enum):
    ACCEPTED = "accepted"
    REORDERED = "reordered"
    DROPPED_LATE = "dropped_late"


# Reading a member off an enum class goes through the enum metaclass's
# attribute hook, several times slower than reading a global; the
# per-sample path reads this one.
ACCEPTED = IngestOutcome.ACCEPTED


class Window(NamedTuple):
    """Half-open slice [start, end) of one channel's timeline.

    ``samples`` sit at positions [lo, hi) of the channel timeline,
    counted from its first envelope ever, so per-sample quantities
    computed once per position can be sliced by those indices.
    """

    start: Timestamp
    end: Timestamp
    samples: tuple[SampleEnvelope, ...]
    lo: int = 0

    @property
    def hi(self) -> int:
        return self.lo + len(self.samples)

    @property
    def duration_s(self) -> float:
        return self.end - self.start


def estimate_offset(marks: list[tuple[Timestamp, Timestamp]]) -> float:
    """Median clock offset from (producer_time, session_time) pairs.

    The median keeps a single outlier mark from skewing the estimate.
    The parser sees to it that a sync record has at least two marks.
    """
    return median(session_t - producer_t for producer_t, session_t in marks)


def grid_time(index: int, hop_s: float, offset_s: float = 0.0) -> Timestamp:
    """Time of step ``index`` on the hop grid that starts at ``offset_s``.

    Window bounds and decision ticks both come from here, from integer
    indices rather than a running sum, rounded to the nanosecond: a tick
    and a window end that are the same time are then the same float.
    """
    return round(offset_s + index * hop_s, 9)


_timestamp = attrgetter("timestamp")


class StreamRegistration:
    """The one stream of a kind: its clock offset, its ingest counts, the
    earliest and latest session times of its placed envelopes, and its
    timeline, the placed envelopes from position ``base`` on (the ones
    before it lie before every window still to be cut)."""

    __slots__ = ("samples", "base", "next_window_index", "clock_offset_s", "ingested", "reordered", "dropped",
                 "first_t", "last_t")

    def __init__(self):
        self.samples: list[SampleEnvelope] = []
        self.base = 0
        self.next_window_index = 0
        self.clock_offset_s = 0.0
        self.ingested = 0
        self.reordered = 0
        self.dropped = 0
        self.first_t: Timestamp | None = None
        self.last_t: Timestamp | None = None

    @property
    def accepted(self) -> int:
        return self.ingested - self.reordered - self.dropped

    def set_offset(self, marks: list[tuple[Timestamp, Timestamp]]) -> float:
        """Estimate and install the stream's clock offset from sync marks.

        Applies to samples ingested afterwards; earlier ones keep the
        correction they were placed with.
        """
        self.clock_offset_s = estimate_offset(marks)
        return self.clock_offset_s


class StreamMerger:
    """Places envelopes from all registered streams on their kinds'
    timelines and keeps the watermark.

    Its inputs are checked where they come in: the parser gives each
    stream its own id and each kind at most one stream, and
    ``config.validate_config`` a non-negative jitter tolerance and a
    window hop in (0, length]. Each kind has its registration from the
    start, so a kind that no stream declares still has its (empty)
    windows cut.
    """

    def __init__(self, jitter_tolerance_s: float):
        self.jitter_tolerance_s = jitter_tolerance_s
        self.registrations: dict[str, StreamRegistration] = {}
        self._max_seen_t = -math.inf
        # largest time up to which every timeline is final
        self.watermark = -math.inf
        self._by_kind = {kind: StreamRegistration() for kind in StreamKind}

    def register_stream(self, descriptor: StreamDescriptor) -> StreamRegistration:
        """The registration of the stream's kind, now under its id."""
        registration = self.registrations[descriptor.stream_id] = self._by_kind[descriptor.kind]
        return registration

    def ingest(
        self,
        registration: StreamRegistration,
        session_t: Timestamp,
        payload: Payload,
        source_confidence: float = 1.0,
    ) -> IngestOutcome:
        """Place one sample of a registered stream on its kind's timeline at
        ``session_t``, its producer time plus the stream's
        ``clock_offset_s``.

        The caller owns the checks: the parser checks the sample and its
        source confidence, ``Session.push`` that ``session_t`` lies on
        the session span.
        """
        registration.ingested += 1

        if session_t < self.watermark:
            registration.dropped += 1
            return IngestOutcome.DROPPED_LATE

        if session_t < self._max_seen_t:
            outcome = IngestOutcome.REORDERED
            registration.reordered += 1
        else:
            outcome = ACCEPTED
            self._max_seen_t = session_t
            self.watermark = session_t - self.jitter_tolerance_s
        envelope = SampleEnvelope(session_t, payload, source_confidence)
        samples = registration.samples
        if not samples or samples[-1].timestamp <= session_t:
            samples.append(envelope)
            # no placed envelope of the stream is later: those the
            # timeline forgot lie before the watermark
            if registration.first_t is None:
                registration.first_t = session_t
            registration.last_t = session_t
        else:
            # in a scenario, only after a sync moves the stream's clock
            # back: the sample lands after those of its time placed, and
            # before the stream's last, so only first_t can move
            samples.insert(bisect_right(samples, session_t, key=_timestamp), envelope)
            registration.first_t = min(registration.first_t, session_t)
        return outcome

    def flush(self) -> None:
        """Make everything placed final; call once at end of input."""
        self.watermark = self._max_seen_t

    def timeline(self, kind: StreamKind) -> list[SampleEnvelope]:
        """The placed envelopes of one channel that no cut window has
        left behind, in session-time order."""
        return self._by_kind[kind].samples

    def next_window_end(self, kind: StreamKind, length_s: float, hop_s: float) -> Timestamp:
        """End of the channel's next window to cut: the watermark that
        makes it final."""
        return grid_time(self._by_kind[kind].next_window_index, hop_s, length_s)

    def pop_windows(self, kind: StreamKind, length_s: float, hop_s: float) -> list[Window]:
        """Return every final window of a channel not returned before.

        Windows are [k*hop, k*hop + length) anchored at the session
        origin, their bounds from ``grid_time``; a window is final once
        the watermark has reached its end. Repeated calls continue where
        the previous one stopped, and the envelopes before the next
        window's start leave the timeline.
        """
        registration = self._by_kind[kind]
        samples, base = registration.samples, registration.base
        watermark = self.watermark
        windows: list[Window] = []
        k = registration.next_window_index
        while (end := grid_time(k, hop_s, length_s)) <= watermark:
            start = grid_time(k, hop_s)
            lo = bisect_left(samples, start, key=_timestamp)
            hi = bisect_left(samples, end, lo, key=_timestamp)
            windows.append(Window(start=start, end=end, samples=tuple(samples[lo:hi]), lo=base + lo))
            k += 1
        if windows:
            registration.next_window_index = k
            gone = bisect_left(samples, grid_time(k, hop_s), key=_timestamp)
            del samples[:gone]
            registration.base = base + gone
        return windows
