import random

import pytest

from cogloop.model import StreamDescriptor, StreamKind
from cogloop.streams import IngestOutcome, StreamMerger, estimate_offset, grid_time


def _merger(jitter=0.25, streams=("hr",)):
    merger = StreamMerger(jitter_tolerance_s=jitter)
    for stream_id in streams:
        merger.register_stream(StreamDescriptor(stream_id, StreamKind.RR_INTERVAL, 1.0))
    return merger


def _ingest(merger, t, stream="hr", source_confidence=1.0):
    """Ingest a beat stamped ``t`` by its producer."""
    registration = merger.registrations[stream]
    session_t = t + registration.clock_offset_s
    return merger.ingest(registration, session_t, 800.0, source_confidence)


def test_estimate_offset_is_the_median():
    marks = [(0.0, 5.0), (10.0, 15.0), (20.0, 100.0)]
    assert estimate_offset(marks) == 5.0


def test_offset_applies_to_later_ingests_only():
    merger = _merger(streams=("hr",))
    _ingest(merger, 10.0)
    merger.registrations["hr"].set_offset([(0.0, 2.0), (1.0, 3.0)])
    _ingest(merger, 10.0)
    merger.flush()
    times = [e.timestamp for e in merger.timeline(StreamKind.RR_INTERVAL)]
    assert times == [10.0, 12.0]


def test_ingest_stamps_session_time_and_sequence():
    merger = _merger(jitter=0.0)
    merger.registrations["hr"].set_offset([(0.0, 2.0), (1.0, 3.0)])
    assert 10.0 + merger.registrations["hr"].clock_offset_s == 12.0
    _ingest(merger, 10.0, source_confidence=0.5)
    _ingest(merger, 11.0)
    merger.flush()
    assert [(e.timestamp, e.source_confidence) for e in merger.timeline(StreamKind.RR_INTERVAL)] == [
        (12.0, 0.5),
        (13.0, 1.0),
    ]


def test_within_jitter_arrivals_are_reordered_not_dropped():
    merger = _merger()
    assert _ingest(merger, 1.0) is IngestOutcome.ACCEPTED
    assert _ingest(merger, 0.9) is IngestOutcome.REORDERED
    merger.flush()
    assert [e.timestamp for e in merger.timeline(StreamKind.RR_INTERVAL)] == [0.9, 1.0]
    assert merger.registrations["hr"].reordered == 1
    assert merger.registrations["hr"].dropped == 0


def test_arrival_behind_the_frontier_is_dropped():
    merger = _merger(jitter=0.25)
    _ingest(merger, 0.0)
    _ingest(merger, 10.0)
    _ingest(merger, 10.5)  # the watermark is 10.25
    assert _ingest(merger, 0.5) is IngestOutcome.DROPPED_LATE
    merger.flush()
    assert [e.timestamp for e in merger.timeline(StreamKind.RR_INTERVAL)] == [0.0, 10.0, 10.5]
    assert merger.registrations["hr"].dropped == 1


def test_arrival_below_the_watermark_is_dropped_and_one_at_it_is_placed():
    # the watermark is the newest time seen less the jitter tolerance
    merger = _merger(jitter=0.25)
    _ingest(merger, 0.0)
    _ingest(merger, 10.0)  # the watermark is 9.75
    assert _ingest(merger, 0.5) is IngestOutcome.DROPPED_LATE
    assert _ingest(merger, 9.7) is IngestOutcome.DROPPED_LATE
    assert _ingest(merger, 9.75) is IngestOutcome.REORDERED
    merger.flush()
    assert [e.timestamp for e in merger.timeline(StreamKind.RR_INTERVAL)] == [0.0, 9.75, 10.0]
    registration = merger.registrations["hr"]
    assert (registration.accepted, registration.reordered, registration.dropped) == (2, 1, 2)


def test_duplicate_timestamp_same_stream_is_kept():
    # a sample lands after those of its time already placed
    merger = _merger(jitter=0.0)
    _ingest(merger, 1.0)
    _ingest(merger, 2.0)
    assert _ingest(merger, 2.0) is IngestOutcome.ACCEPTED
    merger.flush()
    assert [e.timestamp for e in merger.timeline(StreamKind.RR_INTERVAL)] == [1.0, 2.0, 2.0]


def test_watermark_tracks_max_seen_minus_jitter_until_flush():
    merger = _merger(jitter=0.25)
    assert merger.watermark == float("-inf")
    _ingest(merger, 5.0)
    assert merger.watermark == pytest.approx(4.75)
    merger.flush()
    assert merger.watermark == 5.0


def test_emitted_matches_offline_sort_of_survivors():
    # three streams of three kinds, each in time order on its own clock,
    # arriving up to 0.7 s late on a 0.1 s grid; halfway, a sync moves
    # stream a's clock 0.4 s back, so its next samples land among its
    # placed ones
    rng = random.Random(2024)
    merger = StreamMerger(jitter_tolerance_s=0.5)
    kinds = {"a": StreamKind.RR_INTERVAL, "b": StreamKind.POSTURE_LANDMARKS, "c": StreamKind.NOTE_SCORE}
    for stream_id, kind in kinds.items():
        merger.register_stream(StreamDescriptor(stream_id, kind, 1.0))
    last = dict.fromkeys(kinds, 0.0)
    kept = {stream_id: [] for stream_id in kinds}
    t = 1.0
    for i in range(600):
        if i == 300:
            merger.registrations["a"].set_offset([(0.0, -0.4), (1.0, 0.6)])
        t += rng.uniform(0.0, 0.1)
        stream_id = rng.choice("abc")
        producer_t = last[stream_id] = max(last[stream_id], round(t - rng.uniform(0.0, 0.7), 1))
        registration = merger.registrations[stream_id]
        session_t = producer_t + registration.clock_offset_s
        if merger.ingest(registration, session_t, float(i)) is not IngestOutcome.DROPPED_LATE:
            kept[stream_id].append((session_t, float(i)))
    merger.flush()
    # the sort key's second part is the arrival index: samples of one
    # time stay in arrival order, as a stable sort by time keeps them
    assert kept["a"] != sorted(kept["a"])
    for stream_id, kind in kinds.items():
        placed = [(e.timestamp, e.payload) for e in merger.timeline(kind)]
        assert placed == sorted(kept[stream_id])


def test_a_tie_lands_after_the_sample_already_placed():
    merger = _merger(jitter=2.0)
    for t, source_confidence in [(1.0, 0.1), (2.0, 0.2), (1.0, 0.3)]:
        _ingest(merger, t, source_confidence=source_confidence)
    merger.flush()
    assert [(e.timestamp, e.source_confidence) for e in merger.timeline(StreamKind.RR_INTERVAL)] == [
        (1.0, 0.1),
        (1.0, 0.3),
        (2.0, 0.2),
    ]


def test_window_decomposition_length4_hop2():
    merger = _merger(jitter=0.0)
    for t in [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]:
        _ingest(merger, t)
    merger.flush()
    windows = merger.pop_windows(StreamKind.RR_INTERVAL, length_s=4.0, hop_s=2.0)
    assert [(w.start, w.end) for w in windows] == [(0.0, 4.0), (2.0, 6.0), (4.0, 8.0)]
    # half-open: start included, end excluded
    assert [e.timestamp for e in windows[0].samples] == [0.0, 1.0, 2.0, 3.0]
    assert [e.timestamp for e in windows[2].samples] == [4.0, 5.0, 6.0, 7.0]


def test_grid_times_come_from_indices_not_a_running_sum():
    # 3 * 0.3 is 0.8999999999999999 in floats; the grid says 0.9
    assert [grid_time(k, 0.3) for k in range(4)] == [0.0, 0.3, 0.6, 0.9]
    # a decision tick and a window end at the same time are the same float
    for k in range(3000):
        assert grid_time(k + 200, 0.3, 60.0) == grid_time(k + 400, 0.3)
        assert grid_time(k, 0.3, 300.0) == grid_time(k + 800, 0.3, 60.0)


def test_windows_need_watermark_past_their_end():
    merger = _merger(jitter=0.0)
    for t in [0.0, 2.5, 5.0, 7.5, 9.9]:
        _ingest(merger, t)
    merger.flush()
    windows = merger.pop_windows(StreamKind.RR_INTERVAL, length_s=5.0, hop_s=5.0)
    assert [(w.start, w.end) for w in windows] == [(0.0, 5.0)]

    merger2 = _merger(jitter=0.0)
    for t in [0.0, 2.5, 5.0, 7.5, 10.0]:
        _ingest(merger2, t)
    merger2.flush()
    windows2 = merger2.pop_windows(StreamKind.RR_INTERVAL, length_s=5.0, hop_s=5.0)
    assert [(w.start, w.end) for w in windows2] == [(0.0, 5.0), (5.0, 10.0)]


def test_pop_windows_continues_where_it_stopped():
    merger = _merger(jitter=0.0)
    for t in [0.0, 1.0, 2.0, 3.0]:
        _ingest(merger, t)
    first = merger.pop_windows(StreamKind.RR_INTERVAL, length_s=2.0, hop_s=1.0)
    for t in [4.0, 5.0]:
        _ingest(merger, t)
    merger.flush()
    second = merger.pop_windows(StreamKind.RR_INTERVAL, length_s=2.0, hop_s=1.0)
    starts = [w.start for w in first] + [w.start for w in second]
    assert starts == sorted(set(starts))
    assert starts == [0.0, 1.0, 2.0, 3.0]


def test_every_sample_lands_in_the_right_windows():
    rng = random.Random(5)
    merger = _merger(jitter=0.0)
    times = sorted(round(rng.uniform(0, 20), 3) for _ in range(100))
    for t in times:
        _ingest(merger, t)
    merger.flush()
    windows = merger.pop_windows(StreamKind.RR_INTERVAL, length_s=4.0, hop_s=2.0)
    for window in windows:
        expected = [t for t in times if window.start <= t < window.end]
        assert [e.timestamp for e in window.samples] == expected
