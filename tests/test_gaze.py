import math
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogloop.gaze import GazeTrack, window_gaze_features
from cogloop.model import GazeSample, SampleEnvelope, StreamDescriptor, StreamKind
from cogloop.state import (
    CHANNEL_BLINK_RATE,
    CHANNEL_FIXATION_COUNT,
    CHANNEL_FIXATION_DURATION,
    CHANNEL_GAZE_VELOCITY,
    CHANNEL_PUPIL,
    ChannelFeature,
)
from cogloop.streams import StreamMerger, Window


def _gaze_env(t, x=0.5, y=0.5, pupil=3.0, conf=0.9, source_conf=1.0):
    return SampleEnvelope(
        timestamp=t,
        payload=GazeSample(x=x, y=y, pupil_diameter_mm=pupil, confidence=conf),
        source_confidence=source_conf,
    )


def _track(samples, median_width=5, threshold=1.0):
    """A track advanced over all of ``samples``."""
    track = GazeTrack(median_width=median_width, velocity_threshold=threshold)
    track.advance(0, samples)
    return track


def _despiked(pupils, median_width, confs=None):
    samples = [
        _gaze_env(i * 0.1, pupil=p, conf=0.9 if confs is None else confs[i])
        for i, p in enumerate(pupils)
    ]
    track = _track(samples, median_width)
    return track, track.despiked_pupils(0, len(samples))


# ---------------------------------------------------------------------------
# despiking

def test_median_filter_flattens_a_spike():
    _, pupils = _despiked([3.0, 3.0, 9.0, 3.0, 3.0], median_width=3)
    assert pupils == [3.0] * 5


def test_despike_preserves_length_and_order():
    rng = random.Random(1)
    raw = [rng.uniform(2, 5) for _ in range(50)]
    _, pupils = _despiked(raw, median_width=5)
    assert len(pupils) == 50
    # each value is the median of its own centered neighbourhood
    assert pupils == [statistics.median(raw[max(0, i - 2):i + 3]) for i in range(50)]


def test_blink_samples_stay_absent_and_are_excluded_from_windows():
    track, pupils = _despiked([3.0, None, 9.0, 9.0], median_width=3)
    assert track.valid == bytearray([1, 0, 1, 1])
    # the blink gets no pupil; index 2 sees only non-blink neighbors
    # {9.0, 9.0}; index 0's shrunken window is {3.0} alone
    assert pupils == [3.0, 9.0, 9.0]


def test_low_confidence_counts_as_blink_even_with_pupil_value():
    track, pupils = _despiked([3.0, 3.0, 3.0], median_width=3, confs=[0.9, 0.1, 0.9])
    assert track.valid == bytearray([1, 0, 1])
    assert len(pupils) == 2


def test_blink_runs_become_single_events():
    track, _ = _despiked([3.0, None, None, 3.0, 3.0, None, 3.0], median_width=3)
    assert track.blink_count(0, 7) == 2
    # a run cut by a window edge still counts, once
    assert track.blink_count(2, 7) == 2
    assert track.blink_count(3, 5) == 0


# ---------------------------------------------------------------------------
# velocity

def test_velocity_worked_example():
    track = _track([_gaze_env(0.0, x=0.1, y=0.2), _gaze_env(0.1, x=0.4, y=0.6)])
    # step hypot(0.3, 0.4) = 0.5 over 0.1s
    assert track.velocities(0, 2) == [pytest.approx(5.0)]


def test_velocity_translation_invariance():
    rng = random.Random(3)
    for _ in range(100):
        x, y = rng.random() * 0.5, rng.random() * 0.5
        dx, dy, dt = rng.random() * 0.3, rng.random() * 0.3, rng.uniform(0.01, 0.2)
        ox, oy = rng.random() * 0.2, rng.random() * 0.2
        v1 = _track([_gaze_env(0.0, x=x, y=y), _gaze_env(dt, x=x + dx, y=y + dy)]).velocities(0, 2)
        v2 = _track(
            [_gaze_env(0.0, x=x + ox, y=y + oy), _gaze_env(dt, x=x + ox + dx, y=y + oy + dy)]
        ).velocities(0, 2)
        assert v1 == [pytest.approx(v2[0], rel=1e-12)]


# ---------------------------------------------------------------------------
# fixation detection against an independent pair-label oracle

def _oracle_events(samples, threshold, min_duration):
    """Straightforward re-derivation: label pairs, group equal labels,
    blink-adjacent pairs split groups."""
    labels = []
    for prev, cur in zip(samples, samples[1:]):
        if prev.payload.pupil_diameter_mm is None or cur.payload.pupil_diameter_mm is None:
            labels.append(None)
        else:
            dx, dy = cur.payload.x - prev.payload.x, cur.payload.y - prev.payload.y
            v = math.hypot(dx, dy) / (cur.timestamp - prev.timestamp)
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
        members = samples[i:j + 2]
        span = (members[0].timestamp, members[-1].timestamp)
        if labels[i] == "fix":
            if span[1] - span[0] >= min_duration:
                fixations.append(span)
        else:
            saccades.append(span)
        i = j + 1
    return fixations, saccades


def _random_trace(rng, n):
    samples = []
    t = 0.0
    x, y = 0.5, 0.5
    for _ in range(n):
        t += rng.uniform(0.01, 0.03)
        roll = rng.random()
        if roll < 0.08:
            samples.append(_gaze_env(t, x=x, y=y, pupil=None, conf=0.05))
            continue
        if roll < 0.25:  # jump
            x = min(1.0, max(0.0, x + rng.uniform(-0.4, 0.4)))
            y = min(1.0, max(0.0, y + rng.uniform(-0.4, 0.4)))
        else:  # drift
            x = min(1.0, max(0.0, x + rng.uniform(-0.005, 0.005)))
            y = min(1.0, max(0.0, y + rng.uniform(-0.005, 0.005)))
        samples.append(_gaze_env(t, x=x, y=y, pupil=3.0, conf=0.95))
    return samples


def test_fixation_events_match_oracle_on_fuzzed_traces():
    rng = random.Random(1234)
    threshold, min_dur = 1.0, 0.1
    for _ in range(500):
        samples = _random_trace(rng, rng.randrange(2, 120))
        n = len(samples)
        assert _track(samples, threshold=threshold).segment(0, n, min_dur) == _oracle_events(
            samples, threshold, min_dur
        )


def test_stationary_trace_is_one_fixation():
    samples = [_gaze_env(i * 0.02) for i in range(100)]
    fixations, saccades = _track(samples).segment(0, 100, 0.1)
    assert fixations == [(samples[0].timestamp, samples[-1].timestamp)]
    assert saccades == []


def test_two_dwells_share_the_saccade_boundary_samples():
    dwell1 = [_gaze_env(i * 0.02, x=0.2, y=0.2) for i in range(10)]
    dwell2 = [_gaze_env(0.3 + i * 0.02, x=0.8, y=0.8) for i in range(10)]
    fixations, saccades = _track(dwell1 + dwell2).segment(0, 20, 0.1)
    assert len(fixations) == 2
    assert len(saccades) == 1
    # the saccade spans from the last sample of dwell1 to the first of dwell2
    assert saccades[0] == (fixations[0][1], fixations[1][0])


def test_fixations_shorter_than_minimum_are_dropped():
    samples = [_gaze_env(t) for t in (0.0, 0.02, 0.04)]
    fixations, _ = _track(samples).segment(0, 3, min_fixation_duration_s=0.1)
    assert fixations == []
    fixations, _ = _track(samples).segment(0, 3, min_fixation_duration_s=0.04)
    assert len(fixations) == 1


def test_detect_needs_two_samples():
    # one sample holds no pair, hence no event
    assert _track([_gaze_env(0.0)]).segment(0, 1, 0.1) == ([], [])


# ---------------------------------------------------------------------------
# window aggregation

def _features(samples, start=0.0, end=10.0):
    """(window quality, {channel: feature}, extras) of one window."""
    quality, features, extras = window_gaze_features(
        Window(start=start, end=end, samples=tuple(samples)), GazeTrack(median_width=5, velocity_threshold=1.0), 0.1
    )
    return quality, {f.channel_id: f for f in features}, extras


def test_window_features_absent_below_two_samples():
    quality, features, extras = _features([_gaze_env(1.0)])
    assert not features
    assert quality == 0.0
    assert extras == {"saccade_count": 0}


def test_window_features_blink_rate_and_pupil():
    samples = [_gaze_env(i * 0.1, pupil=(None if i in (3, 4) else 3.0)) for i in range(20)]
    quality, features, _ = _features(samples, end=10.0)
    assert features
    # one blink run in a 10s window -> 6 per minute
    assert features[CHANNEL_BLINK_RATE].value == pytest.approx(6.0)
    assert features[CHANNEL_PUPIL].value == pytest.approx(3.0)
    # the pupil's quality is the window's times the valid-pupil fraction
    assert features[CHANNEL_PUPIL].quality == pytest.approx(quality * 18 / 20)


def test_window_quality_is_mean_source_confidence():
    quality, features, _ = _features([_gaze_env(0.0, source_conf=1.0), _gaze_env(0.1, source_conf=0.5)])
    assert quality == pytest.approx(0.75)
    assert features[CHANNEL_BLINK_RATE].quality == quality


# ---------------------------------------------------------------------------
# the track against the per-window computation it replaced
#
# The oracle despikes the window's own samples, labels and segments
# their pairs, and aggregates, all from scratch for every window.

def _oracle_window(window, median_width, threshold, min_fixation_duration_s):
    samples = window.samples
    if len(samples) < 2:
        return 0.0, [], {"saccade_count": 0}
    n = len(samples)
    times = [env.timestamp for env in samples]
    gaze = [env.payload for env in samples]
    blink = [
        g.pupil_diameter_mm is None or g.pupil_diameter_mm <= 0 or g.confidence < 0.2 for g in gaze
    ]
    half = median_width // 2
    pupils = [
        statistics.median(
            [gaze[j].pupil_diameter_mm for j in range(max(0, i - half), min(n, i + half + 1)) if not blink[j]]
        )
        for i in range(n)
        if not blink[i]
    ]
    velocities = []
    for i in range(1, n):
        if blink[i - 1] or blink[i]:
            velocities.append(None)
            continue
        dt = times[i] - times[i - 1]
        velocities.append(math.hypot(gaze[i].x - gaze[i - 1].x, gaze[i].y - gaze[i - 1].y) / dt)

    fixations, saccades = [], 0
    run_label, run_first = None, 0
    for i, velocity in enumerate(velocities + [None], start=1):
        label = None if velocity is None else velocity < threshold
        if label != run_label:
            if run_label is True and times[i - 1] - times[run_first] >= min_fixation_duration_s:
                fixations.append(times[i - 1] - times[run_first])
            elif run_label is False:
                saccades += 1
            run_label, run_first = label, i - 1

    blinks = sum(1 for i in range(n) if blink[i] and (i == 0 or not blink[i - 1]))
    moving = [v for v in velocities if v is not None]
    duration = window.end - window.start
    quality = statistics.fmean(env.source_confidence for env in samples)
    channels = [
        (CHANNEL_PUPIL, statistics.fmean(pupils) if pupils else None, quality * (len(pupils) / n)),
        (CHANNEL_FIXATION_DURATION, statistics.fmean(fixations) if fixations else None, quality),
        (CHANNEL_FIXATION_COUNT, float(len(fixations)), quality),
        (CHANNEL_GAZE_VELOCITY, statistics.fmean(moving) if moving else None, quality),
        (CHANNEL_BLINK_RATE, blinks / duration * 60.0 if duration > 0 else 0.0, quality),
    ]
    features = [
        ChannelFeature(channel, value, channel_quality, window.end)
        for channel, value, channel_quality in channels
        if value is not None
    ]
    return quality, features, {"saccade_count": saccades}


_GAZE_SAMPLE = st.tuples(
    # time step, always positive, as the session places gaze samples; a
    # step of 1/16 s between x = 0.5 and 0.5625 moves at exactly the
    # velocity threshold, 1.0, while the times stay exact
    st.sampled_from([0.01, 0.016, 0.02, 0.033, 0.05, 0.0625, 0.0625]),
    st.sampled_from([0.2, 0.5, 0.5, 0.501, 0.51, 0.5625, 0.5625, 0.9]),  # repeats make fixations
    st.sampled_from([0.5, 0.5, 0.502, 0.7]),
    # None: eye shut; repeated pupils tie in a median neighbourhood
    st.one_of(st.none(), st.sampled_from([3.0, 3.5]), st.floats(min_value=1.0, max_value=8.0)),
    st.sampled_from([0.1, 0.9, 0.95, 1.0]),  # under 0.2: a blink despite the pupil
    st.sampled_from([0.3, 0.8, 1.0]),
)


def _on_the_threshold(i):
    """Sample i of a trace every 1/16 s whose pairs (4m, 4m+1) step at
    exactly the velocity threshold, with pupils that tie, and whose blink
    runs (4m+2, 4m+3) end on the first sample of each 1/8 s-hop window."""
    blink = i % 4 in (2, 3)
    return 0.0625, 0.5 + 0.0625 * (i % 2), 0.5, None if blink else (3.0, 3.0, 3.5, 4.0)[i % 8 // 2], 0.9, 1.0


def _gaze_timeline(steps):
    t, samples = 0.0, []
    for dt, x, y, pupil, conf, source_conf in steps:
        t += dt
        samples.append(_gaze_env(t, x=x, y=y, pupil=pupil, conf=conf, source_conf=source_conf))
    return samples


def _merged_windows(samples, length, hop):
    merger = StreamMerger(jitter_tolerance_s=0.0)
    gaze = merger.register_stream(StreamDescriptor(stream_id="gaze", kind=StreamKind.PUPIL_GAZE, nominal_rate_hz=60))
    for env in samples:
        merger.ingest(gaze, env.timestamp, env.payload, env.source_confidence)
    merger.flush()
    return merger.pop_windows(StreamKind.PUPIL_GAZE, length, hop)


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(_GAZE_SAMPLE, max_size=80),
    length=st.sampled_from([0.05, 0.1, 0.25, 0.4, 1.0]),
    hop_share=st.sampled_from([0.3, 0.45, 0.5, 0.7, 1.0]),
    median_width=st.sampled_from([3, 5, 7]),
    min_fixation=st.sampled_from([0.0, 0.02, 0.1]),
)
# blink runs across window edges, windows shorter than the median width
# and a hop that does not divide the length
@example(
    steps=[(0.02, 0.5, 0.5, None if i % 7 in (2, 3, 4) else 3.0 + i % 3, 0.9, 1.0) for i in range(60)],
    length=0.1, hop_share=0.3, median_width=7, min_fixation=0.02,
)
@example(steps=[_on_the_threshold(i) for i in range(40)], length=0.25, hop_share=0.5, median_width=3, min_fixation=0.0)
@example(steps=[_on_the_threshold(i) for i in range(40)], length=0.25, hop_share=0.5, median_width=5, min_fixation=0.0)
def test_window_features_equal_the_per_window_computation(steps, length, hop_share, median_width, min_fixation):
    windows = _merged_windows(_gaze_timeline(steps), length, length * hop_share)
    track = GazeTrack(median_width=median_width, velocity_threshold=1.0)
    for window in windows:
        want = _oracle_window(window, median_width, 1.0, min_fixation)
        assert window_gaze_features(window, track, min_fixation) == want
