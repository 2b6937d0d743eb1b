"""Posture calibration: hand-made edge cases pinned by digest, and the
memory a replay holds while it calibrates.

A replay cuts posture windows from the start of the session, reads each
frame once, and keeps the landmarks of none: the baseline pose is summed
as the frames go by, and the windows cut before it is known wait for it.
The pins hold the traces of the cases where that order could slip: a
calibration end off the hop grid, a hidden shoulder, a sync that moves
the camera clock back so a frame is inserted behind others, a session
shorter than its calibration, and a calibration with no frame that
shows both shoulders.
"""

import bisect
import hashlib
import json
import math
import statistics
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogloop.behavior import PostureWindows, categorize_posture, score_posture
from cogloop.errors import MissingLandmarksError
from cogloop.model import PostureSample, StreamDescriptor, StreamKind
from cogloop.session import Session, run_session
from cogloop.state import CHANNEL_POSTURE, ChannelFeature
from cogloop.streams import IngestOutcome, StreamMerger
from cogloop.synth import load_profile, synthesize
from cogloop.trace import validate_trace, write_trace

from scenario_lines import parse_scenario_lines

STREAMS = [
    {"stream_id": "cam", "kind": "posture_landmarks", "nominal_rate_hz": 5.0},
    {"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1.25},
    {"stream_id": "notes", "kind": "note_score", "nominal_rate_hz": 0.1},
]


def _landmarks(t):
    """An upright pose that drifts slowly: the shoulder line tilts, the
    ears lean and the hips shift, each on its own period."""
    tilt = 0.012 * math.cos(t / 5.0)
    lean = 0.03 * math.sin(t / 7.0)
    hip = 0.02 * math.sin(t / 11.0)
    points = {
        "shoulder_left": (0.38, 0.50 - tilt),
        "shoulder_right": (0.62, 0.50 + tilt),
        "ear_left": (0.44 + lean, 0.30),
        "ear_right": (0.56 + lean, 0.30),
        "hip_left": (0.42 + hip, 0.88),
        "hip_right": (0.58 + hip, 0.88),
    }
    return {name: [round(x, 4), round(y, 4)] for name, (x, y) in points.items()}


def _scenario_lines(calibration_s, duration_s, frame=None, cam_sync=None, hop=2.0, posture_length=5.0):
    """Frames every 0.2 s, beats every 0.8 s and a note every 10 s up to
    ``duration_s``. ``frame(t, sample)`` edits the frame at producer time
    ``t`` (it may drop landmarks or hide them); ``cam_sync`` is a sync
    line's marks, placed before the first frame after its first mark."""
    header = {
        "type": "header",
        "streams": STREAMS,
        "seed": 5,
        "config": {
            "calibration_duration_s": calibration_s,
            "window_hop_s": hop,
            "jitter_tolerance_s": 1.0,
            "window_length.posture_landmarks": posture_length,
            "window_length.rr_interval": max(10.0, hop),
            "window_length.note_score": max(10.0, hop),
            "baseline_min_samples": 3,
        },
    }
    lines = [json.dumps(header)]
    synced = cam_sync is None
    for i in range(int(round(duration_s / 0.2)) + 1):
        t = round(i * 0.2, 1)
        if not synced and t > cam_sync[0][0]:
            lines.append(json.dumps({"type": "sync", "stream": "cam", "marks": cam_sync}))
            synced = True
        sample = {"type": "sample", "stream": "cam", "t": t, "landmarks": _landmarks(t)}
        if i % 7 == 3:
            sample["source_confidence"] = 0.8
        if frame is not None:
            frame(t, sample)
        lines.append(json.dumps(sample))
        if i % 4 == 0:
            rr = round(800 + 40 * math.sin(t / 3.0) + (120 if 30.0 < t < 50.0 else 0), 1)
            lines.append(json.dumps({"type": "sample", "stream": "heart", "t": t, "rr_ms": rr}))
        if i % 50 == 25:
            correctness = round(0.6 + 0.3 * math.cos(t / 13.0), 3)
            lines.append(json.dumps({"type": "sample", "stream": "notes", "t": t, "correctness": correctness}))
    return lines


def _hide_left_shoulder_at(times):
    def frame(t, sample):
        if t in times:
            sample["visibility"] = {"shoulder_left": 0.2}

    return frame


def _one_shoulder_per_frame(calibration_s, both_in_turn):
    """Before ``calibration_s``, each frame shows one shoulder: it hides
    its left one (visibility 0.2) or lacks a shoulder, the left one, or
    the right one in every other frame when ``both_in_turn``. After it,
    every frame shows both."""
    def frame(t, sample):
        if t < calibration_s:
            if round(t * 5) % 2:
                sample["visibility"] = {"shoulder_left": 0.2, "ear_left": 0.9}
            else:
                del sample["landmarks"]["shoulder_right" if both_in_turn else "shoulder_left"]

    return frame


CASES = {
    # 20.3 s is off the 2 s hop grid: the frames from the last window
    # cut before the freeze up to 20.3 s still count in the baseline
    "off_grid_calibration_end": lambda: _scenario_lines(20.3, 60.0),
    # a calibration frame and two later frames hide their left shoulder
    "hidden_calibration_shoulder": lambda: _scenario_lines(
        20.0, 60.0, frame=_hide_left_shoulder_at({7.4, 31.2, 44.0})
    ),
    # from 14 s the camera clock runs 0.5 s back: its next frames land
    # behind frames already placed, inside the 1 s jitter tolerance
    "cam_clock_moved_back": lambda: _scenario_lines(
        20.0, 60.0, cam_sync=[[14.0, 13.5], [20.0, 19.5]]
    ),
    # the baseline freezes at close, with no tick after it
    "shorter_than_calibration": lambda: _scenario_lines(60.0, 25.0),
    # no baseline pose: no frame is scored, before or after calibration
    "no_calibration_shoulders": lambda: _scenario_lines(
        20.0, 60.0, frame=_one_shoulder_per_frame(20.0, both_in_turn=False)
    ),
    # each shoulder's mean comes from other frames than the other's: the
    # baseline pose shows both, and every calibration frame is skipped
    "shoulders_in_turn": lambda: _scenario_lines(20.0, 60.0, frame=_one_shoulder_per_frame(20.0, both_in_turn=True)),
    # at a 10 s hop the calibration end, 33 s, sits between two posture
    # window ends
    "off_grid_calibration_end_at_a_long_hop": lambda: _scenario_lines(33.0, 80.0, hop=10.0, posture_length=10.0),
}

# case -> sha256 of the trace that write_trace writes for its replay
TRACE_SHA256 = {
    "off_grid_calibration_end": "34395580911985847b39c7de4776d612092421c29174203f9bbbe2127ce67ceb",
    "hidden_calibration_shoulder": "0c47c77fa7713d0b1b4047874a1a7ca615725dd2f480487f8c4e40c329d4411c",
    "cam_clock_moved_back": "8abe2012908ecb0a6c978daba85c13a310c6c303323c6e44d9bd6c4d4e3ff54a",
    "shorter_than_calibration": "542c4cdaadd89ef5a5a2c7ae11497cdc3907f480b349a89250eb402a8121b207",
    "no_calibration_shoulders": "9d32358066a8bd2d2ea17969494c4b07f4097dcd39b8a6ef2e657498f7e2f126",
    "shoulders_in_turn": "30f4c91c03e49cb6dc655a053d92cc993e33b7f43b942bd85e756b64a69e2f2e",
    "off_grid_calibration_end_at_a_long_hop": "bae9e35c9c423a1c491f0cb34465bea0e4454ec7f22e8c14e6e0e8c352b0343c",
}


@pytest.mark.parametrize("name", list(CASES))
def test_a_hand_made_posture_case_matches_its_pinned_trace(tmp_path, name):
    result = run_session(parse_scenario_lines(CASES[name]()))
    path = tmp_path / "trace.jsonl"
    write_trace(result, path)
    assert validate_trace({"config": result.config, "modality": result.header.modality}, result.events) == []
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256[name]


# ---------------------------------------------------------------------------
# memory while calibrating

def test_a_calibrating_replay_holds_one_posture_window_of_frames():
    # mixed_session calibrates for 300 s: 1,500 frames at 5 Hz
    ref = resources.files("cogloop").joinpath("profiles", "mixed_session.json")
    with resources.as_file(ref) as path:
        scenario = synthesize(load_profile(path))
    session = Session(scenario.header)
    cfg = session.config
    rate = next(d.nominal_rate_hz for d in scenario.header.streams if d.kind is StreamKind.POSTURE_LANDMARKS)
    limit = (cfg.window_length_s[StreamKind.POSTURE_LANDMARKS] + cfg.window_hop_s) * rate
    timeline = session._merger.timeline(StreamKind.POSTURE_LANDMARKS)
    held = []
    for record in scenario.records:
        session.push(record)
        if session.baseline is not None:
            break
        held.append(len(timeline))
    assert session.baseline is not None
    assert len(held) > 1500
    assert max(held) <= limit


# ---------------------------------------------------------------------------
# windows held through calibration against the scoring they replaced

def _oracle_mean_pose(poses):
    """The calibration poses' mean, from their landmarks all at once."""
    sums = {}
    for pose in poses:
        for name in pose.landmarks:
            if not pose.point_visible(name):
                continue
            x, y = pose.landmarks[name]
            sx, sy, n = sums.get(name, (0.0, 0.0, 0))
            sums[name] = (sx + x, sy + y, n + 1)
    landmarks = {name: (sx / n, sy / n) for name, (sx, sy, n) in sums.items()}
    if "shoulder_left" not in landmarks or "shoulder_right" not in landmarks:
        return None
    return PostureSample(landmarks=landmarks)


def _oracle_window(window, baseline_pose):
    """Score every frame of the window from scratch, skipping frames
    without both shoulders."""
    scores, confidences, skipped = [], [], 0
    if baseline_pose is not None:
        for envelope in window.samples:
            try:
                scores.append(score_posture(envelope.payload.geometry(), baseline_pose.geometry()))
                confidences.append(envelope.source_confidence)
            except MissingLandmarksError:
                skipped += 1
    if not scores:
        return 0.0, [], {"category": None, "skipped_samples": skipped}
    percent = statistics.fmean(scores)
    quality = statistics.fmean(confidences) * len(scores) / (len(scores) + skipped)
    extras = {"category": categorize_posture(scores[-1]).value, "skipped_samples": skipped}
    return quality, [ChannelFeature(CHANNEL_POSTURE, percent, quality, window.end)], extras


_POSE = {name: tuple(point) for name, point in _landmarks(0.0).items()}

_FRAME = st.tuples(
    st.sampled_from([0.1, 0.25, 0.5, -0.3]),  # time step: a step back is reordered or dropped
    st.floats(min_value=-0.05, max_value=0.05),  # lean
    st.sampled_from([1.0, 1.0, 0.2]),  # left shoulder visibility: 0.2 hides it
    st.sampled_from([True, True, False]),  # right shoulder present
    st.sampled_from([0.3, 1.0]),  # source confidence
)


@settings(max_examples=150, deadline=None)
@given(
    frames=st.lists(_FRAME, max_size=80),
    calibration_s=st.sampled_from([0.5, 2.0, 3.3, 7.0]),
    length=st.sampled_from([1.0, 2.0, 5.0]),
    hop_share=st.sampled_from([0.3, 0.5, 1.0]),
    jitter=st.sampled_from([0.0, 0.4]),
)
def test_posture_windows_held_through_calibration_equal_the_per_window_scoring(
    frames, calibration_s, length, hop_share, jitter
):
    # fed as a session feeds it: windows cut after every ingest, the
    # baseline frozen once the watermark reaches the calibration end
    merger = StreamMerger(jitter_tolerance_s=jitter)
    cam = merger.register_stream(StreamDescriptor("cam", StreamKind.POSTURE_LANDMARKS, 10.0))
    posture = PostureWindows(calibration_s, score_posture)
    hop = length * hop_share
    windows, extracted, placed = [], [], []

    def cut():
        for window in merger.pop_windows(StreamKind.POSTURE_LANDMARKS, length, hop):
            windows.append(window)
            extraction = posture(window)
            if extraction is not None:
                extracted.append(extraction)

    def freeze():
        baseline = posture.mean_pose(merger.timeline(StreamKind.POSTURE_LANDMARKS))
        extracted.extend(extraction for _, _, extraction in posture.freeze(baseline))

    t, frozen = 0.0, False
    for dt, lean, visible, right, source_confidence in frames:
        t = max(0.0, round(t + dt, 2))
        landmarks = dict(_POSE, ear_left=(0.44 + lean, 0.30), ear_right=(0.56 + lean, 0.30))
        if not right:
            del landmarks["shoulder_right"]
        pose = PostureSample(landmarks=landmarks, visibility={"shoulder_left": visible})
        if merger.ingest(cam, t, pose, source_confidence) is not IngestOutcome.DROPPED_LATE:
            # where the merger places it: after the frames of its time
            placed.insert(bisect.bisect_right([time for time, _ in placed], t), (t, pose))
        if not frozen and merger.watermark >= calibration_s:
            freeze()
            frozen = True
        cut()
    merger.flush()
    if not frozen:
        freeze()
    cut()

    baseline_pose = _oracle_mean_pose([pose for time, pose in placed if time < calibration_s])
    assert extracted == [_oracle_window(window, baseline_pose) for window in windows]
