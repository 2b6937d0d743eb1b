"""The synthesizer's column helpers against the scalar expressions they
stand for, bit for bit: ``_rounded`` against ``round(v, digits)`` and
``_clamped`` against ``max(lo, min(hi, v))``; and its column source
against the records it makes: each sink of the source gives what the
record list gives, whatever the chunk length. The scenario digests in
``test_golden.py`` pin what the synthesizer makes."""

import io
import math
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogloop import synth
from cogloop.scenario import Scenario, load_scenario
from cogloop.session import run_session
from cogloop.synth import NOISE_DEFAULTS, _clamped, _rounded, parse_profile, synthesize
from cogloop.trace import write_trace


def _bits(values) -> bytes:
    """The IEEE 754 bytes of each value: tells -0.0 from 0.0."""
    return struct.pack(f"<{len(values)}d", *values)


DIGITS = st.sampled_from([3, 4, 6])

# one regime per column, so that a value off the fast path does not send
# every other value of its column off it too
COLUMNS = st.sampled_from([
    # everyday values, such as coordinates, pupils and times
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0),
    # subnormals and zeros of both signs
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    # binary ties: k / 2**20 is an exact tie at 6 digits when 8192 divides k
    st.integers(-2**30, 2**30).map(lambda k: k / 2**20),
    st.integers(-2**20, 2**20).map(lambda k: k * 8192 / 2**20),
    # decimal ties, which no float holds: the nearest float lies just
    # off one, and its scaled value may round onto it
    st.tuples(st.integers(-10**8, 10**8), st.sampled_from([3, 4, 6])).map(lambda p: (2 * p[0] + 1) / (2 * 10**p[1])),
    # magnitudes at and past the fast path's bound
    st.floats(min_value=1e9, max_value=1e13).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([2.0**51 / 1e6, 2.0**52 / 1e6, 2.0**53 / 1e6, 2.0**51 / 1e3, -(2.0**52) / 1e4]),
    # anything, infinities and NaN included
    st.floats(),
]).flatmap(lambda element: st.lists(element, max_size=40))


@settings(max_examples=2000, deadline=None)
@given(values=COLUMNS, digits=DIGITS)
@example(values=[-1e-9, -0.0, 0.0, 1e-9], digits=6)
@example(values=[0.0078125, 0.0234375], digits=6)  # exact ties: 7812.5 and 23437.5
@example(values=[2.5e-06, 3.5e-06, 0.0005, 0.00015], digits=6)
@example(values=[1.0005, 2.0005, 0.00025], digits=3)
@example(values=[2.0**51 / 1e6 + 0.5, 1.0], digits=6)
@example(values=[-2251799813685.8125], digits=3)  # just past 2**51 once scaled
@example(values=[math.inf, 1.0, -math.inf], digits=6)
@example(values=[1.0, math.nan, 0.25], digits=4)
def test_rounded_is_round_bit_for_bit(values, digits):
    assert _bits(_rounded(values, digits)) == _bits([round(v, digits) for v in values])


def test_rounded_takes_the_fast_path_on_everyday_columns(monkeypatch):
    # the exact rounding above holds whichever path a column takes; this
    # checks that a column of coordinates and times never calls round
    import builtins

    calls = []
    real_round = builtins.round
    monkeypatch.setattr(builtins, "round", lambda *args: calls.append(args) or real_round(*args))
    column = [k / 60 for k in range(3600)] + [k / 7 for k in range(700)]
    assert _bits(_rounded(column, 6)) == _bits([real_round(v, 6) for v in column])
    assert calls == []


BOUND = st.floats(allow_nan=False)
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 9.0])


@settings(max_examples=1000, deadline=None)
@given(bounds=st.tuples(BOUND, BOUND).filter(lambda pair: pair[0] < pair[1]),
       values=st.lists(st.one_of(st.floats(), SPECIAL), max_size=20))
@example(bounds=(0.0, 1.0), values=[-0.0, 0.0, 1.0, math.nan, math.inf, -math.inf, 0.5, 1.5, -1e-300])
@example(bounds=(-0.0, 1.0), values=[0.0, -0.0])
@example(bounds=(-1.0, 0.0), values=[0.0, -0.0])
@example(bounds=(-1.0, -0.0), values=[0.0, -0.0])
@example(bounds=(1.0, 9.0), values=[1.0, 9.0, math.nan, 0.0])
def test_clamped_is_max_of_min_bit_for_bit(bounds, values):
    lo, hi = bounds
    # the bounds themselves are values too
    values = values + [lo, hi]
    assert _bits(_clamped(values, lo, hi)) == _bits([max(lo, min(hi, v)) for v in values])


# ---------------------------------------------------------------------------
# the column source against the record list


def _text(scenario) -> str:
    handle = io.StringIO()
    scenario.write(handle)
    return handle.getvalue()


def _trace(scenario, path: Path) -> bytes:
    write_trace(run_session(scenario), path)
    return path.read_bytes()


# rates and chunk lengths that put samples exactly on chunk boundaries:
# at 60 Hz, 5 Hz and a note every 2 s, a sample is stamped at every
# whole second
RAMP = {"kind": "ramp", "target_z": 4.0, "tau_s": 2.0}
WAVE = {"kind": "oscillation", "amplitude_z": 3.0, "period_s": 5.0}
SEGMENTS = st.lists(
    st.fixed_dictionaries({
        "duration_s": st.sampled_from([1.0, 2.5, 4.0, 7.3, 12.0]),
        "channels": st.dictionaries(
            st.sampled_from(["pupil_mm", "blink_rate_hz", "rr_mean_ms", "rr_jitter_ms", "posture_slump",
                             "note_correctness"]),
            st.sampled_from([RAMP, WAVE, {"kind": "baseline"}]),
            max_size=3,
        ),
    }),
    min_size=1, max_size=3,
)
PROFILES = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32),
    "segments": SEGMENTS,
    "noise": st.dictionaries(st.sampled_from(sorted(NOISE_DEFAULTS)), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    "gaze_rate_hz": st.sampled_from([7.0, 30.0, 60.0, 61.3]),
    "posture_rate_hz": st.sampled_from([2.0, 4.7, 5.0]),
    "note_interval_s": st.sampled_from([1.0, 2.0, 3.3]),
    "config": st.just({
        "calibration_duration_s": 4.0, "window_hop_s": 1.0,
        "window_length.pupil_gaze": 2.0, "window_length.rr_interval": 4.0,
        "window_length.posture_landmarks": 2.0, "window_length.note_score": 4.0,
    }),
})
ON_THE_BOUNDARIES = {
    "seed": 5,
    "segments": [{"duration_s": 4.0, "channels": {}}, {"duration_s": 7.3, "channels": {"pupil_mm": RAMP}}],
    "noise": {"blink": 0.0},
    "gaze_rate_hz": 60.0,
    "posture_rate_hz": 5.0,
    "note_interval_s": 2.0,
    "config": {"calibration_duration_s": 4.0, "window_hop_s": 1.0},
}


@settings(max_examples=40, deadline=None)
@given(data=PROFILES, chunk_s=st.sampled_from([0.5, 1.0, 2.5, 3.0, 60.0]))
@example(data=ON_THE_BOUNDARIES, chunk_s=1.0)
def test_every_sink_of_the_column_source_matches_the_record_list(data, chunk_s):
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(synth, "CHUNK_S", chunk_s)
        profile = parse_profile(data)
        written = _text(synthesize(profile))
        records = list(synthesize(profile).records)
        header = synthesize(profile).header
        # the writer of the record list writes the same bytes
        assert _text(Scenario(header, records)) == written
        # a replay from the source, from the records and from the file
        path = Path(tmp) / "scenario.jsonl"
        path.write_text(written, encoding="utf-8")
        from_source = _trace(synthesize(profile), Path(tmp) / "source.jsonl")
        assert _trace(Scenario(header, records), Path(tmp) / "records.jsonl") == from_source
        assert _trace(load_scenario(path), Path(tmp) / "file.jsonl") == from_source


def test_samples_on_a_chunk_boundary_open_the_next_chunk(monkeypatch):
    # the example above stamps a gaze sample and a pose at every whole
    # second, and a note at every odd one: each opens its chunk
    monkeypatch.setattr(synth, "CHUNK_S", 1.0)
    profile = parse_profile(ON_THE_BOUNDARIES)
    chunks = [
        [[] if columns is None else columns[0] for columns in chunk]
        for chunk in synth._Columns(profile, profile.seed)._chunks()
    ]
    assert len(chunks) == 12
    for index, (cam, gaze, heart, notes) in enumerate(chunks):
        assert cam[0] == gaze[0] == float(index)
        assert all(index <= t < index + 1 for t in cam + gaze + heart + notes)
        assert notes == ([float(index)] if index % 2 else [])


@pytest.mark.parametrize("chunk_s", [0.7, 17.0, 1e9])
def test_the_chunk_length_changes_no_byte(monkeypatch, chunk_s):
    profile = parse_profile({
        "seed": 8, "segments": [{"duration_s": 40.0, "channels": {"rr_mean_ms": RAMP}}], "note_interval_s": 6.0,
    })
    default = _text(synthesize(profile)), synthesize(profile).records
    monkeypatch.setattr(synth, "CHUNK_S", chunk_s)
    assert (_text(synthesize(profile)), synthesize(profile).records) == default
