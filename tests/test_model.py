import random

import pytest

from cogloop.model import (
    GazeSample,
    NoteScoreSample,
    RRSample,
    SampleEnvelope,
)


def _envelope(t, stream, seq):
    return SampleEnvelope(
        stream_id=stream, timestamp=t, payload=RRSample(rr_ms=800.0), seq=seq
    )


def test_sort_key_orders_by_time_then_stream_then_seq():
    a = _envelope(1.0, "hr", 0)
    b = _envelope(1.0, "hr", 1)
    c = _envelope(1.0, "zz", 0)
    d = _envelope(0.5, "zz", 9)
    assert a.sort_key() < b.sort_key()
    assert b.sort_key() < c.sort_key()
    assert d.sort_key() < a.sort_key()


def test_sorting_envelopes_matches_key_order():
    rng = random.Random(7)
    envelopes = [
        _envelope(round(rng.uniform(0, 5), 2), rng.choice(["x", "y"]), i)
        for i in range(200)
    ]
    rng.shuffle(envelopes)
    by_key = sorted(envelopes, key=SampleEnvelope.sort_key)
    by_cmp = sorted(envelopes, key=lambda e: (e.timestamp, e.stream_id, e.seq))
    assert by_key == by_cmp


def test_gaze_sample_validation():
    GazeSample(x=0.0, y=1.0, pupil_diameter_mm=None, confidence=0.5)
    with pytest.raises(ValueError):
        GazeSample(x=1.2, y=0.5)
    with pytest.raises(ValueError):
        GazeSample(x=0.5, y=0.5, confidence=-0.1)
    with pytest.raises(ValueError):
        GazeSample(x=0.5, y=0.5, pupil_diameter_mm=0.0)


def test_rr_sample_must_be_positive():
    with pytest.raises(ValueError):
        RRSample(rr_ms=0.0)
    with pytest.raises(ValueError):
        RRSample(rr_ms=float("nan"))


def test_note_score_bounds():
    NoteScoreSample(correctness=1.0)
    with pytest.raises(ValueError):
        NoteScoreSample(correctness=1.5)


@pytest.mark.parametrize("field", ["x", "y", "confidence"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.1, 1.1])
def test_gaze_unit_interval_fields_refuse_non_finite_and_out_of_range(field, value):
    fields = {"x": 0.5, "y": 0.5, "confidence": 0.9, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a finite number in \\[0, 1\\]"):
        GazeSample(**fields)
