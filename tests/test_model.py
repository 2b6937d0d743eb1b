import json

import pytest

from cogloop.errors import ScenarioError
from cogloop.model import NoteScoreSample

from scenario_lines import parse_scenario_lines


# Payload constructors check nothing: a sample is checked once, by its
# stream's parser, which reports a bad field with the line it is on.

HEADER = json.dumps({
    "type": "header",
    "streams": [
        {"stream_id": "gaze", "kind": "pupil_gaze", "nominal_rate_hz": 60},
        {"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1},
        {"stream_id": "notes", "kind": "note_score", "nominal_rate_hz": 0.1},
    ],
})


def _parse_sample(stream, **fields):
    line = json.dumps({"type": "sample", "stream": stream, "t": 1.0, **fields})
    return parse_scenario_lines([HEADER, line]).records[0].payload


def _refused(stream, message="", **fields):
    kind = {"gaze": "pupil_gaze", "heart": "rr_interval", "notes": "note_score"}[stream]
    with pytest.raises(ScenarioError, match=f"line 2: bad {kind} payload: {message}") as excinfo:
        _parse_sample(stream, **fields)
    assert excinfo.value.line_no == 2


def test_gaze_sample_validation():
    sample = _parse_sample("gaze", x=0.0, y=1.0, pupil_mm=None, confidence=0.5)
    assert sample == (0.0, 1.0, None, 0.5)
    _refused("gaze", x=1.2, y=0.5)
    _refused("gaze", x=0.5, y=0.5, confidence=-0.1)
    _refused("gaze", y=0.5)
    # a pupil of 0 is an eye the tracker saw shut, not an error
    assert _parse_sample("gaze", x=0.5, y=0.5, pupil_mm=0.0) == (0.5, 0.5, None, 1.0)
    for pupil in (float("nan"), float("inf")):
        _refused("gaze", x=0.5, y=0.5, pupil_mm=pupil)
    # a boolean is no pupil diameter: true replayed as a 1 mm pupil
    for pupil in (True, False, "3.0"):
        _refused("gaze", f"pupil_mm must be a number, got {pupil!r}", x=0.5, y=0.5, pupil_mm=pupil)
    # a unit-interval field takes a boolean as 0 or 1
    assert _parse_sample("gaze", x=True, y=False, confidence=True) == (True, False, None, True)


def test_rr_sample_must_be_positive():
    assert _parse_sample("heart", rr_ms=800) == 800
    for rr in (0.0, -800.0, float("nan"), float("inf"), "800", None, True, False):
        _refused("heart", "rr_ms must be a positive finite number", rr_ms=rr)


def test_note_score_bounds():
    assert _parse_sample("notes", correctness=1.0) == NoteScoreSample(correctness=1.0)
    _refused("notes", "correctness must be a finite number", correctness=1.5)


@pytest.mark.parametrize("field", ["x", "y", "confidence"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.1, 1.1])
def test_gaze_unit_interval_fields_refuse_non_finite_and_out_of_range(field, value):
    fields = {"x": 0.5, "y": 0.5, "confidence": 0.9, field: value}
    _refused("gaze", f"{field} must be a finite number in \\[0, 1\\]", **fields)
