import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogloop.config import (
    _SCALARS,
    _STRUCTURED,
    MAX_SESSION_S,
    MIN_WINDOW_HOP_S,
    SessionConfig,
    _coerce,
    apply_entries,
    checked_config,
    config_from_dict,
    config_to_dict,
    parse_config_text,
    validate_config,
)
from cogloop.directives import TEMPLATE_IDS
from cogloop.errors import ConfigError
from cogloop.interventions import Category, Severity
from cogloop.model import Dimension, Modality, StreamKind
from cogloop.session import resolve_config, run_session
from cogloop.state import ALL_CHANNELS

from scenario_lines import parse_scenario_lines


def test_defaults_are_valid():
    assert validate_config(SessionConfig()) == []


def test_each_config_builds_its_own_structured_defaults():
    # a test may mutate a config's dicts in place; a fresh config must
    # still start from the defaults
    cfg = SessionConfig()
    cfg.weights[Dimension.STRESS]["rmssd_ms"] = 9.0
    cfg.window_length_s[StreamKind.PUPIL_GAZE] = 99.0
    cfg.cooldown_s[Category.PHYSIOLOGICAL] = 1.0
    cfg.strategy_overrides[(Dimension.STRESS, Severity.MODERATE, Modality.TEXT)] = "reassurance"
    fresh = SessionConfig(weights=None)
    assert fresh.weights[Dimension.STRESS]["rmssd_ms"] == 0.3
    assert fresh.window_length_s[StreamKind.PUPIL_GAZE] == 10.0
    assert fresh.cooldown_s[Category.PHYSIOLOGICAL] == 120.0
    assert fresh.strategy_overrides == {}
    assert validate_config(fresh) == []


def test_an_unknown_knob_is_a_type_error():
    with pytest.raises(TypeError, match="'bogus'"):
        SessionConfig(bogus=1)


def _readme_config_rows() -> dict[str, str]:
    """Each key of the README's Configuration table, with its default cell."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            key, default = line.split("|")[1:3]
            rows[key.strip(" `")] = default.strip(" `")
    return rows


def test_the_readme_lists_each_knob_with_its_default():
    rows = _readme_config_rows()
    scalars = {key: cell for key, cell in rows.items() if "<" not in key}
    assert scalars.keys() == _SCALARS.keys()
    for key, cell in scalars.items():
        assert _coerce(key, cell, type(_SCALARS[key])) == _SCALARS[key], key
    structured = {key.partition(".")[0]: key.count(".") for key in rows if "<" in key}
    assert structured == {field.prefix: len(field.parts) for field in _STRUCTURED.values()}


def test_even_median_width_rejected():
    cfg = SessionConfig(rolling_median_width=4)
    failures = validate_config(cfg)
    assert failures
    assert any("rolling_median_width" in f for f in failures)


# the one owner of these ranges: GazeTrack and StreamMerger take the
# validated values as they come
@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"rolling_median_width": 1}, "rolling_median_width must be odd and >= 3, got 1"),
        ({"jitter_tolerance_s": -0.1}, "jitter_tolerance_s must be non-negative, got -0.1"),
        ({"jitter_tolerance_s": math.inf}, "jitter_tolerance_s must be non-negative, got inf"),
        ({"ivt_velocity_threshold": 0.0}, "ivt_velocity_threshold must be a positive finite number, got 0.0"),
        ({"ivt_velocity_threshold": math.nan}, "ivt_velocity_threshold must be a positive finite number, got nan"),
    ],
    ids=["tiny_median_width", "negative_jitter", "infinite_jitter", "zero_velocity_threshold", "nan_velocity_threshold"],
)
def test_gaze_and_merger_ranges_rejected(knobs, message):
    assert validate_config(SessionConfig(**knobs)) == [message]


def test_trigger_threshold_below_moderate_floor_rejected():
    failures = validate_config(SessionConfig(trigger_threshold=0.9))
    assert any("moderate" in f for f in failures)
    # exactly the floor is allowed, informative severities are still reachable
    assert validate_config(SessionConfig(trigger_threshold=1.0)) == []


def test_window_shorter_than_hop_rejected():
    lengths = SessionConfig().window_length_s
    lengths[StreamKind.PUPIL_GAZE] = 5.0
    failures = validate_config(SessionConfig(window_length_s=lengths))
    assert any("window_length.pupil_gaze" in f for f in failures)


def test_missing_cooldown_and_empty_weight_row_rejected():
    cfg = SessionConfig()
    del cfg.cooldown_s[Category.PHYSIOLOGICAL]
    cfg.weights[Dimension.STRESS] = {}
    failures = validate_config(cfg)
    assert any("cooldown_s missing" in f for f in failures)
    assert any("stress" in f for f in failures)


def test_validation_collects_several_failures_at_once():
    cfg = SessionConfig(window_hop_s=-1.0, confidence_min=2.0, client="other")
    failures = validate_config(cfg)
    assert len(failures) >= 3


@pytest.mark.parametrize(
    "entries",
    [
        # the calibration window count overflowed: OverflowError
        {"calibration_duration_s": 1e308, "window_hop_s": 0.5},
        # a finite count, but neighbouring grid times are one float, so
        # counting the calibration windows never ended
        {"calibration_duration_s": 1e308, "window_hop_s": 2.5},
        {"calibration_duration_s": 2.0**53 * 10.0},
        {"window_length.rr_interval": 1e308},
    ],
)
def test_spans_of_too_many_hops_rejected(entries):
    # every span is at most the session span and every hop at least the
    # floor, so no span holds more than 864,000 hops
    failures = validate_config(apply_entries(SessionConfig(), entries))
    assert len(failures) == 1
    assert f"exceeds the session span ({MAX_SESSION_S})" in failures[0]
    header = json.dumps({
        "type": "header",
        "streams": [{"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1}],
        "config": entries,
    })
    with pytest.raises(ConfigError, match="exceeds the session span"):
        run_session(parse_scenario_lines([header]))


@pytest.mark.parametrize(
    "entries, message",
    [
        # refused here: render_template trusts the ids it is given
        ({"strategy.stress.pronounced.text": "nope"}, "strategy.stress.pronounced.text: unknown template id 'nope'"),
        # a typo of rmssd_ms, taken as a fourth stress weight
        ({"weight.stress.rmsd_ms": 0.3}, "weight.stress.rmsd_ms: unknown channel"),
    ],
)
def test_unknown_template_id_or_weight_channel_rejected(entries, message):
    failures = validate_config(apply_entries(SessionConfig(), entries))
    assert len(failures) == 1 and message in failures[0]
    # from a scenario header, and from overrides (``--config``)
    header = {"type": "header", "streams": [{"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1}]}
    with pytest.raises(ConfigError, match=message):
        resolve_config(parse_scenario_lines([json.dumps({**header, "config": entries})]).header)
    with pytest.raises(ConfigError, match=message):
        resolve_config(parse_scenario_lines([json.dumps(header)]).header, entries)


def test_span_of_many_hops_within_the_grid_accepted():
    cfg = SessionConfig(calibration_duration_s=MAX_SESSION_S, window_hop_s=MIN_WINDOW_HOP_S)
    assert validate_config(cfg) == []
    below = math.nextafter(MIN_WINDOW_HOP_S, 0.0)
    failures = validate_config(SessionConfig(calibration_duration_s=MAX_SESSION_S, window_hop_s=below))
    assert failures == [f"window_hop_s ({below}) is below the floor of {MIN_WINDOW_HOP_S} s"]


def test_calibration_past_the_session_span_rejected():
    # the uncalibrated_channel warnings are stamped where calibration ends
    assert validate_config(SessionConfig(calibration_duration_s=MAX_SESSION_S)) == []
    failures = validate_config(SessionConfig(calibration_duration_s=MAX_SESSION_S + 10.0))
    assert failures == [
        f"calibration_duration_s ({MAX_SESSION_S + 10.0}) exceeds the session span ({MAX_SESSION_S})"
    ]


def test_parse_config_text_comments_and_blanks():
    entries = parse_config_text(
        """
        # comment line
        trigger_threshold = 2.0   # trailing comment
        window_hop_s = 5
        """
    )
    assert entries == {"trigger_threshold": "2.0", "window_hop_s": "5"}


def test_parse_config_text_duplicate_key_raises():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2")


def test_parse_config_text_missing_equals_raises():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words")


def test_apply_entries_scalars_and_dotted_keys():
    cfg = apply_entries(
        SessionConfig(),
        {
            "trigger_threshold": "1.8",
            "consecutive_windows": 4,
            "window_length.rr_interval": 90,
            "cooldown.physiological": "45",
            "weight.stress.rmssd_ms": 0.9,
            "strategy.stress.pronounced.text": "reassurance",
        },
    )
    assert cfg.trigger_threshold == 1.8
    assert cfg.consecutive_windows == 4
    assert cfg.window_length_s[StreamKind.RR_INTERVAL] == 90.0
    assert cfg.cooldown_s[Category.PHYSIOLOGICAL] == 45.0
    assert cfg.weights[Dimension.STRESS]["rmssd_ms"] == 0.9
    key = (Dimension.STRESS, Severity.PRONOUNCED, Modality.TEXT)
    assert cfg.strategy_overrides[key] == "reassurance"


def test_apply_entries_does_not_mutate_base():
    base = SessionConfig()
    apply_entries(base, {"weight.stress.rmssd_ms": 0.9})
    assert base.weights[Dimension.STRESS]["rmssd_ms"] == 0.3


def test_apply_entries_unknown_key_raises():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_entries(SessionConfig(), {"no_such_key": 1})
    with pytest.raises(ConfigError):
        apply_entries(SessionConfig(), {"window_length.nope": 10})


def test_apply_entries_bad_number_raises():
    with pytest.raises(ConfigError):
        apply_entries(SessionConfig(), {"trigger_threshold": "abc"})


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "session.cfg"
    path.write_text("trigger_threshold = 1.6\ncooldown.physiological = 30\n")
    # read the way `cogloop run --config` reads it
    cfg = apply_entries(SessionConfig(), parse_config_text(path.read_text(encoding="utf-8")))
    assert cfg.trigger_threshold == 1.6
    assert cfg.cooldown_s[Category.PHYSIOLOGICAL] == 30.0


# every flat key of a structured field, each with a valid value: window
# lengths and cooldowns at least the default hop, any known channel in
# any weight row, any template at any modality
_SPAN_KEYS = (
    [f"window_length.{kind.value}" for kind in StreamKind]
    + [f"cooldown.{category.value}" for category in Category]
    + [f"weight.{dimension.value}.{channel}" for dimension in Dimension for channel in ALL_CHANNELS]
)
_STRATEGY_KEYS = [
    f"strategy.{dimension.value}.{severity.value}.{modality.value}"
    for dimension in Dimension for severity in Severity for modality in Modality
]


@st.composite
def _valid_entries(draw) -> dict[str, object]:
    entries: dict[str, object] = {}
    for key in draw(st.lists(st.sampled_from(_SPAN_KEYS), unique=True)):
        entries[key] = draw(st.floats(min_value=10.0, max_value=MAX_SESSION_S))
    for key in draw(st.lists(st.sampled_from(_STRATEGY_KEYS), unique=True)):
        entries[key] = draw(st.sampled_from(TEMPLATE_IDS))
    if draw(st.booleans()):
        entries["trigger_threshold"] = draw(st.floats(min_value=1.0, max_value=10.0))
    return entries


@settings(max_examples=300, deadline=None)
@given(entries=_valid_entries())
@example(entries={
    "trigger_threshold": 1.7,
    "window_length.rr_interval": 90,
    "cooldown.physiological": 30.0,
    "weight.fatigue.posture_percent": 0.5,
    **{f"strategy.stress.moderate.{modality.value}": "box_breathing" for modality in Modality},
})
def test_dict_round_trip_preserves_everything(entries):
    cfg = checked_config(apply_entries(SessionConfig(), entries))
    header = config_to_dict(cfg)
    assert config_from_dict(header) == cfg
    # as a trace header carries it
    assert config_from_dict(json.loads(json.dumps(header))) == cfg


# ---------------------------------------------------------------------------
# every accepted and rejected config, pinned: each case is a flat entry set
# (a config file, a scenario header, ``--config``) or a trace header's
# config object, with its exact ConfigError text or, when accepted, what
# its resolved config_to_dict changes from the defaults

DIMENSIONS = "cognitive_load, attention, engagement, understanding, stress, fatigue"
CATEGORIES = "cognitive_attentional, physiological, comprehension_oriented, challenge_enhancement"
CHANNELS = (
    "pupil_mm, fixation_duration_s, fixation_count, gaze_velocity, blink_rate_per_min, heart_rate_bpm, "
    "rmssd_ms, sdnn_ms, pnn50_percent, posture_percent, note_error"
)
EMPTY_ROWS = "; ".join(
    f"weight row for {dimension} is empty"
    for dimension in ("cognitive_load", "attention", "engagement", "understanding", "stress", "fatigue")
)
TEMPLATES = (
    "advanced_application, alternate_explanations, box_breathing, chunk_and_distill, curiosity_prompt, "
    "first_principles, physical_reset, reassurance, restructure, shorter_segments, synthesis_prompt, take_break"
)
HUGE = 10**400

PINNED_FLAT = [
    ({}, {}),
    ({"trigger_threshold": "1.8", "consecutive_windows": 4.0, "client": " live "},
     {"trigger_threshold": 1.8, "consecutive_windows": 4, "client": "live"}),
    ({"window_length.rr_interval": 90, "cooldown.physiological": "45", "weight.fatigue.posture_percent": 0.5,
      "strategy.stress.moderate.audio": "box_breathing"},
     {"window_length_s": {"rr_interval": 90.0}, "cooldown_s": {"physiological": 45.0},
      "weights": {"fatigue": {"blink_rate_per_min": 0.4, "gaze_velocity": 0.3, "posture_percent": 0.5}},
      "strategy_overrides": {"stress.moderate.audio": "box_breathing"}}),
    ({"weight.stress.sdnn_ms": 0.1},
     {"weights": {"stress": {"heart_rate_bpm": 0.3, "pnn50_percent": 0.4, "rmssd_ms": 0.3, "sdnn_ms": 0.1}}}),
    ({"cooldown": 5}, "unknown config key 'cooldown'"),
    ({"cooldown.": 5}, f"cooldown.: unknown category '' (valid: {CATEGORIES})"),
    ({"weight.stress": 1}, "unknown config key 'weight.stress'"),
    ({"strategy.a.b": "x"}, "unknown config key 'strategy.a.b'"),
    ({"window_length.pupil_gaze.x": 1}, "unknown config key 'window_length.pupil_gaze.x'"),
    ({"window_length_s": 5}, "unknown config key 'window_length_s'"),
    ({"window_length.eeg": 5},
     "window_length.eeg: unknown streamkind 'eeg' (valid: pupil_gaze, rr_interval, posture_landmarks, note_score)"),
    ({"strategy.stress.severe.text": "x"},
     "strategy.stress.severe.text: unknown severity 'severe' (valid: moderate, pronounced)"),
    ({"strategy.stress.moderate.smell": "x"},
     "strategy.stress.moderate.smell: unknown modality 'smell' (valid: text, image, audio, video)"),
    ({"strategy.stress.moderate.text": "nope"},
     f"strategy.stress.moderate.text: unknown template id 'nope' (valid: {TEMPLATES})"),
    ({"weight.stress.": 1}, f"weight.stress.: unknown channel (valid: {CHANNELS})"),
    ({"weight.mood.pupil_mm": 1}, f"weight.mood.pupil_mm: unknown dimension 'mood' (valid: {DIMENSIONS})"),
    ({"weight.stress.rmssd_ms": HUGE}, f"weight.stress.rmssd_ms: cannot interpret {HUGE!r} as float"),
    ({"cooldown.physiological": "soon"}, "cooldown.physiological: cannot interpret 'soon' as float"),
    ({"consecutive_windows": True}, "consecutive_windows: cannot interpret True as int"),
    ({"consecutive_windows": 2.5}, "consecutive_windows: cannot interpret 2.5 as int"),
    ({"baseline_min_samples": "1e3"}, "baseline_min_samples: cannot interpret '1e3' as int"),
    ({"window_hop_s": "nan"}, "window_hop_s must be a positive finite number, got nan"),
    # a JSON boolean is no number, for a float knob as for an int one
    ({"trigger_threshold": True}, "trigger_threshold: cannot interpret True as float"),
    ({"sigma_floor": False}, "sigma_floor: cannot interpret False as float"),
    ({"window_length.rr_interval": True}, "window_length.rr_interval: cannot interpret True as float"),
    ({"cooldown.physiological": True}, "cooldown.physiological: cannot interpret True as float"),
    ({"weight.stress.rmssd_ms": True}, "weight.stress.rmssd_ms: cannot interpret True as float"),
    ({"client": 5}, "client must be 'mock' or 'live', got '5'"),
    # two bad entries: the first in key order is named
    ({"window_hop_s": "x", "cooldown.nope": 1}, f"cooldown.nope: unknown category 'nope' (valid: {CATEGORIES})"),
    ({"trigger_threshold": "x", "strategy.stress.moderate.text": 5},
     "trigger_threshold: cannot interpret 'x' as float"),
    # two failures that only validation sees: both are named
    ({"rolling_median_width": 4, "confidence_min": 2},
     "rolling_median_width must be odd and >= 3, got 4; confidence_min must lie in [0, 1], got 2.0"),
]

PINNED_HEADER = [
    ({}, {}),
    ({"window_hop_s": 0.6, "calibration_duration_s": 30}, {"window_hop_s": 0.6, "calibration_duration_s": 30.0}),
    # each object is laid over the defaults, but weights replace the matrix
    ({"window_length_s": {"rr_interval": 90}, "cooldown_s": {"physiological": "45"}},
     {"window_length_s": {"rr_interval": 90.0}, "cooldown_s": {"physiological": 45.0}}),
    ({"strategy_overrides": {"stress.pronounced.text": "reassurance"}},
     {"strategy_overrides": {"stress.pronounced.text": "reassurance"}}),
    ({"weights": {"stress": {"rmssd_ms": 1.0}}}, EMPTY_ROWS.replace("; weight row for stress is empty", "")),
    ({"weights": {}}, EMPTY_ROWS),
    # an empty row names its dimension too
    ({"weights": {"bogus": {}}}, f"weight.bogus: unknown dimension 'bogus' (valid: {DIMENSIONS})"),
    ({"weights": {**config_to_dict(SessionConfig())["weights"], "bogus": {}}},
     f"weight.bogus: unknown dimension 'bogus' (valid: {DIMENSIONS})"),
    ({"weights": {"stress.x": {}}}, f"weight.stress.x: unknown dimension 'stress.x' (valid: {DIMENSIONS})"),
    ({"weights": {"stress": {}}}, EMPTY_ROWS),
    ({"window_length.rr_interval": 90}, "unknown config key 'window_length.rr_interval'"),
    ({"weight.stress.rmssd_ms": 1.0}, "unknown config key 'weight.stress.rmssd_ms'"),
    ({"bogus": 1}, "unknown config key 'bogus'"),
    ({"weights": {"stress": 1}}, "weights.stress must be an object, got 1"),
    ({"weights": []}, "weights must be an object, got []"),
    ({"window_length_s": 10}, "window_length_s must be an object, got 10"),
    ({"strategy_overrides": ["x"]}, "strategy_overrides must be an object, got ['x']"),
    ({"cooldown_s": {"": 5}}, f"cooldown.: unknown category '' (valid: {CATEGORIES})"),
    ({"cooldown_s": {"physiological": HUGE}}, f"cooldown.physiological: cannot interpret {HUGE!r} as float"),
    ({"trigger_threshold": HUGE}, f"trigger_threshold: cannot interpret {HUGE!r} as float"),
    ({"consecutive_windows": True}, "consecutive_windows: cannot interpret True as int"),
    ({"history_turns": None}, "history_turns: cannot interpret None as int"),
    ({"trigger_threshold": True}, "trigger_threshold: cannot interpret True as float"),
    ({"window_length_s": {"rr_interval": True}}, "window_length.rr_interval: cannot interpret True as float"),
    ({"cooldown_s": {"physiological": False}}, "cooldown.physiological: cannot interpret False as float"),
    ({"weights": {"stress": {"rmssd_ms": True}}}, "weight.stress.rmssd_ms: cannot interpret True as float"),
    ({"strategy_overrides": {"a.b": "x"}}, "unknown config key 'strategy.a.b'"),
    ({"strategy_overrides": {"stress.pronounced.text.x": "x"}},
     "unknown config key 'strategy.stress.pronounced.text.x'"),
    ({"window_length_s": {"rr_interval.x": 90}}, "unknown config key 'window_length.rr_interval.x'"),
    ({"weights": {"stress": {"a.b": 1}}}, "unknown config key 'weight.stress.a.b'"),
    ({"weights": {"stress.x": {"a": 1}}}, "unknown config key 'weight.stress.x.a'"),
    ({"weights": {"mood": {"pupil_mm": 1}}}, f"weight.mood.pupil_mm: unknown dimension 'mood' (valid: {DIMENSIONS})"),
    ({"weights": {"stress": {"rmssd_ms": "x"}}}, "weight.stress.rmssd_ms: cannot interpret 'x' as float"),
    ({"strategy_overrides": {"stress.pronounced.text": 5}},
     f"strategy.stress.pronounced.text: unknown template id '5' (valid: {TEMPLATES})"),
    # two bad entries: a malformed object is named before any value,
    # then the first bad value in flat key order
    ({"window_hop_s": "x", "cooldown_s": {"nope": 1}}, f"cooldown.nope: unknown category 'nope' (valid: {CATEGORIES})"),
    ({"cooldown_s": {"nope": 1}, "weights": 5}, "weights must be an object, got 5"),
    ({"bogus": 1, "weights": 5}, "unknown config key 'bogus'"),
    ({"weights": 5, "bogus": 1}, "weights must be an object, got 5"),
    ({"weights": {"stress": {"x": "bad"}, "stress-": {"y": 1}}},
     f"weight.stress-.y: unknown dimension 'stress-' (valid: {DIMENSIONS})"),
    ({"window_length_s": {"rr_interval": "x"}, "weights": {"stress": {"rmssd_ms": "y"}}, "client": 5},
     "weight.stress.rmssd_ms: cannot interpret 'y' as float"),
]


def _changes(cfg: SessionConfig) -> dict:
    """What ``config_to_dict(cfg)`` changes from the defaults' form: each
    scalar that differs, and within each object each entry that does."""
    default = config_to_dict(SessionConfig())
    changes = {}
    for key, value in config_to_dict(cfg).items():
        if isinstance(value, dict):
            diff = {sub: value.get(sub) for sub in value.keys() | default[key].keys()
                    if value.get(sub) != default[key].get(sub)}
            if diff:
                changes[key] = diff
        elif value != default[key]:
            changes[key] = value
    return changes


def _outcome(resolve, data):
    try:
        return _changes(resolve(data))
    except ConfigError as error:
        return str(error)


@pytest.mark.parametrize("entries, expected", PINNED_FLAT, ids=[",".join(case) or "empty" for case, _ in PINNED_FLAT])
def test_flat_entries_resolve_to_their_pinned_config_or_message(entries, expected):
    assert _outcome(lambda data: checked_config(apply_entries(SessionConfig(), data)), entries) == expected


@pytest.mark.parametrize("data, expected", PINNED_HEADER, ids=[",".join(case) or "empty" for case, _ in PINNED_HEADER])
def test_trace_header_config_resolves_to_its_pinned_config_or_message(data, expected):
    assert _outcome(config_from_dict, data) == expected
