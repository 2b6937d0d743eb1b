import json
import math

import pytest

from cogloop.config import (
    MAX_SESSION_S,
    MIN_WINDOW_HOP_S,
    SessionConfig,
    apply_entries,
    config_from_dict,
    config_to_dict,
    parse_config_text,
    validate_config,
)
from cogloop.errors import ConfigError
from cogloop.interventions import Category, Severity
from cogloop.model import Dimension, Modality, StreamKind
from cogloop.scenario import parse_scenario_lines
from cogloop.session import resolve_config, run_session


def test_defaults_are_valid():
    assert validate_config(SessionConfig()).ok


def test_even_median_width_rejected():
    cfg = SessionConfig(rolling_median_width=4)
    report = validate_config(cfg)
    assert not report.ok
    assert any("rolling_median_width" in f for f in report.failures)


def test_trigger_threshold_below_moderate_floor_rejected():
    report = validate_config(SessionConfig(trigger_threshold=0.9))
    assert any("moderate" in f for f in report.failures)
    # exactly the floor is allowed, informative severities are still reachable
    assert validate_config(SessionConfig(trigger_threshold=1.0)).ok


def test_window_shorter_than_hop_rejected():
    lengths = SessionConfig().window_length_s
    lengths[StreamKind.PUPIL_GAZE] = 5.0
    report = validate_config(SessionConfig(window_length_s=lengths))
    assert any("window_length.pupil_gaze" in f for f in report.failures)


def test_missing_cooldown_and_empty_weight_row_rejected():
    cfg = SessionConfig()
    del cfg.cooldown_s[Category.PHYSIOLOGICAL]
    cfg.weights[Dimension.STRESS] = {}
    report = validate_config(cfg)
    assert any("cooldown_s missing" in f for f in report.failures)
    assert any("stress" in f for f in report.failures)


def test_validation_collects_several_failures_at_once():
    cfg = SessionConfig(window_hop_s=-1.0, confidence_min=2.0, client="other")
    report = validate_config(cfg)
    assert len(report.failures) >= 3


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
    report = validate_config(apply_entries(SessionConfig(), entries))
    assert len(report.failures) == 1
    assert f"exceeds the session span ({MAX_SESSION_S})" in report.failures[0]
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
        # validated, then UnknownTemplateError at the first stress decision
        ({"strategy.stress.pronounced.text": "nope"}, "strategy.stress.pronounced.text: unknown template id 'nope'"),
        # a typo of rmssd_ms, taken as a fourth stress weight
        ({"weight.stress.rmsd_ms": 0.3}, "weight.stress.rmsd_ms: unknown channel"),
    ],
)
def test_unknown_template_id_or_weight_channel_rejected(entries, message):
    failures = validate_config(apply_entries(SessionConfig(), entries)).failures
    assert len(failures) == 1 and message in failures[0]
    # from a scenario header, and from overrides (``--config``)
    header = {"type": "header", "streams": [{"stream_id": "heart", "kind": "rr_interval", "nominal_rate_hz": 1}]}
    with pytest.raises(ConfigError, match=message):
        resolve_config(parse_scenario_lines([json.dumps({**header, "config": entries})]).header)
    with pytest.raises(ConfigError, match=message):
        resolve_config(parse_scenario_lines([json.dumps(header)]).header, entries)


def test_span_of_many_hops_within_the_grid_accepted():
    cfg = SessionConfig(calibration_duration_s=MAX_SESSION_S, window_hop_s=MIN_WINDOW_HOP_S)
    assert validate_config(cfg).ok
    below = math.nextafter(MIN_WINDOW_HOP_S, 0.0)
    failures = validate_config(SessionConfig(calibration_duration_s=MAX_SESSION_S, window_hop_s=below)).failures
    assert failures == [f"window_hop_s ({below}) is below the floor of {MIN_WINDOW_HOP_S} s"]


def test_calibration_past_the_session_span_rejected():
    # the uncalibrated_channel warnings are stamped where calibration ends
    assert validate_config(SessionConfig(calibration_duration_s=MAX_SESSION_S)).ok
    report = validate_config(SessionConfig(calibration_duration_s=MAX_SESSION_S + 10.0))
    assert report.failures == [
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


def test_dict_round_trip_preserves_everything():
    cfg = apply_entries(
        SessionConfig(),
        {
            "trigger_threshold": 1.7,
            "weight.fatigue.posture_percent": 0.5,
            "strategy.stress.moderate.audio": "box_breathing",
        },
    )
    restored = config_from_dict(config_to_dict(cfg))
    assert restored == cfg
    assert config_to_dict(restored) == config_to_dict(cfg)
