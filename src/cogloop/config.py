"""Session configuration: defaults, validation, and its two formats.

Flat entries come from a config file (``key = value`` per line, ``#``
comments), a scenario header's ``config`` object or ``--config``. A
trace header's ``config`` object is the resolved config: each scalar by
name, each structured field an object keyed by its flat keys' parts
after the prefix (a weight row nested by channel). ``_SCALARS`` and
``_STRUCTURED`` name each knob once, with its default, for the config
and both formats. Unknown keys, weight channels and template ids are
errors, not warnings, so typos cannot silently fall back to defaults.
The structured flat keys:

    weight.<dimension>.<channel> = <float>
    window_length.<stream_kind>  = <seconds>
    cooldown.<category>          = <seconds>
    strategy.<dimension>.<severity>.<modality> = <template_id>
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .directives import TEMPLATE_IDS
from .errors import ConfigError
from .interventions import DEFAULT_STRATEGIES, Category, Severity, StrategyEntry, StrategyKey
from .model import MAX_SESSION_S, Dimension, Modality, Slotted, StreamKind
from .state import ALL_CHANNELS, SIGMA_FLOOR, MODERATE_FLOOR, default_weight_matrix

# ---------------------------------------------------------------------------
# the knobs, each named with its default once: a scalar converts to its
# default's type, a structured field is a dict built afresh per config

_SCALARS = {
    "calibration_duration_s": 300.0,
    "window_hop_s": 10.0,
    "jitter_tolerance_s": 0.25,
    "ivt_velocity_threshold": 1.0,
    "min_fixation_duration_s": 0.1,
    "rolling_median_width": 5,
    "quality_floor": 0.0,
    "trigger_threshold": 1.5,
    "persistence_s": 10.0,
    "consecutive_windows": 3,
    "confidence_min": 0.6,
    "sigma_floor": SIGMA_FLOOR,
    "baseline_min_samples": 30,
    "history_turns": 6,
    "client": "mock",
}


class _Structured(NamedTuple):
    """A structured field, whose flat keys are ``<prefix>.<part>...``:
    one part per entry of ``parts``, the enum whose member keys the
    field's dict (several make a tuple key), or None for a channel id,
    the key within a row."""

    name: str  # the SessionConfig field, and its trace header key
    prefix: str
    parts: tuple
    value_type: type
    default: Callable[[], dict]  # builds the field's default dict afresh

    @property
    def rows(self) -> bool:
        return self.parts[-1] is None


_STRUCTURED = {
    field.name: field
    for field in (
        _Structured("window_length_s", "window_length", (StreamKind,), float, lambda: {
            StreamKind.PUPIL_GAZE: 10.0,
            StreamKind.RR_INTERVAL: 60.0,
            StreamKind.POSTURE_LANDMARKS: 10.0,
            StreamKind.NOTE_SCORE: 60.0,
        }),
        _Structured("weights", "weight", (Dimension, None), float, default_weight_matrix),
        _Structured("cooldown_s", "cooldown", (Category,), float, lambda: {
            Category.COGNITIVE_ATTENTIONAL: 60.0,
            Category.PHYSIOLOGICAL: 120.0,
            Category.COMPREHENSION_ORIENTED: 60.0,
            Category.CHALLENGE_ENHANCEMENT: 60.0,
        }),
        _Structured("strategy_overrides", "strategy", (Dimension, Severity, Modality), str, dict),
    )
}
_BY_PREFIX = {field.prefix: field for field in _STRUCTURED.values()}
# each enum part's members by their text: "stress" is Dimension.STRESS
_MEMBERS = {
    enum: {member.value: member for member in enum}
    for field in _STRUCTURED.values() for enum in field.parts if enum is not None
}


class SessionConfig(Slotted):
    """Every knob of a replay, each given by name or else its default.
    ``None`` for a structured field also means its default."""

    __slots__ = (*_SCALARS, *_STRUCTURED)

    def __init__(self, **knobs):
        for name, default in _SCALARS.items():
            setattr(self, name, knobs.pop(name, default))
        for name, field in _STRUCTURED.items():
            value = knobs.pop(name, None)
            setattr(self, name, field.default() if value is None else value)
        if knobs:
            raise TypeError(f"SessionConfig() got an unexpected keyword argument {next(iter(knobs))!r}")


# The smallest window_hop_s, in seconds. With every span at most
# MAX_SESSION_S, a replay walks at most 864,000 ticks and cuts at most
# that many windows of each kind, whatever the input.
MIN_WINDOW_HOP_S = 0.1


def checked_config(cfg: SessionConfig) -> SessionConfig:
    """``cfg``, once ``validate_config`` passes it; else ConfigError naming every failure."""
    failures = validate_config(cfg)
    if failures:
        raise ConfigError("; ".join(failures))
    return cfg


def validate_config(cfg: SessionConfig) -> list[str]:
    """Check every invariant the runtime assumes. Returns all failures
    at once rather than stopping at the first: an empty list when ``cfg``
    is valid."""
    failures: list[str] = []
    fail = failures.append

    def is_positive(value) -> bool:
        return isinstance(value, (int, float)) and math.isfinite(value) and value > 0

    def positive(name: str, value: float) -> None:
        if not is_positive(value):
            fail(f"{name} must be a positive finite number, got {value!r}")

    def within_session(name: str, span: float) -> None:
        if is_positive(span) and span > MAX_SESSION_S:
            fail(f"{name} ({span}) exceeds the session span ({MAX_SESSION_S})")

    positive("calibration_duration_s", cfg.calibration_duration_s)
    # the uncalibrated_channel warnings are stamped at its end
    within_session("calibration_duration_s", cfg.calibration_duration_s)
    positive("window_hop_s", cfg.window_hop_s)
    if is_positive(cfg.window_hop_s) and cfg.window_hop_s < MIN_WINDOW_HOP_S:
        fail(f"window_hop_s ({cfg.window_hop_s}) is below the floor of {MIN_WINDOW_HOP_S} s")
    positive("ivt_velocity_threshold", cfg.ivt_velocity_threshold)
    positive("min_fixation_duration_s", cfg.min_fixation_duration_s)
    positive("persistence_s", cfg.persistence_s)
    positive("sigma_floor", cfg.sigma_floor)

    for kind in StreamKind:
        length = cfg.window_length_s.get(kind)
        if length is None:
            fail(f"window_length_s missing entry for {kind.value}")
            continue
        positive(f"window_length.{kind.value}", length)
        within_session(f"window_length.{kind.value}", length)
        if isinstance(length, (int, float)) and 0 < length < cfg.window_hop_s:
            fail(
                f"window_length.{kind.value} ({length}) must be at least "
                f"window_hop_s ({cfg.window_hop_s})"
            )

    if cfg.jitter_tolerance_s < 0 or not math.isfinite(cfg.jitter_tolerance_s):
        fail(f"jitter_tolerance_s must be non-negative, got {cfg.jitter_tolerance_s!r}")
    if cfg.rolling_median_width < 3 or cfg.rolling_median_width % 2 == 0:
        fail(f"rolling_median_width must be odd and >= 3, got {cfg.rolling_median_width}")
    if cfg.trigger_threshold < MODERATE_FLOOR:
        fail(
            f"trigger_threshold ({cfg.trigger_threshold}) is below the moderate "
            f"deviation floor ({MODERATE_FLOOR})"
        )
    if cfg.consecutive_windows < 1:
        fail(f"consecutive_windows must be >= 1, got {cfg.consecutive_windows}")
    if not (0.0 <= cfg.confidence_min <= 1.0):
        fail(f"confidence_min must lie in [0, 1], got {cfg.confidence_min}")
    if not (0.0 <= cfg.quality_floor < 1.0):
        fail(f"quality_floor must lie in [0, 1), got {cfg.quality_floor}")
    if cfg.baseline_min_samples < 2:
        fail(f"baseline_min_samples must be >= 2, got {cfg.baseline_min_samples}")
    if cfg.history_turns < 0:
        fail(f"history_turns must be >= 0, got {cfg.history_turns}")
    if cfg.client not in ("mock", "live"):
        fail(f"client must be 'mock' or 'live', got {cfg.client!r}")

    for category in Category:
        cooldown = cfg.cooldown_s.get(category)
        if cooldown is None:
            fail(f"cooldown_s missing entry for {category.value}")
        else:
            positive(f"cooldown.{category.value}", cooldown)

    for dimension in Dimension:
        row = cfg.weights.get(dimension)
        if not row:
            fail(f"weight row for {dimension.value} is empty")
            continue
        for channel in sorted(set(row).difference(ALL_CHANNELS)):
            fail(f"weight.{dimension.value}.{channel}: unknown channel (valid: {', '.join(ALL_CHANNELS)})")
        if any(w < 0 or not math.isfinite(w) for w in row.values()):
            fail(f"weight row for {dimension.value} has a negative or non-finite entry")
        elif sum(row.values()) <= 0:
            fail(f"weight row for {dimension.value} has no positive entry")

    for (dimension, severity, modality), template_id in cfg.strategy_overrides.items():
        if template_id not in TEMPLATE_IDS:
            fail(
                f"strategy.{dimension.value}.{severity.value}.{modality.value}: unknown template id "
                f"{template_id!r} (valid: {', '.join(TEMPLATE_IDS)})"
            )

    return failures


# ---------------------------------------------------------------------------
# the two formats: flat key=value entries and the trace header's object

def _coerce(key: str, raw: object, target: type) -> object:
    try:
        # a JSON boolean is no number
        if isinstance(raw, bool) and target is not str:
            raise ValueError
        if target is int:
            if isinstance(raw, (int, float)) and float(raw).is_integer():
                return int(raw)
            return int(str(raw).strip())
        if target is float:
            return float(raw if isinstance(raw, (int, float)) else str(raw).strip())
        return str(raw).strip()
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: cannot interpret {raw!r} as {target.__name__}") from None


def _unknown_member(key: str, enum: type, token: str) -> ConfigError:
    values = ", ".join(_MEMBERS[enum])
    return ConfigError(f"{key}: unknown {enum.__name__.lower()} {token!r} (valid: {values})")


def apply_entries(cfg: SessionConfig, entries: dict[str, object]) -> SessionConfig:
    """Return a new config with the given flat entries applied.

    Accepts the same keys as the config file; values may already be
    numbers (scenario headers embed them as JSON). Entries are applied
    in key order, and the first that is unknown or does not convert
    raises ConfigError.
    """
    updates: dict[str, object] = {}
    for field in _STRUCTURED.values():
        mapping = getattr(cfg, field.name)
        updates[field.name] = {key: dict(row) for key, row in mapping.items()} if field.rows else dict(mapping)

    for key in sorted(entries):
        raw = entries[key]
        if key in _SCALARS:
            updates[key] = _coerce(key, raw, type(_SCALARS[key]))
            continue
        prefix, *tokens = key.split(".")
        field = _BY_PREFIX.get(prefix)
        if field is None or len(tokens) != len(field.parts):
            raise ConfigError(f"unknown config key {key!r}")
        members = []
        for enum, token in zip(field.parts, tokens):
            member = token if enum is None else _MEMBERS[enum].get(token)
            if member is None:
                raise _unknown_member(key, enum, token)
            members.append(member)
        value = _coerce(key, raw, field.value_type)
        target = updates[field.name]
        if field.rows:  # a row per first part, keyed within it by the channel
            target = target.setdefault(members.pop(0), {})
        target[members[0] if len(members) == 1 else tuple(members)] = value

    return cfg._replace(**updates)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a flat dict, stripping comments."""
    entries: dict[str, str] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value in {raw_line!r}")
        if key in entries:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        entries[key] = value
    return entries


def config_to_dict(cfg: SessionConfig) -> dict:
    """The trace header's config object."""
    data = {key: getattr(cfg, key) for key in _SCALARS}
    for field in _STRUCTURED.values():
        entries = data[field.name] = {}
        for key, value in sorted(getattr(cfg, field.name).items()):
            text = ".".join(key) if isinstance(key, tuple) else key.value
            entries[text] = dict(sorted(value.items())) if field.rows else value
    return data


def config_from_dict(data: dict) -> SessionConfig:
    """The validated config of a trace header's config object: its flat
    entries, over the defaults but for rows, which replace them whole."""
    replaced: dict[str, dict] = {}
    entries: dict[str, object] = {}
    for key, value in data.items():
        field = _STRUCTURED.get(key)
        if field is None:
            if key not in _SCALARS:
                raise ConfigError(f"unknown config key {key!r}")
            entries[key] = value
        elif not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
        elif field.rows:
            replaced[key] = {}
            for part, row in value.items():
                if not isinstance(row, dict):
                    raise ConfigError(f"{key}.{part} must be an object, got {row!r}")
                # an empty row spells no entry, so no entry checks its part
                if not row and part not in _MEMBERS[field.parts[0]]:
                    raise _unknown_member(f"{field.prefix}.{part}", field.parts[0], part)
                for channel, raw in row.items():
                    entries[f"{field.prefix}.{part}.{channel}"] = raw
        else:
            for part, raw in value.items():
                entries[f"{field.prefix}.{part}"] = raw
    return checked_config(apply_entries(SessionConfig(**replaced), entries))


# ---------------------------------------------------------------------------
# the strategy table, read by the replay and by the trace audit alike

def _strategy_table(cfg: SessionConfig) -> dict[StrategyKey, StrategyEntry]:
    """The strategy table of a config, as the engine and the audit read
    it: the defaults, each overridden key given its template."""
    table = dict(DEFAULT_STRATEGIES)
    for key, template_id in cfg.strategy_overrides.items():
        table[key] = table[key]._replace(template_id=template_id)
    return table
