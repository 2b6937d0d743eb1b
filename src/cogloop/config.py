"""Session configuration: defaults, validation, and the flat config file.

The config file is one ``key = value`` per line with ``#`` comments.
Unknown keys, weight channels and template ids are errors, not
warnings, so typos cannot silently fall back to defaults. Dotted keys
address structured entries:

    weight.<dimension>.<channel> = <float>
    window_length.<stream_kind>  = <seconds>
    cooldown.<category>          = <seconds>
    strategy.<dimension>.<severity>.<modality> = <template_id>
"""

from __future__ import annotations

import math

from .directives import TEMPLATE_IDS
from .errors import ConfigError
from .interventions import Category, Severity, StrategyKey, StrategyTable, TriggerPolicy
from .model import Dimension, Modality, Slotted, StreamKind
from .state import ALL_CHANNELS, SIGMA_FLOOR, MODERATE_FLOOR, WeightMatrix, default_weight_matrix


def default_window_lengths() -> dict[StreamKind, float]:
    return {
        StreamKind.PUPIL_GAZE: 10.0,
        StreamKind.RR_INTERVAL: 60.0,
        StreamKind.POSTURE_LANDMARKS: 10.0,
        StreamKind.NOTE_SCORE: 60.0,
    }


def default_cooldowns() -> dict[Category, float]:
    return {
        Category.COGNITIVE_ATTENTIONAL: 60.0,
        Category.PHYSIOLOGICAL: 120.0,
        Category.COMPREHENSION_ORIENTED: 60.0,
        Category.CHALLENGE_ENHANCEMENT: 60.0,
    }


class SessionConfig(Slotted):
    """Every knob of a replay. A field is a scalar, typed by its default,
    or a structured entry, a dict each instance builds afresh."""

    __slots__ = (
        "calibration_duration_s", "window_length_s", "window_hop_s", "jitter_tolerance_s",
        "ivt_velocity_threshold", "min_fixation_duration_s", "rolling_median_width", "weights",
        "quality_floor", "trigger_threshold", "persistence_s", "consecutive_windows", "confidence_min",
        "cooldown_s", "sigma_floor", "baseline_min_samples", "history_turns", "client", "strategy_overrides",
    )

    def __init__(
        self,
        calibration_duration_s: float = 300.0,
        window_length_s: dict[StreamKind, float] | None = None,
        window_hop_s: float = 10.0,
        jitter_tolerance_s: float = 0.25,
        ivt_velocity_threshold: float = 1.0,
        min_fixation_duration_s: float = 0.1,
        rolling_median_width: int = 5,
        weights: WeightMatrix | None = None,
        quality_floor: float = 0.0,
        trigger_threshold: float = 1.5,
        persistence_s: float = 10.0,
        consecutive_windows: int = 3,
        confidence_min: float = 0.6,
        cooldown_s: dict[Category, float] | None = None,
        sigma_floor: float = SIGMA_FLOOR,
        baseline_min_samples: int = 30,
        history_turns: int = 6,
        client: str = "mock",
        strategy_overrides: dict[StrategyKey, str] | None = None,
    ):
        self.calibration_duration_s = calibration_duration_s
        self.window_length_s = default_window_lengths() if window_length_s is None else window_length_s
        self.window_hop_s = window_hop_s
        self.jitter_tolerance_s = jitter_tolerance_s
        self.ivt_velocity_threshold = ivt_velocity_threshold
        self.min_fixation_duration_s = min_fixation_duration_s
        self.rolling_median_width = rolling_median_width
        self.weights = default_weight_matrix() if weights is None else weights
        self.quality_floor = quality_floor
        self.trigger_threshold = trigger_threshold
        self.persistence_s = persistence_s
        self.consecutive_windows = consecutive_windows
        self.confidence_min = confidence_min
        self.cooldown_s = default_cooldowns() if cooldown_s is None else cooldown_s
        self.sigma_floor = sigma_floor
        self.baseline_min_samples = baseline_min_samples
        self.history_turns = history_turns
        self.client = client
        self.strategy_overrides = {} if strategy_overrides is None else strategy_overrides


# The longest session a replay covers, in seconds. Replay walks every
# window and decision tick up to the last session time, so its cost
# grows with the timestamps, not with the data: a sample whose session
# time lies past this is skipped with a warning, not replayed through a
# gap of years, and every trace event lies in [0, MAX_SESSION_S]. A
# constant, not a config key: one value is in use.
MAX_SESSION_S = 24 * 3600.0

# The smallest window_hop_s, in seconds. With every span at most
# MAX_SESSION_S, a replay walks at most 864,000 ticks and cuts at most
# that many windows of each kind, whatever the input.
MIN_WINDOW_HOP_S = 0.1


class ValidationReport:
    def __init__(self):
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def checked_config(cfg: SessionConfig) -> SessionConfig:
    """``cfg``, once ``validate_config`` passes it; else ConfigError naming every failure."""
    report = validate_config(cfg)
    if not report.ok:
        raise ConfigError("; ".join(report.failures))
    return cfg


def validate_config(cfg: SessionConfig) -> ValidationReport:
    """Check every invariant the runtime assumes. Returns all failures
    at once rather than stopping at the first."""
    report = ValidationReport()
    fail = report.failures.append

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

    return report


# ---------------------------------------------------------------------------
# flat key=value entries

# the flat scalar keys, each typed by its default; the other fields are
# the structured entries, dicts
_SCALAR_KEYS = {
    name: type(value)
    for name, value in zip(SessionConfig.__slots__, SessionConfig()._values())
    if not isinstance(value, dict)
}


def _coerce(key: str, raw: object, target: type) -> object:
    try:
        if target is int:
            if isinstance(raw, bool):
                raise ValueError
            if isinstance(raw, (int, float)) and float(raw).is_integer():
                return int(raw)
            return int(str(raw).strip())
        if target is float:
            return float(raw if isinstance(raw, (int, float)) else str(raw).strip())
        return str(raw).strip()
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: cannot interpret {raw!r} as {target.__name__}") from None


def _enum_member(key: str, enum_cls, token: str):
    try:
        return enum_cls(token)
    except ValueError:
        valid = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"{key}: unknown {enum_cls.__name__.lower()} {token!r} (valid: {valid})") from None


def apply_entries(cfg: SessionConfig, entries: dict[str, object]) -> SessionConfig:
    """Return a new config with the given flat entries applied.

    Accepts the same keys as the config file; values may already be
    numbers (scenario headers embed them as JSON). Unknown keys raise
    ConfigError.
    """
    updates: dict[str, object] = {}
    window_lengths = dict(cfg.window_length_s)
    cooldowns = dict(cfg.cooldown_s)
    weights = {dim: dict(row) for dim, row in cfg.weights.items()}
    strategy = dict(cfg.strategy_overrides)

    for key in sorted(entries):
        raw = entries[key]
        if key in _SCALAR_KEYS:
            updates[key] = _coerce(key, raw, _SCALAR_KEYS[key])
            continue
        parts = key.split(".")
        if parts[0] == "window_length" and len(parts) == 2:
            kind = _enum_member(key, StreamKind, parts[1])
            window_lengths[kind] = _coerce(key, raw, float)
        elif parts[0] == "cooldown" and len(parts) == 2:
            category = _enum_member(key, Category, parts[1])
            cooldowns[category] = _coerce(key, raw, float)
        elif parts[0] == "weight" and len(parts) == 3:
            dimension = _enum_member(key, Dimension, parts[1])
            weights.setdefault(dimension, {})[parts[2]] = _coerce(key, raw, float)
        elif parts[0] == "strategy" and len(parts) == 4:
            dimension = _enum_member(key, Dimension, parts[1])
            severity = _enum_member(key, Severity, parts[2])
            modality = _enum_member(key, Modality, parts[3])
            strategy[(dimension, severity, modality)] = _coerce(key, raw, str)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    return cfg._replace(
        window_length_s=window_lengths,
        cooldown_s=cooldowns,
        weights=weights,
        strategy_overrides=strategy,
        **updates,
    )


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


# ---------------------------------------------------------------------------
# round-trip through JSON (trace headers)

def config_to_dict(cfg: SessionConfig) -> dict:
    return {
        **{key: getattr(cfg, key) for key in _SCALAR_KEYS},
        "window_length_s": {k.value: v for k, v in sorted(cfg.window_length_s.items())},
        "weights": {
            dim.value: dict(sorted(row.items())) for dim, row in sorted(cfg.weights.items())
        },
        "cooldown_s": {c.value: v for c, v in sorted(cfg.cooldown_s.items())},
        "strategy_overrides": {
            f"{d.value}.{s.value}.{m.value}": tid
            for (d, s, m), tid in sorted(cfg.strategy_overrides.items())
        },
    }


_NESTED_KEYS = {"window_length_s", "cooldown_s", "weights", "strategy_overrides"}


def config_from_dict(data: dict) -> SessionConfig:
    cfg = SessionConfig()
    flat: dict[str, object] = {}
    for key, value in data.items():
        if key in _NESTED_KEYS and not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
        if key == "window_length_s":
            for kind, length in value.items():
                flat[f"window_length.{kind}"] = length
        elif key == "cooldown_s":
            for category, seconds in value.items():
                flat[f"cooldown.{category}"] = seconds
        elif key == "weights":
            cfg.weights = {}
            for dim, row in value.items():
                if not isinstance(row, dict):
                    raise ConfigError(f"weights.{dim} must be an object, got {row!r}")
                for channel, weight in row.items():
                    flat[f"weight.{dim}.{channel}"] = weight
        elif key == "strategy_overrides":
            for dotted, template_id in value.items():
                flat[f"strategy.{dotted}"] = template_id
        elif key in _SCALAR_KEYS:
            flat[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return checked_config(apply_entries(cfg, flat))


# ---------------------------------------------------------------------------
# the engine's knobs, read by the replay and by the trace audit alike

def _trigger_policy(cfg: SessionConfig) -> TriggerPolicy:
    """The trigger knobs of a config, as the engine and the audit read them."""
    return TriggerPolicy(cfg.trigger_threshold, cfg.confidence_min, cfg.consecutive_windows, cfg.persistence_s)


def _strategy_table(cfg: SessionConfig) -> StrategyTable:
    """The strategy table of a config, as the engine and the audit read it."""
    return StrategyTable().with_template_overrides(cfg.strategy_overrides)
