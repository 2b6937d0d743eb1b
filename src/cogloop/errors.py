"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EngineError):
    """Invalid configuration entry, unknown key, or failed validation."""


class TooFewIntervalsError(EngineError):
    """An HRV statistic needs at least two intervals."""


class OutOfRangeError(EngineError):
    """A value fell outside its documented domain."""


class MissingLandmarksError(EngineError):
    """Posture scoring requires both shoulders in sample and baseline."""


class MalformedReplyError(EngineError):
    """A note-analysis reply could not be parsed."""


class ScenarioError(EngineError):
    """Malformed scenario or trace file."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ClientUnavailableError(EngineError):
    """The generation client failed after its retry."""
