"""Trace files: the events of a replay, written, read back and audited.

A trace is JSON Lines: a header object (engine, config, seed, modality,
topic) first, then one event per line, sorted by time with a fixed
per-kind priority and a sequence number as final tie-break.
``write_trace`` writes a replay's result; ``read_trace`` reads one
back, checking every field the audit reads; ``summarize`` counts what
a human wants first and ``validate_trace`` checks the closed-loop
invariants a finished trace must satisfy, judging each candidate and
decision with the engine's own rules.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from operator import itemgetter

from .config import MAX_SESSION_S, SessionConfig, _strategy_table, _trigger_policy, config_from_dict, config_to_dict
from .errors import ConfigError, ScenarioError
from .interventions import (
    COMPOSITE_DIMENSIONS,
    ROUTES,
    Candidate,
    Category,
    InterventionDecision,
    Severity,
    TriggerPolicy,
    decide,
    route_reading,
    severity_of,
)
from .model import Dimension, Modality, Slotted, Timestamp
from .scenario import _FLOAT_MAX, _decode, _encode, utf8_text
from .state import DimensionState, StateVector
from .streams import IngestOutcome

ENGINE_TAG = "cogloop-0.1.0"

# stable tie-break for events sharing a timestamp: causes before effects
KIND_PRIORITY: dict[str, int] = {
    "sync": 0,
    "ingest": 0,
    "stream_summary": 0,
    "window_features": 1,
    "state_vector": 2,
    "candidate": 3,
    "decision": 4,
    "directive_sent": 5,
    "client_reply": 6,
    "warning": 7,
}

# the counts a stream_summary event carries, one per ingest outcome
INGEST_OUTCOMES = tuple(outcome.value for outcome in IngestOutcome)
# the outcomes an ingest event traces: a sample the merger accepts in
# order is only counted
LATE_OUTCOMES = (IngestOutcome.REORDERED.value, IngestOutcome.DROPPED_LATE.value)


class TraceEvent(Slotted):
    __slots__ = ("t", "kind", "seq", "payload")

    def __init__(self, t: Timestamp, kind: str, seq: int, payload: dict):
        self.t = t
        self.kind = kind
        self.seq = seq
        self.payload = payload

    def sort_key(self) -> tuple[float, int, int]:
        return (self.t, KIND_PRIORITY[self.kind], self.seq)


# ---------------------------------------------------------------------------
# event payloads the replay writes and the audit reads

def _state_payload(state: StateVector) -> dict:
    return {
        "dims": {
            dim.value: {
                "score": ds.score,
                "confidence": ds.confidence,
                "descriptor": ds.descriptor.value,
                "observed": ds.observed,
                "signed_score": ds.signed_score,
                "supra_channels": ds.supra_channels,
            }
            for dim, ds in sorted(state.dims.items())
        }
    }


_READING_FIELDS = ("triggering_score", "confidence")
# a candidate's fields that are its route's reading, in route_reading's order
_CANDIDATE_READING_FIELDS = ("score", "confidence", "supra_channels")


def _decision_payload(decision: InterventionDecision) -> dict:
    """Every field of a decision but its time, each enum as its value."""
    return {field: getattr(value, "value", value) for field, value in decision._asdict().items() if field != "t"}


# ---------------------------------------------------------------------------
# trace files

def write_trace(result, path) -> None:
    """Write a replay's result (a ``session.SessionResult``): the header,
    then each event on its own line."""
    header = {
        "type": "header",
        "engine": ENGINE_TAG,
        "config": config_to_dict(result.config),
        "seed": result.seed,
        "modality": result.modality,
        "topic": result.topic,
    }
    with open(path, "w", encoding="utf-8") as handle:
        write = handle.write
        write(_encode(header) + "\n")
        for event in result.events:
            obj = {"type": "event", "t": event.t, "kind": event.kind, "seq": event.seq, "payload": event.payload}
            write(_encode(obj) + "\n")


# the types of a decoded JSON number: a bool's type is not among them
_NUMBER_TYPES = (int, float)


def _one_of(values) -> tuple[str, Callable[[object], bool]]:
    members = frozenset(values)
    return f"one of {', '.join(values)}", lambda value: type(value) is str and value in members


_STRING = ("a string", lambda value: type(value) is str)
_NUMBER = ("a number", lambda value: type(value) in _NUMBER_TYPES)
_COUNT = ("a non-negative integer", lambda value: type(value) is int and value >= 0)
_TIME_OR_NULL = ("a number or null", lambda value: value is None or type(value) in _NUMBER_TYPES)
_FLAG = ("true or false", lambda value: type(value) is bool)
_DIMENSION_NAMES = frozenset(dim.value for dim in Dimension)
_DIMENSION = _one_of([dim.value for dim in Dimension])
_MODALITY = _one_of([modality.value for modality in Modality])
_DIMENSION_STATE = itemgetter("score", "confidence", "signed_score", "observed", "supra_channels")


def _is_dims(dims) -> bool:
    if type(dims) is not dict or dims.keys() != _DIMENSION_NAMES:
        return False
    for state in dims.values():
        try:  # a missing field is a KeyError, a state that is not an object a TypeError
            score, confidence, signed, observed, supra = _DIMENSION_STATE(state)
        except (KeyError, TypeError):
            return False
        if not (type(score) in _NUMBER_TYPES and type(confidence) in _NUMBER_TYPES and type(signed) in _NUMBER_TYPES
                and type(observed) is bool and type(supra) is int and supra >= 0):
            return False
    return True


# the payload fields validate_trace and summarize read, by event kind
PAYLOAD_FIELDS: dict[str, dict[str, tuple[str, Callable[[object], bool]]]] = {
    "ingest": {
        "stream": _STRING,
        "outcome": _one_of(LATE_OUTCOMES),
        "count": ("an integer of at least 1", lambda value: type(value) is int and value >= 1),
        "last_t": ("a finite number", lambda value: type(value) in _NUMBER_TYPES and abs(value) <= _FLOAT_MAX),
    },
    "stream_summary": {
        "stream": _STRING,
        **{outcome: _COUNT for outcome in INGEST_OUTCOMES},
        "first_t": _TIME_OR_NULL,
        "last_t": _TIME_OR_NULL,
    },
    "state_vector": {
        "dims": ("an object of every dimension's score, confidence, signed_score, observed and supra_channels",
                 _is_dims),
    },
    "candidate": {
        "dimension": _DIMENSION, "supra_channels": _COUNT, "repeat_ordinal": _COUNT, "score": _NUMBER,
        "confidence": _NUMBER, "severity": _one_of([severity.value for severity in Severity]), "composite": _FLAG,
    },
    "decision": {
        "dimension": _DIMENSION,
        "category": _one_of([category.value for category in Category]),
        "triggering_score": _NUMBER,
        "confidence": _NUMBER,
        "composite": _FLAG,
    },
    "warning": {"reason": _STRING},
}


def _trace_event(obj: dict, line_no: int) -> TraceEvent:
    """The event on one trace line, with every field validate_trace and
    summarize read checked, so a hand-edited trace fails here with its
    line number instead of deep inside them."""
    try:
        t, kind, seq, payload = obj["t"], obj["kind"], obj["seq"], obj["payload"]
    except KeyError as error:
        raise ScenarioError(f"trace event missing field {error}", line_no) from None
    if type(kind) is not str or kind not in KIND_PRIORITY:
        raise ScenarioError(f"unknown trace event kind {kind!r}", line_no)
    if not (type(t) in _NUMBER_TYPES and abs(t) <= _FLOAT_MAX):
        raise ScenarioError(f"trace event t must be a finite number, got {t!r}", line_no)
    if type(seq) is not int:
        raise ScenarioError(f"trace event seq must be an integer, got {seq!r}", line_no)
    if type(payload) is not dict:
        raise ScenarioError("trace event payload must be an object", line_no)
    for name, (expected, check) in PAYLOAD_FIELDS.get(kind, {}).items():
        if name not in payload:
            raise ScenarioError(f"{kind} payload missing field {name!r}", line_no)
        if not check(payload[name]):
            raise ScenarioError(
                f"{kind} payload field {name!r} must be {expected}, got {payload[name]!r}", line_no
            )
    return TraceEvent(t, kind, seq, payload)


def _trace_config(header: dict, line_no: int) -> SessionConfig:
    config = header.get("config")
    if not isinstance(config, dict):
        raise ScenarioError("trace header needs a config object", line_no)
    try:
        return config_from_dict(config)
    except ConfigError as error:
        raise ScenarioError(f"trace header config: {error}", line_no) from None


def read_trace(path) -> tuple[dict, list[TraceEvent]]:
    """The header and events of a trace; a bad line is a ScenarioError
    naming it. Each event holds the fields the audit reads, and the
    header's config is decoded once, here, into the ``SessionConfig``
    that ``validate_trace`` and ``summarize`` read."""
    header: dict | None = None
    events: list[TraceEvent] = []
    with utf8_text(path) as handle:
        for line_no, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line:
                continue
            try:
                obj, end = _decode(line, 0)
            except StopIteration:
                raise ScenarioError("invalid trace JSON: Expecting value", line_no) from None
            except json.JSONDecodeError as error:
                raise ScenarioError(f"invalid trace JSON: {error.msg}", line_no) from None
            if end != len(line):
                raise ScenarioError("invalid trace JSON: Extra data", line_no)
            if type(obj) is not dict:
                raise ScenarioError("each trace line must be an object", line_no)
            record_type = obj.get("type")
            if record_type == "event":
                if header is None:
                    raise ScenarioError("trace events before header", line_no)
                events.append(_trace_event(obj, line_no))
            elif record_type == "header":
                if header is not None:
                    raise ScenarioError("duplicate trace header", line_no)
                obj["config"] = _trace_config(obj, line_no)
                if not _MODALITY[1](obj.get("modality", Modality.TEXT.value)):
                    raise ScenarioError(f"trace header modality must be {_MODALITY[0]}, got {obj['modality']!r}", line_no)
                header = obj
            else:
                raise ScenarioError(f"unknown trace record type {record_type!r}", line_no)
    if header is None:
        raise ScenarioError("trace is empty (no header)", 1)
    return header, events


def summarize(header: dict, events: list[TraceEvent]) -> dict:
    """Aggregate counts a human wants first when reading a trace whose
    header holds its ``SessionConfig`` (as ``read_trace`` returns it)."""
    cfg = header["config"]
    ingest_outcomes = dict.fromkeys(INGEST_OUTCOMES, 0)
    decisions_by_category: dict[str, int] = {}
    decisions_by_dimension: dict[str, int] = {}
    warnings_by_reason: dict[str, int] = {}
    supra_ticks: dict[str, int] = {dim.value: 0 for dim in Dimension}
    ticks = 0
    windows = 0
    for event in events:
        if event.kind == "stream_summary":
            for outcome in INGEST_OUTCOMES:
                ingest_outcomes[outcome] += event.payload[outcome]
        elif event.kind == "window_features":
            windows += 1
        elif event.kind == "state_vector":
            ticks += 1
            for dim, ds in event.payload["dims"].items():
                if ds["score"] > cfg.trigger_threshold:
                    supra_ticks[dim] += 1
        elif event.kind == "decision":
            category = event.payload["category"]
            dimension = event.payload["dimension"]
            decisions_by_category[category] = decisions_by_category.get(category, 0) + 1
            decisions_by_dimension[dimension] = decisions_by_dimension.get(dimension, 0) + 1
        elif event.kind == "warning":
            reason = event.payload["reason"]
            warnings_by_reason[reason] = warnings_by_reason.get(reason, 0) + 1
    return {
        "engine": header.get("engine"),
        "ingest": {outcome: n for outcome, n in sorted(ingest_outcomes.items()) if n},
        "windows": windows,
        "ticks": ticks,
        "decisions_total": sum(decisions_by_category.values()),
        "decisions_by_category": dict(sorted(decisions_by_category.items())),
        "decisions_by_dimension": dict(sorted(decisions_by_dimension.items())),
        "time_above_threshold_s": {
            dim: count * cfg.window_hop_s for dim, count in sorted(supra_ticks.items())
        },
        "warnings": dict(sorted(warnings_by_reason.items())),
    }


def validate_trace(header: dict, events: list[TraceEvent]) -> list[str]:
    """Check the closed-loop invariants a finished trace must satisfy.

    ``header["config"]`` is the trace's ``SessionConfig``, as
    ``read_trace`` returns it. Violations (empty list when clean):
      - every candidate and every decision takes one of the engine's
        trigger routes (``interventions.ROUTES``), the engine's own rule
        for it (``route_reading``) reads the state vector at its time as
        active, and the route reads active on enough consecutive state
        vectors up to it, spanning at least the persistence time;
      - a candidate carries the reading's score, confidence and
        supra_channels, and the severity of that score;
      - a decision carries the reading's triggering_score and
        confidence, and its strategy is what ``interventions.decide``
        makes of the reading and its candidate, at the header's
        modality (text when absent);
      - decisions of one category are spaced by at least the category
        cooldown (boundary inclusive);
      - every decision coincides with a candidate of its route (the same
        dimension and composite flag), and no tick carries both a plain
        and a composite candidate of one dimension, as the engine's
        composite route supersedes the plain one;
      - events are sorted by (t, kind priority, seq), each within
        [0, MAX_SESSION_S];
      - every stream has at most one stream_summary, a stream that
        ingest events name has one, and its reordered and dropped_late
        counts equal the summed ``count`` of its ingest events (one per
        run of late samples) with that outcome.
    """
    cfg = header["config"]
    policy = _trigger_policy(cfg)
    table = _strategy_table(cfg)
    modality = Modality(header.get("modality", Modality.TEXT.value))
    violations: list[str] = []

    keys = [e.sort_key() for e in events]
    if keys != sorted(keys):
        violations.append("events are not sorted by (t, kind priority, seq)")
    violations.extend(
        f"{e.kind} event at t={e.t}: outside the session span [0, {MAX_SESSION_S}]"
        for e in events if not 0.0 <= e.t <= MAX_SESSION_S
    )
    violations.extend(_stream_summary_violations(events))

    states = [e for e in events if e.kind == "state_vector"]
    state_index = {e.t: i for i, e in enumerate(states)}
    candidates: dict[tuple[float, str, bool], dict] = {}
    for event in events:
        if event.kind == "candidate":
            t, dim, composite = event.t, event.payload["dimension"], event.payload["composite"]
            if (t, dim, not composite) in candidates:
                violations.append(f"candidate t={t} {dim}: both a plain and a composite candidate at one tick, "
                                  "where the composite supersedes the plain one")
            candidates[t, dim, composite] = event.payload
    decisions = [e for e in events if e.kind == "decision"]

    last_by_category: dict[str, TraceEvent] = {}
    for event in decisions:
        category = event.payload["category"]
        previous = last_by_category.get(category)
        if previous is not None:
            gap = event.t - previous.t
            needed = cfg.cooldown_s[Category(category)]
            # the engine's own arithmetic: the category is off cooldown
            # from previous.t + cooldown on
            if event.t < previous.t + needed:
                violations.append(
                    f"decision t={event.t} {category}: only {gap}s after the previous "
                    f"{category} decision, cooldown is {needed}s"
                )
        last_by_category[category] = event

    for event in events:
        if event.kind == "candidate":
            payload = event.payload
            label = f"candidate t={event.t} {payload['dimension']}"
            reading = _judged_reading(label, event, states, state_index, policy, violations)
            if reading is None:
                continue
            for field, value in zip(_CANDIDATE_READING_FIELDS, reading):
                if payload[field] != value:
                    violations.append(f"{label}: {field} {payload[field]} is not the reading's {value}")
            severity = severity_of(reading[0]).value
            if payload["severity"] != severity:
                violations.append(f"{label}: severity {payload['severity']} is not the engine's {severity}")
        elif event.kind == "decision":
            payload = event.payload
            dim = payload["dimension"]
            label = f"decision t={event.t} {dim}"
            candidate = candidates.get((event.t, dim, payload["composite"]))
            if candidate is None:
                violations.append(f"{label}: no matching candidate event")
            reading = _judged_reading(label, event, states, state_index, policy, violations)
            if reading is None:
                continue
            for field, value in zip(_READING_FIELDS, reading):
                if payload[field] != value:
                    violations.append(f"{label}: {field} {payload[field]} is not the reading's {value}")
            if candidate is not None:
                score, confidence, _ = reading
                winner = Candidate(Dimension(dim), event.t, score, confidence, severity_of(score),
                                   candidate["supra_channels"], payload["composite"], candidate["repeat_ordinal"])
                for field, value in _decision_payload(decide(winner, table, modality)).items():
                    if field not in _READING_FIELDS and payload.get(field) != value:
                        violations.append(f"{label}: {field} {payload.get(field)} is not the engine's {value}")

    return violations


def _traced_reading(route: tuple[Dimension, bool], state: TraceEvent, policy: TriggerPolicy):
    """The engine's reading of a route on a traced state vector. Only the
    route's own dimensions are rebuilt, without the descriptor that no
    trigger rule reads."""
    dimension, composite = route
    traced = state.payload["dims"]
    dims = {}
    for d in COMPOSITE_DIMENSIONS if composite else (dimension,):
        ds = traced[d.value]
        dims[d] = DimensionState(
            ds["score"], ds["confidence"], None, ds["observed"], ds["signed_score"], ds["supra_channels"]
        )
    return route_reading(dimension, composite, StateVector(state.t, dims), policy)


def _judged_reading(label: str, event: TraceEvent, states: list[TraceEvent], state_index: dict[float, int],
                    policy: TriggerPolicy, violations: list[str]):
    """The engine's reading of a candidate's or a decision's route on the
    state vector at its time, or None when there is none. Appends a
    violation when the route is not the engine's, when it does not read
    active there, and for each trigger gate the run up to it misses."""
    dim, composite = event.payload["dimension"], event.payload["composite"]
    route = (Dimension(dim), composite)
    if route not in ROUTES:
        violations.append(f"{label}: no trigger route for dimension {dim} with composite {composite}")
        return None
    index = state_index.get(event.t)
    reading = None if index is None else _traced_reading(route, states[index], policy)
    if reading is None:
        violations.append(f"{label}: no qualifying state vector at {event.kind} time")
        return None
    # walk back while the route reads active, until both gates hold
    count, span = 1, 0.0
    while (count < policy.consecutive_windows or span < policy.persistence_s) and index > 0:
        index -= 1
        if _traced_reading(route, states[index], policy) is None:
            break
        count, span = count + 1, event.t - states[index].t
    if count < policy.consecutive_windows:
        violations.append(f"{label}: only {count} consecutive qualifying windows, need {policy.consecutive_windows}")
    if span < policy.persistence_s:
        violations.append(f"{label}: qualifying span {span}s is shorter than persistence {policy.persistence_s}s")
    return reading


def _stream_summary_violations(events: list[TraceEvent]) -> list[str]:
    violations: list[str] = []
    summaries: dict[str, dict] = {}
    traced: dict[tuple[str, str], int] = {}
    for event in events:
        if event.kind == "stream_summary":
            stream = event.payload["stream"]
            if stream in summaries:
                violations.append(f"stream {stream!r}: more than one stream_summary")
            summaries[stream] = event.payload
        elif event.kind == "ingest":
            key = (event.payload["stream"], event.payload["outcome"])
            traced[key] = traced.get(key, 0) + event.payload["count"]
    for stream in sorted({stream for stream, _ in traced} - summaries.keys()):
        violations.append(f"stream {stream!r}: ingest events but no stream_summary")
    for stream, summary in summaries.items():
        for outcome in LATE_OUTCOMES:
            count = traced.get((stream, outcome), 0)
            if summary[outcome] != count:
                violations.append(
                    f"stream {stream!r}: stream_summary counts {summary[outcome]} {outcome}, "
                    f"its {outcome} ingest runs count {count}"
                )
    return violations
