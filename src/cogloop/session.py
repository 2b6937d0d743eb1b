"""Replay runner: scenario in, ordered trace out.

A ``Session`` takes one record at a time (``push``). Each record is
ingested into the stream merger; then every window that the merger's
watermark has made final is cut and turned into channel features, the
baseline freezes once calibration is over, and every final decision
tick is walked: fuse, trigger, render, send. ``close`` flushes the
merger and finishes the rest. So decisions come out while the records
are still arriving, and memory holds about one window of samples per
stream, whatever the session's length. ``run_session`` replays a
whole scenario through one session.

Everything observable lands in the trace as an event; the trace is
sorted by time with a fixed per-kind priority and a sequence number as
final tie-break, so identical inputs produce byte-identical traces.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections.abc import Callable
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .behavior import PostureScore, ingest_note_assessment, score_posture
from .cardio import window_hrv
from .config import (
    MAX_SESSION_S,
    SessionConfig,
    apply_entries,
    checked_config,
    config_from_dict,
    config_to_dict,
)
from .directives import (
    GenerationClient,
    LearningContext,
    LiveGenerationClient,
    MockGenerationClient,
    build_directives,
    render_prompt,
    sha256,
)
from .errors import (
    ClientUnavailableError,
    ConfigError,
    MalformedReplyError,
    MissingLandmarksError,
    ScenarioError,
)
from .gaze import GazeTrack, window_gaze_features
from .interventions import (
    COMPOSITE_DIMENSIONS,
    ROUTES,
    Candidate,
    Category,
    InterventionDecision,
    InterventionEngine,
    Severity,
    StrategyTable,
    TriggerPolicy,
    decide,
    route_reading,
    severity_of,
)
from .model import Dimension, Modality, Payload, PostureSample, Slotted, StreamKind, Timestamp
from .scenario import (
    MIN_GAZE_STEP_S,
    SampleRecord,
    Scenario,
    ScenarioFile,
    ScenarioHeader,
    SyncRecord,
    _FLOAT_MAX,
    _decode,
    _encode,
    utf8_text,
)
from .state import (
    CHANNEL_NOTE_ERROR,
    CHANNEL_POSTURE,
    CalibrationProfile,
    ChannelFeature,
    DimensionState,
    Extraction,
    StateVector,
    compute_baseline,
    infer_state,
)
from .stats import fmean
from .streams import ACCEPTED, IngestOutcome, StreamMerger, Window, grid_time

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


class SessionResult(NamedTuple):
    config: SessionConfig
    events: list[TraceEvent]
    decisions: list[InterventionDecision]
    baseline: CalibrationProfile
    seed: int = 0
    modality: str = "text"
    topic: str = ""


class _Recorder:
    """The events of one replay, kept as (t, kind, payload) in two lists:
    what arriving records caused (``note``: their sync, ingest and
    warning events) and what the engine made of the merger's timelines
    (``add``). seq numbers the arrivals first, then the engine's events,
    each in the order recorded: among events of one time and priority,
    an arrival comes before the engine's events, whichever was recorded
    first, as a cause before its effects.

    A payload is kept by reference until ``sorted_events``, so an event
    noted once can still be updated: an ``ingest`` event is noted when
    its run of late samples opens, and keeps that t and seq while the
    run's later samples raise its ``count`` and move its ``last_t``."""

    def __init__(self):
        self.arrivals: list[tuple[float, str, dict]] = []
        self.engine: list[tuple[float, str, dict]] = []

    def note(self, t: float, kind: str, payload: dict) -> None:
        self.arrivals.append((t, kind, payload))

    def add(self, t: float, kind: str, payload: dict) -> None:
        self.engine.append((t, kind, payload))

    def sorted_events(self) -> list[TraceEvent]:
        """The events in (t, kind priority, seq) order.

        seq grows in list order and list.sort is stable, so sorting by
        priority and then by time gives that order without building a
        key tuple per event.
        """
        events = [
            TraceEvent(t, kind, seq, payload)
            for seq, (t, kind, payload) in enumerate(itertools.chain(self.arrivals, self.engine))
        ]
        events.sort(key=lambda event: KIND_PRIORITY[event.kind])
        events.sort(key=attrgetter("t"))
        return events


def _on_span(t: float) -> float:
    """A session time clamped into [0, MAX_SESSION_S]: where an event
    about a time off the span is stamped."""
    return min(t, MAX_SESSION_S) if t >= 0.0 else 0.0


def _trigger_policy(cfg: SessionConfig) -> TriggerPolicy:
    """The trigger knobs of a config, as the engine and the audit read them."""
    return TriggerPolicy(cfg.trigger_threshold, cfg.confidence_min, cfg.consecutive_windows, cfg.persistence_s)


def _strategy_table(cfg: SessionConfig) -> StrategyTable:
    """The strategy table of a config, as the engine and the audit read it."""
    return StrategyTable().with_template_overrides(cfg.strategy_overrides)


def _make_client(cfg: SessionConfig, header: ScenarioHeader) -> GenerationClient:
    if cfg.client == "live":
        return LiveGenerationClient()
    return MockGenerationClient(scripted_note_replies=header.analyzer_replies)


def expected_calibration_windows(cfg: SessionConfig, kind: StreamKind) -> int:
    """How many complete windows of this kind fit inside calibration:
    the windows whose end on the hop grid is at most its end."""
    length, hop, end = cfg.window_length_s[kind], cfg.window_hop_s, cfg.calibration_duration_s
    # the quotient is off by at most one; the grid settles the count
    count = max(0, math.floor((end - length) / hop) + 1)
    while grid_time(count, hop, length) <= end:
        count += 1
    while count > 0 and grid_time(count - 1, hop, length) > end:
        count -= 1
    return count


def _baseline_minimum(cfg: SessionConfig, kind: StreamKind) -> int:
    """The baseline's sample minimum for a channel of this kind.

    Slow channels cannot physically produce ``baseline_min_samples``
    windows inside the calibration span, so the requirement is capped at
    80% of what the window grid can yield (never below 2).
    """
    attainable = max(2, int(math.floor(0.8 * expected_calibration_windows(cfg, kind))))
    return min(cfg.baseline_min_samples, attainable)


# ---------------------------------------------------------------------------
# window -> channel features

# An extractor turns one window at a time into a ``state.Extraction``:
# (quality, channel features, kind-specific payload extras). Windows
# come in order of their start; the gaze and posture extractors are made
# once per session and compute a per-sample quantity once, the first
# time a window holds the sample. The gaze and RR extractors are
# ``gaze.window_gaze_features`` (with the session's track) and
# ``cardio.window_hrv``. The session reaches the feature functions by
# their names in this module, so a profiler that wraps those names here
# before a session starts sees every call.

Extractor = Callable[[Window], Extraction]


def _posture_extractor(baseline_pose: PostureSample | None) -> Extractor:
    # Each frame is scored once, when the first window holds it, and
    # forgotten once the windows have moved past it. scores[i] belongs
    # to timeline position base + i; None where a shoulder is missing.
    scores: list[PostureScore | None] = []
    base = 0

    def extract(window: Window) -> Extraction:
        nonlocal base
        if baseline_pose is not None:
            del scores[:window.lo - base]
            base = window.lo
            for envelope in window.samples[len(scores):]:
                try:
                    scores.append(score_posture(envelope.payload, baseline_pose))
                except MissingLandmarksError:
                    scores.append(None)
        window_scores = scores[:window.hi - base]
        scored = [s for s in window_scores if s is not None]
        skipped = len(window_scores) - len(scored)
        if not scored:
            return 0.0, [], {"category": None, "skipped_samples": skipped}
        percent = fmean([s.percent for s in scored])
        confidences = [
            env.source_confidence for env, s in zip(window.samples, window_scores) if s is not None
        ]
        quality = fmean(confidences) * len(scored) / (len(scored) + skipped)
        # the category is the latest pose band in the window
        extras = {"category": scored[-1].category.value, "skipped_samples": skipped}
        return quality, [ChannelFeature(CHANNEL_POSTURE, percent, quality, window.end)], extras

    return extract


def _extract_notes(window: Window) -> Extraction:
    extras = {"sample_count": len(window.samples)}
    if not window.samples:
        return 0.0, [], extras
    error = fmean([1.0 - env.payload.correctness for env in window.samples])
    quality = fmean([env.source_confidence for env in window.samples])
    return quality, [ChannelFeature(CHANNEL_NOTE_ERROR, error, quality, window.end)], extras


def _mean_pose(samples: list[PostureSample]) -> PostureSample | None:
    """Average landmark positions over calibration poses.

    Each landmark is averaged over the samples where it is visible;
    the result is usable only if both shoulders made it in.
    """
    sums: dict[str, tuple[float, float, int]] = {}
    for pose in samples:
        for name in pose.landmarks:
            if not pose.point_visible(name):
                continue
            x, y = pose.landmarks[name]
            sx, sy, n = sums.get(name, (0.0, 0.0, 0))
            sums[name] = (sx + x, sy + y, n + 1)
    landmarks = {name: (sx / n, sy / n) for name, (sx, sy, n) in sums.items() if n > 0}
    if "shoulder_left" not in landmarks or "shoulder_right" not in landmarks:
        return None
    return PostureSample(landmarks=landmarks)


# ---------------------------------------------------------------------------
# the runner

def resolve_config(header: ScenarioHeader, overrides: dict[str, object] | None = None) -> SessionConfig:
    """Defaults, then scenario header entries, then caller overrides."""
    cfg = apply_entries(SessionConfig(), header.config_entries)
    if overrides:
        cfg = apply_entries(cfg, overrides)
    return checked_config(cfg)


class Session:
    """One replay, fed one record at a time.

    ``push`` ingests a record, then cuts every window and walks every
    decision tick that the merger's watermark has made final: those ending
    at or before the merger's watermark. Calibration windows feed the
    baseline, which freezes once the watermark reaches the end of
    calibration; posture and note windows are cut from then on (see
    ``_advance``). ``close`` flushes the merger and cuts
    and walks the rest. A decision is therefore made as soon as the
    samples that decide it are in, and the session holds about one
    window of samples per stream, not the records it has seen.

    ``pace``, when given, is called with each in-span record's session
    time before the record takes effect (``run_session``'s realtime
    mode sleeps there).
    """

    def __init__(
        self,
        header: ScenarioHeader,
        overrides: dict[str, object] | None = None,
        client: GenerationClient | None = None,
        pace: Callable[[float], None] | None = None,
    ):
        cfg = self.config = resolve_config(header, overrides)
        self.header = header
        self.client = client or _make_client(cfg, header)
        self.decisions: list[InterventionDecision] = []
        self.baseline: CalibrationProfile | None = None
        self._pace = pace
        self._recorder = _Recorder()
        # each stream's open run of late samples: (the stream's ingested
        # count at the run's last sample, the run's ingest payload)
        self._late_runs: dict[str, tuple[int, dict]] = {}
        self._merger = StreamMerger(jitter_tolerance_s=cfg.jitter_tolerance_s)
        for descriptor in header.streams:
            self._merger.register_stream(descriptor)
        # gaze velocity needs session times MIN_GAZE_STEP_S apart; the
        # parser checks producer times, and a sync that moves the offset
        # back can still map a gaze sample onto or just after its predecessor
        self._gaze_stream = next((d.stream_id for d in header.streams if d.kind is StreamKind.PUPIL_GAZE), None)
        self._last_gaze_t = -math.inf

        # the kinds whose windows are being cut, in StreamKind order
        track = GazeTrack(cfg.rolling_median_width, cfg.ivt_velocity_threshold)
        self._extractors: dict[StreamKind, Extractor] = {
            StreamKind.PUPIL_GAZE: lambda window: window_gaze_features(window, track, cfg.min_fixation_duration_s),
            StreamKind.RR_INTERVAL: window_hrv,
        }
        self._calibration_values: dict[str, list[tuple[float, float]]] = {}
        self._calibration_kinds: dict[str, StreamKind] = {}
        # live features cut but not yet read by a tick, in time order
        self._live: list[ChannelFeature] = []
        self._engine = InterventionEngine(
            policy=_trigger_policy(cfg),
            cooldown_s=cfg.cooldown_s,
            modality=header.modality,
            table=_strategy_table(cfg),
        )
        self._context = LearningContext(topic=header.topic, dialogue=header.dialogue)
        self._step = 1  # index of the next decision tick
        # the watermark at which the next window, the baseline or the
        # next tick becomes final
        self._due = self._next_due()

    def push(self, record: SampleRecord | SyncRecord) -> None:
        """Install a sync record's clock offset, or ``place`` a sample."""
        if isinstance(record, SyncRecord):
            offset = self._merger.registrations[record.stream_id].set_offset(list(record.marks))
            sync_t = _on_span(max(session_t for _, session_t in record.marks))
            self._recorder.note(sync_t, "sync", {"stream": record.stream_id, "offset_s": offset})
            return
        self.place(record.stream_id, record.t, record.source_confidence, record.payload, record.transcript)

    def place(self, stream_id: str, t: Timestamp, source_confidence: float,
              payload: Payload | None, transcript: str | None) -> None:
        """Ingest one sample (``SampleRecord``'s fields), then cut and walk what it made final."""
        merger = self._merger
        registration = merger.registrations[stream_id]
        session_t = t + registration.clock_offset_s
        if not 0.0 <= session_t <= MAX_SESSION_S:
            self._recorder.note(
                _on_span(session_t),
                "warning",
                {
                    "reason": "session_time_out_of_range",
                    "stream": stream_id,
                    "detail": f"producer time {t} maps to session time {session_t}, "
                    f"outside [0, {MAX_SESSION_S}]",
                },
            )
            return
        if self._pace is not None:
            self._pace(session_t)
        if stream_id == self._gaze_stream:
            if session_t - self._last_gaze_t < MIN_GAZE_STEP_S:
                self._recorder.note(
                    session_t,
                    "warning",
                    {
                        "reason": "session_time_not_increasing",
                        "stream": stream_id,
                        "detail": f"producer time {t} maps to session time {session_t}, "
                        f"less than {MIN_GAZE_STEP_S} s after the previous gaze sample at {self._last_gaze_t}",
                    },
                )
                return
            self._last_gaze_t = session_t

        if transcript is not None and session_t >= merger.watermark:
            # transcripts go through the analyzer before they can score;
            # one stamped before the watermark, which ingest drops as
            # late, is not: a live client makes no request for it
            try:
                reply = self.client.analyze_note(transcript)
            except ClientUnavailableError as error:
                self._recorder.note(session_t, "warning", {"reason": "analysis_failed", "detail": str(error)})
                return
            try:
                payload = ingest_note_assessment(reply)
            except MalformedReplyError as error:
                self._recorder.note(session_t, "warning", {"reason": "malformed_note_reply", "detail": str(error)})
                return
            if payload.clamped:
                self._recorder.note(session_t, "warning", {"reason": "note_score_clamped", "stream": stream_id})

        outcome = merger.ingest(registration, session_t, payload, source_confidence)
        if outcome is not ACCEPTED:
            self._note_late(stream_id, registration.ingested, session_t, outcome.value)
        if merger.watermark >= self._due:
            self._advance()

    def _note_late(self, stream: str, ingested: int, session_t: float, outcome: str) -> None:
        """Trace the stream's ``ingested``-th sample, which came late. It
        extends the stream's open run when it is the run's next ingested
        sample and has the run's outcome; otherwise it opens a run, an
        ``ingest`` event at its own time. An accepted sample closes a run
        with no work here: it moves the ingested count past the run."""
        run = self._late_runs.get(stream)
        if run is not None and run[0] == ingested - 1 and run[1]["outcome"] == outcome:
            payload = run[1]
            payload["count"] += 1
            payload["last_t"] = session_t
        else:
            payload = {"stream": stream, "outcome": outcome, "count": 1, "last_t": session_t}
            self._recorder.note(session_t, "ingest", payload)
        self._late_runs[stream] = (ingested, payload)

    def close(self) -> SessionResult:
        """Flush the merger, cut and walk the rest, and return the result."""
        merger = self._merger
        merger.flush()
        # accepted samples are counted, not traced one by one
        summary_t = max(merger.watermark, 0.0)
        for descriptor in self.header.streams:
            registration = merger.registrations[descriptor.stream_id]
            self._recorder.add(
                summary_t,
                "stream_summary",
                {
                    "stream": descriptor.stream_id,
                    "accepted": registration.accepted,
                    "reordered": registration.reordered,
                    "dropped_late": registration.dropped,
                    "first_t": registration.first_t,
                    "last_t": registration.last_t,
                },
            )
        self._advance(final=True)
        return SessionResult(
            config=self.config,
            events=self._recorder.sorted_events(),
            decisions=self.decisions,
            baseline=self.baseline,
            seed=self.header.seed,
            modality=self.header.modality.value,
            topic=self.header.topic,
        )

    def _next_due(self) -> float:
        cfg, merger = self.config, self._merger
        if self.baseline is None:
            due = cfg.calibration_duration_s
        else:
            due = grid_time(self._step, cfg.window_hop_s, cfg.calibration_duration_s)
        return min(
            due,
            *[merger.next_window_end(kind, cfg.window_length_s[kind], cfg.window_hop_s) for kind in self._extractors],
        )

    def _advance(self, final: bool = False) -> None:
        """Cut every window the watermark has made final, freeze the
        baseline once calibration is over, and walk the final ticks."""
        cfg, merger = self.config, self._merger
        watermark = merger.watermark
        calibration_over = self.baseline is None and (final or watermark >= cfg.calibration_duration_s)
        if calibration_over:
            # two-pass posture baseline: the reference pose comes from
            # the raw calibration poses, all still on the timeline, then
            # every posture window is scored against it. Note windows
            # start after posture ones, so that windows ending at one
            # time always come out in StreamKind order.
            poses = [
                env.payload for env in merger.timeline(StreamKind.POSTURE_LANDMARKS)
                if env.timestamp < cfg.calibration_duration_s
            ]
            self._extractors[StreamKind.POSTURE_LANDMARKS] = _posture_extractor(_mean_pose(poses))
            self._extractors[StreamKind.NOTE_SCORE] = _extract_notes
        live: list[ChannelFeature] = []
        for kind, extract in self._extractors.items():
            if merger.next_window_end(kind, cfg.window_length_s[kind], cfg.window_hop_s) <= watermark:
                live += self._cut(kind, extract)
        # every window of this cut ends after every window of the last
        live.sort(key=attrgetter("t"))
        self._live += live
        if calibration_over:
            self._freeze_baseline()
        if self.baseline is not None:
            while (tick := grid_time(self._step, cfg.window_hop_s, cfg.calibration_duration_s)) <= watermark:
                self._tick(tick)
        self._due = self._next_due()

    def _cut(self, kind: StreamKind, extract: Extractor) -> list[ChannelFeature]:
        """Cut the kind's final windows; returns their live features."""
        cfg = self.config
        live: list[ChannelFeature] = []
        for window in self._merger.pop_windows(kind, cfg.window_length_s[kind], cfg.window_hop_s):
            quality, features, extras = extract(window)
            self._recorder.add(
                window.end,
                "window_features",
                {
                    "stream_kind": kind.value,
                    "start": window.start,
                    "end": window.end,
                    "present": bool(features),
                    "quality": quality,
                    "values": {f.channel_id: f.value for f in features},
                    **extras,
                },
            )
            if window.end <= cfg.calibration_duration_s:
                for feature in features:
                    self._calibration_values.setdefault(feature.channel_id, []).append(
                        (feature.value, feature.quality)
                    )
                    self._calibration_kinds[feature.channel_id] = kind
            else:
                live += features
        return live

    def _freeze_baseline(self) -> None:
        cfg = self.config
        self.baseline = compute_baseline(
            self._calibration_values,
            min_samples=cfg.baseline_min_samples,
            sigma_floor=cfg.sigma_floor,
            min_samples_per_channel={
                channel: _baseline_minimum(cfg, kind) for channel, kind in self._calibration_kinds.items()
            },
        )
        self._calibration_values.clear()
        for channel, reason in sorted(self.baseline.uncalibrated.items()):
            self._recorder.add(
                cfg.calibration_duration_s,
                "warning",
                {"reason": "uncalibrated_channel", "channel": channel, "detail": reason},
            )

    def _tick(self, tick: float) -> None:
        """Fuse the features that ended since the previous tick, then
        trigger, render and send."""
        cfg, add = self.config, self._recorder.add
        live = self._live
        n = 0
        while n < len(live) and live[n].t <= tick:
            n += 1
        fresh = live[:n]
        del live[:n]
        self._step += 1
        state = infer_state(
            fresh, self.baseline, cfg.weights, tick,
            trigger_threshold=cfg.trigger_threshold,
            quality_floor=cfg.quality_floor,
        )
        add(tick, "state_vector", _state_payload(state))

        candidates, decision = self._engine.step(state)
        for candidate in candidates:
            add(
                tick,
                "candidate",
                {
                    "dimension": candidate.dimension.value,
                    "score": candidate.score,
                    "confidence": candidate.confidence,
                    "severity": candidate.severity.value,
                    "supra_channels": candidate.supra_channels,
                    "composite": candidate.composite,
                    "repeat_ordinal": candidate.repeat_ordinal,
                },
            )
        if decision is None:
            return
        self.decisions.append(decision)
        payload = _decision_payload(decision)
        add(tick, "decision", payload)
        descriptors = {dim: state.dims[dim].descriptor for dim in Dimension}
        packet = build_directives(decision, descriptors, self._context)
        prompt = render_prompt(packet, history_turns=cfg.history_turns)
        add(
            tick,
            "directive_sent",
            {
                # the decision's strategy, without the reading
                **{field: value for field, value in payload.items() if field not in _READING_FIELDS},
                "tone": {field: value.value for field, value in packet.tone._asdict().items()},
                "directive": packet.directive_text,
                "prompt": prompt,
                "prompt_sha256": sha256(prompt.encode("utf-8")).hexdigest(),
            },
        )
        try:
            reply = self.client.generate(prompt)
            add(tick, "client_reply", {"reply": reply})
        except ClientUnavailableError as error:
            add(tick, "warning", {"reason": "generation_failed", "detail": str(error)})


def _pacer(sleep: Callable[[float], None]) -> Callable[[float], None]:
    """Sleep through the session time from one in-span record to the
    next; a record behind the latest one does not sleep."""
    paced_to: float | None = None

    def pace(session_t: float) -> None:
        nonlocal paced_to
        if paced_to is None:
            paced_to = session_t
        elif session_t > paced_to:
            sleep(session_t - paced_to)
            paced_to = session_t

    return pace


def run_session(
    scenario: Scenario,
    overrides: dict[str, object] | None = None,
    client: GenerationClient | None = None,
    realtime: bool = False,
    _sleep=time.sleep,
) -> SessionResult:
    """Replay a scenario through one ``Session`` (a file's samples straight
    to ``place``); ``realtime`` paces the records at their session times."""
    session = Session(scenario.header, overrides, client, pace=_pacer(_sleep) if realtime else None)
    records = scenario.records
    if isinstance(records, ScenarioFile):
        records = records.scan(session.place)
    push = session.push
    for record in records:
        push(record)
    return session.close()


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

def write_trace(result: SessionResult, path) -> None:
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
      - every decision coincides with a candidate of the same dimension;
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
    candidates = {(e.t, e.payload["dimension"]): e.payload for e in events if e.kind == "candidate"}
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
            candidate = candidates.get((event.t, dim))
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
