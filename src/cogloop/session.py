"""Replay runner: scenario in, ordered trace out.

A ``Session`` takes one record at a time (``push``). Each record is
ingested into the stream merger; then every window that the merger's
watermark has made final is cut and turned into channel features, the
baseline freezes once calibration is over, and every final decision
tick is walked: fuse, trigger, render, send. ``close`` flushes the
merger and finishes the rest. So decisions come out while the records
are still arriving, and memory holds about one window of samples per
stream, whatever the session's length or its calibration span.

Posture windows are cut from the start, as gaze and RR windows are,
but their frames are scored against the baseline pose, the mean of the
calibration frames: until it is known, a frame leaves only its running
sums and its geometry behind, and the posture windows wait, with their
``window_features`` events, for the pass that freezes the baseline.
Note windows are cut from that pass on. ``run_session`` replays a whole
scenario through one session.

Everything observable lands in the trace as an event; the trace is
sorted by time with a fixed per-kind priority and a sequence number as
final tie-break, so identical inputs produce byte-identical traces.
``trace`` writes the events to a file, reads them back and audits them.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable
from operator import attrgetter
from typing import NamedTuple

from .behavior import PostureWindows, ingest_note_assessment, score_posture
from .cardio import window_hrv
from .config import SessionConfig, _strategy_table, apply_entries, checked_config
from .directives import (
    GenerationClient,
    LiveGenerationClient,
    MockGenerationClient,
    build_directives,
    render_prompt,
    sha256,
)
from .errors import ClientUnavailableError, MalformedReplyError
from .gaze import GazeTrack, window_gaze_features
from .interventions import InterventionDecision, InterventionEngine
from .model import MAX_SESSION_S, Dimension, Payload, StreamKind, Timestamp
from .scenario import MIN_GAZE_STEP_S, SampleRecord, Scenario, ScenarioHeader, SyncRecord
from .state import (
    CHANNEL_NOTE_ERROR,
    CalibrationProfile,
    ChannelFeature,
    Extraction,
    compute_baseline,
    infer_state,
)
from .stats import fmean
from .streams import ACCEPTED, StreamMerger, Window, grid_time
from .trace import KIND_PRIORITY, TraceEvent, _READING_FIELDS, _record_payload, _state_payload

# The trace functions that moved to ``trace``, still read from here by
# the benchmark under ``bench/``: ``__getattr__`` resolves each one on
# first use and keeps it in this module's globals.
_TRACE_NAMES = ("write_trace", "read_trace", "validate_trace", "summarize")


def __getattr__(name: str):
    if name not in _TRACE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import trace

    value = globals()[name] = getattr(trace, name)
    return value


class SessionResult(NamedTuple):
    config: SessionConfig
    events: list[TraceEvent]
    decisions: list[InterventionDecision]
    baseline: CalibrationProfile
    header: ScenarioHeader


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
    80% of what the window grid can yield (``compute_baseline`` never
    asks for fewer than 2).
    """
    return min(cfg.baseline_min_samples, math.floor(0.8 * expected_calibration_windows(cfg, kind)))


# ---------------------------------------------------------------------------
# window -> channel features

# An extractor turns one window at a time into a ``state.Extraction``:
# (quality, channel features, kind-specific payload extras), or None for
# a posture window held back until the baseline pose is known. Windows
# come in order of their start; the gaze and posture extractors are made
# once per session and compute a per-sample quantity once, the first
# time a window holds the sample. The extractors are
# ``gaze.window_gaze_features`` (with the session's track),
# ``cardio.window_hrv`` and a ``behavior.PostureWindows`` (given this
# module's ``score_posture``). The session reaches the feature functions
# by their names in this module, so a profiler that wraps those names
# here before a session starts sees every call.

Extractor = Callable[[Window], Extraction | None]


def _extract_notes(window: Window) -> Extraction:
    extras = {"sample_count": len(window.samples)}
    if not window.samples:
        return 0.0, [], extras
    error = fmean([1.0 - env.payload.correctness for env in window.samples])
    quality = fmean([env.source_confidence for env in window.samples])
    return quality, [ChannelFeature(CHANNEL_NOTE_ERROR, error, quality, window.end)], extras


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
    calibration. Posture windows cut before then are held back until the
    baseline pose is known (``behavior.PostureWindows``), and their
    events come out in the pass that freezes the baseline, ahead of the
    posture windows that pass cuts, so the trace's order and ``seq``
    numbers are those of cutting them all in that pass. Note windows
    are cut from then on (see ``_advance``). ``close`` flushes the
    merger and cuts and walks the rest. A decision is therefore made as
    soon as the samples that decide it are in, and the session holds
    about one window of samples per stream, not the records it has seen.

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
        self._posture = PostureWindows(cfg.calibration_duration_s, score_posture)
        self._extractors: dict[StreamKind, Extractor] = {
            StreamKind.PUPIL_GAZE: lambda window: window_gaze_features(window, track, cfg.min_fixation_duration_s),
            StreamKind.RR_INTERVAL: window_hrv,
            StreamKind.POSTURE_LANDMARKS: self._posture,
        }
        self._calibration_values: dict[str, list[float]] = {}
        self._calibration_kinds: dict[str, StreamKind] = {}
        # live features cut but not yet read by a tick, in time order
        self._live: list[ChannelFeature] = []
        self._engine = InterventionEngine(cfg, header.modality, _strategy_table(cfg))
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
            header=self.header,
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
        held: list[tuple[float, float, Extraction]] = []
        if calibration_over:
            # the posture windows cut so far waited for the baseline pose;
            # they come out in this pass, ahead of the posture windows it
            # cuts. Note windows start now, after posture ones, so that
            # windows ending at one time always come out in StreamKind order.
            posture = self._posture
            held = posture.freeze(posture.mean_pose(merger.timeline(StreamKind.POSTURE_LANDMARKS)))
            self._extractors[StreamKind.NOTE_SCORE] = _extract_notes
        live: list[ChannelFeature] = []
        for kind, extract in self._extractors.items():
            if held and kind is StreamKind.POSTURE_LANDMARKS:
                for start, end, extraction in held:
                    live += self._record(kind, start, end, extraction)
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
            extraction = extract(window)
            if extraction is not None:
                live += self._record(kind, window.start, window.end, extraction)
        return live

    def _record(self, kind: StreamKind, start: float, end: float, extraction: Extraction) -> list[ChannelFeature]:
        """Trace one window's features. A window that ends inside
        calibration keeps them for the baseline; any other returns them."""
        quality, features, extras = extraction
        self._recorder.add(
            end,
            "window_features",
            {
                "stream_kind": kind.value,
                "start": start,
                "end": end,
                "present": bool(features),
                "quality": quality,
                "values": {f.channel_id: f.value for f in features},
                **extras,
            },
        )
        if end > self.config.calibration_duration_s:
            return features
        for feature in features:
            self._calibration_values.setdefault(feature.channel_id, []).append(feature.value)
            self._calibration_kinds[feature.channel_id] = kind
        return []

    def _freeze_baseline(self) -> None:
        cfg = self.config
        self.baseline = compute_baseline(
            self._calibration_values,
            {channel: _baseline_minimum(cfg, kind) for channel, kind in self._calibration_kinds.items()},
            cfg.sigma_floor,
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
            add(tick, "candidate", _record_payload(candidate))
        if decision is None:
            return
        self.decisions.append(decision)
        payload = _record_payload(decision)
        add(tick, "decision", payload)
        descriptors = {dim: state.dims[dim].descriptor for dim in Dimension}
        packet = build_directives(decision, descriptors, self.header.topic, self.header.dialogue)
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
    """Replay a scenario through one ``Session`` (a file's or the
    synthesizer's samples straight to ``place``, ``Scenario.scan``);
    ``realtime`` paces the records at their session times."""
    session = Session(scenario.header, overrides, client, pace=_pacer(_sleep) if realtime else None)
    push = session.push
    for record in scenario.scan(session.place):
        push(record)
    return session.close()
