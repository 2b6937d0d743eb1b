"""Synthetic profiles and the stream generator.

The synthesizer turns a profile (ordered segments with per-control
generators) into a fully deterministic scenario. Generators steer a
small set of physical controls in z-units of their nominal spread:

    pupil_mm         mean pupil diameter (mm)
    gaze_drift_speed within-fixation wander speed (units/s)
    blink_rate_hz    blink frequency
    rr_mean_ms       mean beat interval
    rr_jitter_ms     beat-to-beat variability (sd of the interval)
    posture_slump    composite slouch factor (tilt, ear drift, lean)
    note_correctness mean note score

The ``noise`` map gates every stochastic element; an all-zero noise map
produces constant streams at each control's nominal mean.

A synthesized scenario's samples come from one column source, drawn
afresh each time they are read, ``CHUNK_S`` session seconds at a time.
Each stream's generator keeps its RNG from chunk to chunk, so the
chunking changes no draw; gaze and posture clamp and round each chunk in
whole-column passes, each exactly the scalar ``max(lo, min(hi, v))`` and
``round(v, digits)`` it replaces. A stable sort of each chunk by time,
over the streams in stream-id order, gives the (t, stream id) order.
Three sinks read the source: the writer fills each stream's line
templates, its constant fields written into the template text, straight
from the columns; ``run_session`` sends each sample's fields to
``Session.place``; and the first read of ``records`` builds the record
list. No sink holds more than a chunk, except the record list.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from itertools import chain, count, repeat, zip_longest
from math import copysign
from operator import sub, truediv
from typing import NamedTuple

from .errors import ScenarioError
from .model import (
    MAX_SESSION_S,
    POSTURE_POINTS,
    GazeSample,
    Modality,
    NoteScoreSample,
    PostureSample,
    StreamDescriptor,
    StreamKind,
)
from .scenario import (
    Emit,
    SampleRecord,
    Scenario,
    ScenarioHeader,
    _is_finite_number,
    _literal,
    _SHARED_KEYS,
    _refuse_unknown_keys,
    _render,
    _shared_fields,
    _template,
    utf8_text,
)

# control -> (nominal mean, nominal spread); generator z-units refer to
# the spread
CONTROLS: dict[str, tuple[float, float]] = {
    "pupil_mm": (3.0, 0.15),
    "gaze_drift_speed": (0.2, 0.05),
    "blink_rate_hz": (0.28, 0.06),
    "rr_mean_ms": (850.0, 30.0),
    "rr_jitter_ms": (53.0, 6.0),
    "posture_slump": (0.0, 0.5),
    "note_correctness": (0.9, 0.04),
}

NOISE_DEFAULTS: dict[str, float] = {
    "pupil_mm": 0.02,        # absolute sd on pupil readings
    "note_correctness": 0.04,  # absolute sd on note scores
    "gaze_xy": 1.0,          # scales wander and enables saccades/jumps
    "blink": 1.0,            # scales blink frequency
    "rr_ms": 1.0,            # scales beat-to-beat jitter
    "posture": 1.0,          # scales landmark jitter (sd 0.003)
}

_GENERATOR_KINDS = ("baseline", "ramp", "oscillation")

# The most samples a profile may make on one stream. Synthesis draws a
# chunk at a time, so its memory stays flat, but its work grows with the
# rates, not with the span; 24 h of gaze at 60 Hz is 5.2M samples.
MAX_STREAM_SAMPLES = 2**23


class GeneratorSpec(NamedTuple):
    kind: str
    target_z: float = 0.0
    tau_s: float = 10.0
    amplitude_z: float = 0.0
    period_s: float = 60.0


class ProfileSegment(NamedTuple):
    duration_s: float
    channels: dict[str, GeneratorSpec]


class SyntheticProfile(NamedTuple):
    """A parsed profile; ``parse_profile`` sets every field."""

    segments: list[ProfileSegment]
    seed: int
    topic: str
    modality: Modality
    noise: dict[str, float]
    config_entries: dict[str, object]
    analyzer_replies: tuple[str, ...]
    dialogue: tuple[dict[str, str], ...]
    gaze_rate_hz: float
    posture_rate_hz: float
    note_interval_s: float

    def duration_s(self) -> float:
        return sum(segment.duration_s for segment in self.segments)


def load_profile(path) -> SyntheticProfile:
    with utf8_text(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid profile JSON: {error.msg}", error.lineno) from None
    return parse_profile(data)


def _profile_number(value, what: str, positive: bool = False) -> float:
    """A profile number as a float: a finite JSON number, above zero
    when ``positive``. A non-finite rate, duration or time constant
    would hang or crash the synthesizer, so each is refused here."""
    if not (_is_finite_number(value) and (value > 0 or not positive)):
        qualifier = "positive " if positive else ""
        raise ScenarioError(f"{what} must be a {qualifier}finite number, got {value!r}")
    return float(value)


def _profile_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be an object, got {value!r}")
    return value


_PROFILE_KEYS = ("segments", "noise", "gaze_rate_hz", "posture_rate_hz", "note_interval_s", *_SHARED_KEYS)
_SEGMENT_KEYS = ("duration_s", "channels")


def parse_profile(data: dict) -> SyntheticProfile:
    """Check a decoded profile and build it; any malformed field or
    unknown key is a ScenarioError, and the segments may span at most
    MAX_SESSION_S, the span a replay covers."""
    _refuse_unknown_keys(_profile_object(data, "profile"), _PROFILE_KEYS, "profile")
    segments_raw = data.get("segments")
    if not isinstance(segments_raw, list) or not segments_raw:
        raise ScenarioError("profile needs a non-empty segments list")
    segments: list[ProfileSegment] = []
    for index, seg in enumerate(segments_raw):
        where = f"segment {index}"
        _refuse_unknown_keys(_profile_object(seg, where), _SEGMENT_KEYS, "segment", where=f"{where}: ")
        duration = _profile_number(seg.get("duration_s"), f"{where}: duration_s", positive=True)
        channels: dict[str, GeneratorSpec] = {}
        for control, spec in _profile_object(seg.get("channels", {}), f"{where}: channels").items():
            if control not in CONTROLS:
                raise ScenarioError(f"{where}: unknown control {control!r}")
            _profile_object(spec, f"{where}: {control}")
            _refuse_unknown_keys(spec, GeneratorSpec._fields, control, where=f"{where}: ")
            kind = spec.get("kind")
            if kind not in _GENERATOR_KINDS:
                raise ScenarioError(f"{where}: unknown generator kind {kind!r}")
            # the time constants, tau_s and period_s, must be positive
            channels[control] = GeneratorSpec(kind, *(
                _profile_number(spec.get(name, default), f"{where}: {control} {name}", positive=name.endswith("_s"))
                for name, default in GeneratorSpec._field_defaults.items()
            ))
        segments.append(ProfileSegment(duration_s=duration, channels=channels))

    noise = dict(NOISE_DEFAULTS)
    noise_raw = _profile_object(data.get("noise", {}), "noise")
    _refuse_unknown_keys(noise_raw, NOISE_DEFAULTS, "noise")
    for key, value in noise_raw.items():
        scale = noise[key] = _profile_number(value, f"noise {key}")
        # every generator gates on a scale above zero, so a negative one
        # would act as zero
        if scale < 0:
            raise ScenarioError(f"noise {key} must not be negative, got {value!r}")

    profile = SyntheticProfile(
        segments=segments,
        noise=noise,
        **_shared_fields(data),
        gaze_rate_hz=_profile_number(data.get("gaze_rate_hz", 60.0), "gaze_rate_hz", positive=True),
        posture_rate_hz=_profile_number(data.get("posture_rate_hz", 5.0), "posture_rate_hz", positive=True),
        note_interval_s=_profile_number(data.get("note_interval_s", 60.0), "note_interval_s", positive=True),
    )
    span = profile.duration_s()
    if span > MAX_SESSION_S:
        raise ScenarioError(f"segments span {span} s, past the session span ({MAX_SESSION_S} s)")
    # gaze and posture count their samples as round(span * rate), notes
    # come one per note_interval_s
    counts = {
        "gaze_rate_hz": span * profile.gaze_rate_hz,
        "posture_rate_hz": span * profile.posture_rate_hz,
        "note_interval_s": span / profile.note_interval_s,
    }
    for name, total in counts.items():
        if not total <= MAX_STREAM_SAMPLES:
            raise ScenarioError(
                f"{name} ({getattr(profile, name)}) over the segments' {span} s gives more than 2**23 samples"
            )
    return profile


class _ControlCurve:
    """Piecewise z-trajectory of one control across the segments.

    Ramps approach their target exponentially from wherever the
    previous segment left the control, so hand-offs are continuous.
    """

    def __init__(self, profile: SyntheticProfile, control: str):
        self.pieces: list[tuple[float, float, GeneratorSpec, float]] = []
        t0 = 0.0
        z_start = 0.0
        for segment in profile.segments:
            spec = segment.channels.get(control, GeneratorSpec(kind="baseline"))
            self.pieces.append((t0, t0 + segment.duration_s, spec, z_start))
            z_start = self._z_at(spec, z_start, segment.duration_s)
            t0 += segment.duration_s
        self.mu, self.sigma = CONTROLS[control]

    @staticmethod
    def _z_at(spec: GeneratorSpec, z_start: float, elapsed: float) -> float:
        if spec.kind == "baseline":
            return 0.0
        if spec.kind == "ramp":
            return spec.target_z + (z_start - spec.target_z) * math.exp(-elapsed / spec.tau_s)
        return spec.amplitude_z * math.sin(2.0 * math.pi * elapsed / spec.period_s)

    def z(self, t: float) -> float:
        for start, end, spec, z_start in self.pieces:
            if start <= t < end:
                return self._z_at(spec, z_start, t - start)
        # past the final segment: hold its end state
        start, end, spec, z_start = self.pieces[-1]
        return self._z_at(spec, z_start, end - start)

    def value(self, t: float) -> float:
        return self.mu + self.z(t) * self.sigma

    def values(self, times: list[float]) -> list[float]:
        """``value(t)`` for each of ``times``, which are non-negative and
        increasing, bit for bit: one piece at a time, with the float
        expressions of ``z`` and ``value``."""
        mu, sigma = self.mu, self.sigma
        exp, sin = math.exp, math.sin
        two_pi = 2.0 * math.pi
        out: list[float] = []
        lo = 0
        for start, end, spec, z_start in self.pieces:
            hi = bisect_left(times, end, lo)
            span = times[lo:hi]
            lo = hi
            if spec.kind == "baseline":
                out += [mu + 0.0 * sigma] * len(span)
            elif spec.kind == "ramp":
                target, tau = spec.target_z, spec.tau_s
                out += [mu + (target + (z_start - target) * exp(-(t - start) / tau)) * sigma for t in span]
            else:
                amplitude, period = spec.amplitude_z, spec.period_s
                out += [mu + (amplitude * sin(two_pi * (t - start) / period)) * sigma for t in span]
        # past the final segment: hold its end state
        start, end, spec, z_start = self.pieces[-1]
        out += [mu + self._z_at(spec, z_start, end - start) * sigma] * (len(times) - lo)
        return out


_BASE_POSE = {
    "shoulder_left": (0.38, 0.50),
    "shoulder_right": (0.62, 0.50),
    "ear_left": (0.44, 0.30),
    "ear_right": (0.56, 0.30),
    "hip_left": (0.42, 0.88),
    "hip_right": (0.58, 0.88),
}

# slump factor 1.0 produces this much shoulder tilt, forward lean and
# ear drift
_SLUMP_TILT_DEG = 5.0
_SLUMP_LEAN_DEG = 7.0
_SLUMP_EAR_DRIFT = 0.035
_TRUNK_LENGTH = 0.38
_SHOULDER_HALF_WIDTH = 0.12


def synthesize(profile: SyntheticProfile, seed: int | None = None) -> SynthesizedScenario:
    """The scenario of the profile at ``seed`` (the profile's own when
    None). Nothing is drawn here: the samples come from the column
    source each time they are written, replayed or read as records.

    Each stream draws from its own RNG keyed by (seed, stream name), so
    editing one stream's parameters never perturbs the others.
    """
    seed = profile.seed if seed is None else seed
    header = ScenarioHeader(
        streams=[
            StreamDescriptor("gaze", StreamKind.PUPIL_GAZE, profile.gaze_rate_hz),
            StreamDescriptor("heart", StreamKind.RR_INTERVAL, 200.0),
            StreamDescriptor("cam", StreamKind.POSTURE_LANDMARKS, profile.posture_rate_hz),
            StreamDescriptor("notes", StreamKind.NOTE_SCORE, 1.0 / profile.note_interval_s),
        ],
        config_entries=dict(profile.config_entries),
        seed=seed,
        modality=profile.modality,
        topic=profile.topic,
        analyzer_replies=profile.analyzer_replies,
        dialogue=profile.dialogue,
    )
    return SynthesizedScenario(header, _Columns(profile, seed))


# Scenario's records slot: a synthesized scenario keeps its column source
# there until its records are read
_RECORDS = Scenario.records


class SynthesizedScenario(Scenario):
    """A scenario whose samples come from a column source until its
    ``records`` are read. The first read builds the record list and keeps
    it, and from then on the list, which may be edited or replaced, is
    what is written and replayed.

    It declares no ``__slots__``: ``Slotted``'s equality and repr go
    over the fields of ``Scenario``'s.
    """

    @property
    def records(self) -> list[SampleRecord]:
        source = _RECORDS.__get__(self)
        if not isinstance(source, _Columns):
            return source
        records = list(source.scan(SampleRecord))
        _RECORDS.__set__(self, records)
        return records

    @records.setter
    def records(self, records) -> None:
        _RECORDS.__set__(self, records)

    def scan(self, emit: Emit):
        source = _RECORDS.__get__(self)
        return source.scan(emit) if isinstance(source, _Columns) else super().scan(emit)

    def write(self, handle) -> tuple[int, float] | None:
        """Write the scenario's lines. From the column source, return how
        many records it wrote and the time of the last, as
        ``len(records)`` and ``duration_s()`` would give them."""
        source = _RECORDS.__get__(self)
        if not isinstance(source, _Columns):
            return super().write(handle)
        Scenario(self.header, []).write(handle)  # the header line
        return source.write(handle)


# Session seconds drawn at a time: chunk c of a stream is its samples
# stamped in [c * CHUNK_S, (c + 1) * CHUNK_S). It sets how much a sink
# holds at once, and no byte of what it makes.
CHUNK_S = 60.0


class _Columns:
    """The samples of a profile at a seed, drawn afresh on each read, a
    chunk at a time: each stream's generator yields a chunk of columns,
    times first, and keeps its RNG from one chunk to the next, so it
    draws in one fixed order whatever the chunk length."""

    def __init__(self, profile: SyntheticProfile, seed: int):
        self.profile = profile
        self.seed = seed

    def _chunks(self):
        """Each chunk's columns, per stream in stream-id order (None for
        a stream that has ended), so that one stable sort by time puts
        a chunk's samples in (t, stream id) order."""
        profile, seed = self.profile, self.seed
        duration = profile.duration_s()
        curves = {name: _ControlCurve(profile, name) for name in CONTROLS}
        noise = {**NOISE_DEFAULTS, **profile.noise}
        return zip_longest(
            _posture_chunks(profile, curves, noise, seed, duration),
            _gaze_chunks(profile, curves, noise, seed, duration),
            _chunked(_beats(curves, noise, seed, duration)),
            _chunked(_notes(profile, curves, noise, seed, duration)),
        )

    def scan(self, emit: Emit):
        """Send each sample's fields to ``emit`` in (t, stream id) order,
        a chunk at a time, yielding what it returns unless None, as
        ``ScenarioFile.scan`` does: ``SampleRecord`` builds the records,
        ``Session.place`` replays them."""
        for chunk in self._chunks():
            ids, times, confidences, payloads = [], [], [], []
            for (stream_id, confidence, _, to_payloads), columns in zip(_STREAMS, chunk):
                if columns is not None:
                    ids += [stream_id] * len(columns[0])
                    times += columns[0]
                    confidences += [confidence] * len(columns[0])
                    payloads += to_payloads(*columns)
            order = _order(times)
            columns = [map(column.__getitem__, order) for column in (ids, times, confidences, payloads)]
            for record in map(emit, *columns, repeat(None)):
                if record is not None:
                    yield record

    def write(self, handle) -> tuple[int, float]:
        """Write each sample's line in (t, stream id) order, a chunk at a
        time: its numbers rendered by one ``_render`` call and filled
        into the lines' templates. Return the number of lines and the
        time of the last."""
        count, last = 0, 0.0
        for chunk in self._chunks():
            times, templates, rows = [], [], []
            for (_, _, to_lines, _), columns in zip(_STREAMS, chunk):
                if columns is not None:
                    times += columns[0]
                    stream_templates, stream_rows = to_lines(*columns)
                    templates += stream_templates
                    rows += stream_rows
            order = _order(times)
            if order:
                numbers = list(chain.from_iterable(map(rows.__getitem__, order)))
                handle.write("\n".join(map(templates.__getitem__, order)) % tuple(_render(numbers)) + "\n")
                count += len(order)
                last = times[order[-1]]
        return count, last


def _order(times: list[float]) -> list[int]:
    """The indices of ``times`` in a stable sort by time."""
    return sorted(range(len(times)), key=times.__getitem__)


def _spans(dt: float, n: int):
    """(first, end) of each chunk's indices among n samples stamped
    ``round(k * dt, 6)``: a chunk ends at the first sample stamped at
    or past its end."""
    first = 0
    for c in count(1):
        if first >= n:
            return
        boundary = c * CHUNK_S
        end = max(first, min(n, int(boundary / dt)))
        while end > first and round((end - 1) * dt, 6) >= boundary:
            end -= 1
        while end < n and round(end * dt, 6) < boundary:
            end += 1
        yield first, end
        first = end


def _chunked(samples):
    """Each chunk's (times, values) of (time, value) samples in time order."""
    times, values = [], []
    c = 1
    for t, value in samples:
        while t >= c * CHUNK_S:
            yield times, values
            times, values = [], []
            c += 1
        times.append(t)
        values.append(value)
    yield times, values


# The generators draw rng.uniform(a, b) as its body on every supported
# CPython, a + (b - a) * rng.random(), and keep their RNG calls in one
# fixed order, so a seed gives the same bytes. Gaze and posture draw a
# chunk in a loop, then clamp and round it a column at a time.

# (s + _RNE) - _RNE is s rounded half to even, for |s| <= 2**51
_RNE = 1.5 * 2.0**52


def _rounded(values: list[float], digits: int) -> list[float]:
    """``[round(v, digits) for v in values]`` bit for bit, 0 <= digits <= 22.

    s = v * 10**digits is rounded half to even to i, and i / 10**digits,
    signed as v, is the result. While |s| <= 2**51 the half-integers
    near s are floats, so the rounded, monotone multiply keeps the exact
    v * 10**digits between the same two as s: unless s is one, i is v's
    correctly rounded decimal, and the division rounds as ``round``
    does. Any other column is rounded value by value.
    """
    scale = float(10**digits)
    scaled = [v * scale for v in values]
    if max(map(abs, scaled), default=0.0) <= 2.0**51:
        nearest = [(s + _RNE) - _RNE for s in scaled]
        if max(map(abs, map(sub, scaled, nearest)), default=0.0) < 0.5:
            return list(map(copysign, map(truediv, nearest, repeat(scale)), values))
    return [round(v, digits) for v in values]


def _clamped(values: list[float], lo: float, hi: float) -> list[float]:
    """``[max(lo, min(hi, v)) for v in values]`` bit for bit, for lo <
    hi: a -0.0 becomes lo and a NaN hi."""
    return [v if lo < v < hi else (lo if v < hi else hi) for v in values]


def _gaze_chunks(profile, curves, noise, seed, duration):
    """Each chunk's (times, xs, ys, pupils), a pupil None in a blink."""
    rng = random.Random(f"{seed}:gaze")
    draw, gauss = rng.random, rng.gauss
    cos, sin = math.cos, math.sin
    two_pi = 2.0 * math.pi
    dt = 1.0 / profile.gaze_rate_hz
    motion_scale = noise["gaze_xy"]
    blink_scale = noise["blink"]
    pupil_noise = noise["pupil_mm"]

    anchor_x, anchor_y = 0.5, 0.5
    offset_x = offset_y = 0.0
    dwell_left = 0.8 + (2.5 - 0.8) * draw()
    blink_left = 0.0
    for first, end in _spans(dt, int(round(duration * profile.gaze_rate_hz))):
        times = _rounded([k * dt for k in range(first, end)], 6)
        blink_rates = curves["blink_rate_hz"].values(times)
        drift_speeds = curves["gaze_drift_speed"].values(times)
        pupil_means = curves["pupil_mm"].values(times)

        # per sample: x, y, whether it blinks, and the pupil while it does not
        xs, ys, blinks, pupils = [], [], [], []
        for blink_rate, drift_speed, pupil in zip(blink_rates, drift_speeds, pupil_means):
            blinking = blink_left > 0.0
            if blinking:
                blink_left -= dt
            elif blink_scale > 0 and draw() < blink_rate * blink_scale * dt:
                blink_left = 0.08 + (0.15 - 0.08) * draw()
                blinking = True

            if not blinking and motion_scale > 0:
                dwell_left -= dt
                if dwell_left <= 0:
                    anchor_x = 0.15 + (0.85 - 0.15) * draw()
                    anchor_y = 0.15 + (0.85 - 0.15) * draw()
                    offset_x = offset_y = 0.0
                    dwell_left = 0.8 + (2.5 - 0.8) * draw()
                angle = 0.0 + (two_pi - 0.0) * draw()
                step = drift_speed * dt * motion_scale
                offset_x = (offset_x + step * cos(angle)) * 0.95
                offset_y = (offset_y + step * sin(angle)) * 0.95

            xs.append(anchor_x + offset_x)
            ys.append(anchor_y + offset_y)
            blinks.append(blinking)
            if not blinking:
                pupils.append(pupil + gauss(0.0, pupil_noise) if pupil_noise > 0 else pupil)

        readings = iter(_rounded(_clamped(pupils, 1.0, 9.0), 6))
        yield (
            times,
            _rounded(_clamped(xs, 0.0, 1.0), 6),
            _rounded(_clamped(ys, 0.0, 1.0), 6),
            [None if blink else next(readings) for blink in blinks],
        )


def _beats(curves, noise, seed, duration):
    """Each beat's (time, rr_ms)."""
    rng = random.Random(f"{seed}:rr")
    jitter_scale = noise["rr_ms"]
    t = 0.0
    while True:
        rr = curves["rr_mean_ms"].value(t)
        jitter = max(0.0, curves["rr_jitter_ms"].value(t)) * jitter_scale
        if jitter > 0:
            rr += rng.gauss(0.0, jitter)
        rr = round(rr if 300.0 < rr < 2000.0 else (300.0 if rr < 2000.0 else 2000.0), 3)
        t_next = t + rr / 1000.0
        if t_next >= duration:
            return
        yield round(t_next, 6), rr
        t = t_next


def _posture_chunks(profile, curves, noise, seed, duration):
    """Each chunk's (times, coordinates): x then y of each landmark, in
    POSTURE_POINTS order, a column each."""
    rng = random.Random(f"{seed}:posture")
    gauss = rng.gauss
    tan, radians = math.tan, math.radians
    jitter_sd = 0.003 * noise["posture"]
    dt = 1.0 / profile.posture_rate_hz
    width = 2 * len(POSTURE_POINTS)
    for first, end in _spans(dt, int(round(duration * profile.posture_rate_hz))):
        times = _rounded([k * dt for k in range(first, end)], 6)
        slumps = curves["posture_slump"].values(times)

        # frame by frame, landmark by landmark, x then y
        draws = width * (end - first)
        jitter = [gauss(0.0, jitter_sd) for _ in range(draws)] if jitter_sd > 0 else [0.0] * draws
        # in POSTURE_POINTS order: shoulders lean and tilt, ears lean and
        # drift, hips stay
        lean = [tan(radians(_SLUMP_LEAN_DEG * slump)) * _TRUNK_LENGTH for slump in slumps]
        tilt = [tan(radians(_SLUMP_TILT_DEG * slump)) * _SHOULDER_HALF_WIDTH for slump in slumps]
        ear = [lean_dx + _SLUMP_EAR_DRIFT * slump for lean_dx, slump in zip(lean, slumps)]
        still = [0.0] * len(times)
        shifts = ((lean, tilt), (lean, [-dy for dy in tilt]), (ear, still), (ear, still), (still, still), (still, still))
        coordinates = []
        for index, (name, (dxs, dys)) in enumerate(zip(POSTURE_POINTS, shifts)):
            base_x, base_y = _BASE_POSE[name]
            xs = [base_x + dx + jx for dx, jx in zip(dxs, jitter[2 * index::width])]
            ys = [base_y + dy + jy for dy, jy in zip(dys, jitter[2 * index + 1::width])]
            coordinates += (_rounded(_clamped(xs, 0.0, 1.0), 6), _rounded(_clamped(ys, 0.0, 1.0), 6))
        yield times, coordinates


def _notes(profile, curves, noise, seed, duration):
    """Each note's (time, correctness)."""
    rng = random.Random(f"{seed}:notes")
    note_noise = noise["note_correctness"]
    t = profile.note_interval_s / 2.0
    while t < duration:
        value = curves["note_correctness"].value(t)
        if note_noise > 0:
            value += rng.gauss(0.0, note_noise)
        yield round(t, 6), round(value if 0.0 < value < 1.0 else (0.0 if value < 1.0 else 1.0), 4)
        t += profile.note_interval_s


# ---------------------------------------------------------------------------
# the sinks' view of each stream's columns
#
# A line template has one "%s" per number, in sorted key order, as the
# record writer's templates do, with every constant field written into
# its text: gaze's source confidence, a tracked sample's confidence, a
# blink's confidence and null pupil. A stream whose source confidence is
# 1.0 leaves it out.

# gaze's source confidence, and the tracker's confidence in a tracked
# sample and in a blink
_GAZE_SOURCE_CONFIDENCE = 0.99
_TRACKED_CONFIDENCE = 0.98
_BLINK_CONFIDENCE = 0.05

_GAZE_FIELDS = {"source_confidence": _literal(_GAZE_SOURCE_CONFIDENCE), "x": "%s", "y": "%s"}
_TRACKED = _template("gaze", False, {**_GAZE_FIELDS, "confidence": _literal(_TRACKED_CONFIDENCE), "pupil_mm": "%s"})
_BLINK = _template("gaze", False, {**_GAZE_FIELDS, "confidence": _literal(_BLINK_CONFIDENCE), "pupil_mm": "null"})
_POSE = _template("cam", False, {"landmarks": "{" + ",".join(f"{_literal(name)}:[%s,%s]" for name in sorted(POSTURE_POINTS)) + "}"})
# the coordinate columns in the order the pose template takes them
_POSE_COLUMNS = [2 * POSTURE_POINTS.index(name) + axis for name in sorted(POSTURE_POINTS) for axis in (0, 1)]
_BEAT = _template("heart", False, {"rr_ms": "%s"})
_NOTE = _template("notes", False, {"correctness": "%s"})


def _gaze_lines(times, xs, ys, pupils):
    templates = [_BLINK if pupil is None else _TRACKED for pupil in pupils]
    rows = [(t, x, y) if pupil is None else (pupil, t, x, y) for t, x, y, pupil in zip(times, xs, ys, pupils)]
    return templates, rows


def _gaze_payloads(times, xs, ys, pupils):
    confidences = [_BLINK_CONFIDENCE if pupil is None else _TRACKED_CONFIDENCE for pupil in pupils]
    return list(map(GazeSample, xs, ys, pupils, confidences))


def _pose_lines(times, coordinates):
    return [_POSE] * len(times), list(zip(*map(coordinates.__getitem__, _POSE_COLUMNS), times))


def _poses(times, coordinates):
    frames = zip(*map(zip, coordinates[::2], coordinates[1::2]))
    return [PostureSample(dict(zip(POSTURE_POINTS, frame))) for frame in frames]


def _beat_lines(times, rrs):
    return [_BEAT] * len(times), list(zip(rrs, times))


def _note_lines(times, scores):
    return [_NOTE] * len(times), list(zip(scores, times))


# per stream, in the order of ``_Columns._chunks``: its id and source
# confidence, and what makes a chunk's (templates, rows) for the writer
# and its payloads
_STREAMS = (
    ("cam", 1.0, _pose_lines, _poses),
    ("gaze", _GAZE_SOURCE_CONFIDENCE, _gaze_lines, _gaze_payloads),
    ("heart", 1.0, _beat_lines, lambda times, rrs: rrs),
    ("notes", 1.0, _note_lines, lambda times, scores: list(map(NoteScoreSample, scores))),
)
