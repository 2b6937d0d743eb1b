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
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from operator import attrgetter
from typing import NamedTuple

from .config import MAX_SESSION_S
from .errors import ScenarioError
from .model import (
    POSTURE_POINTS,
    GazeSample,
    Modality,
    NoteScoreSample,
    PostureSample,
    RRSample,
    StreamDescriptor,
    StreamKind,
)
from .scenario import SampleRecord, Scenario, ScenarioHeader, _is_finite_number, _shared_fields, utf8_text

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

# The most samples a profile may make on one stream. Synthesis holds
# every record it makes, so its work and memory grow with the rates,
# not with the span; 24 h of gaze at 60 Hz is 5.2M samples.
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


def parse_profile(data: dict) -> SyntheticProfile:
    """Check a decoded profile and build it; any malformed field is a
    ScenarioError, and the segments may span at most MAX_SESSION_S,
    the span a replay covers."""
    _profile_object(data, "profile")
    segments_raw = data.get("segments")
    if not isinstance(segments_raw, list) or not segments_raw:
        raise ScenarioError("profile needs a non-empty segments list")
    segments: list[ProfileSegment] = []
    for index, seg in enumerate(segments_raw):
        where = f"segment {index}"
        _profile_object(seg, where)
        duration = _profile_number(seg.get("duration_s"), f"{where}: duration_s", positive=True)
        channels: dict[str, GeneratorSpec] = {}
        for control, spec in _profile_object(seg.get("channels", {}), f"{where}: channels").items():
            if control not in CONTROLS:
                raise ScenarioError(f"{where}: unknown control {control!r}")
            _profile_object(spec, f"{where}: {control}")
            kind = spec.get("kind")
            if kind not in _GENERATOR_KINDS:
                raise ScenarioError(f"{where}: unknown generator kind {kind!r}")
            channels[control] = GeneratorSpec(
                kind=kind,
                target_z=_profile_number(spec.get("target_z", 0.0), f"{where}: {control} target_z"),
                tau_s=_profile_number(spec.get("tau_s", 10.0), f"{where}: {control} tau_s", positive=True),
                amplitude_z=_profile_number(spec.get("amplitude_z", 0.0), f"{where}: {control} amplitude_z"),
                period_s=_profile_number(spec.get("period_s", 60.0), f"{where}: {control} period_s", positive=True),
            )
        segments.append(ProfileSegment(duration_s=duration, channels=channels))

    noise = dict(NOISE_DEFAULTS)
    for key, value in _profile_object(data.get("noise", {}), "noise").items():
        if key not in NOISE_DEFAULTS:
            raise ScenarioError(f"unknown noise key {key!r}")
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
    for name, count in counts.items():
        if not count <= MAX_STREAM_SAMPLES:
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


def synthesize(profile: SyntheticProfile, seed: int | None = None) -> Scenario:
    """Generate a complete scenario from the profile, deterministically.

    Each stream draws from its own RNG keyed by (seed, stream name), so
    editing one stream's parameters never perturbs the others.
    """
    seed = profile.seed if seed is None else seed
    duration = profile.duration_s()
    curves = {name: _ControlCurve(profile, name) for name in CONTROLS}
    noise = {**NOISE_DEFAULTS, **profile.noise}

    records: list[SampleRecord] = []
    records.extend(_gen_gaze(profile, curves, noise, seed, duration))
    records.extend(_gen_rr(curves, noise, seed, duration))
    records.extend(_gen_posture(profile, curves, noise, seed, duration))
    records.extend(_gen_notes(profile, curves, noise, seed, duration))
    records.sort(key=attrgetter("t", "stream_id"))

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
    return Scenario(header=header, records=records)


# The generators clamp with max(lo, min(hi, v)), which turns a -0.0
# into a lo of 0.0 where a conditional would keep it, and draw
# rng.uniform(a, b) as its body on every supported CPython,
# a + (b - a) * rng.random(). Each keeps its RNG calls in one fixed
# order, so a seed gives the same bytes.


def _gen_gaze(profile, curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:gaze")
    draw, gauss = rng.random, rng.gauss
    cos, sin = math.cos, math.sin
    two_pi = 2.0 * math.pi
    dt = 1.0 / profile.gaze_rate_hz
    motion_scale = noise["gaze_xy"]
    blink_scale = noise["blink"]
    pupil_noise = noise["pupil_mm"]

    n = int(round(duration * profile.gaze_rate_hz))
    times = [round(k * dt, 6) for k in range(n)]
    blink_rates = curves["blink_rate_hz"].values(times)
    drift_speeds = curves["gaze_drift_speed"].values(times)
    pupil_means = curves["pupil_mm"].values(times)

    records: list[SampleRecord] = []
    append = records.append
    anchor_x, anchor_y = 0.5, 0.5
    offset_x = offset_y = 0.0
    dwell_left = 0.8 + (2.5 - 0.8) * draw()
    blink_left = 0.0
    for t, blink_rate, drift_speed, pupil in zip(times, blink_rates, drift_speeds, pupil_means):
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

        x = max(0.0, min(1.0, anchor_x + offset_x))
        y = max(0.0, min(1.0, anchor_y + offset_y))
        if blinking:
            pupil = None
            confidence = 0.05
        else:
            if pupil_noise > 0:
                pupil += gauss(0.0, pupil_noise)
            pupil = round(max(1.0, min(9.0, pupil)), 6)
            confidence = 0.98
        append(SampleRecord("gaze", t, 0.99, GazeSample(round(x, 6), round(y, 6), pupil, confidence)))
    return records


def _gen_rr(curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:rr")
    jitter_scale = noise["rr_ms"]
    records: list[SampleRecord] = []
    t = 0.0
    while True:
        rr = curves["rr_mean_ms"].value(t)
        jitter = max(0.0, curves["rr_jitter_ms"].value(t)) * jitter_scale
        if jitter > 0:
            rr += rng.gauss(0.0, jitter)
        rr = round(max(300.0, min(2000.0, rr)), 3)
        t_next = t + rr / 1000.0
        if t_next >= duration:
            break
        records.append(SampleRecord("heart", round(t_next, 6), 1.0, RRSample(rr)))
        t = t_next
    return records


# (name, base x, base y) of each landmark, in the order of its draws
_POSE = tuple((name, *_BASE_POSE[name]) for name in POSTURE_POINTS)


def _gen_posture(profile, curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:posture")
    gauss = rng.gauss
    tan, radians = math.tan, math.radians
    jitter_sd = 0.003 * noise["posture"]
    dt = 1.0 / profile.posture_rate_hz
    n = int(round(duration * profile.posture_rate_hz))
    times = [round(k * dt, 6) for k in range(n)]

    records: list[SampleRecord] = []
    for t, slump in zip(times, curves["posture_slump"].values(times)):
        tilt_dy = tan(radians(_SLUMP_TILT_DEG * slump)) * _SHOULDER_HALF_WIDTH
        lean_dx = tan(radians(_SLUMP_LEAN_DEG * slump)) * _TRUNK_LENGTH
        ear_dx = _SLUMP_EAR_DRIFT * slump
        # shoulders lean and tilt, ears lean and drift, hips stay
        dxs = (lean_dx, lean_dx, lean_dx + ear_dx, lean_dx + ear_dx, 0.0, 0.0)
        dys = (tilt_dy, -tilt_dy, 0.0, 0.0, 0.0, 0.0)
        landmarks = {}
        for (name, base_x, base_y), dx, dy in zip(_POSE, dxs, dys):
            jx = gauss(0.0, jitter_sd) if jitter_sd > 0 else 0.0
            jy = gauss(0.0, jitter_sd) if jitter_sd > 0 else 0.0
            landmarks[name] = (
                round(max(0.0, min(1.0, base_x + dx + jx)), 6),
                round(max(0.0, min(1.0, base_y + dy + jy)), 6),
            )
        records.append(SampleRecord("cam", t, 1.0, PostureSample(landmarks)))
    return records


def _gen_notes(profile, curves, noise, seed, duration) -> list[SampleRecord]:
    rng = random.Random(f"{seed}:notes")
    note_noise = noise["note_correctness"]
    records: list[SampleRecord] = []
    t = profile.note_interval_s / 2.0
    while t < duration:
        value = curves["note_correctness"].value(t)
        if note_noise > 0:
            value += rng.gauss(0.0, note_noise)
        correctness = round(max(0.0, min(1.0, value)), 4)
        records.append(SampleRecord("notes", round(t, 6), 1.0, NoteScoreSample(correctness)))
        t += profile.note_interval_s
    return records
