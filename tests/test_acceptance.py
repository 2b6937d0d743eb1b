"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one ``criterion N: PASS|FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them), collecting its
checks first so the verdict line always appears.
"""

import json
import math
import random
import re
import time
from importlib import resources

import numpy as np
import pytest

from cogloop.behavior import PostureCategory, categorize_posture
from cogloop.cardio import StressBand, classify_stress, pnn50, rmssd, sdnn
from cogloop.config import SessionConfig
from cogloop.directives import (
    TEMPLATE_IDS,
    build_directives,
    render_prompt,
)
from cogloop.gaze import GazeTrack
from cogloop.interventions import (
    DEFAULT_STRATEGIES,
    Candidate,
    Category,
    InterventionDecision,
    InterventionEngine,
    Framing,
    PRIORITY_ORDER,
    Severity,
    Tier,
    prioritize,
    severity_of,
)
from cogloop.model import Dimension, GazeSample, Modality, SampleEnvelope
from cogloop.session import run_session
from cogloop.state import (
    ALL_CHANNELS,
    ChannelFeature,
    Descriptor,
    DimensionState,
    PRONOUNCED_FLOOR,
    SIGMA_FLOOR,
    StateVector,
    compute_baseline,
    default_weight_matrix,
    infer_state,
    to_descriptor,
)
from cogloop.synth import load_profile, synthesize
from cogloop.trace import validate_trace, write_trace

BUNDLED = ("all_baseline", "stress_ramp", "load_excursion", "mixed_session")


def _bundled_profile(name):
    ref = resources.files("cogloop").joinpath("profiles", f"{name}.json")
    with resources.as_file(ref) as path:
        return load_profile(path)


@pytest.fixture(scope="module")
def profile_results():
    return {name: run_session(synthesize(_bundled_profile(name))) for name in BUNDLED}


def _verdict(number, failures):
    print(f"\ncriterion {number}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"criterion {number}: " + " | ".join(failures[:8])


# ---------------------------------------------------------------------------

def test_criterion_01_hrv_statistics_match_numpy_oracle():
    failures = []
    rng = random.Random(11)
    started = time.perf_counter()
    for i in range(1000):
        rr = [rng.uniform(300.0, 2000.0) for _ in range(rng.randrange(2, 120))]
        diffs = np.diff(rr)
        want_rmssd = float(np.sqrt(np.mean(diffs**2)))
        want_sdnn = float(np.std(rr))
        want_pnn = 100.0 * float(np.count_nonzero(np.abs(diffs) > 50.0)) / len(diffs)
        if abs(rmssd(rr) - want_rmssd) > 1e-9:
            failures.append(f"series {i}: rmssd {rmssd(rr)} != {want_rmssd}")
        if abs(sdnn(rr) - want_sdnn) > 1e-9:
            failures.append(f"series {i}: sdnn {sdnn(rr)} != {want_sdnn}")
        if abs(pnn50(rr) - want_pnn) > 1e-9:
            failures.append(f"series {i}: pnn50 {pnn50(rr)} != {want_pnn}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"1000 series took {elapsed:.2f}s, budget is 5s")
    _verdict(1, failures)


def test_criterion_02_band_edges_are_pinned():
    failures = []
    stress_table = [
        (0.0, StressBand.HIGH), (15.0, StressBand.HIGH), (19.999, StressBand.HIGH),
        (20.0, StressBand.MODERATE), (35.0, StressBand.MODERATE), (50.0, StressBand.MODERATE),
        (50.001, StressBand.LOW), (60.0, StressBand.LOW), (100.0, StressBand.LOW),
    ]
    for value, want in stress_table:
        got = classify_stress(value)
        if got is not want:
            failures.append(f"pnn50 {value}: {got.value}, wanted {want.value}")

    posture_table = [
        (100.0, PostureCategory.IDEAL), (95.0, PostureCategory.IDEAL), (90.0, PostureCategory.IDEAL),
        (89.999, PostureCategory.AVERAGE), (80.0, PostureCategory.AVERAGE), (75.0, PostureCategory.AVERAGE),
        (74.999, PostureCategory.BELOW_AVERAGE), (72.0, PostureCategory.BELOW_AVERAGE),
        (60.0, PostureCategory.BELOW_AVERAGE), (59.9, PostureCategory.POOR), (0.0, PostureCategory.POOR),
    ]
    for value, want in posture_table:
        got = categorize_posture(value)
        if got is not want:
            failures.append(f"posture {value}: {got.value}, wanted {want.value}")

    descriptor_table = [
        (0.0, Descriptor.NOMINAL), (0.999, Descriptor.NOMINAL),
        (1.0, Descriptor.MODERATE), (1.499, Descriptor.MODERATE),
        (1.5, Descriptor.PRONOUNCED), (4.0, Descriptor.PRONOUNCED),
    ]
    for value, want in descriptor_table:
        got = to_descriptor(value)
        if got is not want:
            failures.append(f"descriptor {value}: {got.value}, wanted {want.value}")
    _verdict(2, failures)


# independent re-derivation of the event segmentation, used as the
# criterion-3 oracle
def _oracle_fixations(points, threshold, min_duration):
    labels = []
    for prev, cur in zip(points, points[1:]):
        if prev.payload.pupil_diameter_mm is None or cur.payload.pupil_diameter_mm is None:
            labels.append(None)
        else:
            dx, dy = cur.payload.x - prev.payload.x, cur.payload.y - prev.payload.y
            v = math.hypot(dx, dy) / (cur.timestamp - prev.timestamp)
            labels.append(v < threshold)
    fixations, saccades = [], []
    i = 0
    while i < len(labels):
        if labels[i] is None:
            i += 1
            continue
        j = i
        while j + 1 < len(labels) and labels[j + 1] == labels[i]:
            j += 1
        members = points[i:j + 2]
        span = (members[0].timestamp, members[-1].timestamp)
        if labels[i]:
            if span[1] - span[0] >= min_duration:
                fixations.append(span)
        else:
            saccades.append(span)
        i = j + 1
    return fixations, saccades


def _gaze_envelope(t, x, y, blink):
    sample = GazeSample(x=x, y=y, pupil_diameter_mm=None if blink else 3.0, confidence=0.05 if blink else 0.95)
    return SampleEnvelope(timestamp=t, payload=sample)


def test_criterion_03_fixation_segmentation_matches_oracle():
    failures = []
    rng = random.Random(1234)
    threshold, min_dur = 1.0, 0.1
    for case in range(500):
        points = []
        t, x, y = 0.0, 0.5, 0.5
        for _ in range(rng.randrange(2, 120)):
            t += rng.uniform(0.01, 0.03)
            roll = rng.random()
            if roll < 0.08:
                points.append(_gaze_envelope(t, x, y, blink=True))
                continue
            if roll < 0.25:
                x = min(1.0, max(0.0, x + rng.uniform(-0.4, 0.4)))
                y = min(1.0, max(0.0, y + rng.uniform(-0.4, 0.4)))
            else:
                x = min(1.0, max(0.0, x + rng.uniform(-0.005, 0.005)))
                y = min(1.0, max(0.0, y + rng.uniform(-0.005, 0.005)))
            points.append(_gaze_envelope(t, x, y, blink=False))
        track = GazeTrack(median_width=3, velocity_threshold=threshold)
        track.advance(0, points)
        got_fix, got_sac = track.segment(0, len(points), min_dur)
        want_fix, want_sac = _oracle_fixations(points, threshold, min_dur)
        if got_fix != want_fix:
            failures.append(f"case {case}: fixations {got_fix} != {want_fix}")
        if got_sac != want_sac:
            failures.append(f"case {case}: saccades {got_sac} != {want_sac}")
    _verdict(3, failures)


def test_criterion_04_fusion_matches_brute_force():
    failures = []
    rng = random.Random(777)
    # every channel at mu = 0 and sigma = 1, so a feature's z is its value
    unit = compute_baseline(
        {channel: [-1.0, 1.0] for channel in ALL_CHANNELS}, {channel: 2 for channel in ALL_CHANNELS}, SIGMA_FLOOR
    )
    weights = default_weight_matrix()
    scaled = default_weight_matrix()
    for row in scaled.values():
        for key in row:
            row[key] *= 3.25
    dims = list(Dimension)
    for case in range(10_000):
        dimension = rng.choice(dims)
        row = weights[dimension]
        features = []
        for channel in ALL_CHANNELS:
            if rng.random() < 0.35:
                continue
            quality = rng.random()
            features.append(ChannelFeature(channel, rng.uniform(-4.0, 4.0), quality, 0.0))
        num = den = 0.0
        for feature in features:
            w = row.get(feature.channel_id, 0.0)
            num += w * feature.quality * abs(feature.value)
            den += w * feature.quality
        got = infer_state(features, unit, weights, 0.0, PRONOUNCED_FLOOR, 0.0).dims[dimension]
        if den <= 0:
            if got.observed:
                failures.append(f"case {case}: expected an unobserved dimension")
            continue
        score, confidence = got.score, got.confidence
        if abs(score - num / den) > 1e-12:
            failures.append(f"case {case}: score {score} != {num / den}")
        if abs(confidence - den / sum(row.values())) > 1e-12:
            failures.append(f"case {case}: confidence off")
        again = infer_state(features, unit, scaled, 0.0, PRONOUNCED_FLOOR, 0.0).dims[dimension]
        if abs(score - again.score) > 1e-12 * max(1.0, abs(score)):
            failures.append(f"case {case}: score not scale-invariant")
        if abs(confidence - again.confidence) > 1e-12:
            failures.append(f"case {case}: confidence not scale-invariant")
    _verdict(4, failures)


def _state(t, score, conf=0.9):
    nominal = DimensionState(
        score=0.0, confidence=0.0,
        observed=False, signed_score=0.0, supra_channels=0,
    )
    dims = {d: nominal for d in Dimension}
    dims[Dimension.STRESS] = DimensionState(
        score=score, confidence=conf,
        observed=True, signed_score=score, supra_channels=1,
    )
    return StateVector(t=t, dims=dims)


def test_criterion_05_trigger_timing_is_exact():
    failures = []
    knobs = dict(trigger_threshold=1.5, confidence_min=0.6, consecutive_windows=3, persistence_s=10.0)
    quiet = SessionConfig(**knobs, cooldown_s={c: 0.0 for c in Category})

    engine = InterventionEngine(quiet, Modality.TEXT, DEFAULT_STRATEGIES)
    decided = [t for t in (100.0, 110.0, 120.0, 130.0)
               if engine.step(_state(t, 2.0))[1] is not None]
    if decided != [120.0]:
        failures.append(f"sustained excursion decided at {decided}, wanted [120.0]")

    engine = InterventionEngine(quiet, Modality.TEXT, DEFAULT_STRATEGIES)
    script = [(100.0, 2.0), (110.0, 2.0), (120.0, 0.3), (130.0, 2.0), (140.0, 2.0)]
    if any(engine.step(_state(t, s))[1] for t, s in script):
        failures.append("two-window excursion produced a decision")

    engine = InterventionEngine(quiet, Modality.TEXT, DEFAULT_STRATEGIES)
    if any(engine.step(_state(t, 2.0, conf=0.55))[1] for t in (100.0, 110.0, 120.0, 130.0)):
        failures.append("low-confidence excursion produced a decision")

    cooldown = quiet._replace(cooldown_s=dict(quiet.cooldown_s, **{Category.PHYSIOLOGICAL: 60.0}))
    engine = InterventionEngine(cooldown, Modality.TEXT, DEFAULT_STRATEGIES)
    decided = [float(t) for t in range(100, 200, 10)
               if engine.step(_state(float(t), 2.0))[1] is not None]
    if decided != [120.0, 180.0]:
        failures.append(f"cooldown cadence {decided}, wanted [120.0, 180.0]")
    _verdict(5, failures)


def test_criterion_06_prioritization_matches_linear_scan():
    failures = []
    rng = random.Random(31)
    scores = [1.2, 1.4, 1.5, 1.7, 1.7, 2.0, 2.4]  # duplicates force ties
    for case in range(2000):
        pool = []
        for dimension in rng.sample(list(Dimension), rng.randrange(0, 7)):
            score = rng.choice(scores)
            pool.append(Candidate(
                dimension=dimension, t=100.0, score=score, confidence=0.8,
                severity=severity_of(score), supra_channels=1,
            ))
        best = None
        for candidate in pool:
            if best is None or candidate.score > best.score or (
                candidate.score == best.score
                and PRIORITY_ORDER.index(candidate.dimension) < PRIORITY_ORDER.index(best.dimension)
            ):
                best = candidate
        got = prioritize(pool)
        if got is not best:
            failures.append(f"case {case}: picked {got and got.dimension}, wanted {best and best.dimension}")
    _verdict(6, failures)


def test_criterion_07_replay_is_deterministic_and_fast(tmp_path):
    failures = []
    profile = _bundled_profile("mixed_session")
    paths = []
    for run in range(2):
        started = time.perf_counter()
        result = run_session(synthesize(profile))
        elapsed = time.perf_counter() - started
        if elapsed >= 10.0:
            failures.append(f"run {run} took {elapsed:.2f}s, budget is 10s")
        path = tmp_path / f"mixed.{run}.trace.jsonl"
        write_trace(result, path)
        paths.append(path)
    if paths[0].read_bytes() != paths[1].read_bytes():
        failures.append("two replays of the same scenario differ byte for byte")
    if not result.decisions:
        failures.append("mixed profile produced no decisions at all")
    _verdict(7, failures)


def test_criterion_08_profiles_trigger_their_expected_loops(profile_results):
    failures = []
    stress = profile_results["stress_ramp"]
    if not any(
        d.category is Category.PHYSIOLOGICAL and d.template_id == "box_breathing"
        for d in stress.decisions
    ):
        failures.append("stress_ramp: no pronounced physiological box_breathing decision")
    high_band_windows = [
        e for e in stress.events
        if e.kind == "window_features" and e.payload.get("stress_band") == "high"
    ]
    if not high_band_windows:
        failures.append("stress_ramp: no rr window ever reached the high stress band")

    load = profile_results["load_excursion"]
    if not any(d.category is Category.COGNITIVE_ATTENTIONAL for d in load.decisions):
        failures.append("load_excursion: no cognitive or attentional decision")

    calm = profile_results["all_baseline"]
    if calm.decisions:
        listed = [(d.t, d.dimension.value) for d in calm.decisions]
        failures.append(f"all_baseline: expected silence, got {listed}")
    _verdict(8, failures)


def test_criterion_09_prompts_never_leak_numeric_state():
    failures = []
    rng = random.Random(2718)
    float_re = re.compile(r"-?\d+\.\d+")
    for case in range(1000):
        descriptors = {d: rng.choice(list(Descriptor)) for d in Dimension}
        decision = InterventionDecision(
            t=rng.uniform(0, 4000),
            dimension=rng.choice(list(Dimension)),
            severity=rng.choice(list(Severity)),
            category=rng.choice(list(Category)),
            tier=rng.choice(list(Tier)),
            framing=rng.choice(list(Framing)),
            modality=rng.choice(list(Modality)),
            template_id=rng.choice(TEMPLATE_IDS),
            triggering_score=rng.uniform(1.0, 5.0),
            confidence=rng.uniform(0.6, 1.0),
        )
        packet = build_directives(decision, descriptors, "redox reactions", ())
        prompt = render_prompt(packet, history_turns=6)
        if float_re.search(prompt):
            failures.append(f"case {case}: float leaked: {float_re.search(prompt).group()}")
        if "z=" in prompt or "sigma" in prompt.lower():
            failures.append(f"case {case}: normalization jargon leaked")
        if not re.search(r"\b(Nominal|Moderate|High)\b", prompt):
            failures.append(f"case {case}: no descriptor label present")
        if "Learner state:" not in prompt:
            failures.append(f"case {case}: missing state line")
    _verdict(9, failures)


def test_criterion_10_all_bundled_traces_validate(profile_results):
    failures = []
    for name, result in profile_results.items():
        header = {"type": "header", "config": result.config, "modality": result.header.modality}
        violations = validate_trace(header, result.events)
        for violation in violations:
            failures.append(f"{name}: {violation}")
    _verdict(10, failures)
