import pytest

from cogloop.config import SessionConfig, _strategy_table
from cogloop.directives import TEMPLATE_IDS
from cogloop.interventions import (
    DEFAULT_STRATEGIES,
    Candidate,
    Category,
    Framing,
    InterventionEngine,
    Severity,
    Tier,
    choose_framing,
    prioritize,
    severity_of,
)
from cogloop.model import Dimension, Modality
from cogloop.state import DimensionState, StateVector

# the trigger knobs these tests assume
KNOBS = dict(trigger_threshold=1.5, confidence_min=0.6, consecutive_windows=3, persistence_s=10.0)

NO_COOLDOWN = {c: 0.0 for c in Category}


def _unobserved():
    return DimensionState(
        score=0.0, confidence=0.0,
        observed=False, signed_score=0.0, supra_channels=0,
    )


def _observed(score, conf=0.9, signed=None, supra=1):
    return DimensionState(
        score=score, confidence=conf,
        observed=True, signed_score=score if signed is None else signed,
        supra_channels=supra,
    )


def _vec(t, **overrides):
    dims = {d: _unobserved() for d in Dimension}
    for name, ds in overrides.items():
        dims[Dimension[name.upper()]] = ds
    return StateVector(t=t, dims=dims)


def _engine(cooldowns=None):
    cfg = SessionConfig(**KNOBS, cooldown_s=cooldowns or NO_COOLDOWN)
    return InterventionEngine(cfg, Modality.TEXT, DEFAULT_STRATEGIES)


def _drive(engine, times, make_vec):
    """Step the engine over the times; returns [(t, decision), ...]."""
    out = []
    for t in times:
        _, decision = engine.step(make_vec(t))
        out.append((t, decision))
    return out


# ---------------------------------------------------------------------------
# trigger timing

def test_sustained_excursion_fires_on_the_third_window():
    engine = _engine()
    stamps = []
    for t in (100.0, 110.0, 120.0, 130.0):
        _, decision = engine.step(_vec(t, stress=_observed(2.0)))
        if decision:
            stamps.append(decision.t)
    # 100 and 110 fail the consecutive gate; hysteresis resets at 120,
    # so the next decision needs three fresh windows again
    assert stamps == [120.0]


def test_two_window_excursion_never_fires():
    engine = _engine()
    for t, score in ((100.0, 2.0), (110.0, 2.0), (120.0, 0.5), (130.0, 2.0), (140.0, 2.0)):
        _, decision = engine.step(_vec(t, stress=_observed(score)))
        assert decision is None


def test_low_confidence_blocks_and_resets_the_run():
    engine = _engine()
    # confidence at the floor (not above it) never satisfies the gate
    for t in (100.0, 110.0, 120.0, 130.0, 140.0):
        _, decision = engine.step(_vec(t, stress=_observed(2.0, conf=0.55)))
        assert decision is None

    engine = _engine()
    confs = [0.9, 0.9, 0.55, 0.9, 0.9, 0.9]
    decisions = []
    for t, conf in zip((100.0, 110.0, 120.0, 130.0, 140.0, 150.0), confs):
        _, decision = engine.step(_vec(t, stress=_observed(2.0, conf=conf)))
        if decision:
            decisions.append(decision.t)
    # the dip at 120 cleared the run; three clean windows land at 150
    assert decisions == [150.0]


def test_score_exactly_at_threshold_does_not_trigger():
    engine = _engine()
    for t in (100.0, 110.0, 120.0, 130.0, 140.0):
        _, decision = engine.step(_vec(t, stress=_observed(1.5)))
        assert decision is None


def test_persistence_gate_needs_the_full_span():
    # windows 4s apart: three consecutive span only 8s
    engine = _engine()
    results = _drive(
        engine, [100.0, 104.0, 108.0, 112.0], lambda t: _vec(t, stress=_observed(2.0))
    )
    decisions = [t for t, d in results if d]
    assert decisions == [112.0]  # 12s span, fourth window

    # windows 5s apart: the span hits exactly 10s on the third
    engine = _engine()
    results = _drive(
        engine, [100.0, 105.0, 110.0], lambda t: _vec(t, stress=_observed(2.0))
    )
    decisions = [t for t, d in results if d]
    assert decisions == [110.0]


def test_unobserved_dimension_never_triggers():
    engine = _engine()
    for t in (100.0, 110.0, 120.0, 130.0):
        vec = _vec(t)  # everything unobserved
        candidates, decision = engine.step(vec)
        assert candidates == []
        assert decision is None


# ---------------------------------------------------------------------------
# cooldown

def test_cooldown_defers_and_releases_at_the_inclusive_boundary():
    cooldowns = dict(NO_COOLDOWN)
    cooldowns[Category.PHYSIOLOGICAL] = 60.0
    engine = _engine(cooldowns)
    decisions = []
    for t in range(100, 200, 10):
        _, decision = engine.step(_vec(float(t), stress=_observed(2.0)))
        if decision:
            decisions.append(decision.t)
    # first decision at 120; candidates at 150..170 are deferred by the
    # 60s category cooldown; exactly 120 + 60 = 180 may fire again
    assert decisions == [120.0, 180.0]


def test_deferred_run_stays_intact():
    cooldowns = dict(NO_COOLDOWN)
    cooldowns[Category.PHYSIOLOGICAL] = 35.0
    engine = _engine(cooldowns)
    decisions = []
    for t in range(100, 170, 10):
        _, decision = engine.step(_vec(float(t), stress=_observed(2.0)))
        if decision:
            decisions.append(decision.t)
    # decision at 120 -> cooldown to 155. The run rebuilt at 130..150
    # passes the gates at 150 but defers; 160 is past the boundary and
    # the run was not reset by the deferral.
    assert decisions == [120.0, 160.0]


def test_cooldowns_are_per_category():
    cooldowns = dict(NO_COOLDOWN)
    cooldowns[Category.PHYSIOLOGICAL] = 1000.0
    cooldowns[Category.COMPREHENSION_ORIENTED] = 1000.0
    engine = _engine(cooldowns)
    decisions = []
    for t in range(100, 200, 10):
        _, decision = engine.step(
            _vec(
                float(t),
                stress=_observed(2.0),
                understanding=_observed(1.9),
            )
        )
        if decision:
            decisions.append((decision.t, decision.dimension))
    # stress wins at 120 and locks physiological; understanding's
    # comprehension category is unaffected and fires next window
    assert decisions == [
        (120.0, Dimension.STRESS),
        (130.0, Dimension.UNDERSTANDING),
    ]


# ---------------------------------------------------------------------------
# hysteresis and repeats

def test_repeat_ordinal_increments_within_an_episode():
    engine = _engine()
    seen = []
    for t in range(100, 200, 10):
        candidates, decision = engine.step(_vec(float(t), stress=_observed(2.0, supra=1)))
        if decision:
            seen.append((decision.t, decision.framing))
    # ordinal 1 at 120 (implicit: single channel, first occurrence),
    # ordinal 2 at 150 flips the framing to explicit
    assert seen[0] == (120.0, Framing.IMPLICIT)
    assert seen[1] == (150.0, Framing.EXPLICIT)
    assert seen[2] == (180.0, Framing.EXPLICIT)


def test_dropping_below_threshold_ends_the_episode():
    engine = _engine()
    framings = {}
    script = [(float(t), 2.0) for t in range(100, 160, 10)]
    script += [(160.0, 0.2)]  # episode ends
    script += [(float(t), 2.0) for t in range(170, 210, 10)]
    for t, score in script:
        _, decision = engine.step(_vec(t, stress=_observed(score, supra=1)))
        if decision:
            framings[t] = decision.framing
    assert framings[120.0] is Framing.IMPLICIT
    assert framings[150.0] is Framing.EXPLICIT  # second in the episode
    assert framings[190.0] is Framing.IMPLICIT  # fresh episode after the dip


def test_corroborated_first_decision_is_explicit():
    engine = _engine()
    for t in (100.0, 110.0, 120.0):
        _, decision = engine.step(_vec(t, stress=_observed(2.0, supra=2)))
    assert decision is not None
    assert decision.framing is Framing.EXPLICIT


# ---------------------------------------------------------------------------
# prioritization

def _cand(dimension, score, t=0.0, conf=0.9):
    return Candidate(
        dimension=dimension, t=t, score=score, confidence=conf,
        severity=severity_of(score), supra_channels=1,
    )


def test_prioritize_picks_the_highest_score():
    winner = prioritize([
        _cand(Dimension.ENGAGEMENT, 1.9),
        _cand(Dimension.STRESS, 1.6),
        _cand(Dimension.FATIGUE, 1.7),
    ])
    assert winner.dimension is Dimension.ENGAGEMENT


def test_prioritize_breaks_exact_ties_by_fixed_order():
    winner = prioritize([
        _cand(Dimension.ATTENTION, 1.7),
        _cand(Dimension.FATIGUE, 1.7),
    ])
    assert winner.dimension is Dimension.FATIGUE

    order = [
        Dimension.STRESS,
        Dimension.COGNITIVE_LOAD,
        Dimension.FATIGUE,
        Dimension.UNDERSTANDING,
        Dimension.ATTENTION,
        Dimension.ENGAGEMENT,
    ]
    pool = [_cand(d, 2.0) for d in reversed(order)]
    for expected in order:
        winner = prioritize(pool)
        assert winner.dimension is expected
        pool = [c for c in pool if c.dimension is not expected]
    assert prioritize([]) is None


# ---------------------------------------------------------------------------
# severity and strategy table

def test_severity_bands():
    assert severity_of(1.0) is Severity.MODERATE
    assert severity_of(1.49) is Severity.MODERATE
    assert severity_of(1.5) is Severity.PRONOUNCED
    assert severity_of(4.0) is Severity.PRONOUNCED
    with pytest.raises(ValueError):
        severity_of(0.9)


def test_default_strategy_lookups():
    table = DEFAULT_STRATEGIES
    for modality in Modality:
        entry = table[Dimension.STRESS, Severity.PRONOUNCED, modality]
        assert entry.template_id == "box_breathing"
        assert entry.category is Category.PHYSIOLOGICAL
        assert entry.tier is Tier.MESO

    entry = table[Dimension.COGNITIVE_LOAD, Severity.PRONOUNCED, Modality.TEXT]
    assert (entry.category, entry.tier, entry.template_id) == (
        Category.COGNITIVE_ATTENTIONAL, Tier.MICRO, "chunk_and_distill"
    )
    entry = table[Dimension.UNDERSTANDING, Severity.PRONOUNCED, Modality.VIDEO]
    assert (entry.category, entry.tier, entry.template_id) == (
        Category.COMPREHENSION_ORIENTED, Tier.MACRO, "first_principles"
    )
    entry = table[Dimension.FATIGUE, Severity.PRONOUNCED, Modality.AUDIO]
    assert entry.template_id == "take_break"
    assert entry.category is Category.PHYSIOLOGICAL


def test_default_table_is_total_and_valid():
    assert len(DEFAULT_STRATEGIES) == len(Dimension) * len(Severity) * len(Modality)
    for dimension in Dimension:
        for severity in Severity:
            for modality in Modality:
                assert DEFAULT_STRATEGIES[dimension, severity, modality].template_id in TEMPLATE_IDS


def test_template_overrides_swap_text_only():
    key = (Dimension.STRESS, Severity.PRONOUNCED, Modality.TEXT)
    table = _strategy_table(SessionConfig(strategy_overrides={key: "my_custom_script"}))
    entry = table[key]
    assert entry.template_id == "my_custom_script"
    assert entry.category is Category.PHYSIOLOGICAL
    assert entry.tier is Tier.MESO
    # every other entry, and the default table, are untouched
    assert {k: v for k, v in table.items() if k != key} == {
        k: v for k, v in DEFAULT_STRATEGIES.items() if k != key
    }
    assert DEFAULT_STRATEGIES[key].template_id == "box_breathing"


# ---------------------------------------------------------------------------
# framing rules

def test_framing_rules():
    assert choose_framing(repeat_count=1, contributing_channels=0) is Framing.IMPLICIT
    assert choose_framing(repeat_count=1, contributing_channels=1) is Framing.IMPLICIT
    assert choose_framing(repeat_count=2, contributing_channels=0) is Framing.EXPLICIT
    assert choose_framing(repeat_count=1, contributing_channels=2) is Framing.EXPLICIT
    assert choose_framing(repeat_count=3, contributing_channels=5) is Framing.EXPLICIT


# ---------------------------------------------------------------------------
# composite under-challenge route

# a moderate underload (signed z in (-1.5, -1.0]) stays below the plain
# trigger threshold, so only the composite route can fire on it
def _challenge_vec(t, signed_load=-1.2, signed_eng=0.5, conf=0.9):
    return _vec(
        t,
        cognitive_load=_observed(abs(signed_load), conf=conf, signed=signed_load),
        engagement=_observed(0.4, conf=conf, signed=signed_eng),
    )


def test_composite_candidate_after_sustained_underload():
    engine = _engine()
    decisions = []
    for t in (100.0, 110.0, 120.0):
        candidates, decision = engine.step(_challenge_vec(t))
        if decision:
            decisions.append(decision)
    assert len(decisions) == 1
    decision = decisions[0]
    assert decision.t == 120.0
    assert decision.composite
    assert decision.dimension is Dimension.ENGAGEMENT
    assert decision.category is Category.CHALLENGE_ENHANCEMENT
    # the composite scores by how far load sits below baseline
    assert decision.triggering_score == pytest.approx(1.2)
    assert decision.severity is Severity.MODERATE
    assert decision.template_id == "advanced_application"


def test_composite_needs_both_directions():
    engine = _engine()
    # engagement below baseline: not an under-challenge pattern
    for t in (100.0, 110.0, 120.0, 130.0):
        candidates, decision = engine.step(_challenge_vec(t, signed_eng=-0.5))
        assert decision is None

    engine = _engine()
    # load only slightly below baseline: gate is signed z <= -1.0
    for t in (100.0, 110.0, 120.0, 130.0):
        candidates, decision = engine.step(_challenge_vec(t, signed_load=-0.9))
        assert decision is None


def test_composite_gate_boundary_is_inclusive():
    engine = _engine()
    decisions = []
    for t in (100.0, 110.0, 120.0):
        _, decision = engine.step(_challenge_vec(t, signed_load=-1.0))
        if decision:
            decisions.append(decision)
    assert len(decisions) == 1
    assert decisions[0].composite
    assert decisions[0].severity is Severity.MODERATE


def test_composite_confidence_uses_the_weaker_dimension():
    engine = _engine()
    for t in (100.0, 110.0, 120.0, 130.0):
        vec = _vec(
            t,
            cognitive_load=_observed(1.2, conf=0.9, signed=-1.2),
            engagement=_observed(0.4, conf=0.55, signed=0.5),
        )
        _, decision = engine.step(vec)
        assert decision is None  # min(0.9, 0.55) is not above the floor


def test_composite_run_resets_when_the_pattern_breaks():
    engine = _engine()
    script = [
        (100.0, -1.2), (110.0, -1.2),
        (120.0, -0.2),  # pattern breaks
        (130.0, -1.2), (140.0, -1.2), (150.0, -1.2),
    ]
    decisions = []
    for t, load in script:
        _, decision = engine.step(_challenge_vec(t, signed_load=load))
        if decision:
            decisions.append(decision.t)
    assert decisions == [150.0]


def test_composite_supersedes_plain_engagement():
    engine = _engine()
    for t in (100.0, 110.0, 120.0):
        vec = _vec(
            t,
            cognitive_load=_observed(1.2, conf=0.9, signed=-1.2),
            # plain engagement deviation is also above threshold
            engagement=_observed(1.7, conf=0.9, signed=0.5),
        )
        candidates, decision = engine.step(vec)
    engagement_candidates = [c for c in candidates if c.dimension is Dimension.ENGAGEMENT]
    assert len(engagement_candidates) == 1
    assert engagement_candidates[0].composite
    assert decision.composite
    assert decision.triggering_score == pytest.approx(1.2)


def test_composite_respects_the_challenge_category_cooldown():
    cooldowns = dict(NO_COOLDOWN)
    cooldowns[Category.CHALLENGE_ENHANCEMENT] = 60.0
    engine = _engine(cooldowns)
    decisions = []
    for t in range(100, 200, 10):
        _, decision = engine.step(_challenge_vec(float(t)))
        if decision:
            decisions.append(decision.t)
    assert decisions == [120.0, 180.0]
