"""Closed-loop trigger policy and strategy selection.

A dimension becomes a candidate when its score stays above the trigger
threshold with sufficient confidence for at least the configured number
of consecutive windows AND for at least the persistence interval, and
its strategy category is not cooling down. At most one decision is
emitted per state vector: the candidate with the highest score wins,
ties broken by a fixed dimension priority.

A cooldown failure only defers a candidate; threshold or confidence
failures reset its consecutive-window run. After a decision the winning
run is reset as well, so re-triggering requires a fresh sustained
excursion (hysteresis).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .model import Dimension, Modality, Timestamp
from .state import Descriptor, StateVector, to_descriptor

if TYPE_CHECKING:  # config imports this module
    from .config import SessionConfig


class Severity(str, Enum):
    MODERATE = "moderate"
    PRONOUNCED = "pronounced"


class Category(str, Enum):
    COGNITIVE_ATTENTIONAL = "cognitive_attentional"
    PHYSIOLOGICAL = "physiological"
    COMPREHENSION_ORIENTED = "comprehension_oriented"
    CHALLENGE_ENHANCEMENT = "challenge_enhancement"


class Tier(str, Enum):
    MICRO = "micro"
    MESO = "meso"
    MACRO = "macro"


class Framing(str, Enum):
    IMPLICIT = "implicit"
    EXPLICIT = "explicit"


# Tie-break order when candidates score equal, most urgent first.
PRIORITY_ORDER = (
    Dimension.STRESS,
    Dimension.COGNITIVE_LOAD,
    Dimension.FATIGUE,
    Dimension.UNDERSTANDING,
    Dimension.ATTENTION,
    Dimension.ENGAGEMENT,
)

# Directional gate for the challenge-enhancement composite: cognitive
# load this far below baseline (signed z) with engagement above it.
CHALLENGE_LOAD_CEILING = -1.0
# the dimensions the composite reads: load, then engagement
COMPOSITE_DIMENSIONS = (Dimension.COGNITIVE_LOAD, Dimension.ENGAGEMENT)


def severity_of(score: float) -> Severity:
    descriptor = to_descriptor(score)
    if descriptor is Descriptor.PRONOUNCED:
        return Severity.PRONOUNCED
    if descriptor is Descriptor.MODERATE:
        return Severity.MODERATE
    raise ValueError(f"score {score!r} is below the moderate band, no severity")


class StrategyEntry(NamedTuple):
    category: Category
    tier: Tier
    template_id: str


StrategyKey = tuple[Dimension, Severity, Modality]


# (category, tier, template) per dimension and severity. The default
# table uses the same entry for all four modalities; the renderer
# handles modality-specific mechanics.
_ENTRIES: dict[tuple[Dimension, Severity], StrategyEntry] = {
    (Dimension.STRESS, Severity.MODERATE): StrategyEntry(
        Category.PHYSIOLOGICAL, Tier.MESO, "reassurance"
    ),
    (Dimension.STRESS, Severity.PRONOUNCED): StrategyEntry(
        Category.PHYSIOLOGICAL, Tier.MESO, "box_breathing"
    ),
    (Dimension.COGNITIVE_LOAD, Severity.MODERATE): StrategyEntry(
        Category.COGNITIVE_ATTENTIONAL, Tier.MICRO, "restructure"
    ),
    (Dimension.COGNITIVE_LOAD, Severity.PRONOUNCED): StrategyEntry(
        Category.COGNITIVE_ATTENTIONAL, Tier.MICRO, "chunk_and_distill"
    ),
    (Dimension.ATTENTION, Severity.MODERATE): StrategyEntry(
        Category.COGNITIVE_ATTENTIONAL, Tier.MESO, "curiosity_prompt"
    ),
    (Dimension.ATTENTION, Severity.PRONOUNCED): StrategyEntry(
        Category.COGNITIVE_ATTENTIONAL, Tier.MESO, "physical_reset"
    ),
    (Dimension.UNDERSTANDING, Severity.MODERATE): StrategyEntry(
        Category.COMPREHENSION_ORIENTED, Tier.MICRO, "alternate_explanations"
    ),
    (Dimension.UNDERSTANDING, Severity.PRONOUNCED): StrategyEntry(
        Category.COMPREHENSION_ORIENTED, Tier.MACRO, "first_principles"
    ),
    (Dimension.FATIGUE, Severity.MODERATE): StrategyEntry(
        Category.PHYSIOLOGICAL, Tier.MESO, "shorter_segments"
    ),
    (Dimension.FATIGUE, Severity.PRONOUNCED): StrategyEntry(
        Category.PHYSIOLOGICAL, Tier.MESO, "take_break"
    ),
    (Dimension.ENGAGEMENT, Severity.MODERATE): StrategyEntry(
        Category.CHALLENGE_ENHANCEMENT, Tier.MICRO, "advanced_application"
    ),
    (Dimension.ENGAGEMENT, Severity.PRONOUNCED): StrategyEntry(
        Category.CHALLENGE_ENHANCEMENT, Tier.MICRO, "synthesis_prompt"
    ),
}

# (dimension, severity, modality) -> strategy entry. A config's table
# overlays it with template overrides keyed by the same enum members, so
# every table is total.
DEFAULT_STRATEGIES: dict[StrategyKey, StrategyEntry] = {
    (dimension, severity, modality): entry
    for (dimension, severity), entry in _ENTRIES.items()
    for modality in Modality
}


class Candidate(NamedTuple):
    """A dimension that has cleared every trigger gate this window."""

    dimension: Dimension
    t: Timestamp
    score: float
    confidence: float
    severity: Severity
    supra_channels: int
    composite: bool = False
    repeat_ordinal: int = 1


class InterventionDecision(NamedTuple):
    t: Timestamp
    dimension: Dimension
    severity: Severity
    category: Category
    tier: Tier
    framing: Framing
    modality: Modality
    template_id: str
    triggering_score: float
    confidence: float
    composite: bool = False


class _Run:
    __slots__ = ("consecutive", "first_exceeded_at", "repeat_count")

    def __init__(self):
        self.consecutive = 0
        self.first_exceeded_at: Timestamp | None = None
        self.repeat_count = 0  # decisions within the current supra episode

    def reset(self) -> None:
        self.consecutive = 0
        self.first_exceeded_at = None

    def clear(self) -> None:
        self.reset()
        self.repeat_count = 0


# The trigger routes, walked in this order: (dimension, composite). The
# six dimensions, then the under-challenge composite, which acts on
# engagement and supersedes a plain engagement candidate.
ROUTES: tuple[tuple[Dimension, bool], ...] = (
    *((dimension, False) for dimension in Dimension),
    (Dimension.ENGAGEMENT, True),
)


def route_reading(
    dimension: Dimension, composite: bool, state: StateVector, cfg: SessionConfig
) -> tuple[float, float, int] | None:
    """(score, confidence, supra channels) when the route is active.

    A dimension is active above the trigger threshold; the composite
    when cognitive load sits well below baseline with engagement above
    it. Either way the confidence must clear the floor. The rule reads
    only the route's own dimensions: the plain route's, or
    ``COMPOSITE_DIMENSIONS``.
    """
    if not composite:
        ds = state.dims[dimension]
        if ds.observed and ds.score > cfg.trigger_threshold and ds.confidence > cfg.confidence_min:
            return ds.score, ds.confidence, ds.supra_channels
        return None
    load, engagement = (state.dims[d] for d in COMPOSITE_DIMENSIONS)
    confidence = min(load.confidence, engagement.confidence)
    if (
        load.observed
        and engagement.observed
        and load.signed_score <= CHALLENGE_LOAD_CEILING
        and engagement.signed_score > 0.0
        and confidence > cfg.confidence_min
    ):
        return abs(load.signed_score), confidence, max(load.supra_channels, engagement.supra_channels)
    return None


def prioritize(candidates: list[Candidate]) -> Candidate | None:
    """Pick the single candidate to act on: highest score wins, exact
    ties fall back to the fixed dimension priority order."""
    return min(candidates, key=lambda c: (-c.score, PRIORITY_ORDER.index(c.dimension)), default=None)


def choose_framing(repeat_count: int, contributing_channels: int) -> Framing:
    """Explicit acknowledgment is reserved for persistent or strongly
    corroborated states; everything else adapts silently."""
    if repeat_count >= 2 or contributing_channels >= 2:
        return Framing.EXPLICIT
    return Framing.IMPLICIT


def decide(
    winner: Candidate, table: dict[StrategyKey, StrategyEntry], modality: Modality
) -> InterventionDecision:
    """The decision on a winning candidate: the table's strategy for its
    dimension and severity at the modality, framed by ``choose_framing``."""
    entry = table[winner.dimension, winner.severity, modality]
    return InterventionDecision(
        t=winner.t,
        dimension=winner.dimension,
        severity=winner.severity,
        category=entry.category,
        tier=entry.tier,
        framing=choose_framing(winner.repeat_ordinal, winner.supra_channels),
        modality=modality,
        template_id=entry.template_id,
        triggering_score=winner.score,
        confidence=winner.confidence,
        composite=winner.composite,
    )


class InterventionEngine:
    """Drives the trigger routes over a session: per-route runs and
    per-category cooldowns, its trigger knobs read off ``cfg``."""

    def __init__(self, cfg: SessionConfig, modality: Modality, table: dict[StrategyKey, StrategyEntry]):
        self.cfg = cfg
        self.modality = modality
        self.table = table
        self.runs = {route: _Run() for route in ROUTES}
        self.cooldown_until = {category: -math.inf for category in Category}

    def step(self, state: StateVector) -> tuple[list[Candidate], InterventionDecision | None]:
        """Advance every route by one state vector; decide on the winner.

        The vectors come in strictly increasing time, one per tick of the
        session's grid. Each route goes through the same gates: active,
        run, persistence, cooldown. A candidate blocked only by its
        category cooldown keeps its run; an inactive route clears its run
        and its repeat count.
        """
        t = state.t
        cfg = self.cfg

        candidates: list[Candidate] = []
        for (dimension, composite), run in self.runs.items():
            reading = route_reading(dimension, composite, state, cfg)
            if reading is None:
                run.clear()
                continue
            run.consecutive += 1
            if run.first_exceeded_at is None:
                run.first_exceeded_at = t
            if run.consecutive < cfg.consecutive_windows or t - run.first_exceeded_at < cfg.persistence_s:
                continue
            score, confidence, supra_channels = reading
            severity = severity_of(score)
            if t < self.cooldown_until[self.table[dimension, severity, self.modality].category]:
                continue  # deferred, run intact
            if composite:
                candidates = [c for c in candidates if c.dimension is not dimension]
            candidates.append(
                Candidate(dimension, t, score, confidence, severity, supra_channels, composite, run.repeat_count + 1)
            )

        winner = prioritize(candidates)
        if winner is None:
            return candidates, None
        decision = decide(winner, self.table, self.modality)
        # the cooldown boundary is inclusive: a candidate at exactly
        # t + cooldown may fire
        self.cooldown_until[decision.category] = t + cfg.cooldown_s[decision.category]
        run = self.runs[winner.dimension, winner.composite]
        run.reset()
        run.repeat_count += 1
        return candidates, decision
