"""Turn intervention decisions into modality-aware directive packets and
deterministic prompts.

Prompts carry only semantic labels (descriptor bands, tone words,
strategy names). Raw channel values and z-scores never reach the
prompt; the numeric trail lives in the trace instead.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import deque
from enum import Enum
from typing import NamedTuple, Protocol

from .errors import ClientUnavailableError
from .interventions import Framing, InterventionDecision
from .model import Dimension, Modality
from .state import Descriptor


class SentenceComplexity(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class EncouragementFrequency(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class ExplanationDirectness(str, Enum):
    INDIRECT = "indirect"
    BALANCED = "balanced"
    DIRECT = "direct"


class MetaphorUsage(str, Enum):
    SPARSE = "sparse"
    MODERATE = "moderate"
    RICH = "rich"


class ToneParameters(NamedTuple):
    sentence_complexity: SentenceComplexity = SentenceComplexity.MEDIUM
    encouragement_frequency: EncouragementFrequency = EncouragementFrequency.MEDIUM
    explanation_directness: ExplanationDirectness = ExplanationDirectness.BALANCED
    metaphor_usage: MetaphorUsage = MetaphorUsage.MODERATE


def build_tone(descriptors: dict[Dimension, Descriptor]) -> ToneParameters:
    """Derive tone from the current descriptor bands, one per dimension.

    Precedence: pronounced stress, then pronounced fatigue, then the
    socratic case (engagement elevated while load stays nominal),
    otherwise neutral defaults.
    """
    stress = descriptors[Dimension.STRESS]
    fatigue = descriptors[Dimension.FATIGUE]
    engagement = descriptors[Dimension.ENGAGEMENT]
    load = descriptors[Dimension.COGNITIVE_LOAD]

    if stress is Descriptor.PRONOUNCED:
        return ToneParameters(
            SentenceComplexity.LOW,
            EncouragementFrequency.HIGH,
            ExplanationDirectness.DIRECT,
            MetaphorUsage.MODERATE,
        )
    if fatigue is Descriptor.PRONOUNCED:
        return ToneParameters(
            SentenceComplexity.LOW,
            EncouragementFrequency.MEDIUM,
            ExplanationDirectness.DIRECT,
            MetaphorUsage.SPARSE,
        )
    if engagement is not Descriptor.NOMINAL and load is Descriptor.NOMINAL:
        return ToneParameters(
            SentenceComplexity.MEDIUM,
            EncouragementFrequency.MEDIUM,
            ExplanationDirectness.INDIRECT,
            MetaphorUsage.MODERATE,
        )
    return ToneParameters()


# ---------------------------------------------------------------------------
# directive templates

# Strategy text per template id, with the modality-specific delivery
# mechanism appended. The {topic} slot is filled from session context.
_STRATEGY_TEXT: dict[str, str] = {
    "reassurance": (
        "Reassure the learner that {topic} is challenging for most people at "
        "first, then walk through the current step calmly."
    ),
    "box_breathing": (
        "Pause the material and guide one breathing cycle: inhale 4, hold 4, "
        "exhale 6. Then ease back into {topic}."
    ),
    "restructure": (
        "Reorganize the current explanation of {topic}: lead with the main "
        "relationship, then layer supporting detail with contextual cues."
    ),
    "chunk_and_distill": (
        "Stop introducing new material. Re-present {topic} in shorter segments "
        "with reduced information density, distilling each segment to its core "
        "idea before moving on."
    ),
    "curiosity_prompt": (
        "Redirect attention with a curiosity hook about {topic}, for example a "
        "surprising consequence or a what-if variation."
    ),
    "physical_reset": (
        "Suggest a brief physical reset (stand, stretch, look away from the "
        "screen), then re-enter {topic} at the point where focus drifted."
    ),
    "alternate_explanations": (
        "Explain {topic} again in a different style than before: one formal "
        "pass, one intuitive analogy, then check which version landed."
    ),
    "first_principles": (
        "Rebuild {topic} from first principles: start from a concrete example "
        "the learner already accepts, then derive the general idea step by step."
    ),
    "shorter_segments": (
        "Shorten the upcoming segments on {topic} and insert natural pause "
        "points between them."
    ),
    "take_break": (
        "Recommend a short break before continuing with {topic}; offer to "
        "recap the last point afterwards."
    ),
    "advanced_application": (
        "Reduce scaffolding: offer an advanced application of {topic} that "
        "stretches beyond the worked examples."
    ),
    "synthesis_prompt": (
        "Extend {topic} with a synthesis challenge that connects it to broader "
        "theory or an adjacent concept."
    ),
}

_MODALITY_MECHANICS: dict[Modality, str] = {
    Modality.TEXT: (
        "Deliver as restructured text: short paragraphs or a compact list, "
        "with the key term highlighted."
    ),
    Modality.IMAGE: (
        "Adapt the visual: disclose the diagram progressively, trim "
        "annotations, and highlight the region under discussion."
    ),
    Modality.AUDIO: (
        "Adjust the narration: slower pacing, strategic pauses, and a one-"
        "sentence summary at the end."
    ),
    Modality.VIDEO: (
        "Pause playback at the sticking point and embed a clarifying question "
        "or overlay caption before resuming."
    ),
}

TEMPLATE_IDS = tuple(sorted(_STRATEGY_TEXT))


def render_template(template_id: str, modality: Modality, topic: str) -> str:
    """The directive text of one of ``TEMPLATE_IDS``; ``validate_config``
    refuses a strategy override naming any other."""
    strategy = _STRATEGY_TEXT[template_id].format(topic=topic)
    return f"{strategy} {_MODALITY_MECHANICS[modality]}"


# Descriptor band -> label word used in prompts.
_DESCRIPTOR_LABEL = {
    Descriptor.NOMINAL: "Nominal",
    Descriptor.MODERATE: "Moderate",
    Descriptor.PRONOUNCED: "High",
}


def descriptor_label(dimension: Dimension, descriptor: Descriptor) -> str:
    """Human label like 'High Stress' or 'Nominal Attention': the
    dimension's name in title case."""
    return f"{_DESCRIPTOR_LABEL[descriptor]} {dimension.value.replace('_', ' ').title()}"


class DirectivePacket(NamedTuple):
    decision: InterventionDecision
    descriptors: dict[Dimension, Descriptor]
    tone: ToneParameters
    directive_text: str
    topic: str
    dialogue: tuple[dict[str, str], ...]


def build_directives(
    decision: InterventionDecision,
    descriptors: dict[Dimension, Descriptor],
    topic: str,
    dialogue: tuple[dict[str, str], ...],
) -> DirectivePacket:
    """Assemble the packet for one decision."""
    return DirectivePacket(
        decision=decision,
        descriptors=descriptors,
        tone=build_tone(descriptors),
        directive_text=render_template(decision.template_id, decision.modality, topic),
        topic=topic,
        dialogue=dialogue,
    )


def render_prompt(packet: DirectivePacket, history_turns: int) -> str:
    """Deterministic prompt text for the generation client.

    Includes descriptor labels for all six dimensions, tone words, the
    directive, and the last turns of dialogue. Never includes numeric
    state: scores and z-values stay in the trace.
    """
    state_labels = "; ".join(
        descriptor_label(dimension, packet.descriptors[dimension]) for dimension in Dimension
    )
    tone = packet.tone
    decision = packet.decision
    framing_line = (
        "You may explicitly acknowledge how the learner seems to be doing."
        if decision.framing is Framing.EXPLICIT
        else "Adapt silently; do not mention any monitoring or state sensing."
    )
    lines = [
        "You are an adaptive tutor. Shape your next reply by the learner state below.",
        f"Learner state: {state_labels}.",
        (
            f"Tone: sentence complexity {tone.sentence_complexity.value}; "
            f"encouragement {tone.encouragement_frequency.value}; "
            f"directness {tone.explanation_directness.value}; "
            f"metaphor use {tone.metaphor_usage.value}."
        ),
        (
            f"Strategy ({decision.category.value}, {decision.tier.value} tier, "
            f"{decision.severity.value} severity, {decision.modality.value} modality): "
            f"{packet.directive_text}"
        ),
        framing_line,
        f"Topic: {packet.topic}",
    ]
    recent = list(packet.dialogue)[-history_turns:] if history_turns > 0 else []
    if recent:
        lines.append("Recent dialogue:")
        for turn in recent:
            lines.append(f"  {turn.get('role', 'learner')}: {turn.get('text', '')}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# generation clients

class GenerationClient(Protocol):
    """Boundary to the language model that produces tutor replies and
    note assessments."""

    def generate(self, prompt: str) -> str: ...

    def analyze_note(self, transcript: str) -> str: ...


def sha256_constructor():
    """The SHA-256 constructor of CPython's builtin module: ``_sha2`` on
    3.12 and later, ``_sha256`` before. ``hashlib`` is the fallback, for
    builds without a builtin SHA-2 (``--with-builtin-hashlib-hashes``
    can leave it out): importing it maps OpenSSL's libcrypto, several
    megabytes that a replay hashing a few prompts has no use for."""
    name = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    try:
        return importlib.import_module(name).sha256
    except ImportError:
        import hashlib

        return hashlib.sha256


sha256 = sha256_constructor()


def _digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()[:12]


def mock_generate(prompt: str) -> str:
    """Deterministic stand-in reply: a stable digest of the prompt plus
    an echo of the state and strategy lines it contains."""
    echo = [
        line for line in prompt.splitlines()
        if line.startswith("Learner state:") or line.startswith("Strategy (")
    ]
    echoed = " | ".join(echo) if echo else "no directive lines found"
    return f"ok digest={_digest(prompt)} :: {echoed}"


class MockGenerationClient:
    """Offline client used for replay; fully deterministic.

    Note analyses come from the scripted reply queue when one is
    loaded, otherwise from a stable hash of the transcript.
    """

    def __init__(self, scripted_note_replies: tuple[str, ...] = ()):
        self._queue = deque(scripted_note_replies)

    def generate(self, prompt: str) -> str:
        return mock_generate(prompt)

    def analyze_note(self, transcript: str) -> str:
        if self._queue:
            return self._queue.popleft()
        bucket = int(_digest(transcript), 16) % 41  # 0..40
        score = 0.5 + bucket / 100.0
        return f"score={score:.2f}; feedback=auto-assessed note coverage"


# seconds a live generation request may take before it counts as failed
_TIMEOUT_S = 10.0


class LiveGenerationClient:
    """Minimal HTTP client: POST JSON, timeout, one retry.

    The endpoint comes from the COGLOOP_GENERATION_URL environment
    variable. Failures raise ClientUnavailableError; the session runner
    degrades those to trace warnings.
    """

    def _url(self) -> str:
        url = os.environ.get("COGLOOP_GENERATION_URL", "")
        if not url:
            raise ClientUnavailableError("no generation endpoint configured")
        return url

    def _post(self, payload: dict) -> str:
        # imported here: urllib.request pulls in http.client, ssl, email
        # and socket, which a replay with the mock client never needs
        import urllib.error
        import urllib.request

        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self._url(), data=body, headers={"Content-Type": "application/json"}
        )
        last_error: Exception | None = None
        for _ in range(2):  # one retry
            try:
                with urllib.request.urlopen(request, timeout=_TIMEOUT_S) as response:
                    return response.read().decode("utf-8")
            except (urllib.error.URLError, TimeoutError, OSError) as error:
                last_error = error
        raise ClientUnavailableError(f"generation endpoint failed twice: {last_error}")

    def generate(self, prompt: str) -> str:
        return self._post({"kind": "generate", "prompt": prompt})

    def analyze_note(self, transcript: str) -> str:
        return self._post({"kind": "analyze_note", "transcript": transcript})
