import hashlib
import importlib.util
import io
import json
import random
import re
import sys
import urllib.error
import urllib.request

import pytest

from cogloop.directives import (
    DirectivePacket,
    EncouragementFrequency,
    ExplanationDirectness,
    LiveGenerationClient,
    MetaphorUsage,
    MockGenerationClient,
    SentenceComplexity,
    TEMPLATE_IDS,
    ToneParameters,
    build_directives,
    build_tone,
    descriptor_label,
    mock_generate,
    render_prompt,
    render_template,
    sha256,
    sha256_constructor,
)
from cogloop.errors import ClientUnavailableError
from cogloop.interventions import (
    Category,
    Framing,
    InterventionDecision,
    Severity,
    Tier,
)
from cogloop.model import Dimension, Modality
from cogloop.state import Descriptor


def _decision(
    dimension=Dimension.STRESS,
    template="box_breathing",
    category=Category.PHYSIOLOGICAL,
    tier=Tier.MESO,
    framing=Framing.IMPLICIT,
    modality=Modality.TEXT,
    severity=Severity.PRONOUNCED,
):
    return InterventionDecision(
        t=120.0,
        dimension=dimension,
        severity=severity,
        category=category,
        tier=tier,
        framing=framing,
        modality=modality,
        template_id=template,
        triggering_score=2.1337,
        confidence=0.8123,
    )


def _descriptors(**overrides):
    bands = {d: Descriptor.NOMINAL for d in Dimension}
    for name, descriptor in overrides.items():
        bands[Dimension[name.upper()]] = descriptor
    return bands


def _packet(decision=None, descriptors=None, topic="Kirchhoff's laws", dialogue=()):
    decision = decision or _decision()
    descriptors = descriptors or _descriptors(stress=Descriptor.PRONOUNCED)
    return build_directives(decision, descriptors, topic, tuple(dialogue))


# ---------------------------------------------------------------------------
# tone derivation

def test_neutral_tone_by_default():
    assert build_tone(_descriptors()) == ToneParameters()


def test_pronounced_stress_tone():
    tone = build_tone(_descriptors(stress=Descriptor.PRONOUNCED))
    assert tone.sentence_complexity is SentenceComplexity.LOW
    assert tone.encouragement_frequency is EncouragementFrequency.HIGH
    assert tone.explanation_directness is ExplanationDirectness.DIRECT


def test_pronounced_fatigue_tone():
    tone = build_tone(_descriptors(fatigue=Descriptor.PRONOUNCED))
    assert tone.sentence_complexity is SentenceComplexity.LOW
    assert tone.metaphor_usage is MetaphorUsage.SPARSE
    assert tone.encouragement_frequency is EncouragementFrequency.MEDIUM


def test_socratic_tone_for_engaged_unloaded_learner():
    tone = build_tone(_descriptors(engagement=Descriptor.MODERATE))
    assert tone.explanation_directness is ExplanationDirectness.INDIRECT
    # elevated load suppresses the socratic stance
    tone = build_tone(
        _descriptors(engagement=Descriptor.MODERATE, cognitive_load=Descriptor.MODERATE)
    )
    assert tone == ToneParameters()


def test_stress_takes_precedence_over_fatigue_and_engagement():
    tone = build_tone(
        _descriptors(
            stress=Descriptor.PRONOUNCED,
            fatigue=Descriptor.PRONOUNCED,
            engagement=Descriptor.MODERATE,
        )
    )
    assert tone.encouragement_frequency is EncouragementFrequency.HIGH
    tone = build_tone(
        _descriptors(fatigue=Descriptor.PRONOUNCED, engagement=Descriptor.MODERATE)
    )
    assert tone.metaphor_usage is MetaphorUsage.SPARSE


# ---------------------------------------------------------------------------
# templates

def test_box_breathing_names_the_cycle():
    text = render_template("box_breathing", Modality.TEXT, "ohm's law")
    assert "inhale 4, hold 4, exhale 6" in text
    assert "ohm's law" in text


def test_chunking_template_reduces_density():
    text = render_template("chunk_and_distill", Modality.TEXT, "recursion")
    assert "shorter segments" in text
    assert "recursion" in text


def test_every_template_renders_for_every_modality():
    for template_id in TEMPLATE_IDS:
        for modality in Modality:
            text = render_template(template_id, modality, "the water cycle")
            assert "the water cycle" in text
            assert "{topic}" not in text


def test_modality_mechanics_differ():
    texts = {m: render_template("restructure", m, "x") for m in Modality}
    assert len(set(texts.values())) == len(Modality)
    assert "playback" in texts[Modality.VIDEO]
    assert "narration" in texts[Modality.AUDIO]


# ---------------------------------------------------------------------------
# prompt rendering

def test_prompt_is_deterministic():
    packet = _packet(dialogue=[{"role": "learner", "text": "why junction rule?"}])
    assert render_prompt(packet, history_turns=6) == render_prompt(packet, history_turns=6)


def test_prompt_contains_labels_not_numbers():
    packet = _packet()
    prompt = render_prompt(packet, history_turns=6)
    assert "High Stress" in prompt
    assert "Nominal Attention" in prompt
    assert "box_breathing" not in prompt  # template text, not its id
    assert "2.1337" not in prompt
    assert re.search(r"-?\d+\.\d+", prompt) is None
    assert "z=" not in prompt


def test_prompt_framing_lines():
    implicit = render_prompt(_packet(_decision(framing=Framing.IMPLICIT)), history_turns=6)
    assert "Adapt silently" in implicit
    explicit = render_prompt(_packet(_decision(framing=Framing.EXPLICIT)), history_turns=6)
    assert "explicitly acknowledge" in explicit


def test_prompt_history_is_bounded():
    dialogue = [{"role": "learner", "text": f"turn {i}"} for i in range(10)]
    prompt = render_prompt(_packet(dialogue=dialogue), history_turns=3)
    assert "turn 9" in prompt
    assert "turn 7" in prompt
    assert "turn 6" not in prompt
    prompt = render_prompt(_packet(dialogue=dialogue), history_turns=0)
    assert "Recent dialogue" not in prompt


def test_prompt_carries_tone_and_strategy_metadata():
    prompt = render_prompt(_packet(), history_turns=6)
    assert "sentence complexity low" in prompt
    assert "physiological" in prompt
    assert "meso tier" in prompt
    assert "Topic: Kirchhoff's laws" in prompt


def test_descriptor_labels():
    assert descriptor_label(Dimension.STRESS, Descriptor.PRONOUNCED) == "High Stress"
    assert descriptor_label(Dimension.COGNITIVE_LOAD, Descriptor.MODERATE) == "Moderate Cognitive Load"
    assert descriptor_label(Dimension.ATTENTION, Descriptor.NOMINAL) == "Nominal Attention"
    assert descriptor_label(Dimension.ENGAGEMENT, Descriptor.PRONOUNCED) == "High Engagement"
    assert descriptor_label(Dimension.UNDERSTANDING, Descriptor.MODERATE) == "Moderate Understanding"
    assert descriptor_label(Dimension.FATIGUE, Descriptor.NOMINAL) == "Nominal Fatigue"


# ---------------------------------------------------------------------------
# prompt hygiene over fuzzed packets

def test_fuzzed_prompts_never_leak_numeric_state():
    rng = random.Random(2718)
    float_re = re.compile(r"-?\d+\.\d+")
    for _ in range(300):
        descriptors = {
            d: rng.choice(list(Descriptor)) for d in Dimension
        }
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
        packet = build_directives(decision, descriptors, "cell respiration", ())
        prompt = render_prompt(packet, history_turns=6)
        assert float_re.search(prompt) is None
        assert "z=" not in prompt
        assert "sigma" not in prompt.lower()


# ---------------------------------------------------------------------------
# mock clients

def test_mock_generate_is_stable_and_echoes_directive_lines():
    prompt = render_prompt(_packet(), history_turns=6)
    reply1, reply2 = mock_generate(prompt), mock_generate(prompt)
    assert reply1 == reply2
    assert "Learner state:" in reply1
    assert "Strategy (" in reply1
    assert re.match(r"^ok digest=[0-9a-f]{12} ::", reply1)
    assert mock_generate("different prompt") != reply1


def test_mock_client_plays_scripted_replies_then_hashes():
    client = MockGenerationClient(
        scripted_note_replies=("score=0.9; feedback=good", "score=0.4; feedback=thin")
    )
    assert client.analyze_note("first note") == "score=0.9; feedback=good"
    assert client.analyze_note("second note") == "score=0.4; feedback=thin"
    fallback = client.analyze_note("third note")
    assert re.match(r"^score=0\.\d{2}; feedback=", fallback)
    # hash fallback is deterministic per transcript
    assert fallback == MockGenerationClient().analyze_note("third note")


def test_sha256_is_the_builtin_module_and_falls_back_to_hashlib(monkeypatch):
    name = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    prompt = render_prompt(_packet(), history_turns=6).encode("utf-8")
    expected = hashlib.sha256(prompt).hexdigest()
    if importlib.util.find_spec(name) is not None:
        assert sha256.__module__ == name
    assert sha256(prompt).hexdigest() == expected
    # a build without the builtin module, as --with-builtin-hashlib-hashes
    # can make one: importing the name raises ImportError
    monkeypatch.setitem(sys.modules, name, None)
    fallback = sha256_constructor()
    assert fallback is hashlib.sha256
    assert fallback(prompt).hexdigest() == expected


def test_mock_client_generate_delegates():
    client = MockGenerationClient()
    prompt = render_prompt(_packet(), history_turns=6)
    assert client.generate(prompt) == mock_generate(prompt)


# ---------------------------------------------------------------------------
# live client, with urlopen replaced: nothing leaves the process

ENDPOINT = "http://localhost:9/generate"


def _serve(monkeypatch, *outcomes):
    """Make urlopen raise or answer with each outcome in turn; returns
    the JSON bodies it was sent."""
    sent = []
    pending = list(outcomes)

    def urlopen(request, timeout):
        assert request.full_url == ENDPOINT
        sent.append(json.loads(request.data))
        outcome = pending.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return io.BytesIO(outcome.encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return sent


def test_live_client_without_an_endpoint_is_unavailable(monkeypatch):
    monkeypatch.delenv("COGLOOP_GENERATION_URL", raising=False)
    sent = _serve(monkeypatch)
    with pytest.raises(ClientUnavailableError, match="no generation endpoint"):
        LiveGenerationClient().generate("hello")
    assert sent == []


def test_live_client_retries_once_after_a_failure(monkeypatch):
    monkeypatch.setenv("COGLOOP_GENERATION_URL", ENDPOINT)
    sent = _serve(monkeypatch, urllib.error.URLError("connection refused"), "a reply")
    assert LiveGenerationClient().generate("hello") == "a reply"
    assert sent == [{"kind": "generate", "prompt": "hello"}] * 2


def test_live_client_raises_after_two_failures(monkeypatch):
    monkeypatch.setenv("COGLOOP_GENERATION_URL", ENDPOINT)
    sent = _serve(monkeypatch, urllib.error.URLError("connection refused"), TimeoutError("timed out"))
    with pytest.raises(ClientUnavailableError, match="failed twice: timed out"):
        LiveGenerationClient().analyze_note("osmosis")
    assert sent == [{"kind": "analyze_note", "transcript": "osmosis"}] * 2
