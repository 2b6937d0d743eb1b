"""Golden digests: replaying a bundled profile gives the same bytes in
every process and after every refactor.

Criterion 07 compares two replays inside one process; these pins hold
across processes and across changes to the engine. A change that alters
behaviour on purpose re-pins them and records the old and new digests,
with the reason, in CHANGES.md.
"""

import hashlib
import json
from importlib import resources

import pytest

from cogloop.scenario import load_profile, synthesize
from cogloop.session import run_session, write_trace

# (profile, window_hop_s override) -> (trace sha256, decision list sha256)
GOLDEN = {
    ("all_baseline", None): (
        "313ac689ee7efdfca5f434353285055f01fa41dd0feead3c1c8450002b87d62c",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("load_excursion", None): (
        "7cb487244b154d54443015126e40a1d8118a4670ecc599fea8eaa29bff0bbcd7",
        "b442f6c5c5495b6651de3ff571e84e0c230bec3d30b73860232018226344ae7f",
    ),
    ("mixed_session", None): (
        "3b80a89d0c5cf547eae81e4539db3a55617d9c8d13ceed1abbc1d91d2531192e",
        "f662c72fc3304daa9e772aa75087d6d3bba9c273146a6e11b000f703a28cb6ab",
    ),
    ("stress_ramp", None): (
        "5a5ef6ba3d51793b6d1483527c15bb178457cd3a898f51c230a0ef3b7c8f7cc7",
        "83d9c05a6f0a5f058107bc9ca955286e7bfe85e94980756118cd53a50a2d9da4",
    ),
    # dense hop: every gaze sample lands in many overlapping windows
    ("stress_ramp", 0.6): (
        "0b9c16c10821b4a6f320097641316efee9721d2b3a0f7a6130d6698c11b1507f",
        "a40e18c05ab64a9fbdcd3dc99ebd851a6d174f6910fc3772f2f0e5c3d404a224",
    ),
}


def _bundled_profile(name):
    ref = resources.files("cogloop").joinpath("profiles", f"{name}.json")
    with resources.as_file(ref) as path:
        return load_profile(path)


def _decisions_sha256(events) -> str:
    decisions = [{"t": e.t, "payload": e.payload} for e in events if e.kind == "decision"]
    return hashlib.sha256(json.dumps(decisions, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "name,hop", list(GOLDEN), ids=[f"{name}@{hop or 'default'}" for name, hop in GOLDEN]
)
def test_replay_matches_golden_digests(tmp_path, name, hop):
    overrides = {"window_hop_s": hop} if hop is not None else None
    result = run_session(synthesize(_bundled_profile(name)), overrides=overrides)
    path = tmp_path / "trace.jsonl"
    write_trace(result, path)
    trace_sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (trace_sha256, _decisions_sha256(result.events)) == GOLDEN[(name, hop)]
