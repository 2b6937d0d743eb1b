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
        "8a279b58423a5025fa2a1178865bca991ee3a2e164860bda254d8c7044674c7f",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("load_excursion", None): (
        "932620baa6699643c1d874f958bfce49f33d7a3e5c652ae62c4f34c99206f189",
        "b442f6c5c5495b6651de3ff571e84e0c230bec3d30b73860232018226344ae7f",
    ),
    ("mixed_session", None): (
        "e9f7617218d2227a918a64c8626b853de37130c10a3024c3e97992a3b7583551",
        "f662c72fc3304daa9e772aa75087d6d3bba9c273146a6e11b000f703a28cb6ab",
    ),
    ("stress_ramp", None): (
        "cbe9291e83cad951759299404651a61535a0bd14fbd41ac383ec666cb6c0eb56",
        "83d9c05a6f0a5f058107bc9ca955286e7bfe85e94980756118cd53a50a2d9da4",
    ),
    # dense hop: every gaze sample lands in many overlapping windows
    ("stress_ramp", 0.6): (
        "46867e23d11f413d1174359b8d41c68334cc51989bc694666492b2c8b5680070",
        "be6c12206e79097d5e2b4f27f51eef6fc56ea368748ea89305fd25577ab5a861",
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
