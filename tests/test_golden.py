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
        "89106c049a8f21b5d287e3e3ab0f7ddc5b461ee60867bfa703f17db680932c45",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("load_excursion", None): (
        "84008d76de4ca856bf31ae2ce73255741f3aa17fb35a1de5d358a5a5a5d16c7f",
        "b442f6c5c5495b6651de3ff571e84e0c230bec3d30b73860232018226344ae7f",
    ),
    ("mixed_session", None): (
        "df86ee0836825b33a36badfdaa9d55c03d3af5b9995dd9f78ee77f48a192f53a",
        "f662c72fc3304daa9e772aa75087d6d3bba9c273146a6e11b000f703a28cb6ab",
    ),
    ("stress_ramp", None): (
        "60ba8c8afac2f4eb922e3abac32a181c72cf79230624651de5d8367adfe4eefe",
        "83d9c05a6f0a5f058107bc9ca955286e7bfe85e94980756118cd53a50a2d9da4",
    ),
    # dense hop: every gaze sample lands in many overlapping windows
    ("stress_ramp", 0.6): (
        "75d0790498708f439a4fd3e611562b98aaeab7505e57362c79423ce081f0706f",
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
