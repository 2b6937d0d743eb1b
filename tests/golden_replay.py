"""Replay bundled profiles and digest each trace and decision list, and
digest the scenario file each profile synthesizes to.

``test_golden.py`` imports ``replay_digests`` and ``scenario_sha256``.
The module needs nothing but the engine, so it also runs as a script
under interpreters that have no pytest:

    PYTHONPATH=src python tests/golden_replay.py '[["stress_ramp", null], ["stress_ramp", 0.6]]'

prints a JSON list with one [trace sha256, decisions sha256] pair for
each (profile, window_hop_s override) given, and

    PYTHONPATH=src python tests/golden_replay.py --scenarios '["all_baseline", "stress_ramp"]'

prints a JSON list with the sha256 of each profile's written scenario.
"""

import hashlib
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

from cogloop.scenario import load_profile, synthesize, write_scenario
from cogloop.session import run_session, write_trace


def _bundled_profile(name):
    ref = resources.files("cogloop").joinpath("profiles", f"{name}.json")
    with resources.as_file(ref) as path:
        return load_profile(path)


def _decisions_sha256(events) -> str:
    decisions = [{"t": e.t, "payload": e.payload} for e in events if e.kind == "decision"]
    return hashlib.sha256(json.dumps(decisions, sort_keys=True).encode("utf-8")).hexdigest()


def replay_digests(name, hop) -> tuple[str, str]:
    """(trace sha256, decision list sha256) of one replay of a bundled
    profile, with ``window_hop_s`` overridden unless ``hop`` is None."""
    overrides = {"window_hop_s": hop} if hop is not None else None
    result = run_session(synthesize(_bundled_profile(name)), overrides=overrides)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_trace(result, path)
        trace_sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    return trace_sha256, _decisions_sha256(result.events)


def scenario_sha256(name) -> str:
    """sha256 of the scenario file that ``write_scenario`` writes for
    ``synthesize`` of a bundled profile at its own seed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.jsonl"
        write_scenario(synthesize(_bundled_profile(name)), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


if __name__ == "__main__":
    if sys.argv[1] == "--scenarios":
        print(json.dumps([scenario_sha256(name) for name in json.loads(sys.argv[2])]))
    else:
        print(json.dumps([replay_digests(name, hop) for name, hop in json.loads(sys.argv[1])]))
