"""Replay bundled profiles and digest each trace and decision list.

``test_golden.py`` imports ``replay_digests``. The module needs nothing
but the engine, so it also runs as a script under interpreters that
have no pytest:

    PYTHONPATH=src python tests/golden_replay.py '[["stress_ramp", null], ["stress_ramp", 0.6]]'

prints a JSON list with one [trace sha256, decisions sha256] pair for
each (profile, window_hop_s override) given.
"""

import hashlib
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

from cogloop.scenario import load_profile, synthesize
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


if __name__ == "__main__":
    print(json.dumps([replay_digests(name, hop) for name, hop in json.loads(sys.argv[1])]))
