"""Replay bundled profiles and digest each trace and decision list, and
digest the scenario file each profile synthesizes to.

``test_golden.py`` imports ``replay_digests`` and ``scenario_sha256``.
The module needs nothing but the engine, so it also runs as a script
under interpreters that have no pytest:

    PYTHONPATH=src python tests/golden_replay.py \
        --replays '[["stress_ramp", null], ["stress_ramp", 0.6]]' \
        --scenarios '[["all_baseline", null], ["stress_ramp", 2]]' \
        --record-scenarios '[["all_baseline", null]]'

prints a JSON object with a list for each option; any may be left out.
"replays" holds one [trace sha256, decisions sha256, unsequenced trace
sha256] triple for each (profile, window_hop_s override) given; a
profile named ``<name>:arrivals`` is replayed in a seeded arrival order
(``arrival_order``). "scenarios" holds the sha256 of the scenario file
the column source writes for each (profile, seed) given, a null seed
being the profile's own, and "record_scenarios" that of the file its
record list writes, through the record writer; a profile named
``<name>:noiseless`` has every ``noise`` key set to 0.
"""

import argparse
import hashlib
import json
import random
import tempfile
from importlib import resources
from pathlib import Path

from cogloop.scenario import Scenario, write_scenario
from cogloop.session import run_session
from cogloop.synth import load_profile, synthesize
from cogloop.trace import write_trace


def _bundled_profile(name):
    ref = resources.files("cogloop").joinpath("profiles", f"{name}.json")
    with resources.as_file(ref) as path:
        return load_profile(path)


def _decisions_sha256(events) -> str:
    decisions = [{"t": e.t, "payload": e.payload} for e in events if e.kind == "decision"]
    return hashlib.sha256(json.dumps(decisions, sort_keys=True).encode("utf-8")).hexdigest()


def _unsequenced_sha256(trace: bytes) -> str:
    """sha256 of the trace with ``seq`` removed from every event line.

    ``seq`` only breaks ties between events of equal time and kind
    priority, in the order the engine emitted them; this digest pins the
    content and the order of the lines without it.
    """
    lines = []
    for line in trace.decode("utf-8").splitlines():
        obj = json.loads(line)
        obj.pop("seq", None)
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def arrival_order(records, rng: random.Random) -> list:
    """The records in the order a live session might deliver them.

    Each record is delayed by up to 0.2 s, inside the default 0.25 s
    jitter tolerance, and about one in 200 by 0.3-1.0 s, outside it. No
    record overtakes an earlier one of its own stream, so the merger
    reorders across streams and drops a stalled stream's backlog.
    """
    last_arrival: dict[str, float] = {}
    keyed = []
    for index, record in enumerate(records):
        delay = rng.uniform(0.3, 1.0) if rng.random() < 1 / 200 else rng.uniform(0.0, 0.2)
        arrival = max(last_arrival.get(record.stream_id, 0.0), record.t + delay)
        last_arrival[record.stream_id] = arrival
        keyed.append((arrival, index))
    keyed.sort()
    return [records[index] for _, index in keyed]


def replay_digests(name, hop) -> tuple[str, str, str]:
    """(trace sha256, decision list sha256, unsequenced trace sha256) of
    one replay of a bundled profile, with ``window_hop_s`` overridden
    unless ``hop`` is None. ``<name>:arrivals`` replays the profile's
    records in a seeded ``arrival_order``."""
    profile, _, order = name.partition(":")
    scenario = synthesize(_bundled_profile(profile))
    if order == "arrivals":
        scenario.records = arrival_order(scenario.records, random.Random(11))
    overrides = {"window_hop_s": hop} if hop is not None else None
    result = run_session(scenario, overrides=overrides)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_trace(result, path)
        trace = path.read_bytes()
    return hashlib.sha256(trace).hexdigest(), _decisions_sha256(result.events), _unsequenced_sha256(trace)


def scenario_sha256(name, seed=None, records=False) -> str:
    """sha256 of the scenario file that ``write_scenario`` writes for
    ``synthesize`` of a bundled profile at ``seed``, or at its own seed
    when ``seed`` is None: from the column source, or with ``records``
    from the record list, through the record writer.
    ``<name>:noiseless`` synthesizes the profile with every ``noise`` key
    set to 0."""
    name, _, variant = name.partition(":")
    profile = _bundled_profile(name)
    if variant == "noiseless":
        profile = profile._replace(noise=dict.fromkeys(profile.noise, 0.0))
    scenario = synthesize(profile, seed)
    if records:
        scenario = Scenario(scenario.header, scenario.records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.jsonl"
        write_scenario(scenario, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--replays", type=json.loads, default=[])
    parser.add_argument("--scenarios", type=json.loads, default=[])
    parser.add_argument("--record-scenarios", type=json.loads, default=[])
    args = parser.parse_args()
    print(json.dumps({
        "replays": [replay_digests(name, hop) for name, hop in args.replays],
        "scenarios": [scenario_sha256(name, seed) for name, seed in args.scenarios],
        "record_scenarios": [scenario_sha256(name, seed, records=True) for name, seed in args.record_scenarios],
    }))
