"""Benchmark workloads, built from the bundled profiles and a seed.

Each workload is a scenario the engine replays. The seed drives both
``synthesize`` and the arrival-order RNG, so one seed always gives the
same scenario file. Nothing is downloaded: every input comes from the
profiles shipped inside the engine package that synthesizes it.
"""

from __future__ import annotations

import json
import random
from importlib import resources

WORKLOADS = ("in_order", "dense_hop", "jittered_arrivals")

# Every profile is shrunk in time, so that one replay takes well under a
# second: the benchmark times each replay against a reference replay run
# right next to it, and the host's speed changes within seconds (see
# README.md). in_order and jittered_arrivals replay the same scenario;
# only its line order differs.
MIXED_SCALE = 0.2   # mixed_session: 1,200 s -> 240 s
DENSE_SCALE = 0.1   # stress_ramp: 600 s -> 60 s

# not a power-of-two fraction, so the accumulated float tick drifts off
# the window grid the way it does for real configs
DENSE_HOP_S = 0.6

# smoke runs shrink every profile by this much more
SMOKE_SCALE = 0.25
DEFAULT_CALIBRATION_S = 300.0


def profile_data(scenario_mod, name: str) -> dict:
    """The raw JSON of a profile bundled with ``scenario_mod``'s package."""
    package = scenario_mod.__name__.rpartition(".")[0]
    text = resources.files(package).joinpath("profiles", f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


def _shrink(data: dict, scale: float) -> dict:
    """Scale every time constant of a profile: segments, ramps, periods."""
    for seg in data["segments"]:
        seg["duration_s"] *= scale
        for spec in seg.get("channels", {}).values():
            for key in ("tau_s", "period_s"):
                if key in spec:
                    spec[key] *= scale
    return data


def build_scenario(scenario_mod, name: str, seed: int, smoke: bool = False):
    """Synthesize workload ``name`` for ``seed``.

    ``scenario_mod`` is the imported ``scenario`` module of the engine
    that synthesizes it, passed in so that set-up timing can include
    importing it, and so that the reference engine builds its own copy.
    """
    config: dict[str, object] = {}
    if name in ("in_order", "jittered_arrivals"):
        profile, scale = "mixed_session", MIXED_SCALE
    elif name == "dense_hop":
        profile, scale = "stress_ramp", DENSE_SCALE
        config["window_hop_s"] = DENSE_HOP_S
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if smoke:
        scale *= SMOKE_SCALE
    data = _shrink(profile_data(scenario_mod, profile), scale)
    # the calibration span shrinks with the profile's opening baseline
    config["calibration_duration_s"] = DEFAULT_CALIBRATION_S * scale

    scenario = scenario_mod.synthesize(scenario_mod.parse_profile(data), seed=seed)
    scenario.header.config_entries.update(config)
    if name == "jittered_arrivals":
        scenario.records = arrival_order(scenario.records, random.Random(f"{seed}:arrival"))
    return scenario


# Arrival model for jittered_arrivals. Only the heart batches follow a
# published behaviour: the Bluetooth Heart Rate Service lets one Heart
# Rate Measurement notification carry several RR intervals. The camera
# lag and the gaze stalls are unverified assumptions, chosen so that
# both of the merger's late paths run thousands of times per replay:
# camera lag stays inside the 0.25 s jitter tolerance (reordered), gaze
# flushes fall outside it (dropped). The traced pass measures the shares
# they yield (streams.reordered, streams.dropped_late).
HEART_BATCH_BEATS = (1, 3)        # beats per chest-strap notification
CAM_LAG_S = (0.05, 0.2)           # camera frames: within the jitter tolerance
GAZE_HICCUP_PER_SAMPLE = 1 / 300  # tracker stalls, about one per 5 s at 60 Hz
GAZE_HICCUP_S = (0.3, 1.0)        # longer than the 0.25 s jitter tolerance


def arrival_order(records: list, rng: random.Random) -> list:
    """Rewrite in-order records into the order a live session delivers them.

    Timestamps are untouched; only the line order changes. Each stream
    is a FIFO link, so a record never overtakes an earlier one of its
    own stream: arrival = max(previous arrival, t + delay).
      - heart: RR intervals arrive in batches, each when its last beat
        is sent;
      - cam: every frame lags by a fraction of a second;
      - gaze: the tracker occasionally stalls, then flushes its backlog
        later than the merger's jitter tolerance;
      - notes: on time.
    """
    heart_arrival: dict[int, float] = {}
    heart = [i for i, r in enumerate(records) if r.stream_id == "heart"]
    start = 0
    while start < len(heart):
        batch = heart[start:start + rng.randint(*HEART_BATCH_BEATS)]
        for index in batch:
            heart_arrival[index] = records[batch[-1]].t
        start += len(batch)

    last_arrival: dict[str, float] = {}
    keyed = []
    for index, record in enumerate(records):
        stream = record.stream_id
        if stream == "heart":
            due = heart_arrival[index]
        elif stream == "cam":
            due = record.t + rng.uniform(*CAM_LAG_S)
        elif stream == "gaze" and rng.random() < GAZE_HICCUP_PER_SAMPLE:
            due = record.t + rng.uniform(*GAZE_HICCUP_S)
        else:
            due = record.t
        arrival = max(last_arrival.get(stream, due), due)
        last_arrival[stream] = arrival
        keyed.append((arrival, index))
    keyed.sort()
    return [records[index] for _, index in keyed]
