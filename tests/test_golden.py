"""Golden digests: replaying a bundled profile gives the same bytes in
every process, after every refactor and on every supported Python, and
so does the scenario file it synthesizes to.

Criterion 07 compares two replays inside one process; these pins hold
across processes and across changes to the engine. The replay pins
synthesize in memory and replay from the column source (or, for
``:arrivals``, from the record list); the scenario pins cover the
synthesizer and both writers, the column source's and the record
list's, down to the byte. A change that alters behaviour on purpose
re-pins them and records the old and new digests, with the reason, in
CHANGES.md.
"""

import functools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from golden_replay import replay_digests, scenario_sha256

ROOT = Path(__file__).resolve().parents[1]

# (profile, window_hop_s override) -> (trace sha256, decision list sha256,
# unsequenced trace sha256: the trace with seq removed from every event
# line, which pins every line's content and place but not the tie-break
# numbering)
GOLDEN = {
    ("all_baseline", None): (
        "0752f09c040f498c9e8b5f407c2e8a97225c5ab2b30453b5eed134aebbd51d35",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "77fa96ac912cd58dfa1b94d3365dd9a046eeee8696ae85b87c0fcd298e880de8",
    ),
    ("load_excursion", None): (
        "ed5fb9619fbcc880fc67389f03165495e19b49bbe4138f6d9956147519fa5385",
        "b442f6c5c5495b6651de3ff571e84e0c230bec3d30b73860232018226344ae7f",
        "a4b71bbc8dc263b768e48ca00da5560ff383916caf82ca60cf05638ee1978c8e",
    ),
    ("mixed_session", None): (
        "47bc0eaaf154f9cacee3c67aa762e8139b9163ffc027803eb19f93d36aec53a2",
        "f662c72fc3304daa9e772aa75087d6d3bba9c273146a6e11b000f703a28cb6ab",
        "8a86d20393174d9e3e8c58c8e5c4570bdb77c150634f8220921a84105c65dc51",
    ),
    ("stress_ramp", None): (
        "a96368d4b9bdb2a325aa2e62b2e1cae54de69c8cdd675d733ecbc1331db42c7e",
        "83d9c05a6f0a5f058107bc9ca955286e7bfe85e94980756118cd53a50a2d9da4",
        "e38bbf294813cd06eaa64389b6e708e8b53512614fd399ffca75fd3c11b941ac",
    ),
    # dense hop: every gaze sample lands in many overlapping windows
    ("stress_ramp", 0.6): (
        "8c6bca0f149a5237db5efafe94bc2b3d96e07e0234829d00ea6f38ce031565d1",
        "a40e18c05ab64a9fbdcd3dc99ebd851a6d174f6910fc3772f2f0e5c3d404a224",
        "6ca64ab3e7e95bbad922d9aa5d4cee2b6773b65eb1c8a5f6ae7fe535d1eba689",
    ),
    # seeded arrival order: the merger reorders some samples and drops others
    ("stress_ramp:arrivals", None): (
        "68f413cb500804f36bc78cd9cd2db19652ce467c6162e49ef873f1fe712e3020",
        "daa3ac567e2bd52017d4190ea5ffcc4dab1c678b8b9a12dfe3d87cf2fcce6f47",
        "2ebe2229e9db1328c7ffae336e0514bfb16baf4385f69567cdd31723bd41ff1b",
    ),
}


# profile -> sha256 of write_scenario(synthesize(profile)) at its own seed
SCENARIO_GOLDEN = {
    "all_baseline": "f00e374d86e6fd9dabe514874531dc81fb3b4609a0bb517f78d31c334fd1dea2",
    "load_excursion": "8365f23305deaf3a2d29fee46d6cd8e8b86cfef9636bc8beb4ea3f3195e0618f",
    "mixed_session": "42a05b9b8448274c40c7e54e106466980e0900cec0d2f878315df31597a28107",
    "stress_ramp": "3942af717ccd07741740b1ed52c84574e58013b308260e60357045f95916b554",
}

# (profile, seed) -> sha256 of write_scenario(synthesize(profile, seed)):
# seeds other than each profile's own, and a profile with every noise key
# set to 0 (``:noiseless``), where every stream is its controls' curves
SEEDED_SCENARIO_GOLDEN = {
    ("all_baseline", 1): "6ca66841b7818dd9f3a06558fdca71fabfd0c9c0e63acdbe9160911021d9a060",
    ("all_baseline", 2): "7803908e3294a082701e828e643d8de4494f35ef60d602dc09b2860c1daed4fe",
    ("all_baseline", 3): "476946770a8d94a0867e3c3c3eae3b7756a0eb0372f37b01e11b961b5e7104d5",
    ("load_excursion", 1): "33bd93fbd16db8aad3b07801d472ec2ada843a3ea2aeb4e51be7bf474e92a606",
    ("load_excursion", 2): "14fdb26fc4ac857587d859382155a4ca375b13f3dc04ccd3eaf147acae2166ce",
    ("load_excursion", 3): "c0db2ff9fbfaf79d83eee78e8af6de46776c0e785539c8cab28f21cc09da872c",
    ("mixed_session", 1): "2e4a99a9c6d40c887652b0ce020d9e7a3a550f49089fcab03a87466d388c297f",
    ("mixed_session", 2): "7e3037b6aa8778987759712d221373d238751743f9899dead86b790aeb848386",
    ("mixed_session", 3): "ff5adefefef8ae80ffe2f219e5cefa47c8099537f95a9508eec698f37e730ae1",
    ("stress_ramp", 1): "036ccebe24a5f49ce8acc6c80563925218a768c180a0ad5807e4670b5052cfc9",
    ("stress_ramp", 2): "407867ac6b0ed0c6e13082567aeac16687e62b64f1f1adb16092fdfa0890cb79",
    ("stress_ramp", 3): "52fc801014c24b0bad033fd0b52b28e92d9f279466eb3e289d1e139a70bf5ed2",
    ("mixed_session:noiseless", None): "f80561c4f51ad38bd1b243dfadb2b5c069854b2590bb1158aba430b07d56ed1c",
}

# every scenario pin as (profile, seed) -> sha256, a seed of None being
# the profile's own
ALL_SCENARIO_GOLDEN = {**{(name, None): digest for name, digest in SCENARIO_GOLDEN.items()}, **SEEDED_SCENARIO_GOLDEN}


@pytest.mark.parametrize(
    "name,hop", list(GOLDEN), ids=[f"{name}@{hop or 'default'}" for name, hop in GOLDEN]
)
def test_replay_matches_golden_digests(name, hop):
    assert replay_digests(name, hop) == GOLDEN[(name, hop)]


# the implementation and version, then the path of the interpreter itself
_VERSION = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3]); print(sys.executable)"


def _other_cpythons() -> list[tuple[tuple[int, ...], str]]:
    """(version, executable) of each installed CPython that
    ``requires-python`` admits, other than the running one's minor
    version, oldest first: ``pythonX.Y`` on PATH, or one of pyenv's
    versions."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minimum = tuple(int(part) for part in re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    candidates = {shutil.which(f"python3.{minor}") for minor in range(minimum[1], 30)}
    pyenv_versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    candidates.update(str(path) for path in pyenv_versions.glob("*/bin/python3"))
    found = []
    for executable in sorted(filter(None, candidates)):
        try:
            probe = subprocess.run([executable, "-c", _VERSION], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        described, _, resolved = probe.stdout.partition("\n")
        implementation, *version = described.split() or [""]
        if probe.returncode != 0 or implementation != "CPython":
            continue
        version = tuple(int(part) for part in version)
        if version[:2] >= minimum and version[:2] != sys.version_info[:2]:
            # the interpreter a launcher (such as a pyenv shim) resolved
            # to here: in the child's bare environment it may resolve to none
            found.append((version, resolved.strip()))
    return sorted(found)


@functools.lru_cache(maxsize=None)
def _digests_on_another_python(which: str):
    """(version, executable, replay digests, scenario digests, record
    list digests) from one ``golden_replay.py`` child under the
    ``which`` ("oldest" or "newest") other CPython, keyed as
    ``GOLDEN``, ``ALL_SCENARIO_GOLDEN`` and ``SCENARIO_GOLDEN`` are: the
    record writer is checked on the four bundled pins, which cost a
    quarter of the time of all 17. Skips when there is no other
    CPython."""
    others = _other_cpythons()
    if not others:
        pytest.skip("no other CPython that requires-python admits is installed")
    version, executable = others[0] if which == "oldest" else others[-1]
    # the engine is standard-library only; the other interpreter needs no pytest
    child = subprocess.run(
        [executable, str(ROOT / "tests" / "golden_replay.py"),
         "--replays", json.dumps(list(GOLDEN)), "--scenarios", json.dumps(list(ALL_SCENARIO_GOLDEN)),
         "--record-scenarios", json.dumps([[name, None] for name in SCENARIO_GOLDEN])],
        env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=900,
    )
    assert child.returncode == 0, child.stderr
    digests = json.loads(child.stdout)
    replays = {key: tuple(triple) for key, triple in zip(GOLDEN, digests["replays"])}
    scenarios = dict(zip(ALL_SCENARIO_GOLDEN, digests["scenarios"]))
    record_scenarios = dict(zip(SCENARIO_GOLDEN, digests["record_scenarios"]))
    return ".".join(map(str, version)), executable, replays, scenarios, record_scenarios


def _check_replays_on_another_python(which: str):
    version, executable, replays, _, _ = _digests_on_another_python(which)
    assert replays == GOLDEN, f"Python {version} ({executable})"


def _check_scenarios_on_another_python(which: str):
    # both writers: the column source's and the record list's
    version, executable, _, scenarios, record_scenarios = _digests_on_another_python(which)
    assert scenarios == ALL_SCENARIO_GOLDEN, f"Python {version} ({executable})"
    assert record_scenarios == SCENARIO_GOLDEN, f"Python {version} ({executable}), record writer"


# The oldest other CPython checks the arithmetic that changed in 3.11
# (pstdev's rounding); the newest checks what only 3.12 and later run,
# such as the builtin SHA-256 module ``_sha2``.


def test_replay_matches_golden_digests_on_the_oldest_other_python():
    _check_replays_on_another_python("oldest")


def test_replay_matches_golden_digests_on_the_newest_other_python():
    _check_replays_on_another_python("newest")


@pytest.mark.parametrize("name", list(SCENARIO_GOLDEN))
def test_written_scenario_matches_golden_digest(name):
    assert scenario_sha256(name) == SCENARIO_GOLDEN[name]


@pytest.mark.parametrize("name", list(SCENARIO_GOLDEN))
def test_the_record_list_writes_the_golden_scenario(name):
    assert scenario_sha256(name, records=True) == SCENARIO_GOLDEN[name]


@pytest.mark.parametrize(
    "name,seed", list(SEEDED_SCENARIO_GOLDEN), ids=[f"{name}@{seed}" for name, seed in SEEDED_SCENARIO_GOLDEN]
)
def test_written_scenario_at_a_seed_matches_golden_digest(name, seed):
    assert scenario_sha256(name, seed) == SEEDED_SCENARIO_GOLDEN[(name, seed)]


def test_written_scenarios_match_golden_digests_on_the_oldest_other_python():
    _check_scenarios_on_another_python("oldest")


def test_written_scenarios_match_golden_digests_on_the_newest_other_python():
    _check_scenarios_on_another_python("newest")
