"""Smoke test for the benchmark itself, on tiny sessions.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, bench_dir: Path = BENCH_DIR, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())


def test_a_missing_name_is_reported_absent_not_fatal():
    assert run.use_checkout_sources()
    modules = run.import_engine(run.PACKAGE)
    run_session = modules["session"].run_session
    del modules["streams"]
    tracer = Tracer()
    tracer.install(modules)
    assert modules["session"].run_session is not run_session
    tracer.remove()
    assert modules["session"].run_session is run_session
    assert tracer.absent_layers() == ["streams.ingest", "streams.pop_windows"]


def move_decision_into_cooldown(modules: dict, trace_path: Path) -> None:
    """Copy the first decision, with its candidate, to the next tick."""
    header, *lines = trace_path.read_text(encoding="utf-8").splitlines()
    events = [json.loads(line) for line in lines]
    decision = next(e for e in events if e["kind"] == "decision")
    candidate = next(
        e for e in events
        if e["kind"] == "candidate" and e["t"] == decision["t"]
        and e["payload"]["dimension"] == decision["payload"]["dimension"]
    )
    next_tick = min(e["t"] for e in events if e["kind"] == "state_vector" and e["t"] > decision["t"])
    seq = max(e["seq"] for e in events)
    events.append({**candidate, "t": next_tick, "seq": seq + 1})
    events.append({**decision, "t": next_tick, "seq": seq + 2})
    priority = modules["session"].KIND_PRIORITY
    events.sort(key=lambda e: (e["t"], priority[e["kind"]], e["seq"]))
    body = "".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in events)
    trace_path.write_text(header + "\n" + body, encoding="utf-8")


def test_a_decision_inside_its_cooldown_counts_as_a_failure(tmp_path):
    assert run.use_checkout_sources()
    scenario_path, trace_path = tmp_path / "scenario.jsonl", tmp_path / "trace.jsonl"
    modules = run.set_up(run.PACKAGE, "jittered_arrivals", 1, False, scenario_path).modules
    digests = run.Digests()
    _, result = run.replay(modules, scenario_path, trace_path)
    assert result.decisions, "the tampering needs a decision to move"
    _, events, violations, summary = run.audit(modules, trace_path)
    assert run.check_iteration(digests, trace_path, result, events, violations, summary) == []

    move_decision_into_cooldown(modules, trace_path)
    _, events, violations, summary = run.audit(modules, trace_path)
    reasons = run.check_iteration(digests, trace_path, result, events, violations, summary)
    assert any(r.startswith("validate_trace") and "cooldown" in r for r in reasons), reasons
    assert "trace bytes differ from the first iteration's" in reasons


def test_a_broken_engine_counts_its_failures(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "cogloop" / "session.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef run_session(*args, **kwargs):\n    raise RuntimeError('broken on purpose')\n")
    proc = bench("--workload", "dense_hop", "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke",
                 bench_dir=tmp_path / "bench", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    # every loop iteration and the fresh-process replay failed
    assert result["failed"] == result["attempted"] > run.MIN_ITERATIONS
    assert set(result["metrics"]) == {"setup_s"}


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "dense_hop", "--seed", "1", "--seconds", "1", "--trace", "0",
                 bench_dir=tmp_path / "bench", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
