"""Command line entry points.

    cogloop run --scenario session.jsonl --trace out.jsonl
    cogloop synth --profile profiles/stress_ramp.json --out session.jsonl
    cogloop summarize --trace out.jsonl
    cogloop validate --scenario session.jsonl
    cogloop validate --trace out.jsonl

Exit codes: 0 success, 2 validation or input errors, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .errors import ConfigError, ScenarioError
from .scenario import first_escaped_line, load_scenario

# Each command imports the engine modules it runs inside its handler: a
# fresh process compiles each module it loads, unless its bytecode is
# cached, and ``synth`` runs no replay, ``run`` no synthesizer.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cogloop", description="Replay-driven learner state engine")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a scenario and emit a trace")
    run.add_argument("--scenario", required=True, help="scenario JSONL file")
    run.add_argument("--config", help="key = value config file layered over the scenario header")
    run.add_argument("--trace", help="write the full trace JSONL here")
    run.add_argument("--client", choices=["mock", "live"], help="generation client")
    run.add_argument("--realtime", action="store_true", help="pace ingestion at sample timestamps")

    synth = sub.add_parser("synth", help="generate a scenario from a profile")
    synth.add_argument("--profile", required=True, help="profile JSON, a file path or a bundled name")
    synth.add_argument("--out", required=True, help="scenario JSONL to write")
    synth.add_argument("--seed", type=int, help="override the profile seed")

    summ = sub.add_parser("summarize", help="print aggregate counts for a trace")
    summ.add_argument("--trace", required=True)

    validate = sub.add_parser("validate", help="check a scenario file or a trace's invariants")
    validate.add_argument("--scenario")
    validate.add_argument("--trace")
    return parser


def _load_profile_arg(name_or_path: str):
    from .synth import load_profile

    bundled = resources.files("cogloop").joinpath("profiles", f"{name_or_path}.json")
    if "/" not in name_or_path and not name_or_path.endswith(".json") and bundled.is_file():
        with resources.as_file(bundled) as path:
            return load_profile(path)
    return load_profile(name_or_path)


def _read_config(path) -> str:
    """A config file's text; a byte that is not UTF-8 is a ConfigError at
    its line, counted as ``parse_config_text`` counts lines."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            line_no = first_escaped_line(handle.read().splitlines())
        raise ConfigError(f"line {line_no}: not UTF-8 text") from None


def _cmd_run(args) -> int:
    from .config import parse_config_text
    from .session import run_session
    from .trace import summarize, write_trace

    scenario = load_scenario(args.scenario)
    overrides: dict[str, object] = {}
    if args.config:
        overrides.update(parse_config_text(_read_config(args.config)))
    if args.client is not None:
        overrides["client"] = args.client

    result = run_session(scenario, overrides=overrides, realtime=args.realtime)
    if args.trace:
        write_trace(result, args.trace)

    summary = summarize({"config": result.config}, result.events)
    print(f"events: {len(result.events)}")
    print(f"decisions: {summary['decisions_total']}")
    for category, count in summary["decisions_by_category"].items():
        print(f"  category {category}: {count}")
    for dimension, count in summary["decisions_by_dimension"].items():
        print(f"  dimension {dimension}: {count}")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _cmd_synth(args) -> int:
    from .synth import synthesize

    scenario = synthesize(_load_profile_arg(args.profile), seed=args.seed)
    # the writer counts what it writes: reading ``records`` would build them
    with open(args.out, "w", encoding="utf-8") as handle:
        records, span = scenario.write(handle)
    print(f"wrote {records} records ({span:.0f}s) to {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    from .trace import read_trace, summarize

    header, events = read_trace(args.trace)
    print(json.dumps(summarize(header, events), indent=2, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    from .trace import read_trace, validate_trace

    if not args.scenario and not args.trace:
        print("validate needs --scenario or --trace", file=sys.stderr)
        return 2
    status = 0
    if args.scenario:
        scenario = load_scenario(args.scenario)
        print(f"scenario ok: {len(scenario.records)} records, {len(scenario.header.streams)} streams")
    if args.trace:
        header, events = read_trace(args.trace)
        violations = validate_trace(header, events)
        if violations:
            for violation in violations:
                print(f"violation: {violation}", file=sys.stderr)
            status = 2
        else:
            print(f"trace ok: {len(events)} events, no violations")
    return status


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "synth": _cmd_synth,
        "summarize": _cmd_summarize,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ScenarioError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
