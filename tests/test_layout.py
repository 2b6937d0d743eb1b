"""The package's imports, checked from its source and at run time.

The runtime stays standard-library only, and a module imports no name
it never uses, so a deletion cannot leave a dead import behind. A
replay loads only the standard library it uses, and neither the
synthesizer nor the command line; ``cogloop run`` does not load the
synthesizer either, and ``cogloop synth`` loads no replay. ``session`` and ``scenario`` bridge
the names the benchmark still reads from them, and only the test that
mirrors the benchmark reads those names there. Every public name and
method is read by the package or the benchmark: one that only tests
read lives under ``tests/``.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cogloop
from cogloop import scenario, session, synth, trace

MODULES = sorted(Path(cogloop.__file__).parent.glob("*.py"))


def _imports(tree: ast.Module):
    """(line, module, bound names) for every import statement; module is
    None for a relative import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, [alias.asname or alias.name.partition(".")[0]]
        elif isinstance(node, ast.ImportFrom):
            module = None if node.level else node.module
            yield node.lineno, module, [alias.asname or alias.name for alias in node.names]


def test_the_package_has_modules():
    assert {"session", "streams", "interventions"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_standard_library_or_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = [
        f"line {line}: {module}"
        for line, module, _ in _imports(tree)
        if module is not None
        and module.partition(".")[0] not in sys.stdlib_module_names
        and module.partition(".")[0] != "cogloop"
    ]
    assert foreign == []


# Synthesizes a bundled profile, replays it and writes the trace, as
# ``cogloop synth`` and ``cogloop run --trace`` do, replays it once more
# through ``cogloop run`` itself, then prints, on its last line, the
# modules loaded since the interpreter started.
_REPLAY_CHILD = """
import sys
before = set(sys.modules)
from cogloop.scenario import load_scenario, write_scenario
from cogloop.session import run_session
from cogloop.synth import load_profile, synthesize
from cogloop.trace import write_trace
profile, scenario, trace, cli_trace = sys.argv[1:5]
write_scenario(synthesize(load_profile(profile)), scenario)
write_trace(run_session(load_scenario(scenario)), trace)
from cogloop.cli import main
assert main(["run", "--scenario", scenario, "--trace", cli_trace]) == 0
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps(loaded))
"""


def test_a_replay_loads_only_the_standard_library_it_uses(tmp_path):
    # hashlib maps OpenSSL's libcrypto, statistics loads fractions and
    # decimal, and dataclasses loads inspect, which loads ast, dis and
    # tokenize: megabytes of a replay's peak memory, none of it used
    unused = {"fractions", "decimal", "statistics", "dataclasses", "inspect", "ast", "dis", "tokenize"}
    # a build without a builtin SHA-2 module falls back to hashlib
    if any(map(importlib.util.find_spec, ("_sha2", "_sha256"))):
        unused |= {"hashlib", "_hashlib"}
    profile = Path(cogloop.__file__).parent / "profiles" / "load_excursion.json"
    trace, cli_trace = tmp_path / "trace.jsonl", tmp_path / "cli_trace.jsonl"
    child = subprocess.run(
        [sys.executable, "-c", _REPLAY_CHILD, str(profile), str(tmp_path / "scenario.jsonl"), str(trace),
         str(cli_trace)],
        env={"PYTHONPATH": str(Path(cogloop.__file__).parents[1])}, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert {"cogloop.session", "cogloop.cli"} <= set(loaded)
    foreign = [
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "cogloop"
    ]
    assert foreign == []
    assert unused.intersection(loaded) == set()
    # the replay decided, so it hashed prompts
    assert '"kind":"directive_sent"' in trace.read_text(encoding="utf-8")
    assert cli_trace.read_bytes() == trace.read_bytes()


# A replay as ``cogloop run --trace`` makes it, with nothing else loaded
# first; prints, on its last line, the modules loaded since the
# interpreter started.
_BARE_REPLAY_CHILD = """
import sys
before = set(sys.modules)
from cogloop.scenario import load_scenario
from cogloop.session import run_session
from cogloop.trace import write_trace
scenario, trace = sys.argv[1:3]
write_trace(run_session(load_scenario(scenario)), trace)
import json
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_a_replay_loads_neither_the_synthesizer_nor_the_command_line(tmp_path):
    # a fresh process compiles each module it loads, unless its bytecode
    # is cached, and the compile of a large module sets a replay's peak
    profile = Path(cogloop.__file__).parent / "profiles" / "load_excursion.json"
    scenario_path, trace_path = tmp_path / "scenario.jsonl", tmp_path / "trace.jsonl"
    scenario.write_scenario(synth.synthesize(synth.load_profile(profile)), scenario_path)
    child = subprocess.run(
        [sys.executable, "-c", _BARE_REPLAY_CHILD, str(scenario_path), str(trace_path)],
        env={"PYTHONPATH": str(Path(cogloop.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    loaded = set(json.loads(child.stdout.splitlines()[-1]))
    assert {"cogloop.scenario", "cogloop.session", "cogloop.trace"} <= loaded
    assert {"cogloop.synth", "cogloop.cli"}.isdisjoint(loaded)
    assert trace_path.stat().st_size > 0


# ``cogloop run --trace`` through the command line's ``main``, with
# nothing else loaded first; prints, on its last line, the modules loaded
# since the interpreter started.
_CLI_RUN_CHILD = """
import sys
before = set(sys.modules)
from cogloop.cli import main
scenario, trace = sys.argv[1:3]
assert main(["run", "--scenario", scenario, "--trace", trace]) == 0
import json
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cogloop_run_loads_no_synthesizer(tmp_path):
    profile = Path(cogloop.__file__).parent / "profiles" / "load_excursion.json"
    scenario_path, trace_path = tmp_path / "scenario.jsonl", tmp_path / "trace.jsonl"
    scenario.write_scenario(synth.synthesize(synth.load_profile(profile)), scenario_path)
    child = subprocess.run(
        [sys.executable, "-c", _CLI_RUN_CHILD, str(scenario_path), str(trace_path)],
        env={"PYTHONPATH": str(Path(cogloop.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    loaded = set(json.loads(child.stdout.splitlines()[-1]))
    assert {"cogloop.cli", "cogloop.session", "cogloop.trace"} <= loaded
    assert "cogloop.synth" not in loaded
    assert trace_path.stat().st_size > 0


# ``cogloop synth`` through the command line's ``main``, with nothing
# else loaded first; prints, on its last line, the modules loaded since
# the interpreter started.
_CLI_SYNTH_CHILD = """
import sys
before = set(sys.modules)
from cogloop.cli import main
profile, scenario = sys.argv[1:3]
assert main(["synth", "--profile", profile, "--out", scenario]) == 0
import json
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cogloop_synth_loads_no_replay(tmp_path):
    scenario_path = tmp_path / "scenario.jsonl"
    child = subprocess.run(
        [sys.executable, "-c", _CLI_SYNTH_CHILD, "all_baseline", str(scenario_path)],
        env={"PYTHONPATH": str(Path(cogloop.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    loaded = set(json.loads(child.stdout.splitlines()[-1]))
    assert {"cogloop.cli", "cogloop.scenario", "cogloop.synth"} <= loaded
    replay = {"session", "trace", "config", "directives", "interventions", "gaze", "behavior", "cardio", "state"}
    assert {f"cogloop.{name}" for name in replay}.isdisjoint(loaded)
    assert scenario_path.stat().st_size > 0


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"line {line}: {name}"
        for line, module, names in _imports(tree)
        if module != "__future__"
        for name in names
        if name not in used
    ]
    assert unused == []


def _module_level_names(tree: ast.Module):
    """(line, name) for every def, class and assignment target of the
    module body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield node.lineno, name.id


def _read_names(trees) -> set[str]:
    """Every name the code of the trees reads: loaded as a name, reached
    as an attribute or imported by name."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _method_names(tree: ast.Module):
    """(line, "Class.method") for every method of the module's classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield method.lineno, f"{node.name}.{method.name}"


def test_every_private_module_level_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    read = _read_names(trees.values())
    unread = [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for line, name in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert unread == []


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    # a public function, class, constant or method that only tests read
    # is a test helper, and belongs under tests/. The benchmark's own
    # modules count, not its frozen reference engine (bench/cogloop_ref),
    # and so do the names its tracer wraps, which it spells in strings.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in BENCH.glob("*.py")]
    read = _read_names([*trees.values(), *bench])
    spec = importlib.util.spec_from_file_location("tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, _, path, _ in tracer.WRAPPED:
        read.update(path.split("."))
    unread = [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for line, name in [*_module_level_names(tree), *_method_names(tree)]
        if not name.rpartition(".")[2].startswith("_") and name.rpartition(".")[2] not in read
    ]
    assert unread == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_fmean_is_never_given_a_generator_expression(path):
    # stats.fmean takes its input's length, so a generator expression
    # raises TypeError, and only when a replay reaches that call; a list
    # gives the same fsum(data) / n
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "fmean" or getattr(node.func, "id", None) == "fmean")
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    ]
    assert calls == []


# The names that moved out of each module and that the benchmark under
# bench/ still reads from it, through the module's __getattr__.
BRIDGES = {
    session: (trace, ("write_trace", "read_trace", "validate_trace", "summarize")),
    scenario: (synth, ("synthesize", "parse_profile")),
}


@pytest.mark.parametrize("old", BRIDGES, ids=lambda module: module.__name__)
def test_each_bridge_resolves_exactly_its_names(old):
    new, names = BRIDGES[old]
    for name in names:
        assert getattr(old, name) is getattr(new, name)
        assert vars(old)[name] is getattr(new, name)  # cached: the next read is a plain global
    # every other name of the new module is there only if the old one imports it
    moved = {name for _, name in _module_level_names(ast.parse(Path(new.__file__).read_text(encoding="utf-8")))}
    for name in sorted(moved - set(names) - set(vars(old))) + ["no_such_name"]:
        with pytest.raises(AttributeError, match=name):
            getattr(old, name)


def _source(node: ast.ImportFrom) -> str:
    """The absolute name of the module an import reads from; a relative
    import is one inside the package."""
    if node.level:
        return "cogloop" + (f".{node.module}" if node.module else "")
    return node.module or ""


def _bridged_reads(tree: ast.Module) -> list[str]:
    """Every read of a bridged name from the module that bridges it: an
    import of it by name, or an attribute of the module."""
    bridged = {f"cogloop.{old.__name__.rpartition('.')[2]}": names for old, (_, names) in BRIDGES.items()}
    bound: dict[str, str] = {}  # a name bound to a bridging module -> the module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source(node)
            if source in bridged:
                found += [f"line {node.lineno}: {source}.{a.name}" for a in node.names if a.name in bridged[source]]
            elif source == "cogloop":
                bound.update((a.asname or a.name, f"cogloop.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update((a.asname, a.name) for a in node.names if a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            module = ast.unparse(owner) if isinstance(owner, ast.Attribute) else bound.get(getattr(owner, "id", None))
            if node.attr in bridged.get(module, ()):
                found.append(f"line {node.lineno}: {module}.{node.attr}")
    return found


TESTS = Path(__file__).resolve().parent
BENCH_MIRROR = TESTS / "test_bench_layers.py"


@pytest.mark.parametrize(
    "path", [*MODULES, *sorted(set(TESTS.glob("*.py")) - {BENCH_MIRROR})], ids=lambda path: path.name
)
def test_only_the_bench_mirror_reads_a_bridged_name(path):
    assert _bridged_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_bench_mirror_reads_bridged_names():
    # the rule above finds what it looks for
    assert len(_bridged_reads(ast.parse(BENCH_MIRROR.read_text(encoding="utf-8")))) >= 6


def test_every_exception_class_is_raised():
    # an exception class that nothing raises is dead API: a caller may
    # catch it, and nothing will ever be caught
    errors = ast.parse((Path(cogloop.__file__).parent / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"EngineError"}
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert classes, "errors.py defines no exception class"
    assert sorted(classes - raised) == []
