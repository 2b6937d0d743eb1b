"""The package's imports, checked from its source and at run time.

The runtime stays standard-library only, and a module imports no name
it never uses, so a deletion cannot leave a dead import behind. A
replay loads only the standard library it uses.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cogloop

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
from cogloop.scenario import load_profile, load_scenario, synthesize, write_scenario
from cogloop.session import run_session, write_trace
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


def test_every_private_module_level_name_is_read():
    # read: loaded as a name, reached as an attribute or imported by name
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for line, name in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
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
