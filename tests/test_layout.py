"""The package's imports, checked from its source.

The runtime stays standard-library only, and a module imports no name
it never uses, so a deletion cannot leave a dead import behind.
"""

import ast
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
    # statistics.fmean counts an input that has no length through a
    # Python-level generator wrapped around it (CPython 3.10 and 3.11);
    # a list gives the same fsum(data) / n, without the per-item cost
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "fmean" or getattr(node.func, "id", None) == "fmean")
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    ]
    assert calls == []
