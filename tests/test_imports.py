"""Static checks over the reformkit modules: every import sits at module
level and every name it binds is used there or re-exported, only
``corpus.py`` opens files, only the
reform table and the kernel dispatch name a reform by a string, and only the
corpus constructor joins texts into a column."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import reformkit

MODULES = sorted(Path(reformkit.__file__).resolve().parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names a module's imports bind, each with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in _imported(tree).items()
        if name not in used and name not in _exported(tree)
    }
    assert not unused, f"{path.name}: imported but unused: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    """An import inside a function hides a dependency, often a cycle, from
    a reader of the module's head."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert not nested, f"{path.name}: imports below module level: {nested}"


# the methods that open, read or write a file (os.replace is checked apart)
_FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _is_devnull_open(call: ast.Call) -> bool:
    """``os.open(os.devnull, ...)``, which ``cli.main`` uses to mute stdout."""
    return (
        ast.unparse(call.func) == "os.open"
        and bool(call.args)
        and ast.unparse(call.args[0]) == "os.devnull"
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "corpus.py"], ids=lambda p: p.name
)
def test_only_corpus_touches_files(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        f"line {node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and not _is_devnull_open(node)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "open")
            or (isinstance(node.func, ast.Attribute) and node.func.attr in _FILE_METHODS)
            or ast.unparse(node.func) == "os.replace"
        )
    ]
    assert not calls, f"{path.name}: file I/O outside corpus.py: {calls}"


# where a reform may be named by a string: the table itself, and the kernel
# dispatch, which calls one kernel signature per reform
_REFORM_NAMING = {("builder.py", "REFORMS"), ("builder.py", "_build_example")}


def _is_reform(node: ast.expr) -> bool:
    """``reform``, ``x.reform`` or ``x["reform"]``."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) and node.slice.value == "reform"
    return getattr(node, "id", None) == "reform" or getattr(node, "attr", None) == "reform"


def _holds_string(node: ast.expr) -> bool:
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return any(isinstance(item, ast.Constant) and isinstance(item.value, str) for item in items)


def _top_level_names(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_reforms_are_told_apart_by_the_table(path):
    """What a reform takes and needs is read from ``builder.REFORMS``, not
    from a comparison of its name with a string."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for stmt in tree.body
        if not any((path.name, name) in _REFORM_NAMING for name in _top_level_names(stmt))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Compare)
        and any(map(_is_reform, [node.left, *node.comparators]))
        and any(map(_holds_string, [node.left, *node.comparators]))
    ]
    assert not found, f"{path.name}: a reform compared with a string: {found}"


def _scoped_names(node: ast.AST, scope: tuple[str, ...] = ()):
    """Each name read under ``node`` (``x`` or ``obj.x``), with the classes
    and functions around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            yield scope, child.id, child.lineno
        elif isinstance(child, ast.Attribute):
            yield scope, child.attr, child.lineno
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scoped_names(child, (*scope, child.name) if named else scope)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_columns_are_built_only_by_the_checked_constructor(path):
    """``corpus._column`` joins texts unchecked, so only
    ``MultiParallelCorpus.__init__``, which checks every text, calls it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"line {line}: in {'.'.join(scope) or 'the module'}"
        for scope, name, line in _scoped_names(tree)
        if name == "_column"
        and (path.name, scope) != ("corpus.py", ("MultiParallelCorpus", "__init__"))
    ]
    assert not found, f"{path.name}: a column built past the corpus checks: {found}"
