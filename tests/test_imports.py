"""Static checks over the reformkit modules: every name a module imports
is used there or re-exported, and only ``corpus.py`` opens files."""

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
