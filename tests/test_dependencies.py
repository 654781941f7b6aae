"""The package imports nothing beyond the standard library and numpy, and
loads numpy, hashlib, configparser and dataclasses only inside the functions
that use them, numpy in one place alone: the ``formatting.np`` handle; no
module imports another's private names; one function decodes text files,
and one parses INI files."""

import ast
import sys
from pathlib import Path

import numpy

import dface
from dface import formatting

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dface"}

# Importing numpy or hashlib costs every command about 100 ms of start-up,
# configparser a few ms, and dataclasses (with inspect, dis and ast) plus its
# generated methods about 30 ms, so none is imported when a module loads.
# Every module reaches numpy through formatting.np, which imports it on the
# first attribute read.
LAZY = {"numpy", "hashlib", "configparser", "dataclasses"}

SOURCES = sorted(Path(dface.__file__).parent.glob("*.py"))


def _imported(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def _load_time_imports(tree: ast.Module) -> list[str]:
    """Modules imported while the module itself loads: everything outside
    function bodies and ``if TYPE_CHECKING:`` blocks."""
    names, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            pending += node.orelse
            continue
        names += _imported(node)
        pending += ast.iter_child_nodes(node)
    return names


def test_package_imports_only_stdlib_and_numpy():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            foreign += [
                f"{path.name}: {name}"
                for name in _imported(node)
                if name.split(".")[0] not in ALLOWED
            ]
    assert foreign == []


def test_numpy_and_hashlib_are_not_imported_at_module_load():
    assert SOURCES
    eager = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _load_time_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in LAZY
    ]
    assert eager == []


def test_no_module_imports_a_private_name_from_another():
    assert SOURCES
    private = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and node.module.split(".")[0] != "dface":
                continue
            private += [
                f"{path.name}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert private == []


def _by_function(node: ast.AST, where: str):
    """(name of the innermost enclosing function, node) for every node below."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield inner, child
        yield from _by_function(child, inner)


def test_only_the_shared_reader_decodes_text_files():
    # Non-UTF-8 input is refused by formatting.read_text alone, so a second
    # reader cannot word or classify that error differently.
    assert SOURCES
    readers = set()
    for path in SOURCES:
        for where, node in _by_function(ast.parse(path.read_text(encoding="utf-8")), "<module>"):
            caught = isinstance(node, ast.ExceptHandler) and node.type is not None and {
                n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)
            } & {"UnicodeDecodeError", "UnicodeError"}
            decodes = isinstance(node, ast.Attribute) and node.attr in ("read_text", "decode")
            if caught or decodes:
                readers.add(f"{path.name}: {where}")
    assert readers == {"formatting.py: read_text"}


def test_only_the_shared_ini_reader_imports_configparser():
    # --config and sequence.ini go through formatting.read_ini alone, so the
    # two files cannot drift apart on which sections and keys they refuse
    assert SOURCES
    importers = {
        f"{path.name}: {where}"
        for path in SOURCES
        for where, node in _by_function(ast.parse(path.read_text(encoding="utf-8")), "<module>")
        if "configparser" in _imported(node)
    }
    assert importers == {"formatting.py: read_ini"}


def test_numpy_is_imported_in_one_function():
    # an `if TYPE_CHECKING:` import would show here as "<module>"
    assert SOURCES
    importers = [
        f"{path.name}: {where}"
        for path in SOURCES
        for where, node in _by_function(ast.parse(path.read_text(encoding="utf-8")), "<module>")
        if any(name.split(".")[0] == "numpy" for name in _imported(node))
    ]
    assert importers == ["formatting.py: __getattr__"]


def test_the_numpy_handle_reads_numpys_own_attributes():
    assert formatting.np.hypot is numpy.hypot
    assert formatting.np.ndarray is numpy.ndarray
    assert "hypot" in vars(formatting.np)  # later reads skip __getattr__
