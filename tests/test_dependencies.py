"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import dface

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dface"}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(dface.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED
            ]
    assert foreign == []
