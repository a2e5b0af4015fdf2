"""Every import under src/xpand is used: a name an import binds must be
read somewhere in its module. `from __future__` imports and the package
re-exports listed in `xpand.__all__` are exempt."""

import ast
import pathlib

import pytest

import xpand

SRC = pathlib.Path(xpand.__file__).parent


def unused_imports(source: str, exempt=()) -> list:
    """(line, name) of each name bound by an import and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read | set(exempt))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    exempt = xpand.__all__ if path.name == "__init__.py" else ()
    assert unused_imports(path.read_text(encoding="utf-8"), exempt) == []


def test_unused_import_check_sees_what_it_should():
    source = "from __future__ import annotations\nimport os, numpy as np\n"
    source += "from .a import b, c\nb(np)\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]
