"""Every import is used: a name an import binds must be read in the
scope that imports it, the module for a top-level import and the
function for an import inside one. This holds for src/xpand, the tests,
the benchmarks and perfbench. `from __future__` imports, the package
re-exports listed in `xpand.__all__` and the exemptions below are
exempt. The benchmark script is also run once, so a name or keyword it
takes from src/xpand cannot go missing unseen."""

import ast
import importlib.util
import pathlib

import pytest

import xpand

SRC = pathlib.Path(xpand.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
OTHERS = sorted(p for d in ("tests", "benchmarks", "perfbench") for p in (ROOT / d).glob("*.py"))
# imported for its load alone: the calibration process times numpy's import
EXEMPT = {"perfbench/calib.py": ("numpy",)}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a module or function outside any function nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if not isinstance(node, FUNCTIONS):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str, exempt=()) -> list:
    """(line, name) of each name bound by an import and never read in
    its scope."""
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]
    found = []
    for scope in scopes:
        bound = {}
        for node in _own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = min(bound.get(name, node.lineno), node.lineno)
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        found += [(line, name) for name, line in bound.items() if name not in read | set(exempt)]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    exempt = xpand.__all__ if path.name == "__init__.py" else ()
    assert unused_imports(path.read_text(encoding="utf-8"), exempt) == []


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports_outside_the_package(path):
    exempt = EXEMPT.get(path.relative_to(ROOT).as_posix(), ())
    assert unused_imports(path.read_text(encoding="utf-8"), exempt) == []


def test_unused_import_check_sees_what_it_should():
    source = "from __future__ import annotations\nimport os, numpy as np\n"
    source += "from .a import b, c\nb(np)\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


def test_unused_import_check_is_per_function():
    # a name imported in one function and read only in another is unused
    source = "def f():\n    from .a import b, c\n    return b\n\n"
    source += "def g():\n    import os\n    return c, os\n"
    assert unused_imports(source) == [(2, "c")]


def test_benchmark_script_runs_once(monkeypatch, capsys):
    path = ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", [str(path), "--repeat", "1"])
    assert module.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("random 4-regular graph, n=20")
    assert any(line.startswith("percolation --prune") for line in lines)
    assert lines[-1].startswith("prune heuristic mesh 6x6 p=0.15")
