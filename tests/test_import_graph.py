"""The package's modules import one another in one direction only."""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gcmr"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _package_imports(node) -> list[str]:
    """The package modules a relative import names: `from .a import f` and
    `from . import a` name a; a name that is no module file names __init__."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module is not None:
        return [node.module.split(".")[0]]
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def test_import_graph_is_acyclic():
    graph = {name: {target for node in ast.walk(tree) for target in _package_imports(node)}
             for name, tree in MODULES.items()}
    assert set().union(*graph.values()) <= set(MODULES)
    # raises graphlib.CycleError, naming the cycle, if there is one
    list(graphlib.TopologicalSorter(graph).static_order())


def test_no_function_imports_from_the_package():
    found = [f"{name}.{fn.name}:{node.lineno}"
             for name, tree in MODULES.items()
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if _package_imports(node)]
    assert found == []
