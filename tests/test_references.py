"""Every top-level function and class of the package is used: its name
appears in src/, tests/, bench/, demos/ or README.md outside its own
definition, so a definition nothing calls, tests or documents shows up
here instead of lingering."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gcmr"
SOURCES = [*sorted(path for folder in ("src", "tests", "bench", "demos")
                   for path in (ROOT / folder).rglob("*.py")),
           ROOT / "README.md"]
WORD = re.compile(r"\w+")


def definitions():
    """(file, name, first line, last line) of every top-level def and
    class of the package, its decorators included."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                yield path, node.name, first, node.end_lineno


def test_every_top_level_definition_is_referenced():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in SOURCES}
    words = Counter(word for text in lines.values() for line in text
                    for word in WORD.findall(line))
    found = list(definitions())
    assert len(found) > 100  # the scan sees the package
    unreferenced = []
    for path, name, first, last in found:
        own = sum(WORD.findall(line).count(name) for line in lines[path][first - 1:last])
        if words[name] == own:
            unreferenced.append(f"{path.name}:{first} {name}")
    assert unreferenced == []
