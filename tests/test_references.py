"""Every top-level function, class and UPPER_SNAKE constant of the package
is used: its name appears in src/, tests/, bench/, demos/ or README.md
outside its own definition or assignment, so a definition nothing calls,
tests or documents, or a constant a deletion left behind, shows up here
instead of lingering."""

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
UPPER_SNAKE = re.compile(r"_?[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)*")


def definitions():
    """(file, name, first line, last line) of every top-level def and
    class of the package, its decorators included."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                yield path, node.name, first, node.end_lineno


def constants():
    """(file, name, first line, last line) of every module-level
    UPPER_SNAKE name the package assigns (a leading underscore allowed),
    the whole assignment included."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and UPPER_SNAKE.fullmatch(name.id):
                            yield path, name.id, node.lineno, node.end_lineno


def unreferenced(found) -> list[str]:
    """The "file:line name" of each (file, name, first, last) of found whose
    name appears nowhere outside those lines."""
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in SOURCES}
    words = Counter(word for text in lines.values() for line in text
                    for word in WORD.findall(line))
    missing = []
    for path, name, first, last in found:
        own = sum(WORD.findall(line).count(name) for line in lines[path][first - 1:last])
        if words[name] == own:
            missing.append(f"{path.name}:{first} {name}")
    return missing


def test_every_top_level_definition_is_referenced():
    found = list(definitions())
    assert len(found) > 100  # the scan sees the package
    assert unreferenced(found) == []


def test_every_module_constant_is_referenced():
    found = list(constants())
    assert len(found) > 20  # the scan sees the package's constants
    assert unreferenced(found) == []


def test_no_object_new_bypasses_a_constructor():
    # object.__new__ builds an instance without __init__ or __post_init__,
    # so a type's own checks would not run on it
    uses = [f"{path.name}:{number}" for path in sorted(PACKAGE.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if "object.__new__" in line]
    assert uses == []
