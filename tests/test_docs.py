"""README stays in step with the package: its layout table names every
module once, and every `gcmr.<module>.<name>` it cites exists."""

import importlib
import re
from pathlib import Path

import pytest

import gcmr

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PACKAGE_DIR = Path(gcmr.__file__).resolve().parent


def layout_modules():
    section = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `gcmr\.(\w+)` \|", section, flags=re.MULTILINE)


def test_layout_table_lists_exactly_the_package_modules():
    listed = layout_modules()
    assert len(listed) == len(set(listed)), f"listed twice: {listed}"
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"}
    assert set(listed) == modules


@pytest.mark.parametrize("module, name",
                         sorted(set(re.findall(r"`gcmr\.(\w+)\.(\w+)`", README))))
def test_cited_name_resolves(module, name):
    owner = importlib.import_module(f"gcmr.{module}")
    assert hasattr(owner, name), f"gcmr.{module}.{name}"
