"""README stays in step with the package: its layout table names every
module once, every `gcmr.<module>.<name>` it cites exists (at any depth,
e.g. `gcmr.<module>.<class>.<method>`), every exception and every bare
`UPPER_SNAKE` constant it names is defined in some gcmr module, the format
versions it states are the ones data_io writes, and every command of its
CLI block parses."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import gcmr
from gcmr import cli, data_io

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = sorted(p.stem for p in Path(gcmr.__file__).resolve().parent.glob("*.py")
                 if p.stem != "__init__")


def layout_modules():
    section = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `gcmr\.(\w+)` \|", section, flags=re.MULTILINE)


def test_layout_table_lists_exactly_the_package_modules():
    listed = layout_modules()
    assert len(listed) == len(set(listed)), f"listed twice: {listed}"
    assert set(listed) == set(MODULES)


@pytest.mark.parametrize("module, name",
                         sorted(set(re.findall(r"`gcmr\.(\w+)\.(\w+(?:\.\w+)*)`", README))))
def test_cited_name_resolves(module, name):
    owner = importlib.import_module(f"gcmr.{module}")
    for part in name.split("."):
        assert hasattr(owner, part), f"gcmr.{module}.{name}"
        owner = getattr(owner, part)


@pytest.mark.parametrize("name", sorted(set(re.findall(r"`(\w+Error)`", README))))
def test_named_exception_exists(name):
    assert any(hasattr(importlib.import_module(f"gcmr.{m}"), name) for m in MODULES), name


def test_bare_constant_exists():
    # a bare `UPPER_SNAKE` name escapes test_cited_name_resolves, so a
    # deleted constant the README still names would go unnoticed
    names = sorted(set(re.findall(r"`([A-Z][A-Z0-9]*_[A-Z0-9_]*)`", README)))
    missing = [name for name in names
               if not any(hasattr(importlib.import_module(f"gcmr.{m}"), name) for m in MODULES)]
    assert not missing


def test_stated_format_versions_match_data_io():
    stated = re.findall(r"datasets are version (\d+),\s+checkpoints\s+version (\d+)", README)
    assert stated == [(str(data_io.FORMAT_VERSION[data_io.KIND_DATASET]),
                       str(data_io.FORMAT_VERSION[data_io.KIND_CHECKPOINT]))]


def cli_commands():
    block = README.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("gcmr ")]


def test_cli_block_has_every_subcommand():
    assert {line.split()[1] for line in cli_commands()} == {"synth", "run", "gradcheck",
                                                           "report"}


@pytest.mark.parametrize("line", cli_commands(),
                         ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(cli_commands())])
def test_cli_command_parses(line):
    # argparse exits 2 on a removed or renamed flag
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == line.split()[1]
