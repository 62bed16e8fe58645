"""The narrative demos still run against the current API."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("name", ["01_masked_reconstruction.py", "02_base_finetuning.py",
                                  "03_incremental_protocol.py", "05_gradient_check.py"])
def test_demo_runs(name):
    # -W error: a warning the demo would print fails it, as in-process tests do
    proc = subprocess.run([sys.executable, "-W", "error", os.path.join(DEMOS, name)],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_memory_ablation_demo_imports_resolve():
    # the ablation demo trains six protocols (~8 s), so only its imports are checked
    with open(os.path.join(DEMOS, "04_memory_ablation.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.startswith("gcmr")
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
