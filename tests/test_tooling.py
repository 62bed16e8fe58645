"""The repository's pytest settings report a failing property-based test
like any other failure, with its falsifying example, and go on to run the
tests after it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTEST_")}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_property.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out and "Falsifying example" in out
