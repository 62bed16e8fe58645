"""The benchmark's tracer (bench/tracer.py) replaces gcmr module attributes
by name. Every (module, attribute) it targets must resolve, so that a rename
fails here by name rather than as a failed job inside a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attribute) for module, attribute, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module, attribute", tracer_targets())
def test_tracer_target_resolves(module, attribute):
    owner = importlib.import_module(f"gcmr.{module}")
    assert callable(getattr(owner, attribute, None)), f"gcmr.{module}.{attribute}"
