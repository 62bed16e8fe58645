import tracemalloc

import pytest

from gcmr import rng


def _traced_peak(fn, *args):
    """fn(*args) under tracemalloc: its result and the peak bytes allocated
    while it ran (memory allocated before the call is not traced)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    return _traced_peak


class RngCalls:
    """The arguments of every rng.stream draw and rng.generator build since
    the last clear()."""

    def __init__(self):
        self.stream, self.generator = [], []

    def clear(self):
        del self.stream[:], self.generator[:]


@pytest.fixture
def rng_calls(monkeypatch):
    """Record the calls of rng.stream and rng.generator while the test runs;
    each still returns what the original returns."""
    calls = RngCalls()
    for name in ("stream", "generator"):
        original, log = getattr(rng, name), getattr(calls, name)

        def recording(*args, original=original, log=log):
            log.append(args)
            return original(*args)
        monkeypatch.setattr(rng, name, recording)
    return calls
