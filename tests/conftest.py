import tracemalloc

import pytest


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
