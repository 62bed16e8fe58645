"""rng.stream moves its shared generator to the start of the requested
stream; whatever the generator drew before, it must then draw exactly what
a new rng.generator for that stream draws."""

import numpy as np
import pytest

from gcmr import rng


def draws(gen):
    """One of each draw kind: doubles, bounded int32 (the spare-uint32 path),
    bounded int64, a permutation and normals."""
    return [gen.random(5), gen.integers(0, 7, size=9, dtype=np.int32),
            gen.integers(0, 2 ** 40, size=3), gen.permutation(17),
            gen.standard_normal(4)]


def assert_same_draws(a, b):
    for x, y in zip(draws(a), draws(b)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("consume", [
    lambda gen: None,
    lambda gen: gen.random(3),                                   # output buffer part-used
    lambda gen: gen.integers(0, 5, size=3, dtype=np.int32),      # spare uint32 left set
    lambda gen: gen.permutation(7),
    lambda gen: [gen.standard_normal(1001), gen.integers(0, 9, dtype=np.int32)],
], ids=["fresh", "buffer", "uint32", "permutation", "many"])
@pytest.mark.parametrize("seed, parts", [(0, ()), (7, (201, 1)), (2 ** 64 - 1, (201, 999)),
                                         (-3, (-1, 2 ** 63))])
def test_stream_draws_what_a_new_generator_draws(consume, seed, parts):
    consume(rng.stream(11, 5))
    assert_same_draws(rng.stream(seed, *parts), rng.generator(seed, *parts))


def test_each_stream_call_restarts_its_stream():
    for pos in (1, 2, 1):
        assert_same_draws(rng.stream(3, 201, pos), rng.generator(3, 201, pos))


def test_the_uint32_case_leaves_a_spare_uint32_set():
    gen = rng.stream(11, 5)
    gen.integers(0, 5, size=3, dtype=np.int32)
    assert gen.bit_generator.state["has_uint32"] == 1
