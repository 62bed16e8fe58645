"""rng.rekey moves an existing generator to the start of another stream; it
must then draw exactly what a new rng.generator for that stream draws."""

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
def test_rekeyed_generator_draws_what_a_new_one_draws(consume, seed, parts):
    gen = rng.generator(11, 5)
    consume(gen)
    assert rng.rekey(gen, seed, *parts) is gen
    assert_same_draws(gen, rng.generator(seed, *parts))


def test_each_rekey_restarts_its_stream():
    gen = rng.generator(1, 2)
    for pos in (1, 2, 1):
        assert_same_draws(rng.rekey(gen, 3, 201, pos), rng.generator(3, 201, pos))


def test_rekey_needs_a_philox_generator():
    with pytest.raises(ValueError):
        rng.rekey(np.random.Generator(np.random.PCG64(0)), 1, 2)


def test_the_uint32_case_leaves_a_spare_uint32_set():
    gen = rng.generator(11, 5)
    gen.integers(0, 5, size=3, dtype=np.int32)
    assert gen.bit_generator.state["has_uint32"] == 1
