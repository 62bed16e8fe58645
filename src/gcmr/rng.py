"""Seedable, splittable random streams backed by the Philox counter-based generator.

Every random decision in the package (mask selection, dropout, shuffling,
synthetic data) draws from a stream addressed by a root seed plus a tuple of
integer parts. Streams with distinct part tuples are statistically
independent, and the Philox bit stream is identical across platforms, so
seeded runs reproduce exactly.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(value: int) -> int:
    # splitmix64 finalizer; decorrelates nearby stream ids
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def stream_id(*parts: int) -> int:
    """Fold integer parts into one 64-bit stream identifier."""
    acc = 0
    for part in parts:
        acc = _mix((acc + _GOLDEN + (int(part) & _MASK64)) & _MASK64)
    return acc


def _key(seed: int, parts) -> np.ndarray:
    """The Philox4x64 key of the (seed, *parts) stream."""
    return np.array([int(seed) & _MASK64, stream_id(*parts)], dtype=np.uint64)


def generator(seed: int, *parts: int) -> np.random.Generator:
    """Independent generator for (seed, *parts), keyed into Philox4x64."""
    return np.random.Generator(np.random.Philox(key=_key(seed, parts)))


def rekey(gen: np.random.Generator, seed: int, *parts: int) -> np.random.Generator:
    """gen, moved in place to the start of the (seed, *parts) stream: from
    here it draws exactly what generator(seed, *parts) draws, whatever gen
    drew before, since the counter, the output buffer and the spare uint32
    are reset with the key. Cheaper than building a new generator, which
    seeds a throwaway SeedSequence from OS entropy first. gen must be
    backed by Philox, as every generator of this module is.

    Returns gen itself, so the stream it draws is valid only until the next
    re-key of gen."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _key(seed, parts)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen
