"""Seedable, splittable random streams backed by the Philox counter-based generator.

Every random decision in the package (mask selection, dropout, shuffling,
synthetic data) draws from a stream addressed by a root seed plus a tuple of
integer parts. Streams with distinct part tuples are statistically
independent, and the Philox bit stream is identical across platforms, so
seeded runs reproduce exactly.

generator builds a new generator and is for draws a caller keeps across
other draws: weight init, synthetic data and the gradient check. Every
other draw (the session split, epoch shuffle, token mask, dropout) goes
through stream, which re-keys one module-owned generator instead of
building one per draw.
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


def _key(seed: int, parts) -> tuple[int, int]:
    """The two 64-bit words of the Philox4x64 key of the (seed, *parts) stream."""
    return int(seed) & _MASK64, stream_id(*parts)


def generator(seed: int, *parts: int) -> np.random.Generator:
    """Independent generator for (seed, *parts), keyed into Philox4x64."""
    key = np.array(_key(seed, parts), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_shared: np.random.Generator | None = None


def stream(seed: int, *parts: int) -> np.random.Generator:
    """The module's shared generator, moved to the start of the
    (seed, *parts) stream: the counter, output buffer and spare uint32 are
    reset with the key, so it draws exactly what generator(seed, *parts)
    draws, without seeding the throwaway SeedSequence a new generator does.
    It is created on the first call and re-keyed on every call, so a caller
    takes what it needs in one go, before any other draw through stream; it
    is not for use from more than one thread at a time."""
    global _shared
    if _shared is None:
        _shared = np.random.Generator(np.random.Philox(0))   # keyed below
    _shared.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _key(seed, parts)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return _shared
