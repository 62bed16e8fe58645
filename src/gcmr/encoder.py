"""Per-example feature groups: toy encoder/decoder, token masking, pooled features.

The encoder stands in for a heavy pretrained backbone: a single affine map
from raw token space into feature space followed by tanh, whose mean-pooled
features are layer normalized. The matching decoder maps features back per
token, with a learned fill vector substituted at masked positions before
decoding. Both are trainable only in the base session; afterwards the
encoder is frozen for good.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .nn_core import LAYER_NORM_EPS

# Sub-stream tag isolating mask-index selection from other seed consumers.
MASK_STREAM = 0x6D61736B

# Byte budget of one encode chunk: encode_rows gathers and encodes
# encode_chunk_rows rows at a time, so the gathered raw rows and the
# (rows, tokens, dim) activations each stay within it whatever the width of
# a row. Both are alive at once, which makes the chunk the largest transient
# of `gcmr run` beside the test features it must hold. Measured on the
# cli-stream dataset at seed 4321 (fresh processes, one BLAS thread,
# ru_maxrss, 2-vCPU x86-64 VM): `gcmr run` peaks at 43.0, 42.0 and 42.0 MiB
# with 1 MiB, 512 KiB and 256 KiB chunks, so halving it again gains nothing.
ENCODE_CHUNK_BYTES = 1 << 19


@dataclass
class EncoderParams:
    """Affine tanh token encoder raw_dim -> dim; frozen once freeze() has
    made its arrays read-only."""

    w: np.ndarray  # (raw_dim, dim)
    b: np.ndarray  # (dim,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError("encoder weight/bias shapes disagree")
        if self.w.shape[1] < 2:
            raise ValueError("feature normalization needs a feature dim >= 2")

    @property
    def raw_dim(self) -> int:
        return self.w.shape[0]

    @property
    def dim(self) -> int:
        return self.w.shape[1]

    @property
    def frozen(self) -> bool:
        return not self.w.flags.writeable

    def freeze(self) -> None:
        """Make the parameters immutable for every later session."""
        self.w.setflags(write=False)
        self.b.setflags(write=False)

    def state_bytes(self) -> bytes:
        """Canonical byte image of the parameters, w|b, for freeze checks."""
        return b"|".join([self.w.tobytes(), self.b.tobytes()])


@dataclass
class DecoderParams:
    """Per-token affine decoder dim -> dim with a learned mask-fill vector."""

    w: np.ndarray           # (dim, dim)
    b: np.ndarray           # (dim,)
    mask_token: np.ndarray  # (dim,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.mask_token = np.asarray(self.mask_token, dtype=np.float64)
        d = self.w.shape[0]
        if self.w.shape != (d, d) or self.b.shape != (d,) or self.mask_token.shape != (d,):
            raise ValueError("decoder parameter shapes disagree")

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def init_encoder(raw_dim: int, dim: int) -> EncoderParams:
    """The tanh encoder at an identity-like deterministic initialization
    (rectangular eye, zero bias)."""
    return EncoderParams(np.eye(raw_dim, dim), np.zeros(dim))


def init_decoder(dim: int) -> DecoderParams:
    return DecoderParams(np.eye(dim), np.zeros(dim), np.zeros(dim))


def encode_batch(raw_tokens, params: EncoderParams) -> np.ndarray:
    """Map a (n, tokens, raw_dim) stack of groups into feature space;
    deterministic. The bias and tanh apply in place, so one
    (n, tokens, dim) array is allocated."""
    raw = np.asarray(raw_tokens, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[2] != params.raw_dim:
        raise ValueError("expected raw tokens of shape (n, tokens, raw_dim)")
    out = raw @ params.w
    out += params.b
    return np.tanh(out, out=out)


def mask_count(n_tokens: int, ratio: float) -> int:
    """Number of tokens a mask hides in a group of n_tokens, round(ratio *
    n_tokens); raises ValueError unless the group has >= 2 tokens, the
    ratio lies in [0, 1) and at least one token stays visible."""
    if n_tokens < 2:
        raise ValueError("masking needs groups of >= 2 tokens")
    if not 0.0 <= ratio < 1.0:
        raise ValueError("mask ratio must lie in [0, 1)")
    n_masked = int(round(ratio * n_tokens))
    if n_masked >= n_tokens:
        raise ValueError(f"mask ratio {ratio} would hide every token of a "
                         f"{n_tokens}-token group")
    return n_masked


def mask_features(groups, ratio: float, seed: int) -> np.ndarray:
    """Hide a uniform random subset of round(ratio * tokens) tokens per group.

    groups: (n, tokens, dim). Returns the (n, tokens) boolean matrix of
    hidden positions: each row hides the tokens holding its smallest entries
    of one uniform (n, tokens) noise block, drawn from the seed alone, so
    identical calls give identical masks.
    """
    shape = np.shape(groups)
    if len(shape) != 3:
        raise ValueError("expected groups of shape (n, tokens, dim)")
    n, n_tokens = shape[0], shape[1]
    n_masked = mask_count(n_tokens, ratio)
    noise = rng.stream(seed, MASK_STREAM).random((n, n_tokens))
    order = np.argsort(noise, axis=1)
    masked = np.zeros((n, n_tokens), dtype=bool)
    np.put_along_axis(masked, order[:, :n_masked], True, axis=1)
    return masked


def reconstruct(groups, masked: np.ndarray, dec: DecoderParams) -> np.ndarray:
    """Decode every group: visible tokens pass through, masked tokens start
    from the learned mask token, then every token gets the affine decoder."""
    feats = np.asarray(groups, dtype=np.float64)
    if feats.ndim != 3 or masked.shape != feats.shape[:2]:
        raise ValueError("mask disagrees with the (n, tokens, dim) groups")
    if feats.shape[2] != dec.dim:
        raise ValueError("feature dim does not match decoder dim")
    return np.where(masked[:, :, None], dec.mask_token, feats) @ dec.w + dec.b


def encode_chunk_rows(n_tokens: int, params: EncoderParams) -> int:
    """Rows per encode chunk: as many float64 rows of n_tokens raw or
    encoded tokens, whichever is wider, as fit ENCODE_CHUNK_BYTES; at least
    one."""
    row_bytes = max(n_tokens, 1) * max(params.raw_dim, params.dim) * 8
    return max(1, ENCODE_CHUNK_BYTES // row_bytes)


def normalized_features(raw_tokens, params: EncoderParams) -> np.ndarray:
    """encode -> mean-pool -> normalize for a (n, tokens, raw_dim) batch,
    returned as (n, dim); every step is row-wise.

    This is the feature every classifier input and memory row is built from.
    It encodes the batch in one go: encode_rows bounds the working set of
    a large or wide one."""
    return normalize_rows(encode_batch(raw_tokens, params).mean(axis=1))


def encode_rows(features: np.ndarray, indices: np.ndarray,
                params: EncoderParams, out: np.ndarray | None = None) -> np.ndarray:
    """normalized_features of features[indices], gathered and encoded
    encode_chunk_rows rows at a time, so the selected rows are never copied
    whole and the working set stays within a few ENCODE_CHUNK_BYTES however
    wide a row is. Byte-equal to normalized_features(features[indices]).

    out, when given, is the (n, dim) array the rows are written into and
    returned, so a caller's buffer (a slice of it) holds them once;
    otherwise one is allocated."""
    if out is None:
        out = np.empty((indices.shape[0], params.dim))
    rows = encode_chunk_rows(features.shape[1], params)
    for start in range(0, indices.shape[0], rows):
        chunk = indices[start:start + rows]
        out[start:start + chunk.shape[0]] = normalized_features(features[chunk], params)
    return out


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Layer-normalize each row: shift/scale to mean 0 and unit population
    variance over sqrt(var + 1e-5), with no learnable affine terms, so a
    constant row maps to zeros."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    var = (centered * centered).mean(axis=1, keepdims=True)
    return centered / np.sqrt(var + LAYER_NORM_EPS)


def normalize_rows_backward(grad: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gradient of normalize_rows with respect to its input rows."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    var = (centered * centered).mean(axis=1, keepdims=True)
    scale = np.sqrt(var + LAYER_NORM_EPS)
    out = centered / scale
    g_mean = grad.mean(axis=1, keepdims=True)
    proj = (grad * out).mean(axis=1, keepdims=True)
    return (grad - g_mean - out * proj) / scale
