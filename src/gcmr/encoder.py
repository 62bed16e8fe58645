"""Per-example feature groups: toy encoder/decoder, token masking, pooled features.

The encoder stands in for a heavy pretrained backbone: a single affine map
from raw token space into feature space with an optional tanh squash. The
matching decoder maps features back per token, with a learned fill vector
substituted at masked positions before decoding. Both are trainable only in
the base session; afterwards the encoder is frozen for good.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .nn_core import LAYER_NORM_EPS

# Sub-stream tag isolating mask-index selection from other seed consumers.
MASK_STREAM = 0x6D61736B

ACTIVATIONS = ("identity", "tanh")
FEATURE_NORMS = ("layer", "l2")
# Byte budget of one encode chunk: normalized_features encodes, and the
# trainer gathers, encode_chunk_rows rows at a time, so the gathered raw rows
# and the (rows, tokens, dim) activations each stay within it whatever the
# width of a row.
ENCODE_CHUNK_BYTES = 1 << 20


@dataclass
class EncoderParams:
    """Affine token encoder raw_dim -> dim plus the feature normalization choice."""

    w: np.ndarray  # (raw_dim, dim)
    b: np.ndarray  # (dim,)
    activation: str = "tanh"
    feature_norm: str = "layer"
    frozen: bool = False

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError("encoder weight/bias shapes disagree")
        if self.w.shape[1] < 2:
            raise ValueError("feature normalization needs a feature dim >= 2")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.feature_norm not in FEATURE_NORMS:
            raise ValueError(f"unknown feature norm {self.feature_norm!r}")

    @property
    def raw_dim(self) -> int:
        return self.w.shape[0]

    @property
    def dim(self) -> int:
        return self.w.shape[1]

    def freeze(self) -> None:
        """Make the parameters immutable for every later session."""
        self.w.setflags(write=False)
        self.b.setflags(write=False)
        self.frozen = True

    def state_bytes(self) -> bytes:
        """Canonical byte image of the parameters, for freeze checks."""
        return b"|".join([self.activation.encode(), self.feature_norm.encode(),
                          self.w.tobytes(), self.b.tobytes()])


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


def init_encoder(raw_dim: int, dim: int, activation: str = "tanh",
                 feature_norm: str = "layer") -> EncoderParams:
    """Identity-like deterministic initialization (rectangular eye, zero bias)."""
    return EncoderParams(np.eye(raw_dim, dim), np.zeros(dim), activation, feature_norm)


def init_decoder(dim: int) -> DecoderParams:
    return DecoderParams(np.eye(dim), np.zeros(dim), np.zeros(dim))


def activation_grad(outputs: np.ndarray, activation: str) -> np.ndarray:
    """d(activation)/d(pre-activation) expressed through the outputs."""
    if activation == "tanh":
        return 1.0 - outputs * outputs
    return np.ones_like(outputs)


def _raw_tokens(raw_tokens, params: EncoderParams) -> np.ndarray:
    raw = np.asarray(raw_tokens, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[2] != params.raw_dim:
        raise ValueError("expected raw tokens of shape (n, tokens, raw_dim)")
    return raw


def encode_batch(raw_tokens, params: EncoderParams) -> np.ndarray:
    """Map a (n, tokens, raw_dim) stack of groups into feature space;
    deterministic. The bias and activation apply in place, so one
    (n, tokens, dim) array is allocated."""
    out = _raw_tokens(raw_tokens, params) @ params.w
    out += params.b
    if params.activation == "tanh":
        np.tanh(out, out=out)
    return out


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
    returned as (n, dim).

    This is the feature every classifier input and memory row is built from.
    Rows run in chunks of encode_chunk_rows(tokens, params), so one chunk's
    activations stay within ENCODE_CHUNK_BYTES; every step is row-wise, so
    the result is byte-equal to encoding the whole batch at once.
    """
    raw = _raw_tokens(raw_tokens, params)
    out = np.empty((raw.shape[0], params.dim))
    rows = encode_chunk_rows(raw.shape[1], params)
    for start in range(0, raw.shape[0], rows):
        stop = start + rows
        out[start:stop] = normalize_rows(encode_batch(raw[start:stop], params).mean(axis=1),
                                         params.feature_norm)
    return out


def normalize_rows(rows: np.ndarray, kind: str) -> np.ndarray:
    """Normalize each row: "layer" shifts/scales to mean 0 and unit
    population variance over sqrt(var + 1e-5), with no learnable affine
    terms, so a constant row maps to zeros; "l2" scales to unit Euclidean
    norm and passes zero rows through unchanged."""
    if kind == "layer":
        centered = rows - rows.mean(axis=1, keepdims=True)
        var = (centered * centered).mean(axis=1, keepdims=True)
        return centered / np.sqrt(var + LAYER_NORM_EPS)
    if kind == "l2":
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        safe = np.where(norms == 0.0, 1.0, norms)
        return rows / safe
    raise ValueError(f"unknown normalization {kind!r}")


def normalize_rows_backward(grad: np.ndarray, rows: np.ndarray, kind: str) -> np.ndarray:
    """Gradient of normalize_rows with respect to its input rows."""
    if kind == "layer":
        centered = rows - rows.mean(axis=1, keepdims=True)
        var = (centered * centered).mean(axis=1, keepdims=True)
        scale = np.sqrt(var + LAYER_NORM_EPS)
        out = centered / scale
        g_mean = grad.mean(axis=1, keepdims=True)
        proj = (grad * out).mean(axis=1, keepdims=True)
        return (grad - g_mean - out * proj) / scale
    if kind == "l2":
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        safe = np.where(norms == 0.0, 1.0, norms)
        out = rows / safe
        proj = (grad * out).sum(axis=1, keepdims=True)
        # zero rows pass through normalize_rows unchanged, so their
        # gradient is the identity
        adjusted = np.where(norms == 0.0, grad, (grad - out * proj) / safe)
        return adjusted
    raise ValueError(f"unknown normalization {kind!r}")
