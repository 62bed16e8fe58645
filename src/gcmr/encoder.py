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

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.w.copy(), self.b.copy(), self.activation,
                             self.feature_norm, self.frozen)

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

    def copy(self) -> "DecoderParams":
        return DecoderParams(self.w.copy(), self.b.copy(), self.mask_token.copy())


@dataclass(frozen=True)
class MaskPlan:
    """Which token indices of a group were hidden, and how the choice was made."""

    masked_indices: tuple[int, ...]
    n_tokens: int
    ratio: float
    seed: int

    def __post_init__(self):
        if len(set(self.masked_indices)) != len(self.masked_indices):
            raise ValueError("masked indices must be unique")
        if any(not 0 <= i < self.n_tokens for i in self.masked_indices):
            raise ValueError("masked index out of range")


def init_encoder(raw_dim: int, dim: int, activation: str = "tanh",
                 feature_norm: str = "layer") -> EncoderParams:
    """Identity-like deterministic initialization (rectangular eye, zero bias)."""
    return EncoderParams(np.eye(raw_dim, dim), np.zeros(dim), activation, feature_norm)


def init_decoder(dim: int) -> DecoderParams:
    return DecoderParams(np.eye(dim), np.zeros(dim), np.zeros(dim))


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    return np.tanh(z) if activation == "tanh" else z


def activation_grad(outputs: np.ndarray, activation: str) -> np.ndarray:
    """d(activation)/d(pre-activation) expressed through the outputs."""
    if activation == "tanh":
        return 1.0 - outputs * outputs
    return np.ones_like(outputs)


def encode_batch(raw_tokens, params: EncoderParams) -> np.ndarray:
    """Map a (n, tokens, raw_dim) stack of groups into feature space;
    deterministic."""
    raw = np.asarray(raw_tokens, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[2] != params.raw_dim:
        raise ValueError("expected raw tokens of shape (n, tokens, raw_dim)")
    return _activate(raw @ params.w + params.b, params.activation)


def mask_features(group, ratio: float, seed: int):
    """Hide a uniform random subset of round(ratio * tokens) token rows.

    Returns (visible, plan): the unmasked rows in their original order and
    the plan needed to reconstruct the full group. The subset is a function
    of the seed alone, so identical calls give identical plans.
    """
    feats = np.asarray(group, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 2:
        raise ValueError("expected a (tokens, dim) group with >= 2 tokens")
    if not 0.0 <= ratio < 1.0:
        raise ValueError("mask ratio must lie in [0, 1)")
    n_tokens = feats.shape[0]
    n_masked = int(round(ratio * n_tokens))
    if n_masked >= n_tokens:
        raise ValueError("mask ratio would hide every token")
    order = rng.generator(seed, MASK_STREAM).permutation(n_tokens)
    masked = tuple(sorted(int(i) for i in order[:n_masked]))
    keep = np.ones(n_tokens, dtype=bool)
    keep[list(masked)] = False
    return feats[keep], MaskPlan(masked, n_tokens, float(ratio), int(seed))


def reconstruct(visible, plan: MaskPlan, dec: DecoderParams) -> np.ndarray:
    """Decode the full group: visible rows pass through, masked rows start
    from the learned mask token, then every row gets the affine decoder."""
    vis = np.asarray(visible, dtype=np.float64)
    n_masked = len(plan.masked_indices)
    if vis.ndim != 2 or vis.shape[0] != plan.n_tokens - n_masked:
        raise ValueError("visible rows disagree with the mask plan")
    if vis.shape[1] != dec.dim:
        raise ValueError("feature dim does not match decoder dim")
    filled = np.empty((plan.n_tokens, dec.dim))
    masked = np.zeros(plan.n_tokens, dtype=bool)
    masked[list(plan.masked_indices)] = True
    filled[~masked] = vis
    filled[masked] = dec.mask_token
    return filled @ dec.w + dec.b


def normalized_features(raw_tokens, params: EncoderParams) -> np.ndarray:
    """encode -> mean-pool -> normalize for a (n, tokens, raw_dim) batch.

    This is the feature every classifier input and memory row is built from.
    """
    feats = encode_batch(raw_tokens, params)
    pooled = feats.mean(axis=1)
    return normalize_rows(pooled, params.feature_norm)


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
