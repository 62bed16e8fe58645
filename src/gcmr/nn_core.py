"""Dense numeric primitives shared by the whole package.

Everything here works on batches: row-wise stable softmax, mean
cross-entropy over rows, the cosine learning-rate schedule, and one
SGD-with-momentum step over a name->array mapping. Inputs are validated
where data enters the package (datasets, configs), not here; labels are
checked once per objective call, by check_labels.
"""

from __future__ import annotations

import numpy as np

# Probability floor inside log() so cross-entropy stays finite.
PROB_FLOOR = 1e-12
# Variance floor used by layer normalization.
LAYER_NORM_EPS = 1e-5


class NumericalError(ArithmeticError):
    """A training computation produced non-finite values."""


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a 2-D array, as a new float64 array.

    The row max is subtracted before exponentiation, so logits as large as
    1e4 in magnitude neither overflow nor change the argmax. logits is not
    modified.
    """
    return _softmax_overwrite(np.array(logits, dtype=np.float64))


def _softmax_overwrite(buf: np.ndarray) -> np.ndarray:
    """softmax_rows written over buf, a float64 array the caller owns;
    returns buf."""
    buf -= buf.max(axis=1, keepdims=True)
    np.exp(buf, out=buf)
    buf /= buf.sum(axis=1, keepdims=True)
    return buf


def check_labels(labels: np.ndarray, n_classes: int) -> None:
    """Raise ValueError unless every label lies in [0, n_classes)."""
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("label out of range for the current class count")


def cross_entropy_rows(logits: np.ndarray, targets: np.ndarray):
    """Mean over rows of -log softmax(logits)[j, targets[j]], each
    probability clamped at the 1e-12 floor. Returns (value, probs); probs
    is a new array and logits is not modified. A target outside the
    columns raises ValueError."""
    logits = np.array(logits, dtype=np.float64)
    check_labels(targets, logits.shape[1])
    return cross_entropy_overwrite(logits, targets)


def cross_entropy_overwrite(logits: np.ndarray, targets: np.ndarray):
    """cross_entropy_rows for logits the caller owns and no longer needs:
    the softmax overwrites them, and the returned probs is that array.
    targets are not checked here: each objective checks its labels once per
    call, with check_labels."""
    n = logits.shape[0]
    probs = _softmax_overwrite(logits)
    picked = np.maximum(probs[np.arange(n), targets], PROB_FLOOR)
    # sum / n is numpy's own mean, without the dispatch of .mean()
    return float(-np.log(picked).sum() / n), probs


def cosine_lr(epoch: int, base_lr: float, min_lr: float, total_epochs: int) -> float:
    """Cosine annealing from base_lr (epoch 0) down to min_lr (last epoch)."""
    if total_epochs < 1 or not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    span = base_lr - min_lr
    return float(min_lr + span * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0)


def sgd_momentum_step(params: dict, grads: dict, velocities: dict,
                      momentum: float, lr: float, where: str = "") -> None:
    """One heavy-ball step on every named array, in place:
    v <- momentum*v + g, p <- p - lr*v.

    With momentum 0 this is bit-identical to vanilla gradient descent. A
    parameter that leaves the finite range raises NumericalError naming it
    and `where` (the training loops pass "session s, epoch e, step k");
    any non-finite gradient entry lands in its parameter, so this one check
    covers the gradients too.
    """
    for name, p in params.items():
        v = velocities[name]
        v *= momentum
        v += grads[name]
        p -= lr * v
        if not np.isfinite(p).all():
            at = f" at {where}" if where else ""
            raise NumericalError(f"parameter {name} diverged to non-finite values{at}")
