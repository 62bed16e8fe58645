"""Dense numeric primitives shared by the whole package.

Everything here works on batches: row-wise stable softmax, mean
cross-entropy over rows, the cosine learning-rate schedule, and one
SGD-with-momentum step over a name->array mapping. Inputs are validated
where data enters the package (datasets, configs), not here.
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
    """Row-wise stable softmax of a 2-D array.

    The row max is subtracted before exponentiation, so logits as large as
    1e4 in magnitude neither overflow nor change the argmax.
    """
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy_rows(logits: np.ndarray, targets: np.ndarray):
    """Mean over rows of -log softmax(logits)[j, targets[j]], each
    probability clamped at the 1e-12 floor. Returns (value, probs)."""
    n, n_classes = logits.shape
    if np.any(targets < 0) or np.any(targets >= n_classes):
        raise ValueError("label out of range for the current class count")
    probs = softmax_rows(logits)
    picked = np.maximum(probs[np.arange(n), targets], PROB_FLOOR)
    return float(-np.log(picked).mean()), probs


def cosine_lr(epoch: int, base_lr: float, min_lr: float, total_epochs: int) -> float:
    """Cosine annealing from base_lr (epoch 0) down to min_lr (last epoch)."""
    if total_epochs < 1 or not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    span = base_lr - min_lr
    return float(min_lr + span * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0)


def sgd_momentum_step(params: dict, grads: dict, velocities: dict,
                      momentum: float, lr: float) -> None:
    """One heavy-ball step on every named array, in place:
    v <- momentum*v + g, p <- p - lr*v.

    With momentum 0 this is bit-identical to vanilla gradient descent. A
    parameter that leaves the finite range raises NumericalError naming it;
    any non-finite gradient entry lands in its parameter, so this one check
    covers the gradients too.
    """
    for name, p in params.items():
        v = velocities[name]
        v *= momentum
        v += grads[name]
        p -= lr * v
        if not np.isfinite(p).all():
            raise NumericalError(f"parameter {name} diverged to non-finite values")
