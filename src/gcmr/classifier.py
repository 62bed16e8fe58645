"""Two-layer classification head: batched hidden projection and eval
logits, analytic gradients of the memory-regularized incremental objective,
and imprinting-based expansion for novel classes.

Head layout: hidden = ReLU(W1^T f + b1) with inverted dropout in train mode,
logits = W2^T hidden + b2. The hidden map doubles as the projection applied
to memory rows when building distance dictionaries, so examples and stored
class means are always compared in the same activation space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .nn_core import cross_entropy_rows

# Sub-stream tags keeping the dropout noise of the loss terms that share one
# optimization step independent of each other.
DROPOUT_STREAM = 0x64726F70
CLASSIFICATION_TAG = 1
MEMORY_TAG = 2
INIT_STREAM = 0x696E6974


@dataclass
class ClassifierParams:
    """Parameters of the two-layer head over C classes."""

    w1: np.ndarray  # (dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, classes)
    b2: np.ndarray  # (classes,)
    dropout_rate: float = 0.1

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.b1.shape != (self.w1.shape[1],):
            raise ValueError("first layer shapes disagree")
        if self.w2.ndim != 2 or self.w2.shape[0] != self.w1.shape[1]:
            raise ValueError("layer widths disagree")
        if self.b2.shape != (self.w2.shape[1],):
            raise ValueError("output bias shape disagrees")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")

    @property
    def dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        """The trainable arrays by name (the arrays themselves, not copies)."""
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.w1.copy(), self.b1.copy(),
                                self.w2.copy(), self.b2.copy(), self.dropout_rate)

    def state_bytes(self) -> bytes:
        return b"|".join([self.w1.tobytes(), self.b1.tobytes(),
                          self.w2.tobytes(), self.b2.tobytes()])


def init_classifier(dim: int, hidden: int, n_classes: int, seed: int,
                    dropout_rate: float = 0.1) -> ClassifierParams:
    """Scaled-normal weights, zero biases, deterministic in the seed."""
    gen = rng.generator(seed, INIT_STREAM)
    w1 = gen.standard_normal((dim, hidden)) / np.sqrt(dim)
    w2 = gen.standard_normal((hidden, n_classes)) / np.sqrt(hidden)
    return ClassifierParams(w1, np.zeros(hidden), w2, np.zeros(n_classes), dropout_rate)


def dropout_scale(n_rows: int, n_units: int, rate: float, seed: int) -> np.ndarray:
    """(n_rows, n_units) inverted-dropout multipliers from one draw: 0 for
    dropped units, 1/(1-rate) otherwise."""
    if rate == 0.0:
        return np.ones((n_rows, n_units))
    keep = rng.generator(seed, DROPOUT_STREAM).random((n_rows, n_units)) >= rate
    return keep / (1.0 - rate)


def project_batch(features: np.ndarray, params: ClassifierParams) -> np.ndarray:
    """Hidden-space image ReLU(W1^T f + b1) of each (n, dim) row, dropout-free.

    Applied both to example features and to memory rows, so distances are
    measured between comparably transformed vectors.
    """
    return np.maximum(features @ params.w1 + params.b1, 0.0)


def eval_logits_batch(features: np.ndarray, params: ClassifierParams) -> np.ndarray:
    """Eval-mode logits for a (n, dim) feature batch."""
    return project_batch(features, params) @ params.w2 + params.b2


def _mean_ce_with_grads(inputs, targets, params, dropout_seed, compute_grads):
    """Train-mode cross-entropy mean over rows of `inputs`, plus head grads.

    inputs: (n, dim); targets: (n,) column indices; the dropout masks of all
    rows come from one draw of the dropout_seed stream. Gradients are
    already divided by n (they are gradients of the mean).
    """
    n = inputs.shape[0]
    z1 = inputs @ params.w1 + params.b1
    relu = np.maximum(z1, 0.0)
    scales = dropout_scale(n, params.hidden, params.dropout_rate, dropout_seed)
    hidden = relu * scales
    logits = hidden @ params.w2 + params.b2
    value, probs = cross_entropy_rows(logits, targets)
    if not compute_grads:
        return value, None
    dlogits = probs
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    dz1 = (dlogits @ params.w2.T) * scales * (z1 > 0)
    return value, {"w1": inputs.T @ dz1, "b1": dz1.sum(axis=0),
                   "w2": hidden.T @ dlogits, "b2": dlogits.sum(axis=0)}


def _distance_ce_with_grads(features, rows_idx, dictionary, params, compute_grads):
    """Mean cross-entropy over negated squared distances to dictionary rows.

    features: (n, dim) already restricted to examples that have a dictionary
    row; rows_idx: their target row indices. In hidden space the gradient
    flows through the projection of the example features; dictionary rows are
    constants within a step, and feature-space distances involve no head
    parameter at all (empty gradients).
    """
    n = features.shape[0]
    rows = dictionary.projected_rows
    if dictionary.space == "hidden":
        z1 = features @ params.w1 + params.b1
        points = np.maximum(z1, 0.0)
    else:
        points = features
    # Gram form |p|^2 + |r|^2 - 2 p.r, without an (n, rows, width) tensor
    d2 = ((points * points).sum(axis=1)[:, None] + (rows * rows).sum(axis=1)
          - 2.0 * (points @ rows.T))
    value, probs = cross_entropy_rows(-d2, rows_idx)
    if not compute_grads or dictionary.space != "hidden":
        return value, {}
    coeff = probs
    coeff[np.arange(n), rows_idx] -= 1.0               # q - t
    dpoints = 2.0 * (coeff @ rows) / n
    dz1 = dpoints * (z1 > 0)
    return value, {"w1": features.T @ dz1, "b1": dz1.sum(axis=0)}


def _blend(params: ClassifierParams, weighted) -> dict[str, np.ndarray]:
    """sum_k weight_k * grads_k per head array, accumulated from zeros in
    the given order; arrays missing from a term count as zero."""
    out = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    for weight, grads in weighted:
        for name, grad in grads.items():
            out[name] += weight * grad
    return out


def incremental_terms(features, labels, memory_rows, dictionary, params, cfg, seed,
                      *, memory_regularization: bool = True, compute_grads: bool = True):
    """Value, unweighted per-term breakdown, and head gradients (a dict
    keyed like ClassifierParams.arrays) of the incremental objective on one
    batch.

    features: (n, dim) normalized example features; labels: class columns.
    memory_rows: (m, dim) stored class means whose targets are their own row
    positions (memory order matches classifier column order). dictionary:
    rows to measure squared distances against; may be None when
    memory_regularization is off. Weighting: beta * distance +
    (1 - beta) * (memory + classification); off mode keeps the
    classification term alone.
    """
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("expected a non-empty (n, dim) feature batch")
    if features.shape[1] != params.dim:
        raise ValueError("feature dim does not match classifier dim")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (features.shape[0],):
        raise ValueError("labels must align with features")

    cls_value, cls_grads = _mean_ce_with_grads(
        features, y, params, rng.stream_id(seed, CLASSIFICATION_TAG), compute_grads)

    if not memory_regularization:
        grads = _blend(params, [(1.0, cls_grads)]) if compute_grads else None
        return cls_value, {"classification": cls_value}, grads

    if memory_rows.ndim != 2 or memory_rows.shape[0] == 0:
        raise ValueError("memory rows must be a non-empty (m, dim) matrix")
    m = memory_rows.shape[0]
    if m > params.n_classes:
        raise ValueError("more memory rows than classifier columns")
    mem_value, mem_grads = _mean_ce_with_grads(
        memory_rows, np.arange(m), params, rng.stream_id(seed, MEMORY_TAG), compute_grads)

    row_of = {cls: i for i, cls in enumerate(dictionary.row_class)}
    keep, rows_idx = [], []
    for j, yj in enumerate(y):
        row = row_of.get(int(yj))
        if row is None:
            if cfg.novel_label_handling == "ignore":
                continue
            raise ValueError(f"no dictionary row for label {yj}")
        keep.append(j)
        rows_idx.append(row)
    dist_value, dist_grads = 0.0, {}
    if keep:
        dist_value, dist_grads = _distance_ce_with_grads(
            features[keep], np.asarray(rows_idx), dictionary, params, compute_grads)

    beta = cfg.beta
    total = beta * dist_value + (1.0 - beta) * (mem_value + cls_value)
    breakdown = {"distance": dist_value, "memory": mem_value,
                 "classification": cls_value}
    grads = None
    if compute_grads:
        grads = _blend(params, [(beta, dist_grads), (1.0 - beta, mem_grads),
                                (1.0 - beta, cls_grads)])
    return total, breakdown, grads


def expand_with_imprinting(params: ClassifierParams, novel_class_means) -> ClassifierParams:
    """Append one output column per novel class, imprinted from its support mean.

    Each new column is the hidden-space projection of the class mean scaled
    to unit norm (a zero projection stays zero); its bias starts at 0. All
    pre-existing parameters are copied verbatim, never modified.
    """
    means = list(novel_class_means)
    if not means:
        return params.copy()
    columns = project_batch(np.stack(means), params).T    # (hidden, novel)
    norms = np.linalg.norm(columns, axis=0)
    columns = columns / np.where(norms > 0.0, norms, 1.0)
    w2 = np.concatenate([params.w2, columns], axis=1)
    b2 = np.concatenate([params.b2, np.zeros(len(means))])
    return ClassifierParams(params.w1.copy(), params.b1.copy(), w2, b2,
                            params.dropout_rate)
