"""Session orchestration: base finetuning, memory-regularized incremental
training, and the full class-incremental protocol loop.

The base session jointly trains encoder, decoder and head on the blended
reconstruction/classification objective, then freezes the encoder and
initializes both memories. Every later session restores the head from
weight memory, expands it by imprinting the novel support means, trains it
on the incremental objective against a per-epoch refreshed distance
dictionary, and appends the novel class means to memory afterwards.
All randomness is derived from the run seed, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import classifier, encoder, losses, rng
from .memory import (RepresentationMemory, WeightMemory, build_weight_memory,
                     column_labels, init_representation_memory,
                     update_representation_memory)
from .nn_core import cosine_lr, sgd_momentum_step

# Sub-stream tags for trainer-owned randomness.
INIT_TAG = 101
SHUFFLE_TAG = 102
STEP_TAG = 103

LogSink = Callable[[dict], None]


@dataclass
class TrainConfig:
    """Hyperparameters of one protocol run."""

    base_epochs: int = 20
    incr_epochs: int = 50
    base_lr: float = 1e-3
    incr_lr: float = 2e-3
    min_lr: float = 1e-5
    momentum: float = 0.9
    batch_size: int = 32
    loss: losses.LossConfig = field(default_factory=losses.LossConfig)
    seed: int = 0
    memory_regularization: bool = True
    finetune_base: bool = True
    hidden_dim: int = 256
    feature_dim: int | None = None      # None: same as the raw token dim
    encoder_activation: str = "tanh"
    feature_norm: str = "layer"
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.base_epochs < 0 or self.incr_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not all(0.0 < lr < math.inf for lr in (self.base_lr, self.incr_lr, self.min_lr)):
            raise ValueError("learning rates must be positive and finite")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        if self.feature_dim is not None and self.feature_dim < 2:
            raise ValueError("feature_dim must be at least 2 when set")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.encoder_activation not in encoder.ACTIVATIONS:
            raise ValueError(f"encoder_activation must be one of {encoder.ACTIVATIONS}")
        if self.feature_norm not in encoder.FEATURE_NORMS:
            raise ValueError(f"feature_norm must be one of {encoder.FEATURE_NORMS}")


@dataclass
class SessionState:
    """Model and memories at the end of one session."""

    session: int
    encoder: encoder.EncoderParams
    classifier: classifier.ClassifierParams
    mem: RepresentationMemory
    wmem: WeightMemory


def _train_session(params, n: int, epochs: int, base_lr: float, t: int, cfg: TrainConfig,
                   log_sink: LogSink | None, begin_epoch) -> None:
    """The optimizer loop of every session: `epochs` epochs of momentum SGD on
    `params` over shuffled batches of `n` rows, the learning rate annealed
    from base_lr by the cosine schedule.

    begin_epoch(epoch) returns the step function
    (batch, step_seed) -> (total, breakdown, grads), the extra log fields and
    the term weights (None when the epoch's log has no weighted terms)."""
    velocities = {name: np.zeros_like(arr) for name, arr in params.items()}
    batches = range(0, n, cfg.batch_size)
    for epoch in range(epochs):
        lr = cosine_lr(epoch, base_lr, cfg.min_lr, epochs)
        step_fn, fields, weights = begin_epoch(epoch)
        order = rng.stream(cfg.seed, SHUFFLE_TAG, t, epoch).permutation(n)
        epoch_total, epoch_terms = 0.0, {}
        for step, start in enumerate(batches):
            step_seed = rng.stream_id(cfg.seed, STEP_TAG, t, epoch, step)
            total, breakdown, grads = step_fn(order[start:start + cfg.batch_size], step_seed)
            sgd_momentum_step(params, grads, velocities, cfg.momentum, lr,
                              where=f"session {t}, epoch {epoch}, step {step}")
            epoch_total += total
            for key, value in breakdown.items():
                epoch_terms[key] = epoch_terms.get(key, 0.0) + value
        if log_sink is not None:
            out = {"total": epoch_total / len(batches),
                   **{key: value / len(batches) for key, value in epoch_terms.items()}}
            if weights is not None:
                out["weighted"] = {key: w * out[key] for key, w in weights.items()}
            log_sink({"session": t, "epoch": epoch, "lr": lr, **fields,
                      "loss_breakdown": out})


def _encode_rows(features: np.ndarray, indices: np.ndarray,
                 params: encoder.EncoderParams) -> np.ndarray:
    """normalized_features of features[indices], gathered and encoded
    encoder.encode_chunk_rows rows at a time, so the selected rows are never
    copied whole and the working set stays within a few ENCODE_CHUNK_BYTES
    however wide a row is. Byte-equal to encoding features[indices] in one
    call."""
    out = np.empty((indices.shape[0], params.dim))
    rows = encoder.encode_chunk_rows(features.shape[1], params)
    for start in range(0, indices.shape[0], rows):
        chunk = indices[start:start + rows]
        out[start:start + chunk.shape[0]] = encoder.normalized_features(features[chunk], params)
    return out


@contextmanager
def _session_errors(t: int):
    """Prefix a ValueError raised in the block with "session <t>: ", so a
    session rejected before training names itself."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"session {t}: {exc}") from exc


def _rows_by_column(rows: np.ndarray, y: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """rows grouped by their column y with one stable sort: group k holds
    the counts[k] rows labelled k, in row order."""
    return np.split(rows[np.argsort(y, kind="stable")], np.cumsum(counts)[:-1])


def train_base(base_session, cfg: TrainConfig, log_sink: LogSink | None = None) -> SessionState:
    """Joint finetuning on the base classes, then memory initialization.

    Each batch is gathered from the session's dataset through its train
    indices, so the train rows are never copied whole. With finetune_base
    off (or zero epochs) the optimization loop is skipped and memories are
    built from the freshly initialized model.
    """
    features = base_session.dataset.features
    indices = base_session.assignment.train_indices
    class_ids = list(base_session.class_ids)
    with _session_errors(0):
        if indices.shape[0] == 0:
            raise ValueError("base session has no training examples")
        y = column_labels(base_session.dataset.labels[indices], class_ids)
        counts = np.bincount(y, minlength=len(class_ids))
        if np.any(counts == 0):
            missing = [class_ids[i] for i in np.flatnonzero(counts == 0)]
            raise ValueError(f"base classes without examples: {missing}")

        raw_dim = features.shape[2]
        dim = cfg.feature_dim or raw_dim
        enc = encoder.init_encoder(raw_dim, dim, cfg.encoder_activation, cfg.feature_norm)
        dec = encoder.init_decoder(dim)
        head = classifier.init_classifier(dim, cfg.hidden_dim, len(class_ids),
                                          rng.stream_id(cfg.seed, INIT_TAG),
                                          cfg.dropout_rate)

    def begin_epoch(epoch):
        alpha = losses.alpha_schedule(cfg.loss, epoch)

        def step(batch, step_seed):
            return losses.base_loss_backward(features[indices[batch]], y[batch], enc, dec,
                                             head, cfg.loss, epoch, step_seed)
        return step, {"alpha": alpha}, {"reconstruction": alpha,
                                        "classification": 1.0 - alpha}

    params = losses.base_arrays(enc.w, enc.b, dec.w, dec.b, dec.mask_token, head.arrays())
    _train_session(params, indices.shape[0], cfg.base_epochs if cfg.finetune_base else 0,
                   cfg.base_lr, 0, cfg, log_sink, begin_epoch)

    enc.freeze()
    fbar = _encode_rows(features, indices, enc)
    mem = init_representation_memory(dict(zip(class_ids, _rows_by_column(fbar, y, counts))))
    wmem = build_weight_memory(head, mem, 0)
    return SessionState(0, enc, head, mem, wmem)


def train_incremental(state: SessionState, session, cfg: TrainConfig,
                      log_sink: LogSink | None = None) -> SessionState:
    """One N-way K-shot session: restore head from weight memory, imprint
    novel columns, train on the incremental objective, update both memories.
    The encoder stays frozen throughout."""
    t = state.session + 1
    indices = session.assignment.train_indices
    new_ids = list(session.class_ids)
    n_old = state.mem.n_classes
    with _session_errors(t):
        if n_old == 0:
            raise ValueError("cannot run an incremental session without memory")
        if indices.shape[0] == 0 or not new_ids:
            raise ValueError("incremental session has no training examples")
        collisions = set(new_ids) & set(state.mem.class_ids)
        if collisions:
            raise ValueError(f"session classes already seen: {sorted(collisions)}")

        y = column_labels(session.dataset.labels[indices], list(state.mem.class_ids) + new_ids)
        counts = np.bincount(y, minlength=n_old + len(new_ids))
        if np.any(counts[n_old:] == 0):
            missing = [new_ids[i] for i in np.flatnonzero(counts[n_old:] == 0)]
            raise ValueError(f"novel classes without support examples: {missing}")
        fbar = _encode_rows(session.dataset.features, indices, state.encoder)
        new_features = dict(zip(new_ids, _rows_by_column(fbar, y, counts)[n_old:]))
        support_means = [rows.mean(axis=0) for rows in new_features.values()]

        head = classifier.expand_with_imprinting(state.wmem.classifier_snapshot,
                                                 support_means)
    beta = cfg.loss.beta
    weights = None
    if cfg.memory_regularization:
        weights = {"distance": beta, "memory": 1.0 - beta, "classification": 1.0 - beta}

    def begin_epoch(epoch):
        dictionary = None
        if cfg.memory_regularization:
            dictionary = losses.build_distance_dictionary(state.mem, head, support_means)

        def step(batch, step_seed):
            return classifier.incremental_terms(
                fbar[batch], y[batch], state.mem.rows, dictionary, head, cfg.loss,
                step_seed, memory_regularization=cfg.memory_regularization)
        return step, {"beta": beta}, weights

    _train_session(head.arrays(), indices.shape[0], cfg.incr_epochs, cfg.incr_lr, t, cfg,
                   log_sink, begin_epoch)

    mem = update_representation_memory(state.mem, new_features, t)
    wmem = build_weight_memory(head, mem, t)
    return SessionState(t, state.encoder, head, mem, wmem)


def run_protocol(stream, cfg: TrainConfig, log_sink: LogSink | None = None,
                 on_session: Callable[[SessionState, object], None] | None = None):
    """Run the base session plus every incremental session, evaluating on
    the cumulative test set after each and then calling
    on_session(state, report). Returns (reports, final_state).

    stream is any iterable of data_io.SessionData, read once and in order.
    Rows are read through each session's indices: training gathers its
    batches, and every encode gathers a chunk of at most ENCODE_CHUNK_BYTES
    at a time, so no copy of a session's train or test rows exists and the
    encode working set does not grow with the row width. The encoder is frozen
    once the base session ends, so each session's test rows are encoded
    once, right after that session's training, and every evaluation scores
    the cached features of all sessions seen so far."""
    from .eval_report import evaluate_session

    reports = []
    acc_history: list[float] = []
    features: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    state = None
    for t, session in enumerate(stream):
        if t == 0:
            state = train_base(session, cfg, log_sink)
        else:
            state = train_incremental(state, session, cfg, log_sink)
        test = session.assignment.test_indices
        features.append(_encode_rows(session.dataset.features, test, state.encoder))
        labels.append(session.dataset.labels[test])
        report = evaluate_session(state, np.concatenate(features),
                                  np.concatenate(labels), prior_acc_all=acc_history)
        acc_history.append(report.acc_all)
        reports.append(report)
        if on_session is not None:
            on_session(state, report)
    if state is None:
        raise ValueError("protocol stream is empty")
    return reports, state
