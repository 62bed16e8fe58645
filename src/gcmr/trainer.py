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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import classifier, encoder, losses, rng
from .memory import (RepresentationMemory, WeightMemory, build_weight_memory,
                     init_representation_memory, update_representation_memory)
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


def _column_labels(labels, class_ids) -> np.ndarray:
    col_of = {cid: i for i, cid in enumerate(class_ids)}
    out = np.empty(len(labels), dtype=np.int64)
    for i, label in enumerate(labels):
        if int(label) not in col_of:
            raise ValueError(f"label {label} is not part of this session's classes")
        out[i] = col_of[int(label)]
    return out


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_base(base_session, cfg: TrainConfig, log_sink: LogSink | None = None) -> SessionState:
    """Joint finetuning on the base classes, then memory initialization.

    With finetune_base off (or zero epochs) the optimization loop is
    skipped and memories are built from the freshly initialized model.
    """
    raw = np.asarray(base_session.train.features, dtype=np.float64)
    labels = np.asarray(base_session.train.labels)
    class_ids = list(base_session.class_ids)
    if raw.shape[0] == 0:
        raise ValueError("base session has no training examples")
    y = _column_labels(labels, class_ids)
    counts = np.bincount(y, minlength=len(class_ids))
    if np.any(counts == 0):
        missing = [class_ids[i] for i in np.flatnonzero(counts == 0)]
        raise ValueError(f"base classes without examples: {missing}")

    raw_dim = raw.shape[2]
    dim = cfg.feature_dim or raw_dim
    enc = encoder.init_encoder(raw_dim, dim, cfg.encoder_activation, cfg.feature_norm)
    dec = encoder.init_decoder(dim)
    head = classifier.init_classifier(dim, cfg.hidden_dim, len(class_ids),
                                      rng.stream_id(cfg.seed, INIT_TAG),
                                      cfg.dropout_rate)

    n = raw.shape[0]
    if cfg.finetune_base and cfg.base_epochs > 0:
        params = {"enc_w": enc.w, "enc_b": enc.b, "dec_w": dec.w, "dec_b": dec.b,
                  "mask_token": dec.mask_token,
                  **{f"head_{name}": arr for name, arr in head.arrays().items()}}
        velocities = {name: np.zeros_like(arr) for name, arr in params.items()}
        for epoch in range(cfg.base_epochs):
            lr = cosine_lr(epoch, cfg.base_lr, cfg.min_lr, cfg.base_epochs)
            order = rng.generator(cfg.seed, SHUFFLE_TAG, 0, epoch).permutation(n)
            epoch_total, epoch_terms, steps = 0.0, {"reconstruction": 0.0, "classification": 0.0}, 0
            for step, batch in enumerate(_batches(n, cfg.batch_size, order)):
                step_seed = rng.stream_id(cfg.seed, STEP_TAG, 0, epoch, step)
                total, breakdown, grads = losses.base_loss_backward(
                    raw[batch], y[batch], enc, dec, head, cfg.loss, epoch, step_seed)
                sgd_momentum_step(params, grads, velocities, cfg.momentum, lr)
                epoch_total += total
                for key in epoch_terms:
                    epoch_terms[key] += breakdown[key]
                steps += 1
            if log_sink is not None:
                log_sink({"session": 0, "epoch": epoch, "lr": lr,
                          "alpha": losses.alpha_schedule(cfg.loss, epoch),
                          "loss_breakdown": _base_epoch_breakdown(
                              epoch_total, epoch_terms, steps,
                              losses.alpha_schedule(cfg.loss, epoch))})

    enc.freeze()
    fbar = encoder.normalized_features(raw, enc)
    class_features = {cid: fbar[y == col] for col, cid in enumerate(class_ids)}
    mem = init_representation_memory(class_features)
    wmem = build_weight_memory(head, mem, 0)
    return SessionState(0, enc, head, mem, wmem)


def _base_epoch_breakdown(total, terms, steps, alpha):
    out = {"total": total / steps,
           "reconstruction": terms["reconstruction"] / steps,
           "classification": terms["classification"] / steps}
    out["weighted"] = {"reconstruction": alpha * out["reconstruction"],
                       "classification": (1.0 - alpha) * out["classification"]}
    return out


def train_incremental(state: SessionState, session, cfg: TrainConfig,
                      log_sink: LogSink | None = None) -> SessionState:
    """One N-way K-shot session: restore head from weight memory, imprint
    novel columns, train on the incremental objective, update both memories.
    The encoder stays frozen throughout."""
    if state.mem.n_classes == 0:
        raise ValueError("cannot run an incremental session without memory")
    raw = np.asarray(session.train.features, dtype=np.float64)
    labels = np.asarray(session.train.labels)
    new_ids = list(session.class_ids)
    if raw.shape[0] == 0 or not new_ids:
        raise ValueError("incremental session has no training examples")
    collisions = set(new_ids) & set(state.mem.class_ids)
    if collisions:
        raise ValueError(f"session classes already seen: {sorted(collisions)}")

    t = state.session + 1
    fbar = encoder.normalized_features(raw, state.encoder)
    support_means = []
    for cid in new_ids:
        rows = fbar[labels == cid]
        if rows.shape[0] == 0:
            raise ValueError(f"novel class {cid} has no support examples")
        support_means.append(rows.mean(axis=0))

    head = classifier.expand_with_imprinting(state.wmem.classifier_snapshot,
                                             support_means)
    c_old = state.mem.n_classes
    all_ids = list(state.mem.class_ids) + new_ids
    y = _column_labels(labels, all_ids)

    n = raw.shape[0]
    if cfg.incr_epochs > 0:
        params = head.arrays()
        velocities = {name: np.zeros_like(arr) for name, arr in params.items()}
        provisional = list(zip(range(c_old, c_old + len(new_ids)), support_means))
        for epoch in range(cfg.incr_epochs):
            lr = cosine_lr(epoch, cfg.incr_lr, cfg.min_lr, cfg.incr_epochs)
            dictionary = None
            if cfg.memory_regularization:
                dictionary = losses.build_distance_dictionary(
                    state.mem, head, provisional, cfg.loss.distance_space)
            order = rng.generator(cfg.seed, SHUFFLE_TAG, t, epoch).permutation(n)
            epoch_total, epoch_terms, steps = 0.0, {}, 0
            for step, batch in enumerate(_batches(n, cfg.batch_size, order)):
                step_seed = rng.stream_id(cfg.seed, STEP_TAG, t, epoch, step)
                total, breakdown, grads = classifier.incremental_terms(
                    fbar[batch], y[batch], state.mem.rows, dictionary, head,
                    cfg.loss, step_seed,
                    memory_regularization=cfg.memory_regularization)
                sgd_momentum_step(params, grads, velocities, cfg.momentum, lr)
                epoch_total += total
                for key, value in breakdown.items():
                    epoch_terms[key] = epoch_terms.get(key, 0.0) + value
                steps += 1
            if log_sink is not None:
                log_sink({"session": t, "epoch": epoch, "lr": lr,
                          "beta": cfg.loss.beta,
                          "loss_breakdown": _incremental_epoch_breakdown(
                              epoch_total, epoch_terms, steps, cfg)})

    new_features = {cid: fbar[labels == cid] for cid in new_ids}
    mem = update_representation_memory(state.mem, new_features, t)
    wmem = build_weight_memory(head, mem, t)
    return SessionState(t, state.encoder, head, mem, wmem)


def _incremental_epoch_breakdown(total, terms, steps, cfg):
    out = {"total": total / steps}
    for key, value in terms.items():
        out[key] = value / steps
    if cfg.memory_regularization:
        beta = cfg.loss.beta
        out["weighted"] = {"distance": beta * out["distance"],
                           "memory": (1.0 - beta) * out["memory"],
                           "classification": (1.0 - beta) * out["classification"]}
    return out


def run_protocol(stream, cfg: TrainConfig, log_sink: LogSink | None = None,
                 on_session: Callable[[SessionState, object], None] | None = None):
    """Run the base session plus every incremental session, evaluating on
    the cumulative test set after each and then calling
    on_session(state, report). Returns (reports, final_state)."""
    from .eval_report import evaluate_session

    stream = list(stream)
    if not stream:
        raise ValueError("protocol stream is empty")
    reports = []
    acc_history: list[float] = []
    test_features: list[np.ndarray] = []
    test_labels: list[np.ndarray] = []
    state = None
    for t, session in enumerate(stream):
        if t == 0:
            state = train_base(session, cfg, log_sink)
        else:
            state = train_incremental(state, session, cfg, log_sink)
        test_features.append(np.asarray(session.test.features, dtype=np.float64))
        test_labels.append(np.asarray(session.test.labels))
        report = evaluate_session(state,
                                  np.concatenate(test_features, axis=0),
                                  np.concatenate(test_labels, axis=0),
                                  prior_acc_all=acc_history)
        acc_history.append(report.acc_all)
        reports.append(report)
        if on_session is not None:
            on_session(state, report)
    return reports, state
