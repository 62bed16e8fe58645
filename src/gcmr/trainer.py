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
        order = rng.generator(cfg.seed, SHUFFLE_TAG, t, epoch).permutation(n)
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
    y = column_labels(labels, class_ids)
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

    def begin_epoch(epoch):
        alpha = losses.alpha_schedule(cfg.loss, epoch)

        def step(batch, step_seed):
            return losses.base_loss_backward(raw[batch], y[batch], enc, dec, head,
                                             cfg.loss, epoch, step_seed)
        return step, {"alpha": alpha}, {"reconstruction": alpha,
                                        "classification": 1.0 - alpha}

    params = {"enc_w": enc.w, "enc_b": enc.b, "dec_w": dec.w, "dec_b": dec.b,
              "mask_token": dec.mask_token,
              **{f"head_{name}": arr for name, arr in head.arrays().items()}}
    _train_session(params, raw.shape[0], cfg.base_epochs if cfg.finetune_base else 0,
                   cfg.base_lr, 0, cfg, log_sink, begin_epoch)

    enc.freeze()
    fbar = encoder.normalized_features(raw, enc)
    # one stable sort groups the rows by column, each class in row order
    by_class = np.split(fbar[np.argsort(y, kind="stable")], np.cumsum(counts)[:-1])
    class_features = dict(zip(class_ids, by_class))
    mem = init_representation_memory(class_features)
    wmem = build_weight_memory(head, mem, 0)
    return SessionState(0, enc, head, mem, wmem)


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
    y = column_labels(labels, list(state.mem.class_ids) + new_ids)
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

    _train_session(head.arrays(), raw.shape[0], cfg.incr_epochs, cfg.incr_lr, t, cfg,
                   log_sink, begin_epoch)

    new_features = {cid: fbar[labels == cid] for cid in new_ids}
    mem = update_representation_memory(state.mem, new_features, t)
    wmem = build_weight_memory(head, mem, t)
    return SessionState(t, state.encoder, head, mem, wmem)


def run_protocol(stream, cfg: TrainConfig, log_sink: LogSink | None = None,
                 on_session: Callable[[SessionState, object], None] | None = None):
    """Run the base session plus every incremental session, evaluating on
    the cumulative test set after each and then calling
    on_session(state, report). Returns (reports, final_state).

    stream is any iterable of sessions, read once and in order, so with a
    data_io.materialize_sessions sequence or a generator only the running
    session's data is alive. The encoder is frozen once the base session
    ends, so each session's test slice is encoded once, right after that
    session's training, and every evaluation scores the cached features of
    all slices seen so far."""
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
        features.append(encoder.normalized_features(session.test.features,
                                                    state.encoder))
        labels.append(np.asarray(session.test.labels))
        report = evaluate_session(state, np.concatenate(features),
                                  np.concatenate(labels), prior_acc_all=acc_history)
        acc_history.append(report.acc_all)
        reports.append(report)
        if on_session is not None:
            on_session(state, report)
        del session  # release its slices before the stream slices the next
    if state is None:
        raise ValueError("protocol stream is empty")
    return reports, state
