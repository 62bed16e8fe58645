"""Session orchestration: base finetuning, memory-regularized incremental
training, and the full class-incremental protocol loop.

The base session jointly trains encoder, decoder and head on the blended
reconstruction/classification objective, then freezes the encoder and
initializes both memories. Every later session builds its representation
memory before training, the novel class means appended to the old rows,
restores the head from weight memory, expands it by imprinting those novel
rows, and trains it on the incremental objective against a per-epoch
refreshed distance dictionary (both projected by the one hidden map,
classifier.project_batch); the memory term classifies the old rows only.
Each session ends in a data_io.SessionState of the encoder and both
memories: build_weight_memory freezes the trained head in place, and that
head is the state's only one. With that state eval_report.evaluate_session
scores the cumulative test set. All randomness is derived from the run
seed, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import classifier, encoder, eval_report, losses, rng
from .data_io import SessionState
from .memory import (build_weight_memory, column_labels, init_representation_memory,
                     update_representation_memory)
from .nn_core import NumericalError, cosine_lr, sgd_momentum_step

# Sub-stream tags for trainer-owned randomness.
INIT_TAG = 101
SHUFFLE_TAG = 102
STEP_TAG = 103

LogSink = Callable[[dict], None]


@dataclass(frozen=True)
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
    hidden_dim: int = 256
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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


def _train_session(params, n: int, epochs: int, base_lr: float, t: int, cfg: TrainConfig,
                   log_sink: LogSink | None, begin_epoch) -> None:
    """The optimizer loop of every session: `epochs` epochs of momentum SGD on
    `params` over shuffled batches of `n` rows, the learning rate annealed
    from base_lr by the cosine schedule.

    begin_epoch(epoch) returns the step function
    (batch, step_seed) -> (total, breakdown, grads), the extra log fields and
    the term weights (None when the epoch's log has no weighted terms). A
    step's gradients live until its update has been applied, so the next
    step's terms run with no other step's gradients alive. A step's
    NumericalError is raised again with its session, epoch and step."""
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
            try:
                sgd_momentum_step(params, grads, velocities, cfg.momentum, lr)
            except NumericalError as exc:
                raise NumericalError(
                    f"{exc} at session {t}, epoch {epoch}, step {step}") from None
            del grads
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

    base_session is a data_io.SessionData. Its classes come from its
    assignment, each batch is gathered through the train indices, and the
    final train features come from encoder.encode_rows, so the train rows
    are never copied whole. With base_epochs 0 (what
    `gcmr run --no-base-finetune` sets) the optimization loop is skipped
    and memories are built from the freshly initialized model.
    """
    features = base_session.features
    indices = base_session.assignment.train_indices
    class_ids = list(base_session.assignment.class_ids)
    with _session_errors(0):
        if indices.shape[0] == 0:
            raise ValueError("base session has no training examples")
        y = column_labels(base_session.labels[indices], class_ids)
        counts = np.bincount(y, minlength=len(class_ids))
        if np.any(counts == 0):
            missing = [class_ids[i] for i in np.flatnonzero(counts == 0)]
            raise ValueError(f"base classes without examples: {missing}")

        raw_dim = features.shape[2]
        enc = encoder.init_encoder(raw_dim, raw_dim)
        dec = encoder.init_decoder(raw_dim)
        head = classifier.init_classifier(raw_dim, cfg.hidden_dim, len(class_ids),
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
    _train_session(params, indices.shape[0], cfg.base_epochs, cfg.base_lr, 0, cfg,
                   log_sink, begin_epoch)

    enc.freeze()
    fbar = encoder.encode_rows(features, indices, enc)
    mem = init_representation_memory(dict(zip(class_ids, _rows_by_column(fbar, y, counts))))
    return SessionState(enc, mem, build_weight_memory(head, mem, 0))


def train_incremental(state: SessionState, session, cfg: TrainConfig,
                      log_sink: LogSink | None = None) -> SessionState:
    """One N-way K-shot session: append the novel class means to memory,
    restore the head from weight memory, imprint novel columns from the new
    memory rows, train on the incremental objective, freeze the head into
    weight memory. The encoder stays frozen throughout, and state's own head
    is only read: imprinting copies it into the new head."""
    t = state.session + 1
    indices = session.assignment.train_indices
    new_ids = list(session.assignment.class_ids)
    n_old = state.mem.n_classes
    with _session_errors(t):
        if n_old == 0:
            raise ValueError("cannot run an incremental session without memory")
        if indices.shape[0] == 0 or not new_ids:
            raise ValueError("incremental session has no training examples")
        y = column_labels(session.labels[indices], new_ids)
        counts = np.bincount(y, minlength=len(new_ids))
        if np.any(counts == 0):
            missing = [new_ids[i] for i in np.flatnonzero(counts == 0)]
            raise ValueError(f"novel classes without support examples: {missing}")
        fbar = encoder.encode_rows(session.features, indices, state.encoder)
        mem = update_representation_memory(
            state.mem, dict(zip(new_ids, _rows_by_column(fbar, y, counts))), t)
        head = classifier.expand_with_imprinting(state.wmem.classifier_snapshot,
                                                 mem.rows[n_old:])
    y += n_old  # the novel classes' columns follow the old ones
    beta = cfg.loss.beta
    weights = None
    if cfg.memory_regularization:
        weights = {"distance": beta, "memory": 1.0 - beta, "classification": 1.0 - beta}

    def begin_epoch(epoch):
        dictionary = None
        if cfg.memory_regularization:
            dictionary = losses.build_distance_dictionary(state.mem, head, mem.rows[n_old:])

        def step(batch, step_seed):
            return classifier.incremental_terms(
                fbar[batch], y[batch], state.mem.rows, dictionary, head, cfg.loss,
                step_seed, memory_regularization=cfg.memory_regularization)
        return step, {"beta": beta}, weights

    _train_session(head.arrays(), indices.shape[0], cfg.incr_epochs, cfg.incr_lr, t, cfg,
                   log_sink, begin_epoch)

    return SessionState(state.encoder, mem, build_weight_memory(head, mem, t))


def run_protocol(stream, cfg: TrainConfig, log_sink: LogSink | None = None,
                 on_session: Callable[[SessionState, object], None] | None = None):
    """Run the base session plus every incremental session, evaluating on
    the cumulative test set after each and then calling
    on_session(state, report). Returns (reports, final_state).

    stream is any iterable of data_io.SessionData, listed once before the
    base session trains. Rows are read only through each session's
    assignment indices: training gathers its batches, and every encode goes
    through encoder.encode_rows, so no copy of a session's train or test
    rows exists, a session of a RowSource reads its rows only as they are
    gathered or encoded, and the encode working set does not grow with the
    row width. The encoder is frozen once the base session ends, so each
    session's test rows are encoded once, right after that session's
    training, straight into their slice of one buffer allocated after the
    base session for every session's test rows (encode_rows' out, so no
    second copy of them exists), and every evaluation scores the filled
    prefix of it: the features of all sessions seen so far.

    Each session runs under one np.errstate that turns numpy's float
    warnings off: a training step's non-finite parameter and an evaluation's
    non-finite winning logit each end in a NumericalError naming the session,
    before on_session sees it."""
    sessions = list(stream)
    if not sessions:
        raise ValueError("protocol stream is empty")
    ends = np.cumsum([s.assignment.test_indices.shape[0] for s in sessions]).tolist()
    reports = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t, session in enumerate(sessions):
            if t == 0:
                state = train_base(session, cfg, log_sink)
                features = np.empty((ends[-1], state.encoder.dim))
                labels = np.empty(ends[-1], dtype=session.labels.dtype)
            else:
                state = train_incremental(state, session, cfg, log_sink)
            test = session.assignment.test_indices
            start, stop = ends[t] - test.shape[0], ends[t]
            encoder.encode_rows(session.features, test, state.encoder,
                                out=features[start:stop])
            labels[start:stop] = session.labels[test]
            report = eval_report.evaluate_session(
                state, features[:stop], labels[:stop],
                prior_acc_all=[r.acc_all for r in reports])
            reports.append(report)
            if on_session is not None:
                on_session(state, report)
    return reports, state
