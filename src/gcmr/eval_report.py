"""Per-session evaluation over cumulative class sets and report emission.

The encoder is frozen after the base session, so the protocol encodes each
session's test slice once (encoder.normalized_features) and keeps the pooled,
normalized features; evaluate_session scores the cumulative feature set with the
session's classifier and never calls the encoder. Predictions are the argmax
of eval-mode logits; argmax ties break toward the lowest class column, so
evaluation is deterministic. Rows are scored in fixed-size chunks, so no
(n, classes) logits array is ever held whole.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .classifier import eval_logits_batch
from .data_io import atomic_open
from .memory import column_labels, memory_budget_bytes

# Reports account memory at float32 width, the storage-budget convention.
BUDGET_PRECISION = 4
# Test rows scored per eval_logits_batch call: bounds the logits buffer at
# EVAL_CHUNK_ROWS x classes instead of the whole cumulative test set.
EVAL_CHUNK_ROWS = 1024


@dataclass
class SessionReport:
    """Accuracy breakdown after one session, over all classes seen so far."""

    session: int
    acc_all: float
    acc_base: float
    acc_novel: float | None
    per_class_acc: dict[int, float]
    memory_budget: dict[str, int]
    avg_acc_so_far: float
    n_test: int

    def to_json_dict(self) -> dict:
        """The fields in declaration order, per-class keys as strings; the
        two dicts are new, so the result shares no mutable state with self."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["per_class_acc"] = {str(k): v for k, v in self.per_class_acc.items()}
        out["memory_budget"] = dict(self.memory_budget)
        return out


def evaluate_session(state, features, test_labels,
                     prior_acc_all: Sequence[float] = ()) -> SessionReport:
    """Score the model on the cumulative test set of all classes seen so far,
    given as pooled, normalized features (n, dim) from
    encoder.normalized_features."""
    feats = np.asarray(features, dtype=np.float64)
    labels = np.asarray(test_labels)
    dim = state.classifier.dim
    if feats.ndim != 2 or feats.shape[1] != dim:
        raise ValueError(f"expected test features of shape (n, {dim}), got {feats.shape}")
    if feats.shape[0] == 0 or feats.shape[0] != labels.shape[0]:
        raise ValueError("test set is empty or misaligned")
    class_ids = state.mem.class_ids
    y = column_labels(labels, class_ids)
    predicted = np.empty(feats.shape[0], dtype=np.intp)
    for start in range(0, feats.shape[0], EVAL_CHUNK_ROWS):
        stop = start + EVAL_CHUNK_ROWS
        predicted[start:stop] = np.argmax(
            eval_logits_batch(feats[start:stop], state.classifier), axis=1)
    correct = predicted == y

    counts = np.bincount(y, minlength=len(class_ids))
    hits = np.bincount(y, weights=correct, minlength=len(class_ids))
    seen = np.flatnonzero(counts)
    per_class = dict(zip([class_ids[col] for col in seen],
                         (hits[seen] / counts[seen]).tolist()))

    is_base = (np.asarray(state.mem.session_of) == 0)[y]
    acc_all = float(correct.mean())
    acc_base = float(correct[is_base].mean()) if is_base.any() else 0.0
    acc_novel = float(correct[~is_base].mean()) if (~is_base).any() else None

    history = list(prior_acc_all) + [acc_all]
    return SessionReport(
        session=state.session,
        acc_all=acc_all,
        acc_base=acc_base,
        acc_novel=acc_novel,
        per_class_acc=per_class,
        memory_budget=memory_budget_bytes(state.mem, state.wmem, BUDGET_PRECISION),
        avg_acc_so_far=float(np.mean(history)),
        n_test=int(feats.shape[0]),
    )


def aggregate(reports: Sequence[SessionReport]) -> dict[str, float]:
    """Summary over one run: mean accuracy, final accuracy, and how much
    base-class accuracy dropped from the first to the last session."""
    if not reports:
        raise ValueError("no reports to aggregate")
    sessions = [r.session for r in reports]
    if sessions != list(range(len(reports))):
        raise ValueError(f"sessions must be contiguous from 0, got {sessions}")
    accs = [r.acc_all for r in reports]
    return {
        "avg_acc": float(np.mean(accs)),
        "final_acc": float(accs[-1]),
        "base_acc_drop": float(reports[0].acc_base - reports[-1].acc_base),
    }


def write_report(reports: Sequence[SessionReport], summary: dict, path,
                 fmt: str = "json", label: str = "run") -> None:
    """Write one run's reports either as a JSON document or as a CSV header
    and one row (session columns, average accuracy, final memory bytes),
    replacing the file atomically."""
    if fmt == "json":
        payload = {"label": label,
                   "sessions": [r.to_json_dict() for r in reports],
                   "summary": summary}
        with atomic_open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    # only the fields the table reads, without to_json_dict's per-class copy
    sessions = [{"acc_all": r.acc_all, "memory_budget": r.memory_budget} for r in reports]
    table = report_table([{"label": label, "sessions": sessions, "summary": summary}])
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(table)


def report_table(runs: Sequence[dict]) -> list[list[str]]:
    """The CSV comparison table of runs in the JSON report layout: a header,
    then per run its label, accuracy after each session, average accuracy
    and final memory bytes. Every run has as many sessions as the first."""
    table = [["run"] + [f"session_{t}" for t in range(len(runs[0]["sessions"]))]
             + ["avg_acc", "memory_bytes"]]
    for run in runs:
        sessions = run["sessions"]
        table.append([run["label"]] + [f"{s['acc_all']:.6f}" for s in sessions]
                     + [f"{run['summary']['avg_acc']:.6f}",
                        str(sessions[-1]["memory_budget"]["total"])])
    return table


def read_report(path) -> dict:
    """Load a JSON report written by write_report. ValueError when the file
    is not JSON or lacks what a report table reads: a string label, a
    non-empty session list with numeric acc_all, an integer final memory
    total and a numeric summary avg_acc."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    try:
        sessions = report["sessions"]
        valid = (isinstance(report["label"], str) and isinstance(sessions, list)
                 and len(sessions) > 0
                 and isinstance(sessions[-1]["memory_budget"]["total"], int)
                 and all(isinstance(v, (int, float)) for v in
                         [report["summary"]["avg_acc"], *(s["acc_all"] for s in sessions)]))
    except (KeyError, TypeError):
        valid = False
    if not valid:
        raise ValueError("not a report written by write_report")
    return report
