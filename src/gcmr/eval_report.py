"""Per-session evaluation over cumulative class sets and report emission.

Predictions are the argmax of eval-mode logits; argmax ties break toward the
lowest class column, so evaluation is deterministic. The environment
variable GCMR_THREADS (default 1) caps how many worker threads score test
chunks; aggregation is ordered, so the thread count never changes results.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import encoder
from .classifier import eval_logits_batch
from .memory import column_labels, memory_budget_bytes

# Reports account memory at float32 width, the storage-budget convention.
BUDGET_PRECISION = 4


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
        out = asdict(self)
        out["per_class_acc"] = {str(k): v for k, v in self.per_class_acc.items()}
        return out


def thread_count() -> int:
    """GCMR_THREADS as a positive integer (default 1); ValueError otherwise."""
    value = os.environ.get("GCMR_THREADS", "1")
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"GCMR_THREADS must be a positive integer, got {value!r}")
    return count


def _predict(state, features_raw: np.ndarray) -> np.ndarray:
    def score(chunk: np.ndarray) -> np.ndarray:
        fbar = encoder.normalized_features(chunk, state.encoder)
        return np.argmax(eval_logits_batch(fbar, state.classifier), axis=1)

    threads = thread_count()
    n = features_raw.shape[0]
    if threads == 1 or n < 2 * threads:
        return score(features_raw)
    chunks = np.array_split(features_raw, threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(score, chunks))
    return np.concatenate(parts)


def evaluate_session(state, test_features, test_labels,
                     prior_acc_all: Sequence[float] = ()) -> SessionReport:
    """Score the model on the cumulative test set of all classes seen so far."""
    raw = np.asarray(test_features, dtype=np.float64)
    labels = np.asarray(test_labels)
    if raw.shape[0] == 0 or raw.shape[0] != labels.shape[0]:
        raise ValueError("test set is empty or misaligned")
    y = column_labels(labels, state.mem.class_ids)
    preds = _predict(state, raw)
    correct = preds == y

    per_class: dict[int, float] = {}
    for col, cid in enumerate(state.mem.class_ids):
        hits = correct[y == col]
        if hits.size:
            per_class[cid] = float(hits.mean())

    base_cols = np.array([s == 0 for s in state.mem.session_of])
    is_base = base_cols[y]
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
        n_test=int(raw.shape[0]),
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
                 fmt: str = "json", label: str = "run", append: bool = False) -> None:
    """Write one run's reports either as a JSON document or as one CSV row
    (session columns, average accuracy, final memory bytes). In CSV append
    mode the header is emitted only when the file starts empty."""
    if fmt == "json":
        payload = {"label": label,
                   "sessions": [r.to_json_dict() for r in reports],
                   "summary": summary}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    header = (["run"] + [f"session_{r.session}" for r in reports]
              + ["avg_acc", "memory_bytes"])
    row = ([label] + [f"{r.acc_all:.6f}" for r in reports]
           + [f"{summary['avg_acc']:.6f}", str(reports[-1].memory_budget["total"])])
    mode = "a" if append else "w"
    need_header = True
    if append and os.path.exists(path) and os.path.getsize(path) > 0:
        need_header = False
    with open(path, mode, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if need_header:
            writer.writerow(header)
        writer.writerow(row)


def read_report(path) -> dict:
    """Load a JSON report written by write_report."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
