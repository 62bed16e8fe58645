"""Spans around calls into gcmr's modules, recorded from outside the package.

A traced worker replaces module attributes with timing wrappers before the
job starts; the package's source is never edited, and untraced workers never
import this file. Spans are kept in memory and written out when the job
ends. Every span records its name, start, end, parent span and run id, plus
one per-call quantity where a metric needs it (rows encoded, bytes of the
distance tensor, ...).

Some functions are bound with ``from ... import`` inside their callers, so
they are wrapped at the importing module: ``trainer.sgd_momentum_step``,
``trainer.build_weight_memory``, ``trainer.update_representation_memory``
and ``eval_report.eval_logits_batch``. ``run_protocol`` imports
``evaluate_session`` at call time, so wrapping ``eval_report`` covers it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


def _rows(index):
    return lambda args, kwargs: int(args[index].shape[0])


def _distance_tensor_bytes(args, kwargs):
    # features (n, dim) against dictionary rows (rows, width): the
    # (n, rows, width) float64 difference tensor of _distance_ce_with_grads
    rows = args[2].projected_rows
    return int(args[0].shape[0]) * rows.shape[0] * rows.shape[1] * 8


# (module, attribute, span name, per-call quantity). The span name is
# "<module that owns the code>.<what it does>", so self time can be summed
# per module even where the wrapper sits on the importing module.
TARGETS = [
    ("trainer", "run_protocol", "trainer.run_protocol", None),
    ("trainer", "train_base", "trainer.train_base", None),
    ("trainer", "train_incremental", "trainer.train_incremental", None),
    ("trainer", "sgd_momentum_step", "nn_core.sgd_momentum_step", None),
    ("trainer", "build_weight_memory", "memory.build_weight_memory", None),
    ("trainer", "update_representation_memory",
     "memory.update_representation_memory", None),
    ("losses", "base_loss_backward", "losses.base_loss_backward", _rows(0)),
    ("losses", "build_distance_dictionary", "losses.build_distance_dictionary", None),
    ("encoder", "mask_features", "encoder.mask_features", None),
    ("encoder", "reconstruct", "encoder.reconstruct", None),
    ("encoder", "normalized_features", "encoder.normalized_features", _rows(0)),
    ("rng", "generator", "rng.generator", None),
    ("classifier", "incremental_terms", "classifier.incremental_terms", _rows(0)),
    ("classifier", "_mean_ce_with_grads", "classifier.ce_terms", None),
    ("classifier", "_distance_ce_with_grads", "classifier.distance_term",
     _distance_tensor_bytes),
    ("classifier", "dropout_scale", "classifier.dropout_scale", None),
    ("eval_report", "evaluate_session", "eval_report.evaluate_session", _rows(1)),
    ("eval_report", "eval_logits_batch", "classifier.eval_logits_batch", None),
    ("data_io", "generate_synthetic", "data_io.generate_synthetic", None),
    ("data_io", "load_features", "data_io.load_features", None),
    ("data_io", "save_checkpoint", "data_io.save_checkpoint", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder; `install` wraps every target once."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, amount=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            on_main = stack is tracer._main_stack
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first span hangs under the main thread's
                # current span, which is waiting for it
                parent = tracer._main_stack[-1] if (not on_main and tracer._main_stack) else -1
            sid = next(tracer._ids)
            qty = amount(args, kwargs) if amount is not None else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, on_main, qty))

        return traced

    def install(self, modules: dict) -> None:
        for module_name, attr, name, amount in TARGETS:
            module = modules[module_name]
            setattr(module, attr, self.wrap(getattr(module, attr), name, amount))

    def write(self, path: str) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, on_main, qty in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "main_thread": on_main, "amount": qty,
                                     "run": self.run_id}) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _overlap(start: float, end: float, windows) -> float:
    return sum(max(0.0, min(end, w_end) - max(start, w_start))
               for w_start, w_end in windows)


def self_times(spans: list[dict], windows) -> dict[int, float]:
    """Self time of every main-thread span inside the windows: its overlap
    with them minus the overlap of its main-thread children. Pool-thread
    spans run while their main-thread parent waits, so that wait stays the
    parent's self time."""
    own = {s["id"]: _overlap(s["start"], s["end"], windows)
           for s in spans if s["main_thread"]}
    out = dict(own)
    for s in spans:
        if s["main_thread"] and s["parent"] in out:
            out[s["parent"]] -= own[s["id"]]
    return out

