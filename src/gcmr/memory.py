"""The co-memory: class-mean representation memory and classifier weight memory.

Representation memory is append-only: each row is the mean normalized
feature of one class, computed once when the class is introduced and never
refreshed. Weight memory is a bit-exact snapshot of the classifier at the
end of a session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classifier import ClassifierParams


@dataclass(frozen=True)
class RepresentationMemory:
    """Class-mean feature rows in class-introduction order."""

    rows: np.ndarray              # (classes, dim)
    class_ids: tuple[int, ...]    # external ids, introduction order
    session_of: tuple[int, ...]   # introducing session per row

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.float64))
        if self.rows.ndim != 2:
            raise ValueError("memory rows must form a 2-D matrix")
        if len(self.class_ids) != self.rows.shape[0] or len(self.session_of) != self.rows.shape[0]:
            raise ValueError("row metadata lengths disagree")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("duplicate class id in memory")
        self.rows.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def column_labels(labels, class_ids) -> np.ndarray:
    """Classifier column of each label: the position of its id in class_ids.

    class_ids lists the classes in column order (memory rows, then the
    running session's novel classes). ValueError names every label whose id
    is not in class_ids.
    """
    ids = np.asarray(class_ids, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    pos = np.searchsorted(ids[order], y)
    found = pos < ids.size
    found[found] = ids[order[pos[found]]] == y[found]
    if not found.all():
        raise ValueError(f"labels of unknown classes: {np.unique(y[~found]).tolist()}")
    return order[pos]


@dataclass(frozen=True)
class WeightMemory:
    """Bit-exact snapshot of the classifier at the end of a session."""

    classifier_snapshot: ClassifierParams
    session: int


def _class_means(class_features: Mapping[int, Sequence], dim: int | None):
    ids, means = [], []
    for class_id, vectors in class_features.items():
        stack = np.asarray(vectors, dtype=np.float64)
        if stack.ndim != 2 or stack.shape[0] == 0:
            raise ValueError(f"class {class_id} needs at least one feature vector")
        if dim is None:
            dim = stack.shape[1]
        if stack.shape[1] != dim:
            raise ValueError(f"class {class_id} features have dim {stack.shape[1]}, expected {dim}")
        ids.append(int(class_id))
        means.append(stack.mean(axis=0))
    return ids, means, dim


def init_representation_memory(class_features: Mapping[int, Sequence]) -> RepresentationMemory:
    """One row per class: the arithmetic mean of its normalized features.

    Iteration order of the mapping fixes the row (and classifier column)
    order for the whole run.
    """
    if not class_features:
        raise ValueError("cannot initialize memory from zero classes")
    ids, means, _ = _class_means(class_features, None)
    return RepresentationMemory(np.stack(means), tuple(ids), (0,) * len(ids))


def update_representation_memory(mem: RepresentationMemory,
                                 new_class_features: Mapping[int, Sequence],
                                 session: int) -> RepresentationMemory:
    """Append rows for the session's novel classes; existing rows are reused
    verbatim (append-only, no recomputation)."""
    if not new_class_features:
        return mem
    ids, means, _ = _class_means(new_class_features, mem.dim)
    collisions = set(ids) & set(mem.class_ids)
    if collisions:
        raise ValueError(f"class ids already stored: {sorted(collisions)}")
    rows = np.concatenate([mem.rows, np.stack(means)], axis=0)
    return RepresentationMemory(rows, mem.class_ids + tuple(ids),
                                mem.session_of + (int(session),) * len(ids))


def build_weight_memory(params: ClassifierParams, mem: RepresentationMemory,
                        session: int) -> WeightMemory:
    """Snapshot the classifier that was trained on the memory's classes."""
    if params.dim != mem.dim:
        raise ValueError("classifier dim does not match memory dim")
    return WeightMemory(params.copy(), int(session))


def memory_budget_bytes(mem: RepresentationMemory, wmem: WeightMemory,
                        precision: int) -> dict[str, int]:
    """Storage footprint of both memories at 4- or 8-byte float precision."""
    if precision not in (4, 8):
        raise ValueError("precision must be 4 or 8 bytes")
    snap = wmem.classifier_snapshot
    n_params = snap.w1.size + snap.b1.size + snap.w2.size + snap.b2.size
    breakdown = {
        "representation": mem.n_classes * mem.dim * precision,
        "classifier": n_params * precision,
    }
    breakdown["total"] = sum(breakdown.values())
    return breakdown
