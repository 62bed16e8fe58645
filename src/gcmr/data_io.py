"""Session types, protocol construction, synthetic data, and file formats.

Binary format (all integers little-endian):

    offset 0   magic  b"GCMR"
    offset 4   u16    format version of the kind (FORMAT_VERSION)
    offset 6   u8     kind: 1 = token dataset, 2 = session checkpoint
    offset 7   u8     float width in bytes, always 8
    ...        kind-specific sections (shapes, class tables, row-major
               float64 payloads)
    trailer    u32    CRC32 of every preceding byte

Every load failure is a FormatError carrying the byte offset where the
problem was detected; a width other than 8 fails at offset 7. Every float
payload must be finite. Round trips are bit-exact for all finite float64
values, signed zeros included.

A checkpoint holds a SessionState: session index, encoder, classifier head
and representation memory. load_checkpoint freezes the head it read into
weight memory with build_weight_memory, as the trainer does, so a loaded
state has the shape of a trained one.

A load is one sequential pass over an open file, read from the handle that
read its magic: a running CRC covers every byte, every float section is
scanned for non-finite values as it is read, and nothing is allocated for
a size the rest of the file cannot hold. A structural error met on the way
is raised only after the checksum matched, so a corrupt file reports its
checksum first. A dataset load (load_features) streams the payload through
one buffer of CHUNK_BYTES, checksummed and scanned, and keeps only the
labels. Its RowSource's sessions hold no rows: each reads the rows a reader
indexes, from the handle that validated the file, each time it indexes
them, so a training batch is read when it is gathered and an encode reads
chunk by chunk. Every read first checks that the file's inode, size and
modification time are unchanged, reads the rows in the order asked with
one os.preadv per run of consecutive rows, and scans the rows it read
again. Writers stream the header parts and payload arrays into the file
with a running CRC, without assembling the file in memory.

CSV ingestion accepts two layouts: flat features with header
``label,f0,...,f{D-1}`` (one single-token example per line) and token groups
with header ``label,token,f0,...`` where token indices 0..G-1 delimit
examples.

Every writer goes through atomic_open, so an interrupted write leaves the
previous file in place rather than a partial one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng
from .classifier import ClassifierParams
from .encoder import EncoderParams
from .memory import RepresentationMemory, WeightMemory, build_weight_memory

FORMAT_MAGIC = b"GCMR"
KIND_DATASET = 1
KIND_CHECKPOINT = 2
# versioned per kind, so a new checkpoint layout leaves datasets loadable
FORMAT_VERSION = {KIND_DATASET: 1, KIND_CHECKPOINT: 3}

SPLIT_TAG = 201
SYNTH_TAG = 202


class FormatError(Exception):
    """A malformed or mismatched data file, checksum-valid ones included
    whose fields the model rejects, e.g. duplicate memory class ids, a
    dropout rate outside [0, 1) or a non-finite float."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class ProtocolSpec:
    """Shape of a class-incremental experiment."""

    total_classes: int
    base_classes: int
    n_way: int
    k_shot: int
    seed: int = 0
    test_per_class: int = 10

    def __post_init__(self):
        if min(self.total_classes, self.base_classes, self.n_way,
               self.k_shot, self.test_per_class) < 1:
            raise ValueError("protocol counts must be positive")
        if self.base_classes > self.total_classes:
            raise ValueError("base_classes cannot exceed total_classes")
        if (self.total_classes - self.base_classes) % self.n_way != 0:
            raise ValueError("incremental classes must divide evenly into n_way sessions")

    @property
    def n_sessions(self) -> int:
        """Incremental session count (the base session comes on top)."""
        return (self.total_classes - self.base_classes) // self.n_way


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian cluster generator settings."""

    d: int
    g: int
    n_classes: int
    class_mean_norm: float
    within_class_sigma: float
    examples_per_class: int
    seed: int = 0

    def __post_init__(self):
        if min(self.d, self.g, self.n_classes, self.examples_per_class) < 1:
            raise ValueError("synthetic dimensions and counts must be positive")
        if self.g < 2:
            raise ValueError("g must be at least 2 tokens")
        if self.d < 2:
            raise ValueError("d must be at least 2: the base encoder's layer norm "
                             "needs two features per token")
        if not 0.0 < self.within_class_sigma < math.inf:
            raise ValueError("within_class_sigma must be positive and finite")
        if not 0.0 < self.class_mean_norm < math.inf:
            raise ValueError("class_mean_norm must be positive and finite")


@dataclass
class TokenDataset:
    """Raw token groups with integer labels; rejects non-finite features."""

    features: np.ndarray  # (n, g, d)
    labels: np.ndarray    # (n,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 3:
            raise ValueError("features must have shape (n, tokens, dim)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features")
        # One whole-array scan, on purpose: freeing its large boolean
        # temporary raises glibc's mmap threshold above the protocol's
        # MB-sized temporaries, which run_protocol's CPU relies on for a
        # generated dataset. In `gcmr run`, whose load scans per chunk, the
        # freed CHUNK_BYTES buffer raises it instead.
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite entries")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class SessionAssignment:
    """Index-level train/test split of one session."""

    session: int
    class_ids: tuple[int, ...]
    train_indices: np.ndarray
    test_indices: np.ndarray


@dataclass(frozen=True)
class SessionData:
    """One session: the dataset's features and labels and the assignment
    that picks the session's rows from them. Every reader gathers its rows
    through the assignment's train_indices and test_indices, as
    features[indices] and labels[indices]. features is the dataset's
    (n, tokens, dim) array, or in a session of a binary file's RowSource a
    SessionRows that holds no rows."""

    features: np.ndarray | SessionRows
    labels: np.ndarray
    assignment: SessionAssignment


@dataclass(frozen=True)
class SessionState:
    """What carries from one session to the next: the encoder and the
    co-memory. The session index and the classifier head are the weight
    memory's, so a state holds its one head, read-only, whether training or
    load_checkpoint made it."""

    encoder: EncoderParams
    mem: RepresentationMemory
    wmem: WeightMemory

    @property
    def session(self) -> int:
        return self.wmem.session

    @property
    def classifier(self) -> ClassifierParams:
        return self.wmem.classifier_snapshot


def fscil_split(spec: ProtocolSpec, labels) -> list[SessionAssignment]:
    """Assign classes and examples to the base plus incremental sessions.

    Classes are shuffled by the spec seed; the first base_classes become
    session 0, the rest form n_way-sized sessions in shuffle order. Per
    class, test_per_class examples are held out for testing; base classes
    train on everything else, incremental classes on exactly k_shot
    examples. Identical seeds give identical splits.

    One stable argsort groups the example indices by class (ascending ids,
    ascending indices within a class). The class order is drawn from
    rng.stream(seed, SPLIT_TAG), and the class at position pos of that
    order shuffles its indices in place from
    rng.stream(seed, SPLIT_TAG, pos + 1).
    """
    labels = np.asarray(labels, dtype=np.int64)
    by_class = np.argsort(labels, kind="stable")
    grouped = labels[by_class]
    first = np.ones(grouped.shape[0], dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
    bounds = np.append(np.flatnonzero(first), grouped.shape[0])
    classes = grouped[bounds[:-1]].tolist()
    if len(classes) != spec.total_classes:
        raise ValueError(f"dataset has {len(classes)} classes, spec expects {spec.total_classes}")
    order = rng.stream(spec.seed, SPLIT_TAG).permutation(len(classes)).tolist()

    needed = spec.k_shot + spec.test_per_class
    counts = np.diff(bounds)
    short = np.flatnonzero(counts[order] < needed)
    if short.size:
        c = order[short[0]]
        raise ValueError(f"class {classes[c]} has {counts[c]} examples, needs at least {needed}")
    per_class = []
    for pos, c in enumerate(order):
        idx = by_class[bounds[c]:bounds[c + 1]]
        rng.stream(spec.seed, SPLIT_TAG, pos + 1).shuffle(idx)
        per_class.append(idx)

    held = spec.test_per_class

    def assignment(t: int, start: int, stop: int, train_stop) -> SessionAssignment:
        parts = per_class[start:stop]
        return SessionAssignment(t, tuple(classes[c] for c in order[start:stop]),
                                 np.concatenate([idx[held:train_stop] for idx in parts]),
                                 np.concatenate([idx[:held] for idx in parts]))

    sessions = [assignment(0, 0, spec.base_classes, None)]
    for t in range(1, spec.n_sessions + 1):
        start = spec.base_classes + (t - 1) * spec.n_way
        sessions.append(assignment(t, start, start + spec.n_way, held + spec.k_shot))
    return sessions


def materialize_sessions(dataset: TokenDataset,
                         split: Sequence[SessionAssignment]) -> list[SessionData]:
    """The sessions of a split: each shares the dataset's features and
    labels and adds its assignment, so no session's rows are copied."""
    return [SessionData(dataset.features, dataset.labels, part) for part in split]


class RowSource:
    """A validated dataset read session by session, what load_features
    returns: the label column, the row shape (tokens, dim) and
    sessions(split), whose sessions are each its features, labels and
    assignment. A binary file's session holds no rows: every row a reader
    indexes is read each time (SessionRows), in the order asked, one
    os.preadv per run of consecutive rows, from the handle that validated
    the file, which stays open until close() or the end of a with block, so
    replacing the file's path cannot reach them. A CSV file is parsed whole
    into features, and its sessions index that array."""

    def __init__(self, labels: np.ndarray, row_shape: tuple[int, int],
                 features: np.ndarray | None = None, fh=None, payload_offset: int = 0,
                 identity: tuple | None = None):
        self.labels = labels
        self.row_shape = row_shape
        self._features = features
        self._fh = fh
        self._offset = payload_offset
        self._identity = identity

    def __enter__(self) -> "RowSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()

    def sessions(self, split: Sequence[SessionAssignment]) -> list[SessionData]:
        """The sessions of split, as materialize_sessions' are: each is the
        features, the label column and the split's own assignment. Nothing
        is read here; a binary file's features are a SessionRows per
        session, a CSV file's the parsed array."""
        return [SessionData(self._features if self._fh is None
                            else SessionRows(self, part.session), self.labels, part)
                for part in split]

    def _read(self, rows: np.ndarray, session: int) -> np.ndarray:
        """The payload rows named by rows, in that order, in a new array,
        each run of consecutive rows read with one os.preadv. FormatError
        naming the session when the file is no longer the one validated: its
        inode, size or modification time changed, it ends early (the message
        names the last row of the run cut short), or a value read is not
        finite."""
        changed = f"session {session}: the dataset file changed after it was validated"
        if _identity(self._fh) != self._identity:
            raise FormatError(changed)
        out = np.empty((rows.size, *self.row_shape))
        row_bytes = 8 * math.prod(self.row_shape)
        view = memoryview(out.reshape(-1).view(np.uint8))
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)  # where each run starts
        fd = self._fh.fileno()
        for lo, hi, first in zip(starts.tolist(), [*starts[1:].tolist(), rows.size],
                                 rows[starts].tolist()):
            run = view[lo * row_bytes:hi * row_bytes]
            if os.preadv(fd, [run], self._offset + first * row_bytes) != len(run):
                raise FormatError(f"{changed}: it ends inside row {first + hi - lo - 1}")
        if not np.isfinite(out).all():
            raise FormatError(f"{changed}: non-finite values in its rows")
        return out


class SessionRows:
    """The features of one session of a binary file's RowSource, indexed
    like the dataset's (n, tokens, dim) array by a 1-D array of rows (shape
    and features[index] are all it offers). It holds no rows: each index is
    read from the file, in the order it names them, by RowSource._read,
    whose errors name the session."""

    def __init__(self, source: RowSource, session: int):
        self._source = source
        self._session = session
        self.shape = (source.labels.shape[0], *source.row_shape)

    def __getitem__(self, index) -> np.ndarray:
        return self._source._read(np.asarray(index), self._session)


def _identity(fh) -> tuple[int, int, int]:
    """(inode, size, modification time in ns) of the open file fh."""
    st = os.fstat(fh.fileno())
    return st.st_ino, st.st_size, st.st_mtime_ns


def generate_synthetic(spec: SyntheticSpec) -> TokenDataset:
    """Isotropic Gaussian clusters in token space.

    Each class gets a mean vector drawn uniformly on the sphere of radius
    class_mean_norm, replicated across its tokens; examples add iid noise of
    the configured sigma to every token entry. Deterministic in the seed.
    """
    gen = rng.generator(spec.seed, SYNTH_TAG)
    n = spec.n_classes * spec.examples_per_class
    features = np.empty((n, spec.g, spec.d))
    labels = np.repeat(np.arange(spec.n_classes), spec.examples_per_class)
    for c in range(spec.n_classes):
        direction = gen.standard_normal(spec.d)
        mean = spec.class_mean_norm * direction / np.linalg.norm(direction)
        noise = gen.standard_normal((spec.examples_per_class, spec.g, spec.d))
        start = c * spec.examples_per_class
        features[start:start + spec.examples_per_class] = mean + spec.within_class_sigma * noise
    return TokenDataset(features, labels)


# --- binary reader/writer helpers -----------------------------------------

# Bytes of the one buffer through which a dataset load streams the
# payload (each chunk checksummed and scanned, then dropped), and through
# which a failed parse drains the rest of a file into the checksum. Freeing
# it at the end of the load raises glibc's dynamic mmap threshold to its
# size, so the sub-MB and MB-sized temporaries of the protocol that follows
# (the 256 KiB encode chunks among them) come from the heap, not from fresh
# mmaps. Measured on the cli-stream dataset at seed 4321 (fresh processes,
# one BLAS thread, ru_maxrss, 2-vCPU x86-64 VM): `gcmr run` peaks at 40.8
# MiB with 1 MiB (3 runs), 40.55-40.86 with 2 MiB and 40.53-40.79 with 4 MiB
# (9 runs each, medians 40.65 and 40.66), and a process that only loads at
# 30.6, 31.8 and 34.2 MiB (38.5 at 8 MiB). No size reads lower than 2 MiB,
# and it keeps the load well below the run's peak.
CHUNK_BYTES = 2 << 20


class _Reader:
    """One sequential pass over an open binary file, its magic already read:
    every byte read goes into a running CRC, and no read allocates more
    bytes than the file still holds before its checksum."""

    def __init__(self, fh, size: int, magic: bytes):
        self.fh = fh
        self.body_end = size - 4
        self.pos = len(magic)
        self.crc = zlib.crc32(magic)

    def need(self, count: int, what: str) -> None:
        if self.pos + count > self.body_end:
            raise FormatError(f"file ends inside {what}", self.pos)

    def read_into(self, buf) -> None:
        """Fill buf (any C-contiguous buffer) from the file and the CRC."""
        view = memoryview(buf).cast("B")
        if self.fh.readinto(view) != len(view):
            raise FormatError("file changed size while being read", self.pos)
        self.crc = zlib.crc32(view, self.crc)
        self.pos += len(view)

    def unpack(self, fmt: str, what: str):
        buf = bytearray(struct.calcsize(fmt))
        self.need(len(buf), what)
        self.read_into(buf)
        return struct.unpack(fmt, buf)

    def array(self, count: int, dtype: str, what: str) -> np.ndarray:
        """count values of the little-endian dtype, read into a new array."""
        self.need(count * np.dtype(dtype).itemsize, what)
        out = np.empty(count, dtype=dtype)
        self.read_into(out)
        return out

    def floats(self, count: int, what: str) -> np.ndarray:
        """count float64 values in a new writable array; FormatError at the
        end of the section when one of them is not finite."""
        values = self.array(count, "<f8", what)
        # Only checkpoint sections come through here, each a model array
        # that is kept whole, so one whole-array scan costs a boolean
        # temporary of an eighth of it.
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite values in {what}", self.pos)
        return values

    def skip_floats(self, count: int, what: str) -> None:
        """Read count float64 values through one buffer of CHUNK_BYTES into
        the CRC, scanning each chunk, and keep none; FormatError at the end
        of the section when one of them is not finite."""
        buf = np.empty(max(1, min(count, CHUNK_BYTES // 8)))
        finite = True
        for start in range(0, count, buf.size):
            chunk = buf[:min(buf.size, count - start)]
            self.read_into(chunk)
            finite = finite and bool(np.isfinite(chunk).all())
        if not finite:
            raise FormatError(f"non-finite values in {what}", self.pos)

    def end(self) -> None:
        if self.pos != self.body_end:
            raise FormatError("trailing bytes after payload", self.pos)

    def finish(self) -> None:
        """Read what is left of the body into the CRC through one bounded
        buffer, then FormatError unless the stored checksum matches."""
        left = self.body_end - self.pos
        buf = np.empty(min(left, CHUNK_BYTES), dtype=np.uint8)
        while left:
            step = min(left, buf.size)
            self.read_into(buf[:step])
            left -= step
        trailer = self.fh.read(4)
        if len(trailer) != 4:
            raise FormatError("file changed size while being read", self.pos)
        stored, = struct.unpack("<I", trailer)
        if stored != self.crc:
            raise FormatError(
                f"checksum mismatch: stored {stored:#010x}, computed {self.crc:#010x}",
                self.body_end)


def _float_buffer(arr: np.ndarray) -> np.ndarray:
    """arr as C-contiguous little-endian float64; no copy when it already is."""
    return np.ascontiguousarray(arr, dtype="<f8")


def _load(fh, magic: bytes, kind: int, parse):
    """parse(reader) over the open file fh of kind, whose first bytes, magic,
    the caller has read. A bad magic or a file too short for a header and a
    checksum fails at once; otherwise the whole file is read, and a
    structural error met on the way is raised only after the checksum
    matched, so a corrupt file reports its checksum first."""
    if len(magic) < 4:
        raise FormatError("file ends inside magic", 0)
    if magic != FORMAT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {FORMAT_MAGIC!r}", 0)
    size = os.fstat(fh.fileno()).st_size
    if size < 8 + 4:
        raise FormatError("file too short for header and checksum", size)
    reader = _Reader(fh, size, magic)
    error = None
    try:
        version, found, width = reader.unpack("<HBB", "header")
        if found != kind:
            raise FormatError(f"wrong file kind {found}, expected {kind}", 6)
        if version != FORMAT_VERSION[kind]:
            raise FormatError(f"unsupported format version {version}", 4)
        if width != 8:
            raise FormatError(f"unsupported float width {width}, expected 8", 7)
        value = parse(reader)
        reader.end()
    except FormatError as exc:
        error = exc
    reader.finish()
    if error is not None:
        raise error
    return value


def _write_blob(path, kind: int, parts) -> None:
    """Write the magic, the header of kind, the parts (bytes or C-contiguous
    arrays) and then the CRC32 of all of them to path, through atomic_open."""
    crc = 0
    header = struct.pack("<4sHBB", FORMAT_MAGIC, FORMAT_VERSION[kind], kind, 8)
    with atomic_open(path) as fh:
        for part in (header, *parts):
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **open_kwargs):
    """Write path through a temp file in its directory: a clean exit moves
    the temp file over path with one os.replace; an exception removes it,
    and path keeps its previous bytes. A killed process may leave the hidden
    temp file behind, never a partial path. Nothing is fsynced, so this
    guards against interruption, not power loss. mode is "w" or "wb"."""
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open writes whole files, got mode {mode!r}")
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_dataset(dataset: TokenDataset, path) -> None:
    """Write a token dataset, its features as float64."""
    n, g, d = dataset.features.shape
    # class table in ascending id order; each label stored as its table index
    class_ids, label_index = np.unique(dataset.labels, return_inverse=True)
    _write_blob(path, KIND_DATASET, [
        struct.pack("<IIII", n, g, d, len(class_ids)),
        np.asarray(class_ids, dtype="<i8"),
        np.asarray(label_index, dtype="<u4"),
        _float_buffer(dataset.features),
    ])


def _read_dataset(reader: _Reader):
    """The dataset section's labels, row shape (tokens, dim) and payload
    offset, the payload checksummed and scanned through one buffer and
    dropped."""
    n, g, d, n_classes = reader.unpack("<IIII", "dataset shape")
    if g < 1 or d < 1:
        raise FormatError(f"degenerate dataset shape ({n}, {g}, {d})", reader.pos - 16)
    class_ids = reader.array(n_classes, "<i8", "class table")
    label_idx = reader.array(n, "<u4", "labels")
    if n and label_idx.max() >= n_classes:
        raise FormatError(f"label index {label_idx.max()} outside the class table "
                          f"of {n_classes} classes", reader.pos)
    reader.need(n * g * d * 8, "feature payload")
    offset = reader.pos
    reader.skip_floats(n * g * d, "feature payload")
    return class_ids[label_idx], (g, d), offset


def _construct(reader: _Reader, what: str, make, *args):
    """make(*args), with the model's ValueError turned into a FormatError at
    the reader's position."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(f"invalid {what}: {exc}", reader.pos) from None


def _classifier_parts(params: ClassifierParams) -> list:
    return [struct.pack("<IIId", params.dim, params.hidden, params.n_classes,
                        params.dropout_rate),
            *(_float_buffer(arr) for arr in params.arrays().values())]


def _unpack_classifier(reader: _Reader) -> ClassifierParams:
    dim, hidden, n_classes = reader.unpack("<III", "classifier shape")
    dropout, = reader.unpack("<d", "dropout rate")
    if min(dim, hidden, n_classes) < 1:
        raise FormatError("degenerate classifier shape", reader.pos)
    w1 = reader.floats(dim * hidden, "w1").reshape(dim, hidden)
    b1 = reader.floats(hidden, "b1")
    w2 = reader.floats(hidden * n_classes, "w2").reshape(hidden, n_classes)
    b2 = reader.floats(n_classes, "b2")
    return _construct(reader, "classifier", ClassifierParams, w1, b1, w2, b2, dropout)


def save_checkpoint(state: SessionState, path) -> None:
    """Serialize a session state, floats as float64: session index, encoder,
    head and representation memory."""
    enc, mem = state.encoder, state.mem
    _write_blob(path, KIND_CHECKPOINT, [
        struct.pack("<I", state.session),
        struct.pack("<BII", int(enc.frozen), enc.raw_dim, enc.dim),
        _float_buffer(enc.w),
        _float_buffer(enc.b),
        *_classifier_parts(state.classifier),
        struct.pack("<II", mem.n_classes, mem.dim),
        np.asarray(mem.class_ids, dtype="<i8"),
        np.asarray(mem.session_of, dtype="<u4"),
        _float_buffer(mem.rows),
    ])


def load_checkpoint(path) -> SessionState:
    """The session state save_checkpoint wrote, its head frozen into weight
    memory."""
    with open(path, "rb") as fh:
        return _load(fh, fh.read(4), KIND_CHECKPOINT, _read_checkpoint)


def _read_checkpoint(reader: _Reader) -> SessionState:
    session, = reader.unpack("<I", "session index")
    frozen, raw_dim, dim = reader.unpack("<BII", "encoder header")
    if min(raw_dim, dim) < 1:
        raise FormatError("degenerate encoder shape", reader.pos)
    enc_w = reader.floats(raw_dim * dim, "encoder weights").reshape(raw_dim, dim)
    enc_b = reader.floats(dim, "encoder bias")
    enc = _construct(reader, "encoder", EncoderParams, enc_w, enc_b)
    if frozen:
        enc.freeze()
    head = _unpack_classifier(reader)
    if head.dim != enc.dim:
        raise FormatError(f"classifier dim {head.dim} does not match encoder dim {enc.dim}",
                          reader.pos)
    m_classes, m_dim = reader.unpack("<II", "memory shape")
    class_ids = tuple(int(v) for v in reader.array(m_classes, "<i8", "memory class ids"))
    session_of = tuple(int(v) for v in reader.array(m_classes, "<u4", "memory sessions"))
    rows = reader.floats(m_classes * m_dim, "memory rows").reshape(m_classes, m_dim)
    if m_dim != head.dim:
        raise FormatError(f"memory dim {m_dim} does not match classifier dim {head.dim}",
                          reader.pos)
    if m_classes != head.n_classes:
        raise FormatError(f"memory holds {m_classes} classes but the classifier has "
                          f"{head.n_classes} columns", reader.pos)
    mem = _construct(reader, "representation memory", RepresentationMemory,
                     rows, class_ids, session_of)
    return SessionState(enc, mem, build_weight_memory(head, mem, session))


# --- CSV ingestion ---------------------------------------------------------

def _parse_floats(fields, line_no: int) -> list[float]:
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise FormatError(f"non-numeric feature value on line {line_no}") from None
    if not all(math.isfinite(v) for v in values):
        raise FormatError(f"non-finite feature value on line {line_no}")
    return values


def _parse_int(field: str, what: str, line_no: int) -> int:
    try:
        value = int(field)
    except ValueError:
        raise FormatError(f"non-integer {what} on line {line_no}") from None
    if not -(2 ** 63) <= value < 2 ** 63:
        raise FormatError(f"{what} out of 64-bit range on line {line_no}")
    return value


def _read_csv(fh, not_binary: str = "") -> RowSource:
    """The CSV dataset in the open binary file fh, read from where it stands
    to its end, as a RowSource over its parsed features, each value checked
    finite on its line; closes fh. not_binary is appended to the error of a
    file that is no CSV at all (unreadable, empty, or without the label
    header): why it is no binary dataset either."""
    try:
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            reader = csv.reader(text)
            rows = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"not a readable CSV file: {exc}{not_binary}") from None
    if not rows:
        raise FormatError(f"empty CSV file{not_binary}")
    header = [h.strip() for h in rows[0][1]]
    if header[:1] != ["label"]:
        raise FormatError(f"CSV header must start with 'label'{not_binary}")
    grouped = len(header) > 1 and header[1] == "token"
    first = 2 if grouped else 1     # column of the first feature
    if len(header) - first < 1:
        raise FormatError("CSV header declares no feature columns")

    # a flat line is token 0 of a single-token example
    examples: list[list[list[float]]] = []
    labels = []
    for line_no, row in rows[1:]:
        if len(row) != len(header):
            raise FormatError(f"line {line_no} has {len(row)} fields, "
                              f"expected {len(header)}")
        label = _parse_int(row[0], "label", line_no)
        token = _parse_int(row[1], "token index", line_no) if grouped else 0
        values = _parse_floats(row[first:], line_no)
        if token == 0:
            examples.append([values])
            labels.append(label)
        else:
            if not examples or token != len(examples[-1]):
                raise FormatError(f"token index {token} out of order on line {line_no}")
            if label != labels[-1]:
                raise FormatError(f"label changes within an example on line {line_no}")
            examples[-1].append(values)
    if not examples:
        raise FormatError("CSV contains a header but no examples")
    sizes = {len(e) for e in examples}
    if len(sizes) != 1:
        raise FormatError(f"examples have differing token counts {sorted(sizes)}")
    features = np.asarray(examples, dtype=np.float64)
    return RowSource(np.asarray(labels, dtype=np.int64), features.shape[1:], features=features)


def load_features(path) -> RowSource:
    """The dataset at path, in the binary format or CSV, told apart by the
    first bytes of the one handle that is then read. A file without the
    binary magic is read as CSV; when it is no CSV at all, the error also
    says why it is not a binary file.

    A binary file is validated in full (checksum, structure, every value
    finite) but only its labels are kept, and its handle stays open in the
    source, whose sessions read their rows when a reader indexes them. A
    CSV file is parsed whole, and the source's sessions index that array."""
    with contextlib.ExitStack() as cleanup:
        fh = cleanup.enter_context(open(path, "rb"))
        head = fh.read(4)
        if head == FORMAT_MAGIC:
            identity = _identity(fh)
            labels, row_shape, offset = _load(fh, head, KIND_DATASET, _read_dataset)
            cleanup.pop_all()  # the source closes the handle
            return RowSource(labels, row_shape, fh=fh, payload_offset=offset,
                             identity=identity)
        fh.seek(0)
        why = (f"bad magic {head!r}, expected {FORMAT_MAGIC!r}" if len(head) == 4
               else f"it ends inside the magic, after {len(head)} bytes")
        return _read_csv(fh, f"; nor is it a GCMR binary file: {why}")
