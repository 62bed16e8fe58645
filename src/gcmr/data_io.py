"""Protocol construction, synthetic data, and file formats.

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

A checkpoint holds the session index, the encoder, the classifier head and
the representation memory. The weight memory is not stored: it is a snapshot
of the head, and load_checkpoint rebuilds it with build_weight_memory as the
trainer does.

A load reads the file once into a writable buffer, runs the CRC once over a
view of it and hands out views of that buffer: a payload at an 8-byte
aligned offset is used in place, any other is copied once. Writers stream
the header parts and payload arrays into the file with a running CRC,
without assembling the file in memory.

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
from .memory import RepresentationMemory, build_weight_memory
from .trainer import SessionState

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
        self._coerce()
        # One whole-array scan, on purpose (see _Reader.floats): freeing its
        # large boolean temporary raises glibc's mmap threshold above the
        # protocol's MB-sized temporaries, which run_protocol's CPU relies on.
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite entries")

    def _coerce(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 3:
            raise ValueError("features must have shape (n, tokens, dim)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features")

    @classmethod
    def from_finite(cls, features, labels) -> "TokenDataset":
        """A dataset over features already known to be finite (a payload the
        binary reader scanned, CSV values checked per line): the shape checks
        run, the finiteness scan does not."""
        out = object.__new__(cls)
        out.features, out.labels = features, labels
        out._coerce()
        return out

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
    """One session: the dataset its rows live in and the assignment that
    picks them. It holds no rows of its own; every reader gathers them
    through the assignment's train_indices and test_indices."""

    dataset: TokenDataset
    assignment: SessionAssignment


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
    """The sessions of a split: each is the dataset plus its assignment, so
    no session's rows are copied."""
    return [SessionData(dataset, part) for part in split]


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

class _Reader:
    """Sequential reads over a memoryview; every slice it hands out is a view."""

    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, count: int, what: str) -> memoryview:
        if self.pos + count > len(self.blob):
            raise FormatError(f"file ends inside {what}", self.pos)
        chunk = self.blob[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str, what: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))

    def floats(self, count: int, what: str) -> np.ndarray:
        """count float64 values: a view of the buffer when the offset is
        8-byte aligned, otherwise one copy. FormatError at the end of the
        section when one of them is not finite."""
        values = np.frombuffer(self.take(count * 8, what), dtype="<f8")
        if not values.flags.aligned:
            values = values.astype(np.float64)
        # Keep this scan whole-array rather than blockwise. Freeing its
        # boolean temporary (6 MB for a cli-stream dataset) raises glibc's
        # dynamic mmap threshold above the MB-sized temporaries of the
        # protocol that follows, so those come from the heap and not from
        # fresh mmaps. Measured on cli-stream shapes (seed 4321), first
        # run_protocol in a fresh process, 4 processes each, 2-vCPU VM, one
        # BLAS thread: 1,564 minor faults and 0.446 s median CPU with this
        # scan, 23,955 faults and 0.516 s with a 64 Ki-element blockwise one.
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite values in {what}", self.pos)
        return values

    def ints(self, count: int, fmt_char: str, what: str) -> np.ndarray:
        width = struct.calcsize("<" + fmt_char)
        raw = self.take(count * width, what)
        return np.frombuffer(raw, dtype="<" + {"q": "i8", "I": "u4"}[fmt_char]).astype(np.int64)

    def end(self) -> None:
        if self.pos != len(self.blob):
            raise FormatError("trailing bytes after payload", self.pos)


def _float_buffer(arr: np.ndarray) -> np.ndarray:
    """arr as C-contiguous little-endian float64; no copy when it already is."""
    return np.ascontiguousarray(arr, dtype="<f8")


def _open(path, kind: int) -> _Reader:
    """A reader over the body of path once its magic, checksum and header
    check out for kind. One readinto fills a buffer left uninitialized, since
    the read overwrites what it keeps."""
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        blob = memoryview(buf)[:fh.readinto(buf)]
    reader = _Reader(blob)
    magic = bytes(reader.take(4, "magic"))
    if magic != FORMAT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {FORMAT_MAGIC!r}", 0)
    if len(blob) < 8 + 4:
        raise FormatError("file too short for header and checksum", len(blob))
    stored_crc, = struct.unpack("<I", blob[-4:])
    actual_crc = zlib.crc32(blob[:-4])
    if stored_crc != actual_crc:
        raise FormatError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}",
            len(blob) - 4)
    version, found, width = reader.unpack("<HBB", "header")
    if found != kind:
        raise FormatError(f"wrong file kind {found}, expected {kind}", 6)
    if version != FORMAT_VERSION[kind]:
        raise FormatError(f"unsupported format version {version}", 4)
    if width != 8:
        raise FormatError(f"unsupported float width {width}, expected 8", 7)
    reader.blob = blob[:-4]  # stop body reads before the checksum
    return reader


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


def load_dataset(path) -> TokenDataset:
    reader = _open(path, KIND_DATASET)
    n, g, d, n_classes = reader.unpack("<IIII", "dataset shape")
    if g < 1 or d < 1:
        raise FormatError(f"degenerate dataset shape ({n}, {g}, {d})", reader.pos - 16)
    class_ids = reader.ints(n_classes, "q", "class table")
    label_idx = reader.ints(n, "I", "labels")
    if n and label_idx.max() >= n_classes:
        raise FormatError(f"label index {label_idx.max()} outside the class table "
                          f"of {n_classes} classes", reader.pos)
    values = reader.floats(n * g * d, "feature payload")
    reader.end()
    return TokenDataset.from_finite(values.reshape(n, g, d), class_ids[label_idx])


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
            *(_float_buffer(arr) for arr in (params.w1, params.b1, params.w2, params.b2))]


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
    """Serialize a session state, floats as float64: encoder, head and
    representation memory. The weight memory is not written;
    load_checkpoint rebuilds it."""
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
    """The session state save_checkpoint wrote, with the weight memory
    rebuilt from the head."""
    reader = _open(path, KIND_CHECKPOINT)
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
    class_ids = tuple(int(v) for v in reader.ints(m_classes, "q", "memory class ids"))
    session_of = tuple(int(v) for v in reader.ints(m_classes, "I", "memory sessions"))
    rows = reader.floats(m_classes * m_dim, "memory rows").reshape(m_classes, m_dim)
    if m_dim != head.dim:
        raise FormatError(f"memory dim {m_dim} does not match classifier dim {head.dim}",
                          reader.pos)
    if m_classes != head.n_classes:
        raise FormatError(f"memory holds {m_classes} classes but the classifier has "
                          f"{head.n_classes} columns", reader.pos)
    mem = _construct(reader, "representation memory", RepresentationMemory,
                     rows, class_ids, session_of)
    reader.end()
    return SessionState(session, enc, head, mem, build_weight_memory(head, mem, session))


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


def load_features_csv(path) -> TokenDataset:
    """Parse either CSV layout (flat features or token groups)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"not a readable CSV file: {exc}") from None
    if not rows:
        raise FormatError("empty CSV file")
    header = [h.strip() for h in rows[0][1]]
    if header[:1] != ["label"]:
        raise FormatError("CSV header must start with 'label'")
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
    return TokenDataset.from_finite(np.asarray(examples), labels)


def load_features(path) -> TokenDataset:
    """Load a dataset from the binary format or from CSV (by content)."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == FORMAT_MAGIC:
        return load_dataset(path)
    return load_features_csv(path)
