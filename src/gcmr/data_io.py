"""Protocol construction, synthetic data, and file formats.

Binary format (all integers little-endian):

    offset 0   magic  b"GCMR"
    offset 4   u16    format version of the kind (FORMAT_VERSION)
    offset 6   u8     kind: 1 = token dataset, 2 = session checkpoint
    offset 7   u8     float width in bytes (4 or 8)
    ...        kind-specific sections (shapes, class tables, row-major
               float payloads at the declared width)
    trailer    u32    CRC32 of every preceding byte

Every load failure is a distinct FormatError subclass carrying the byte
offset where the problem was detected. Every float payload must be finite.
Round trips at width 8 are bit-exact for all finite float64 values, signed
zeros included.

A checkpoint holds the session index, the encoder, the classifier head and
the representation memory. The weight memory is not stored: it is a snapshot
of the head, and load_checkpoint rebuilds it with build_weight_memory as the
trainer does.

A load reads the file once into a writable buffer, runs the CRC once over a
view of it and hands out views of that buffer: a width-8 payload at an
8-byte aligned offset is used in place, anything else is copied once to
float64. Writers stream the header parts and payload arrays into the file
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
import math
import os
import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng
from .classifier import ClassifierParams
from .encoder import ACTIVATIONS, EncoderParams, FEATURE_NORMS
from .memory import RepresentationMemory, build_weight_memory
from .trainer import SessionState

FORMAT_MAGIC = b"GCMR"
KIND_DATASET = 1
KIND_CHECKPOINT = 2
# versioned per kind, so a new checkpoint layout leaves datasets loadable
FORMAT_VERSION = {KIND_DATASET: 1, KIND_CHECKPOINT: 2}

SPLIT_TAG = 201
SYNTH_TAG = 202


class FormatError(Exception):
    """Base class for malformed or mismatched data files."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class BadMagicError(FormatError):
    pass


class VersionError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


class ChecksumError(FormatError):
    pass


class DimensionError(FormatError):
    pass


class ContentError(FormatError):
    """A checksum-valid file whose fields the model rejects, e.g. duplicate
    memory class ids, a dropout rate outside [0, 1) or a non-finite float."""


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
        """A dataset over features already known to be finite (rows of a
        validated dataset, a payload the binary reader scanned, CSV values
        checked per line): the shape checks run, the finiteness scan does not."""
        out = object.__new__(cls)
        out.features, out.labels = features, labels
        out._coerce()
        return out

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "TokenDataset":
        """The examples at `indices`, without a second finiteness scan."""
        return TokenDataset.from_finite(self.features[indices], self.labels[indices])


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
    picks them. It holds no rows of its own; `train` and `test` slice a new
    TokenDataset out of the dataset on every access, and the trainer reads
    rows through the assignment's indices instead."""

    dataset: TokenDataset
    assignment: SessionAssignment

    @classmethod
    def from_datasets(cls, session: int, class_ids, train: TokenDataset,
                      test: TokenDataset) -> "SessionData":
        """A session over its own train and test sets, stacked into one
        dataset: train rows first, then test rows."""
        dataset = TokenDataset.from_finite(np.concatenate([train.features, test.features]),
                                           np.concatenate([train.labels, test.labels]))
        n = len(train)
        return cls(dataset, SessionAssignment(session, tuple(class_ids), np.arange(n),
                                              np.arange(n, len(dataset))))

    @property
    def session(self) -> int:
        return self.assignment.session

    @property
    def class_ids(self) -> tuple[int, ...]:
        return self.assignment.class_ids

    @property
    def train(self) -> TokenDataset:
        return self.dataset.subset(self.assignment.train_indices)

    @property
    def test(self) -> TokenDataset:
        return self.dataset.subset(self.assignment.test_indices)


def fscil_split(spec: ProtocolSpec, labels) -> list[SessionAssignment]:
    """Assign classes and examples to the base plus incremental sessions.

    Classes are shuffled by the spec seed; the first base_classes become
    session 0, the rest form n_way-sized sessions in shuffle order. Per
    class, test_per_class examples are held out for testing; base classes
    train on everything else, incremental classes on exactly k_shot
    examples. Identical seeds give identical splits.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes = sorted(int(c) for c in np.unique(labels))
    if len(classes) != spec.total_classes:
        raise ValueError(f"dataset has {len(classes)} classes, spec expects {spec.total_classes}")
    order = rng.generator(spec.seed, SPLIT_TAG).permutation(len(classes))
    shuffled = [classes[i] for i in order]

    per_class_indices: dict[int, np.ndarray] = {}
    for pos, cid in enumerate(shuffled):
        idx = np.flatnonzero(labels == cid)
        if idx.size < spec.k_shot + spec.test_per_class:
            raise ValueError(
                f"class {cid} has {idx.size} examples, needs at least "
                f"{spec.k_shot + spec.test_per_class}")
        perm = rng.generator(spec.seed, SPLIT_TAG, pos + 1).permutation(idx.size)
        per_class_indices[cid] = idx[perm]

    sessions = []
    base_ids = shuffled[:spec.base_classes]
    train_parts = [per_class_indices[cid][spec.test_per_class:] for cid in base_ids]
    test_parts = [per_class_indices[cid][:spec.test_per_class] for cid in base_ids]
    sessions.append(SessionAssignment(0, tuple(base_ids),
                                      np.concatenate(train_parts),
                                      np.concatenate(test_parts)))
    for t in range(spec.n_sessions):
        ids = shuffled[spec.base_classes + t * spec.n_way:
                       spec.base_classes + (t + 1) * spec.n_way]
        train_parts = [per_class_indices[cid][spec.test_per_class:
                                              spec.test_per_class + spec.k_shot]
                       for cid in ids]
        test_parts = [per_class_indices[cid][:spec.test_per_class] for cid in ids]
        sessions.append(SessionAssignment(t + 1, tuple(ids),
                                          np.concatenate(train_parts),
                                          np.concatenate(test_parts)))
    return sessions


class SessionSequence(Sequence):
    """Read-only sequence of SessionData over one dataset and its split.

    Indexing a session wraps the dataset and that session's assignment and
    copies no rows. Indices and slices behave as on a list, and a slice is
    again a SessionSequence."""

    def __init__(self, dataset: TokenDataset, split: Sequence[SessionAssignment]):
        self._dataset = dataset
        self._split = tuple(split)

    def __len__(self) -> int:
        return len(self._split)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SessionSequence(self._dataset, self._split[index])
        return SessionData(self._dataset, self._split[index])


def materialize_sessions(dataset: TokenDataset,
                         split: Sequence[SessionAssignment]) -> SessionSequence:
    """The sessions of a split, as a sequence of views: each session is the
    dataset plus its assignment, so no session's rows are ever copied until
    a caller reads its `train` or `test`."""
    return SessionSequence(dataset, split)


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
        norm = np.linalg.norm(direction)
        while norm == 0.0:  # astronomically unlikely, but keep the draw well defined
            direction = gen.standard_normal(spec.d)
            norm = np.linalg.norm(direction)
        mean = spec.class_mean_norm * direction / norm
        noise = gen.standard_normal((spec.examples_per_class, spec.g, spec.d))
        start = c * spec.examples_per_class
        features[start:start + spec.examples_per_class] = mean + spec.within_class_sigma * noise
    return TokenDataset(features, labels)


# --- binary reader/writer helpers -----------------------------------------

_WIDTH_DTYPES = {4: "<f4", 8: "<f8"}


def _read_file(path) -> memoryview:
    """The whole file, read with one readinto into a writable buffer that
    is left uninitialized, since the read overwrites what it keeps."""
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        size = fh.readinto(buf)
    return memoryview(buf)[:size]


class _Reader:
    """Sequential reads over a memoryview; every slice it hands out is a view."""

    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, count: int, what: str) -> memoryview:
        if self.pos + count > len(self.blob):
            raise TruncatedFileError(f"file ends inside {what}", self.pos)
        chunk = self.blob[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str, what: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))

    def floats(self, count: int, width: int, what: str) -> np.ndarray:
        """count floats as float64: a view of the buffer at width 8 when the
        offset is 8-byte aligned, otherwise one copy. ContentError at the end
        of the section when one of them is not finite."""
        values = np.frombuffer(self.take(count * width, what), dtype=_WIDTH_DTYPES[width])
        if values.dtype != np.float64 or not values.flags.aligned:
            values = values.astype(np.float64)
        if not np.isfinite(values).all():
            raise ContentError(f"non-finite values in {what}", self.pos)
        return values

    def ints(self, count: int, fmt_char: str, what: str) -> np.ndarray:
        width = struct.calcsize("<" + fmt_char)
        raw = self.take(count * width, what)
        return np.frombuffer(raw, dtype="<" + {"q": "i8", "I": "u4"}[fmt_char]).astype(np.int64)


def _float_buffer(arr: np.ndarray, width: int) -> np.ndarray:
    """arr as C-contiguous little-endian floats of the given width; no copy
    when it already is one."""
    return np.ascontiguousarray(arr, dtype=_WIDTH_DTYPES[width])


def _open_blob(blob: memoryview, expected_kind: int):
    reader = _Reader(blob)
    magic = bytes(reader.take(4, "magic"))
    if magic != FORMAT_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {FORMAT_MAGIC!r}", 0)
    if len(blob) < 8 + 4:
        raise TruncatedFileError("file too short for header and checksum", len(blob))
    stored_crc, = struct.unpack("<I", blob[-4:])
    actual_crc = zlib.crc32(blob[:-4])
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}",
            len(blob) - 4)
    version, kind, width = reader.unpack("<HBB", "header")
    if kind != expected_kind:
        raise FormatError(f"wrong file kind {kind}, expected {expected_kind}", 6)
    if version != FORMAT_VERSION[kind]:
        raise VersionError(f"unsupported format version {version}", 4)
    if width not in _WIDTH_DTYPES:
        raise FormatError(f"unsupported float width {width}", 7)
    reader.blob = blob[:-4]  # stop body reads before the checksum
    return reader, width


def _write_blob(path, parts) -> None:
    """Write the parts (bytes or C-contiguous arrays) and then the CRC32 of
    all of them to path, through atomic_open."""
    crc = 0
    with atomic_open(path) as fh:
        for part in parts:
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


def save_dataset(dataset: TokenDataset, path, precision: int = 8) -> None:
    """Write a token dataset; precision picks the stored float width."""
    if precision not in _WIDTH_DTYPES:
        raise ValueError("precision must be 4 or 8")
    n, g, d = dataset.features.shape
    # class table in ascending id order; each label stored as its table index
    class_ids, label_index = np.unique(dataset.labels, return_inverse=True)
    _write_blob(path, [
        FORMAT_MAGIC,
        struct.pack("<HBB", FORMAT_VERSION[KIND_DATASET], KIND_DATASET, precision),
        struct.pack("<IIII", n, g, d, len(class_ids)),
        np.asarray(class_ids, dtype="<i8"),
        np.asarray(label_index, dtype="<u4"),
        _float_buffer(dataset.features, precision),
    ])


def load_dataset(path) -> TokenDataset:
    reader, width = _open_blob(_read_file(path), KIND_DATASET)
    n, g, d, n_classes = reader.unpack("<IIII", "dataset shape")
    if g < 1 or d < 1:
        raise DimensionError(f"degenerate dataset shape ({n}, {g}, {d})", reader.pos - 16)
    class_ids = reader.ints(n_classes, "q", "class table")
    label_idx = reader.ints(n, "I", "labels")
    if n and label_idx.max() >= n_classes:
        raise DimensionError(f"label index {label_idx.max()} outside the class table "
                             f"of {n_classes} classes", reader.pos)
    values = reader.floats(n * g * d, width, "feature payload")
    if reader.pos != len(reader.blob):
        raise FormatError("trailing bytes after payload", reader.pos)
    return TokenDataset.from_finite(values.reshape(n, g, d), class_ids[label_idx])


def _construct(reader: _Reader, what: str, make, *args):
    """make(*args), with the model's ValueError turned into a ContentError at
    the reader's position."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ContentError(f"invalid {what}: {exc}", reader.pos) from None


def _classifier_parts(params: ClassifierParams, width: int) -> list:
    return [struct.pack("<IIId", params.dim, params.hidden, params.n_classes,
                        params.dropout_rate),
            *(_float_buffer(arr, width) for arr in (params.w1, params.b1, params.w2, params.b2))]


def _unpack_classifier(reader: _Reader, width: int) -> ClassifierParams:
    dim, hidden, n_classes = reader.unpack("<III", "classifier shape")
    dropout, = reader.unpack("<d", "dropout rate")
    if min(dim, hidden, n_classes) < 1:
        raise DimensionError("degenerate classifier shape", reader.pos)
    w1 = reader.floats(dim * hidden, width, "w1").reshape(dim, hidden)
    b1 = reader.floats(hidden, width, "b1")
    w2 = reader.floats(hidden * n_classes, width, "w2").reshape(hidden, n_classes)
    b2 = reader.floats(n_classes, width, "b2")
    return _construct(reader, "classifier", ClassifierParams, w1, b1, w2, b2, dropout)


def save_checkpoint(state: SessionState, path, precision: int = 8) -> None:
    """Serialize a session state: encoder, head and representation memory.
    The weight memory is not written; load_checkpoint rebuilds it."""
    if precision not in _WIDTH_DTYPES:
        raise ValueError("precision must be 4 or 8")
    enc, mem = state.encoder, state.mem
    _write_blob(path, [
        FORMAT_MAGIC,
        struct.pack("<HBB", FORMAT_VERSION[KIND_CHECKPOINT], KIND_CHECKPOINT, precision),
        struct.pack("<I", state.session),
        struct.pack("<BBBII", ACTIVATIONS.index(enc.activation),
                    FEATURE_NORMS.index(enc.feature_norm),
                    int(enc.frozen), enc.raw_dim, enc.dim),
        _float_buffer(enc.w, precision),
        _float_buffer(enc.b, precision),
        *_classifier_parts(state.classifier, precision),
        struct.pack("<II", mem.n_classes, mem.dim),
        np.asarray(mem.class_ids, dtype="<i8"),
        np.asarray(mem.session_of, dtype="<u4"),
        _float_buffer(mem.rows, precision),
    ])


def load_checkpoint(path) -> SessionState:
    """The session state save_checkpoint wrote, with the weight memory
    rebuilt from the head."""
    reader, width = _open_blob(_read_file(path), KIND_CHECKPOINT)
    session, = reader.unpack("<I", "session index")
    act_code, norm_code, frozen, raw_dim, dim = reader.unpack("<BBBII", "encoder header")
    if act_code >= len(ACTIVATIONS) or norm_code >= len(FEATURE_NORMS):
        raise FormatError("unknown encoder activation or norm code", reader.pos)
    if min(raw_dim, dim) < 1:
        raise DimensionError("degenerate encoder shape", reader.pos)
    enc_w = reader.floats(raw_dim * dim, width, "encoder weights").reshape(raw_dim, dim)
    enc_b = reader.floats(dim, width, "encoder bias")
    enc = _construct(reader, "encoder", EncoderParams, enc_w, enc_b,
                     ACTIVATIONS[act_code], FEATURE_NORMS[norm_code])
    if frozen:
        enc.freeze()
    head = _unpack_classifier(reader, width)
    if head.dim != enc.dim:
        raise DimensionError(f"classifier dim {head.dim} does not match encoder dim {enc.dim}",
                             reader.pos)
    m_classes, m_dim = reader.unpack("<II", "memory shape")
    class_ids = tuple(int(v) for v in reader.ints(m_classes, "q", "memory class ids"))
    session_of = tuple(int(v) for v in reader.ints(m_classes, "I", "memory sessions"))
    rows = reader.floats(m_classes * m_dim, width, "memory rows").reshape(m_classes, m_dim)
    if m_dim != head.dim:
        raise DimensionError(f"memory dim {m_dim} does not match classifier dim {head.dim}",
                             reader.pos)
    if m_classes != head.n_classes:
        raise DimensionError(f"memory holds {m_classes} classes but the classifier has "
                             f"{head.n_classes} columns", reader.pos)
    mem = _construct(reader, "representation memory", RepresentationMemory,
                     rows, class_ids, session_of)
    if reader.pos != len(reader.blob):
        raise FormatError("trailing bytes after payload", reader.pos)
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
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"not a readable CSV file: {exc}") from None
    rows = [r for r in rows if r]
    if not rows:
        raise FormatError("empty CSV file")
    header = [h.strip() for h in rows[0]]
    if header[:1] != ["label"]:
        raise FormatError("CSV header must start with 'label'")
    grouped = len(header) > 1 and header[1] == "token"
    first = 2 if grouped else 1     # column of the first feature
    if len(header) - first < 1:
        raise FormatError("CSV header declares no feature columns")

    # a flat line is token 0 of a single-token example
    examples: list[list[list[float]]] = []
    labels = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DimensionError(f"line {line_no} has {len(row)} fields, "
                                 f"expected {len(header)}")
        label = _parse_int(row[0], "label", line_no)
        token = _parse_int(row[1], "token index", line_no) if grouped else 0
        values = _parse_floats(row[first:], line_no)
        if token == 0:
            examples.append([values])
            labels.append(label)
        else:
            if not examples or token != len(examples[-1]):
                raise DimensionError(f"token index {token} out of order on line {line_no}")
            if label != labels[-1]:
                raise FormatError(f"label changes within an example on line {line_no}")
            examples[-1].append(values)
    if not examples:
        raise FormatError("CSV contains a header but no examples")
    sizes = {len(e) for e in examples}
    if len(sizes) != 1:
        raise DimensionError(f"examples have differing token counts {sorted(sizes)}")
    return TokenDataset.from_finite(np.asarray(examples), labels)


def load_features(path) -> TokenDataset:
    """Load a dataset from the binary format or from CSV (by content)."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == FORMAT_MAGIC:
        return load_dataset(path)
    return load_features_csv(path)
