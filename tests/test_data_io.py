import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gcmr import data_io, encoder, rng, trainer
from gcmr.cli import EXIT_DATA, EXIT_NUMERIC, load_run_config, main
from gcmr.data_io import (FormatError, ProtocolSpec, SyntheticSpec, TokenDataset,
                          SessionAssignment, atomic_open, fscil_split, generate_synthetic,
                          load_checkpoint, load_features, materialize_sessions,
                          save_checkpoint, save_dataset)
from oracles import fscil_split_per_class

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


class TestProtocolSplit:
    def labels_for(self, n_classes, per_class):
        return np.repeat(np.arange(n_classes), per_class)

    def test_cifar_style_shape(self):
        spec = ProtocolSpec(100, 60, 5, 5, seed=1, test_per_class=10)
        split = fscil_split(spec, self.labels_for(100, 30))
        assert len(split) == 1 + 8
        assert len(split[0].class_ids) == 60
        for part in split[1:]:
            assert len(part.class_ids) == 5
            assert len(part.train_indices) == 25  # n_way * k_shot

    def test_cub_style_shape(self):
        spec = ProtocolSpec(200, 100, 10, 5, seed=2, test_per_class=10)
        split = fscil_split(spec, self.labels_for(200, 20))
        assert len(split) == 1 + 10

    def test_base_equals_total_gives_zero_sessions(self):
        spec = ProtocolSpec(6, 6, 2, 3, seed=3, test_per_class=4)
        split = fscil_split(spec, self.labels_for(6, 10))
        assert len(split) == 1

    def test_same_seed_same_split(self):
        spec = ProtocolSpec(10, 6, 2, 3, seed=4, test_per_class=3)
        labels = self.labels_for(10, 12)
        a = fscil_split(spec, labels)
        b = fscil_split(spec, labels)
        for x, y in zip(a, b):
            assert x.class_ids == y.class_ids
            np.testing.assert_array_equal(x.train_indices, y.train_indices)
            np.testing.assert_array_equal(x.test_indices, y.test_indices)

    def test_label_sets_partition_all_classes(self):
        spec = ProtocolSpec(12, 6, 3, 2, seed=5, test_per_class=3)
        split = fscil_split(spec, self.labels_for(12, 8))
        seen = [cid for part in split for cid in part.class_ids]
        assert sorted(seen) == list(range(12))
        assert len(set(seen)) == len(seen)

    def test_incremental_sessions_contribute_exactly_k_shot(self):
        spec = ProtocolSpec(8, 4, 2, 3, seed=6, test_per_class=4)
        labels = self.labels_for(8, 10)
        split = fscil_split(spec, labels)
        for part in split[1:]:
            session_labels = labels[part.train_indices]
            for cid in part.class_ids:
                assert int((session_labels == cid).sum()) == 3

    def test_train_test_disjoint_per_class(self):
        spec = ProtocolSpec(6, 4, 2, 2, seed=7, test_per_class=5)
        split = fscil_split(spec, self.labels_for(6, 12))
        for part in split:
            assert not set(part.train_indices) & set(part.test_indices)

    def test_insufficient_examples_rejected(self):
        spec = ProtocolSpec(4, 2, 2, 5, seed=8, test_per_class=10)
        with pytest.raises(ValueError):
            fscil_split(spec, self.labels_for(4, 12))

    def test_divisibility_enforced_at_spec(self):
        with pytest.raises(ValueError):
            ProtocolSpec(10, 6, 3, 5)

    def test_class_count_mismatch(self):
        spec = ProtocolSpec(6, 4, 2, 2, seed=9, test_per_class=2)
        with pytest.raises(ValueError):
            fscil_split(spec, self.labels_for(5, 10))


class TestSplitMatchesPerClassReference:
    """fscil_split groups indices with one sort and re-keys one generator;
    its splits are byte-equal to the per-class reference in tests/oracles.py."""

    @staticmethod
    def shuffled_labels(ids, counts, seed):
        labels = np.repeat(np.asarray(ids, dtype=np.int64), counts)
        return np.random.default_rng(seed).permutation(labels)

    @staticmethod
    def assert_same_split(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.session == b.session
            assert a.class_ids == b.class_ids
            assert all(type(c) is int for c in a.class_ids)
            for x, y in ((a.train_indices, b.train_indices), (a.test_indices, b.test_indices)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @staticmethod
    def error_text(split_fn, spec, labels):
        with pytest.raises(ValueError) as info:
            split_fn(spec, labels)
        return str(info.value)

    @pytest.mark.parametrize("ids", [
        list(range(8)),
        [-3, -1, 0, 5, -100, 2, 7, -8],
        [3, 1000, 10 ** 9, 17, 2 ** 40, 5, 99, 123_456],
        [INT64_MIN, INT64_MAX, INT64_MIN + 1, INT64_MAX - 1, 0, -1, 1, 2 ** 62],
    ], ids=["unsorted", "negative", "sparse", "int64-extreme"])
    @pytest.mark.parametrize("seed", [0, 9, 2 ** 40])
    def test_byte_equal_to_reference(self, ids, seed):
        spec = ProtocolSpec(8, 4, 2, 3, seed=seed, test_per_class=4)
        labels = self.shuffled_labels(ids, [7 + i % 4 for i in range(8)], seed)
        self.assert_same_split(fscil_split(spec, labels), fscil_split_per_class(spec, labels))

    @settings(max_examples=40, deadline=None)
    @given(ids=st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=12,
                        unique=True),
           extra=st.lists(st.integers(0, 5), min_size=12, max_size=12),
           k_shot=st.integers(1, 3), test_per_class=st.integers(1, 3),
           seed=st.integers(0, 2 ** 64 - 1), order_seed=st.integers(0, 2 ** 32 - 1),
           base=st.integers(1, 12))
    def test_byte_equal_to_reference_on_drawn_labels(self, ids, extra, k_shot, test_per_class,
                                                     seed, order_seed, base):
        n_way = 1
        base = min(base, len(ids))
        spec = ProtocolSpec(len(ids), base, n_way, k_shot, seed=seed,
                            test_per_class=test_per_class)
        counts = [k_shot + test_per_class + extra[i] for i in range(len(ids))]
        labels = self.shuffled_labels(ids, counts, order_seed)
        self.assert_same_split(fscil_split(spec, labels), fscil_split_per_class(spec, labels))

    @pytest.mark.parametrize("short", [[5], [2, 6], list(range(8))])
    def test_too_few_examples_raise_the_reference_error(self, short):
        spec = ProtocolSpec(8, 4, 2, 3, seed=4, test_per_class=4)
        ids = [-9, 40, 2 ** 50, 3, 0, 11, -2 ** 33, 6]
        counts = [6 if i in short else 9 for i in range(8)]
        labels = self.shuffled_labels(ids, counts, 1)
        want = self.error_text(fscil_split_per_class, spec, labels)
        assert want.startswith("class ") and "needs at least 7" in want
        assert self.error_text(fscil_split, spec, labels) == want

    @pytest.mark.parametrize("n_classes", [0, 5, 7])
    def test_class_count_mismatch_raises_the_reference_error(self, n_classes):
        spec = ProtocolSpec(6, 4, 2, 2, seed=9, test_per_class=2)
        labels = self.shuffled_labels(range(n_classes), [6] * n_classes, 2)
        want = self.error_text(fscil_split_per_class, spec, labels)
        assert self.error_text(fscil_split, spec, labels) == want


class TestSessionSequence:
    """The list of sessions materialize_sessions returns."""

    def dataset_and_split(self):
        spec = SyntheticSpec(d=32, g=4, n_classes=10, class_mean_norm=4.0,
                             within_class_sigma=1.0, examples_per_class=50, seed=4)
        ds = generate_synthetic(spec)
        proto = ProtocolSpec(total_classes=10, base_classes=4, n_way=2, k_shot=5,
                             seed=4, test_per_class=10)
        return ds, fscil_split(proto, ds.labels)

    @staticmethod
    def assert_session_is_the_split_part(session, ds, part):
        assert session.features is ds.features and session.labels is ds.labels
        assert session.assignment is part
        # the rows its indices pick are those of its classes
        for indices in (session.assignment.train_indices, session.assignment.test_indices):
            assert set(session.labels[indices].tolist()) == set(part.class_ids)

    def test_indices_and_slices_behave_as_on_a_list(self):
        ds, split = self.dataset_and_split()
        sessions = materialize_sessions(ds, split)
        assert type(sessions) is list
        assert len(sessions) == len(split) == 4
        for i in range(-len(split), len(split)):
            self.assert_session_is_the_split_part(sessions[i], ds, split[i])
        for part_slice in (slice(1, None), slice(None, -1), slice(None, None, -2),
                           slice(5, None)):
            sliced = sessions[part_slice]
            assert type(sliced) is list
            assert len(sliced) == len(split[part_slice])
            for session, part in zip(sliced, split[part_slice]):
                self.assert_session_is_the_split_part(session, ds, part)
        for i in (len(split), -len(split) - 1):
            with pytest.raises(IndexError):
                sessions[i]

    def test_iterating_again_gives_equal_data(self):
        ds, split = self.dataset_and_split()
        sessions = materialize_sessions(ds, split)
        for _ in range(2):
            seen = list(sessions)
            assert len(seen) == len(split)
            for session, part in zip(seen, split):
                self.assert_session_is_the_split_part(session, ds, part)

    def test_a_session_is_its_features_labels_and_assignment(self, traced_peak):
        assert [f.name for f in dataclasses.fields(data_io.SessionData)] == [
            "features", "labels", "assignment"]
        for name in ("train", "test", "session", "class_ids", "from_datasets"):
            assert not hasattr(data_io.SessionData, name)
        assert not hasattr(TokenDataset, "subset")
        ds, split = self.dataset_and_split()
        sessions = materialize_sessions(ds, split)
        held, peak = traced_peak(lambda: [sessions[i] for i in range(-len(split), len(split))])
        # indexing copies no rows
        assert peak < 0.01 * ds.features.nbytes
        for session, part in zip(held, split + split):
            self.assert_session_is_the_split_part(session, ds, part)

    def test_sessions_are_not_sliced_up_front(self, traced_peak):
        ds, split = self.dataset_and_split()
        sessions, peak = traced_peak(materialize_sessions, ds, split)
        assert len(sessions) == len(split)
        # a copy of every session's rows would be nearly the whole dataset
        assert peak < 0.01 * ds.features.nbytes


class TestSynthetic:
    def test_sigma_to_zero_collapses_classes(self):
        spec = SyntheticSpec(d=6, g=3, n_classes=2, class_mean_norm=2.0,
                             within_class_sigma=1e-12, examples_per_class=4, seed=0)
        ds = generate_synthetic(spec)
        for c in range(2):
            rows = ds.features[ds.labels == c]
            assert np.allclose(rows, rows[0], atol=1e-9)

    def test_mean_norm_respected(self):
        spec = SyntheticSpec(d=12, g=2, n_classes=5, class_mean_norm=3.0,
                             within_class_sigma=1e-9, examples_per_class=1, seed=1)
        ds = generate_synthetic(spec)
        for c in range(5):
            mean = ds.features[ds.labels == c].mean(axis=(0, 1))
            assert np.linalg.norm(mean) == pytest.approx(3.0, rel=1e-6)

    def test_antipodal_classes_nearest_mean_separable(self):
        spec = SyntheticSpec(d=8, g=4, n_classes=2, class_mean_norm=5.0,
                             within_class_sigma=0.3, examples_per_class=200, seed=2)
        ds = generate_synthetic(spec)
        means = np.stack([ds.features[ds.labels == c].mean(axis=(0, 1))
                          for c in range(2)])
        pooled = ds.features.mean(axis=1)
        preds = np.argmin(((pooled[:, None, :] - means[None]) ** 2).sum(-1), axis=1)
        assert (preds == ds.labels).mean() == 1.0

    def test_law_of_large_numbers_on_sample_mean(self):
        sigma = 0.7
        spec = SyntheticSpec(d=4, g=2, n_classes=1, class_mean_norm=2.0,
                             within_class_sigma=sigma, examples_per_class=10_000,
                             seed=3)
        ds = generate_synthetic(spec)
        template = generate_synthetic(SyntheticSpec(
            d=4, g=2, n_classes=1, class_mean_norm=2.0, within_class_sigma=1e-15,
            examples_per_class=1, seed=3)).features[0]
        sample_mean = ds.features.mean(axis=0)
        bound = 5 * sigma / np.sqrt(10_000)
        assert np.all(np.abs(sample_mean - template) < bound)

    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(d=5, g=3, n_classes=3, class_mean_norm=1.0,
                             within_class_sigma=0.5, examples_per_class=7, seed=4)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert a.features.tobytes() == b.features.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(d=4, g=2, n_classes=2, class_mean_norm=1.0,
                          within_class_sigma=0.0, examples_per_class=3)
        with pytest.raises(ValueError):
            SyntheticSpec(d=4, g=1, n_classes=2, class_mean_norm=1.0,
                          within_class_sigma=0.5, examples_per_class=3)


def small_state(seed=5):
    spec = SyntheticSpec(d=8, g=3, n_classes=4, class_mean_norm=3.0,
                         within_class_sigma=1.0, examples_per_class=10, seed=seed)
    ds = generate_synthetic(spec)
    proto = ProtocolSpec(4, 2, 2, 3, seed=seed, test_per_class=3)
    sessions = materialize_sessions(ds, fscil_split(proto, ds.labels))
    cfg = trainer.TrainConfig(base_epochs=2, incr_epochs=2, base_lr=0.05,
                              incr_lr=0.02, batch_size=8, seed=seed, hidden_dim=4)
    state = trainer.train_base(sessions[0], cfg)
    return trainer.train_incremental(state, sessions[1], cfg)


# --- reference encoder of the binary layout, for hand-built files ----------

# Files store float64 (width 8); width 4 builds the float32 layout the
# loaders reject.
WIDTH_DTYPES = {4: "<f4", 8: "<f8"}


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def file_header(kind: int, width: int, version: int) -> bytes:
    return b"GCMR" + struct.pack("<HBB", version, kind, width)


def dataset_body(width, g, d, class_ids, label_idx, values) -> bytes:
    return (file_header(data_io.KIND_DATASET, width, 1)
            + struct.pack("<IIII", len(label_idx), g, d, len(class_ids))
            + np.asarray(class_ids, dtype="<i8").tobytes()
            + np.asarray(label_idx, dtype="<u4").tobytes()
            + np.asarray(values, dtype=WIDTH_DTYPES[width]).tobytes())


def classifier_section(width, params) -> bytes:
    return (struct.pack("<IIId", params.dim, params.hidden, params.n_classes,
                        params.dropout_rate)
            + b"".join(np.asarray(arr, dtype=WIDTH_DTYPES[width]).tobytes()
                       for arr in (params.w1, params.b1, params.w2, params.b2)))


def checkpoint_body(width, state, version=3) -> bytes:
    """Version 3: session, encoder, head, representation memory. Versions 1
    and 2 led the encoder header with an activation and a norm code (1 and 0
    for tanh and layer norm); version 1 also followed the memory with the
    weight-memory session, a second copy of the head and the memory rows
    projected through it."""
    enc, mem = state.encoder, state.mem
    codes = b"" if version == 3 else struct.pack("<BB", 1, 0)
    body = (file_header(data_io.KIND_CHECKPOINT, width, version)
            + struct.pack("<I", state.session)
            + codes + struct.pack("<BII", int(enc.frozen), enc.raw_dim, enc.dim)
            + np.asarray(enc.w, dtype=WIDTH_DTYPES[width]).tobytes()
            + np.asarray(enc.b, dtype=WIDTH_DTYPES[width]).tobytes()
            + classifier_section(width, state.classifier)
            + struct.pack("<II", mem.n_classes, mem.dim)
            + np.asarray(mem.class_ids, dtype="<i8").tobytes()
            + np.asarray(mem.session_of, dtype="<u4").tobytes()
            + np.asarray(mem.rows, dtype=WIDTH_DTYPES[width]).tobytes())
    if version == 1:
        snapshot = state.wmem.classifier_snapshot
        projected = np.maximum(mem.rows @ snapshot.w1 + snapshot.b1, 0.0)
        body += (struct.pack("<I", state.wmem.session)
                 + classifier_section(width, snapshot)
                 + struct.pack("<II", *projected.shape)
                 + np.asarray(projected, dtype=WIDTH_DTYPES[width]).tobytes())
    return body


def write_blob(tmp_path, blob: bytes):
    path = tmp_path / "blob.gcmr"
    path.write_bytes(blob)
    return path


def read_rows(source) -> np.ndarray:
    """Every row of the RowSource source, in file order, read through one
    session that trains on all of them."""
    n = source.labels.shape[0]
    (session,) = source.sessions([SessionAssignment(0, (), np.arange(n), np.arange(0))])
    return session.features[np.arange(n)]


def seal(draw, body: bytes) -> bytes:
    """body whole, cut at a drawn point or followed by drawn bytes; then its CRC."""
    mode = draw(st.sampled_from(("whole", "cut", "extra")))
    if mode == "cut":
        body = body[:draw(st.integers(0, len(body)))]
    elif mode == "extra":
        body += draw(st.binary(min_size=1, max_size=9))
    return with_crc(body)


SMALL = st.integers(0, 3)


def float_payload(draw, count: int, finite: bool = False) -> bytes:
    """count drawn float64 values, NaN and infinities included unless
    finite is set."""
    values = draw(st.lists(st.floats(allow_nan=not finite, allow_infinity=not finite),
                           min_size=count, max_size=count))
    return np.asarray(values, dtype="<f8").tobytes()


# the header's width byte: 8 about half the time, else any byte
WIDTH_BYTES = st.one_of(st.just(8), st.integers(0, 255))


def declares_other_width(blob: bytes) -> bool:
    """Whether the sealed blob holds a whole header whose width byte is not 8."""
    return len(blob) >= 8 + 4 and blob[7] != 8


@st.composite
def dataset_blobs(draw):
    width = draw(WIDTH_BYTES)
    n, g, d, n_classes = draw(st.integers(0, 5)), draw(SMALL), draw(SMALL), draw(SMALL)
    class_ids = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                              min_size=n_classes, max_size=n_classes))
    # one index past the end of the table is drawn as often as a valid one
    label_idx = draw(st.lists(st.integers(0, n_classes), min_size=n, max_size=n))
    body = dataset_body(8, g, d, class_ids, label_idx, [])
    body = body[:7] + bytes([width]) + body[8:]
    return seal(draw, body + float_payload(draw, n * g * d))


@st.composite
def checkpoint_blobs(draw):
    width = draw(WIDTH_BYTES)
    # consistent blobs have valid sizes and dropout and agreeing section
    # shapes, so some of them load
    consistent = draw(st.booleans())
    finite = draw(st.booleans())
    size = st.integers(1, 3) if consistent else SMALL

    def floats(count):
        return float_payload(draw, count, finite)

    raw_dim, dim = draw(size), draw(st.integers(2, 3) if consistent else SMALL)
    body = file_header(data_io.KIND_CHECKPOINT, width, 3)
    body += struct.pack("<I", draw(st.integers(0, 2 ** 32 - 1)))
    body += struct.pack("<BII", draw(st.integers(0, 255)), raw_dim, dim)
    body += floats(raw_dim * dim + dim)
    head_dim = dim if consistent else draw(SMALL)
    hidden, n_classes = draw(size), draw(size)
    dropout = draw(st.floats(0.0, 0.9) if consistent
                   else st.one_of(st.floats(0.0, 0.9), st.floats()))
    body += struct.pack("<IIId", head_dim, hidden, n_classes, dropout)
    body += floats(head_dim * hidden + hidden + hidden * n_classes + n_classes)
    m_classes = n_classes if consistent else draw(SMALL)
    m_dim = head_dim if consistent else draw(SMALL)
    body += struct.pack("<II", m_classes, m_dim)
    ids = st.lists(st.integers(-1, 2), min_size=m_classes, max_size=m_classes)
    body += np.asarray(draw(ids), dtype="<i8").tobytes()  # duplicates are likely
    sessions = st.lists(st.integers(0, 2 ** 32 - 1), min_size=m_classes, max_size=m_classes)
    body += np.asarray(draw(sessions), dtype="<u4").tobytes()
    return seal(draw, body + floats(m_classes * m_dim))


FUZZ = settings(max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestBinaryRoundTrips:
    def test_dataset_round_trip_bit_exact(self, tmp_path):
        gen = np.random.default_rng(6)
        features = gen.normal(size=(5, 3, 4))
        features[0, 0, 0] = 0.0
        features[0, 0, 1] = -0.0
        ds = TokenDataset(features, np.array([3, 1, 4, 1, 5]))
        path = tmp_path / "data.gcmr"
        save_dataset(ds, path)
        with load_features(path) as source:
            loaded = read_rows(source)
            np.testing.assert_array_equal(source.labels, ds.labels)
        assert loaded.tobytes() == ds.features.tobytes()
        # signed zero preserved
        assert np.signbit(loaded[0, 0, 1])
        assert not np.signbit(loaded[0, 0, 0])

    def test_checkpoint_round_trip_deep_equal(self, tmp_path):
        state = small_state()
        path = tmp_path / "state.gcmr"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.session == state.session
        assert loaded.encoder.state_bytes() == state.encoder.state_bytes()
        assert loaded.encoder.frozen == state.encoder.frozen
        assert loaded.encoder.frozen and not loaded.encoder.w.flags.writeable
        assert not loaded.encoder.b.flags.writeable
        assert loaded.classifier.state_bytes() == state.classifier.state_bytes()
        assert loaded.classifier.dropout_rate == state.classifier.dropout_rate
        assert loaded.mem.rows.tobytes() == state.mem.rows.tobytes()
        assert loaded.mem.class_ids == state.mem.class_ids
        assert loaded.mem.session_of == state.mem.session_of
        assert loaded.wmem.session == state.wmem.session
        assert loaded.wmem.classifier_snapshot.state_bytes() == \
            state.wmem.classifier_snapshot.state_bytes()

    def test_save_is_deterministic(self, tmp_path):
        state = small_state()
        a, b = tmp_path / "a.gcmr", tmp_path / "b.gcmr"
        save_checkpoint(state, a)
        save_checkpoint(state, b)
        assert a.read_bytes() == b.read_bytes()

    def test_width_4_files_rejected(self, tmp_path, capsys):
        # float32 payloads are not part of the format: width 4 fails at the header
        gen = np.random.default_rng(7)
        features = gen.normal(size=(3, 2, 2))
        dataset = with_crc(dataset_body(4, 2, 2, [0, 1], [0, 1, 0], features.ravel()))
        checkpoint = with_crc(checkpoint_body(4, small_state()))
        for blob, load in ((dataset, load_features), (checkpoint, load_checkpoint)):
            with pytest.raises(FormatError, match="float width 4") as excinfo:
                load(write_blob(tmp_path, blob))
            assert excinfo.value.offset == 7
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"version": 1, "protocol": {
            "total_classes": 2, "base_classes": 2, "n_way": 1, "k_shot": 1,
            "test_per_class": 1}}))
        out = tmp_path / "run"
        assert main(["run", "--config", str(config), "--data",
                     str(write_blob(tmp_path, dataset)), "--out", str(out)]) == EXIT_DATA
        assert "float width 4" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_file_matches_reference_layout(self, tmp_path):
        # the streamed writer produces the documented layout byte for byte
        gen = np.random.default_rng(14)
        features = gen.normal(size=(3, 2, 2))
        path = tmp_path / "data.gcmr"
        save_dataset(TokenDataset(features, np.array([7, -2, 7])), path)
        expected = with_crc(dataset_body(8, 2, 2, [-2, 7], [1, 0, 1], features.ravel()))
        assert path.read_bytes() == expected

    def test_checkpoint_file_matches_reference_layout(self, tmp_path):
        state = small_state()
        path = tmp_path / "state.gcmr"
        save_checkpoint(state, path)
        assert path.read_bytes() == with_crc(checkpoint_body(8, state))

    def test_reloaded_weight_memory_is_the_saved_snapshot(self, tmp_path):
        # the trainer's snapshot invariant survives a checkpoint round trip
        state = small_state()
        assert state.wmem.classifier_snapshot.state_bytes() == state.classifier.state_bytes()
        path = tmp_path / "state.gcmr"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.wmem.session == loaded.session == state.session
        snapshot = loaded.wmem.classifier_snapshot
        assert snapshot.state_bytes() == state.wmem.classifier_snapshot.state_bytes()
        assert snapshot.dropout_rate == state.wmem.classifier_snapshot.dropout_rate
        for name, arr in loaded.classifier.arrays().items():
            assert not np.shares_memory(arr, snapshot.arrays()[name])

    def test_checkpoint_resaves_byte_identical(self, tmp_path):
        state = small_state()
        a, b = tmp_path / "a.gcmr", tmp_path / "b.gcmr"
        save_checkpoint(state, a)
        loaded = load_checkpoint(a)
        save_checkpoint(loaded, b)
        assert a.read_bytes() == b.read_bytes()
        assert loaded.mem.rows.tobytes() == state.mem.rows.tobytes()


class TestZeroCopyLoad:
    @pytest.mark.parametrize("n", [4, 5])  # the payload offset is unaligned for odd n
    def test_features_are_contiguous_aligned_writable_float64(self, tmp_path, n):
        # rows are read from the file straight into the array handed back,
        # whichever side of the 8-byte grid the payload starts on
        features = np.random.default_rng(15).normal(size=(n, 3, 2))
        path = tmp_path / "data.gcmr"
        save_dataset(TokenDataset(features, np.arange(n) % 2), path)
        with load_features(path) as source:
            assert source._offset % 8 == (0 if n % 2 == 0 else 4)
            loaded = read_rows(source)
        assert loaded.dtype == np.float64
        assert loaded.flags.c_contiguous and loaded.flags.aligned and loaded.flags.writeable
        assert loaded.tobytes() == features.tobytes()
        loaded[0, 0, 0] = 1.0  # writable in place


class TestFiniteness:
    def test_loaders_scan_each_value_once(self, tmp_path, monkeypatch):
        # the binary reader scans once itself; CSV values are checked per
        # line; neither builds a TokenDataset, whose constructor scans again
        path = tmp_path / "data.gcmr"
        save_dataset(TokenDataset(np.ones((2, 2, 2)), np.array([0, 1])), path)
        flat = tmp_path / "flat.csv"
        flat.write_text("label,f0,f1\n1,0.5,2.0\n")
        groups = tmp_path / "groups.csv"
        groups.write_text("label,token,f0\n3,0,1.0\n3,1,2.0\n")

        def fail(*args, **kwargs):
            raise AssertionError("second finiteness scan")

        monkeypatch.setattr(TokenDataset, "__post_init__", fail)
        with load_features(path) as source:
            assert len(source.labels) == 2
        monkeypatch.setattr(np, "isfinite", fail)
        for csv_path, row_shape in ((flat, (1, 2)), (groups, (2, 1))):
            with load_features(csv_path) as source:
                assert source.row_shape == row_shape
                assert read_rows(source).shape == (1, *row_shape)

    def test_constructor_rejects_non_finite_and_misaligned_rows(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                TokenDataset(np.array([[[1.0, bad]]]), np.array([0]))
        ds = TokenDataset(np.ones((2, 1, 2)), [4, 5])
        assert ds.labels.dtype == np.int64
        with pytest.raises(ValueError, match="align"):
            TokenDataset(np.ones((2, 1, 2)), [4])


class TestAtomicWrites:
    def test_write_that_raises_midway_keeps_previous_file(self, tmp_path):
        path = tmp_path / "data.gcmr"
        save_dataset(TokenDataset(np.ones((2, 2, 2)), np.array([0, 1])), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write(b"partial")
                fh.flush()
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.gcmr"]

    def test_failed_checkpoint_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        state = small_state()
        path = tmp_path / "state.gcmr"
        save_checkpoint(state, path)
        before = path.read_bytes()
        state.session += 1

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(data_io.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(state, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.gcmr"]

    def test_success_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "data.gcmr"
        path.write_bytes(b"old")
        ds = TokenDataset(np.ones((2, 2, 2)), np.array([0, 1]))
        save_dataset(ds, path)
        with load_features(path) as source:
            assert read_rows(source).tobytes() == ds.features.tobytes()
        assert [p.name for p in tmp_path.iterdir()] == ["data.gcmr"]

    def test_only_whole_file_modes(self, tmp_path):
        with pytest.raises(ValueError, match="mode 'a'"):
            with atomic_open(tmp_path / "x", "a"):
                pass
        assert list(tmp_path.iterdir()) == []


class TestFormatErrors:
    def make_dataset_file(self, tmp_path):
        gen = np.random.default_rng(8)
        ds = TokenDataset(gen.normal(size=(4, 2, 3)), np.array([0, 1, 1, 0]))
        path = tmp_path / "data.gcmr"
        save_dataset(ds, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_dataset_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="bad magic"):
            load_features(path)

    def test_version_mismatch(self, tmp_path):
        path = self.make_dataset_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError, match="unsupported format version"):
            load_features(path)

    def test_versions_are_per_kind(self, tmp_path):
        state = small_state()
        for version in (1, 2):
            old_checkpoint = with_crc(checkpoint_body(8, state, version=version))
            with pytest.raises(FormatError, match="unsupported format version") as excinfo:
                load_checkpoint(write_blob(tmp_path, old_checkpoint))
            assert excinfo.value.offset == 4
        v1_dataset = dataset_body(8, 1, 2, [3], [0], [1.0, -2.0])
        with load_features(write_blob(tmp_path, with_crc(v1_dataset))) as source:
            assert source.labels.tolist() == [3]
        v2_dataset = v1_dataset[:4] + struct.pack("<H", 2) + v1_dataset[6:]
        with pytest.raises(FormatError, match="unsupported format version") as excinfo:
            load_features(write_blob(tmp_path, with_crc(v2_dataset)))
        assert excinfo.value.offset == 4

    def test_truncation_reports_offset(self, tmp_path):
        path = self.make_dataset_file(tmp_path)
        blob = path.read_bytes()
        truncated = blob[:len(blob) // 2]
        body = truncated[:-4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError, match="file ends inside") as excinfo:
            load_features(path)
        assert excinfo.value.offset is not None

    def test_checksum_mismatch(self, tmp_path):
        path = self.make_dataset_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="checksum mismatch"):
            load_features(path)

    def test_kind_mismatch(self, tmp_path):
        path = self.make_dataset_file(tmp_path)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_fuzz_random_bytes_raise_format_errors_only(self, tmp_path):
        # 10,000 random byte strings must never crash the loader: nearly all
        # lack the magic and reach the CSV reader; the next test's keep the
        # magic and reach the binary reader
        gen = np.random.default_rng(9)
        path = tmp_path / "fuzz.bin"
        for _ in range(10_000):
            length = int(gen.integers(0, 120))
            path.write_bytes(gen.bytes(length))
            with pytest.raises(FormatError):
                load_features(path)

    def test_fuzz_with_valid_magic_prefix(self, tmp_path):
        gen = np.random.default_rng(10)
        path = tmp_path / "fuzz.bin"
        for _ in range(500):
            blob = b"GCMR" + gen.bytes(int(gen.integers(0, 80)))
            path.write_bytes(blob)
            with pytest.raises(FormatError):
                load_features(path)

    def test_empty_class_table_with_examples(self, tmp_path):
        blob = with_crc(dataset_body(8, 1, 2, [], [0, 0], np.zeros(4)))
        with pytest.raises(FormatError, match="class table") as excinfo:
            load_features(write_blob(tmp_path, blob))
        assert excinfo.value.offset == 24 + 4 * 2  # after the labels

    def test_label_index_past_the_table(self, tmp_path):
        blob = with_crc(dataset_body(8, 1, 2, [5, 6], [0, 2], np.zeros(4)))
        with pytest.raises(FormatError, match="class table") as excinfo:
            load_features(write_blob(tmp_path, blob))
        assert excinfo.value.offset == 24 + 8 * 2 + 4 * 2

    def test_empty_dataset_loads(self, tmp_path):
        with load_features(write_blob(tmp_path,
                                      with_crc(dataset_body(8, 2, 3, [], [], [])))) as source:
            assert source.row_shape == (2, 3) and source.labels.shape == (0,)
            assert read_rows(source).shape == (0, 2, 3)

    def test_non_finite_payload_reports_payload_end(self, tmp_path):
        for bad in (np.nan, np.inf):
            blob = with_crc(dataset_body(8, 1, 2, [1], [0], [0.0, bad]))
            with pytest.raises(FormatError, match="non-finite") as excinfo:
                load_features(write_blob(tmp_path, blob))
            assert excinfo.value.offset == len(blob) - 4

    @pytest.mark.parametrize("corrupt", ["duplicate ids", "dropout", "nan dropout",
                                         "encoder dim", "encoder wider than head",
                                         "nan encoder bias", "nan head w2",
                                         "inf memory row", "head narrower than memory"])
    def test_checkpoint_fields_the_model_rejects(self, tmp_path, corrupt):
        # checksum-valid files whose sections fail the model's own checks
        state = small_state()
        cause = {"duplicate ids": "invalid representation memory",
                 "dropout": "invalid classifier", "nan dropout": "invalid classifier",
                 "encoder dim": "invalid encoder",
                 "encoder wider than head": "classifier dim 8 does not match encoder dim 11",
                 "head narrower than memory": "memory holds 4 classes but the classifier "
                                              "has 2 columns"}.get(corrupt, "non-finite")
        if corrupt == "duplicate ids":
            ids = state.mem.class_ids
            object.__setattr__(state.mem, "class_ids", (ids[0],) * len(ids))
        elif corrupt == "dropout":
            state.classifier.dropout_rate = 1.5
        elif corrupt == "nan dropout":
            state.classifier.dropout_rate = float("nan")
        elif corrupt == "encoder dim":
            state.encoder.w = state.encoder.w[:, :1]
            state.encoder.b = state.encoder.b[:1]
        elif corrupt == "encoder wider than head":
            gen, wide = np.random.default_rng(17), state.encoder.dim + 3
            state.encoder.w = gen.normal(size=(state.encoder.raw_dim, wide))
            state.encoder.b = gen.normal(size=wide)
        elif corrupt == "nan encoder bias":
            state.encoder.b = np.where(np.arange(state.encoder.dim) == 1, np.nan,
                                       state.encoder.b)
        elif corrupt == "nan head w2":
            state.classifier.w2 = state.classifier.w2.copy()
            state.classifier.w2[-1, -1] = np.nan
        elif corrupt == "head narrower than memory":
            state.classifier.w2 = state.classifier.w2[:, :2]
            state.classifier.b2 = state.classifier.b2[:2]
        else:
            rows = state.mem.rows.copy()
            rows[0, 0] = np.inf
            object.__setattr__(state.mem, "rows", rows)
        path = tmp_path / "state.gcmr"
        save_checkpoint(state, path)
        with pytest.raises(FormatError, match=cause) as excinfo:
            load_checkpoint(path)
        assert 0 < excinfo.value.offset < path.stat().st_size

    @FUZZ
    @given(blob=dataset_blobs())
    def test_fuzz_structured_datasets(self, tmp_path, blob):
        try:
            source = load_features(write_blob(tmp_path, blob))
        except FormatError as exc:
            assert exc.offset == 7 or not declares_other_width(blob)
            return
        assert not declares_other_width(blob)
        with source:
            rows = read_rows(source)
        assert rows.dtype == np.float64 and np.isfinite(rows).all()
        assert rows.shape == (source.labels.shape[0], *source.row_shape)

    @FUZZ
    @given(blob=checkpoint_blobs())
    def test_fuzz_structured_checkpoints(self, tmp_path, blob):
        try:
            state = load_checkpoint(write_blob(tmp_path, blob))
        except FormatError as exc:
            assert exc.offset == 7 or not declares_other_width(blob)
            return
        assert not declares_other_width(blob)
        assert state.encoder.dim == state.classifier.dim == state.mem.dim
        assert state.classifier.n_classes == state.mem.n_classes
        arrays = [state.encoder.w, state.encoder.b, state.mem.rows,
                  *state.classifier.arrays().values()]
        assert all(arr.dtype == np.float64 and np.isfinite(arr).all() for arr in arrays)
        assert state.wmem.classifier_snapshot.state_bytes() == state.classifier.state_bytes()
        assert state.wmem.session == state.session


class TestCsv:
    def test_flat_fixture(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("label,f0,f1,f2\n"
                        "1,0.5,-1.0,2.0\n"
                        "0,1.5,0.25,-0.125\n"
                        "1,0.0,3.5,1.0\n")
        with load_features(path) as source:
            features = read_rows(source)
            np.testing.assert_array_equal(source.labels, [1, 0, 1])
        assert features.shape == (3, 1, 3)
        assert features[1, 0, 2] == -0.125

    def test_token_group_fixture(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("label,token,f0,f1\n"
                        "2,0,1.0,2.0\n"
                        "2,1,3.0,4.0\n"
                        "5,0,5.0,6.0\n"
                        "5,1,7.0,8.0\n")
        with load_features(path) as source:
            features = read_rows(source)
            np.testing.assert_array_equal(source.labels, [2, 5])
        assert features.shape == (2, 2, 2)
        np.testing.assert_array_equal(features[1], [[5.0, 6.0], [7.0, 8.0]])

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n1,0.5\n")
        with pytest.raises(FormatError, match="line 2 has 2 fields, expected 3"):
            load_features(path)

    @pytest.mark.parametrize("text, message", [
        ("label,f0,f1\n\n1,0.5,0.25\n\n2,abc,1\n", "non-numeric feature value on line 5$"),
        ("label,f0,f1\n\n1,0.5,0.25\n\n\n2,0.5\n", "^line 6 has 2 fields"),
    ], ids=["non-numeric", "ragged"])
    def test_error_names_its_file_line_after_blank_lines(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
            load_features(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n1,0.5,abc\n")
        with pytest.raises(FormatError):
            load_features(path)

    def test_inconsistent_token_counts_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,token,f0\n1,0,0.5\n1,1,0.5\n2,0,0.5\n")
        with pytest.raises(FormatError, match="differing token counts"):
            load_features(path)

    def test_oversized_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n99999999999999999999999999,1.0\n")
        with pytest.raises(FormatError):
            load_features(path)

    def test_fuzz_text_inputs_raise_format_errors_only(self, tmp_path):
        gen = np.random.default_rng(12)
        alphabet = list("label,token0123456789.eE+-\n\"'x")
        path = tmp_path / "fuzz.csv"
        for _ in range(1000):
            text = "".join(gen.choice(alphabet, size=int(gen.integers(0, 60))))
            path.write_text(text)
            try:
                load_features(path).close()
            except FormatError:
                pass  # the only acceptable failure mode

    def test_binary_dispatch_by_magic(self, tmp_path):
        gen = np.random.default_rng(11)
        ds = TokenDataset(gen.normal(size=(2, 2, 2)), np.array([0, 1]))
        path = tmp_path / "data.gcmr"
        save_dataset(ds, path)
        with load_features(path) as source:
            assert read_rows(source).tobytes() == ds.features.tobytes()

    def test_header_without_examples_rejected(self, tmp_path):
        for header in ("label,f0,f1\n", "label,token,f0\n"):
            path = tmp_path / "empty.csv"
            path.write_text(header)
            with pytest.raises(FormatError, match="no examples"):
                load_features(path)

    def test_non_finite_value_rejected(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            path = tmp_path / "bad.csv"
            path.write_text(f"label,token,f0\n1,0,0.5\n1,1,{bad}\n")
            with pytest.raises(FormatError, match="non-finite"):
                load_features(path)


# --- gcmr run reads only the protocol's rows -------------------------------

def run_config(tmp_path, **protocol):
    """A run config of 6 classes of 10 examples: the two base classes read all
    their rows, the four incremental ones 2 + 3 of 10."""
    proto = {"total_classes": 6, "base_classes": 2, "n_way": 2, "k_shot": 2,
             "seed": 4, "test_per_class": 3, **protocol}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "version": 1, "protocol": proto, "loss": {"mask_ratio": 0.5},
        "train": {"base_epochs": 1, "incr_epochs": 1, "batch_size": 8, "hidden_dim": 4}}))
    return path


def unread_row(labels, protocol: ProtocolSpec) -> int:
    """The first row no session of the protocol trains or tests on."""
    read = {int(i) for part in fscil_split(protocol, labels)
            for i in (*part.train_indices, *part.test_indices)}
    return min(set(range(len(labels))) - read)


# n = 60 rows of 2 x 3 features: shape at 8, class table at 24, labels at
# 72, payload at 312, checksum at 3192
RUN_LABELS = np.repeat(np.arange(6), 10)
RUN_BODY = dataset_body(8, 2, 3, range(6), RUN_LABELS,
                        np.random.default_rng(18).normal(size=60 * 2 * 3))
UNREAD = unread_row(RUN_LABELS, ProtocolSpec(6, 2, 2, 2, seed=4, test_per_class=3))


def flipped(blob: bytes, at: int) -> bytes:
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


def nan_in_row(body: bytes, row: int) -> bytes:
    at = 312 + row * 2 * 3 * 8
    return body[:at] + struct.pack("<d", math.nan) + body[at + 8:]


def past_the_table(body: bytes) -> bytes:
    return body[:72 + 4 * 7] + struct.pack("<I", 6) + body[72 + 4 * 8:]


SEALED = with_crc(RUN_BODY)


def stale(body: bytes) -> bytes:
    """body followed by the checksum of the uncorrupted file."""
    return body + SEALED[-4:]


def checksum_line(blob: bytes) -> str:
    stored, = struct.unpack("<I", blob[-4:])
    return (f"checksum mismatch: stored {stored:#010x}, computed {zlib.crc32(blob[:-4]):#010x} "
            f"(at byte offset {len(blob) - 4})")


def run_corruptions() -> dict:
    """Every corruption TestFormatErrors applies to load_features, for gcmr
    run: name -> (file, the error it must report)."""
    cases = {
        # gcmr run reads a file without the magic as CSV, and says why it
        # is not a binary file either
        "bad magic": (b"NOPE" + SEALED[4:],
                      "not a readable CSV file: 'utf-8' codec can't decode byte 0xa9 in "
                      "position 312: invalid start byte; nor is it a GCMR binary file: "
                      "bad magic b'NOPE', expected b'GCMR'"),
        "under 4 bytes": (SEALED[:3], "CSV header must start with 'label'; nor is it a "
                                      "GCMR binary file: it ends inside the magic, after "
                                      "3 bytes"),
        "under 12 bytes": (SEALED[:10],
                           "file too short for header and checksum (at byte offset 10)"),
        "wrong version": (with_crc(RUN_BODY[:4] + struct.pack("<H", 99) + RUN_BODY[6:]),
                          "unsupported format version 99 (at byte offset 4)"),
        "truncated shape": (with_crc(RUN_BODY[:16]),
                            "file ends inside dataset shape (at byte offset 8)"),
        "truncated class table": (with_crc(RUN_BODY[:40]),
                                  "file ends inside class table (at byte offset 24)"),
        "truncated labels": (with_crc(RUN_BODY[:200]),
                             "file ends inside labels (at byte offset 72)"),
        "truncated payload": (with_crc(RUN_BODY[:1000]),
                              "file ends inside feature payload (at byte offset 312)"),
        "trailing bytes": (with_crc(RUN_BODY + bytes(5)),
                           "trailing bytes after payload (at byte offset 3192)"),
        "label past the table": (with_crc(past_the_table(RUN_BODY)),
                                 "label index 6 outside the class table of 6 classes "
                                 "(at byte offset 312)"),
        "nan in an unread row": (with_crc(nan_in_row(RUN_BODY, UNREAD)),
                                 "non-finite values in feature payload (at byte offset 3192)"),
    }
    # the checksum is judged before any of the structure
    bad_checksums = {f"flipped {name} byte": flipped(SEALED, at)
                     for name, at in (("header", 5), ("class table", 30), ("labels", 100),
                                      ("payload", 2000), ("trailer", 3194))}
    for name, body in (("truncated payload", RUN_BODY[:1000]),
                       ("label past the table", past_the_table(RUN_BODY)),
                       ("nan in an unread row", nan_in_row(RUN_BODY, UNREAD))):
        bad_checksums[f"{name}, stale checksum"] = stale(body)
    cases.update((name, (blob, checksum_line(blob))) for name, blob in bad_checksums.items())
    return cases


RUN_CORRUPTIONS = run_corruptions()


class TestRunReadsOnlyTheProtocolRows:
    @staticmethod
    def run(tmp_path, data, *flags, **protocol):
        out = tmp_path / "run"
        code = main(["run", "--config", str(run_config(tmp_path, **protocol)),
                     "--data", str(data), "--out", str(out), *flags])
        return code, out

    def assert_data_error(self, tmp_path, capsys, monkeypatch, blob, line, **protocol):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on a dataset that does not validate")

        monkeypatch.setattr(trainer, "train_base", no_training)
        code, out = self.run(tmp_path, write_blob(tmp_path, blob), **protocol)
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {line}\n"
        assert not out.exists()  # no checkpoint, nor anything else

    @pytest.mark.parametrize("corrupt", sorted(RUN_CORRUPTIONS))
    def test_corrupt_file_exits_3_with_the_whole_load_error(self, tmp_path, capsys,
                                                            monkeypatch, corrupt):
        blob, line = RUN_CORRUPTIONS[corrupt]
        self.assert_data_error(tmp_path, capsys, monkeypatch, blob, line)

    def test_the_sealed_file_runs(self, tmp_path, capsys):
        assert self.run(tmp_path, write_blob(tmp_path, SEALED))[0] == 0

    def test_class_count_the_protocol_disagrees_with_exits_3(self, tmp_path, capsys,
                                                             monkeypatch):
        wider = {"total_classes": 8, "base_classes": 4}
        self.assert_data_error(tmp_path, capsys, monkeypatch, SEALED,
                               "dataset has 6 classes, spec expects 8", **wider)
        # the split is judged only once the whole file has validated
        self.assert_data_error(tmp_path, capsys, monkeypatch,
                               with_crc(nan_in_row(RUN_BODY, UNREAD)),
                               "non-finite values in feature payload (at byte offset 3192)",
                               **wider)
        blob = stale(nan_in_row(RUN_BODY, UNREAD))
        self.assert_data_error(tmp_path, capsys, monkeypatch, blob, checksum_line(blob),
                               **wider)

    def test_run_is_byte_equal_to_a_run_over_the_whole_dataset(self, tmp_path):
        # 8 classes of 40: the 2 base classes read all their rows, the 6
        # incremental ones 2 + 8 of 40, so the run reads 140 of 320 rows, the
        # payload's first and last among them; the same values written as
        # CSV run through the same stream
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "version": 1,
            "train": {"base_epochs": 2, "incr_epochs": 3, "batch_size": 16, "seed": 3,
                      "hidden_dim": 8},
            "protocol": {"total_classes": 8, "base_classes": 2, "n_way": 2, "k_shot": 2,
                         "seed": 4, "test_per_class": 8},
            "synthetic": {"d": 6, "g": 4, "n_classes": 8, "class_mean_norm": 3.0,
                          "within_class_sigma": 1.5, "examples_per_class": 40, "seed": 3}}))
        data = tmp_path / "data.gcmr"
        assert main(["synth", "--spec", str(config), "--out", str(data)]) == 0
        parsed = load_run_config(config)
        dataset = generate_synthetic(parsed["synthetic"])  # the spec the file was written from
        write_token_csv(tmp_path / "data.csv", dataset)
        split = fscil_split(parsed["protocol"], dataset.labels)
        rows = [np.sort(np.concatenate([part.train_indices, part.test_indices]))
                for part in split]
        read = np.concatenate(rows)
        assert len(read) == 140 < len(dataset) // 2
        assert {0, len(dataset) - 1} <= set(read.tolist())
        assert any(1 in run_lengths(r) for r in rows)
        whole = tmp_path / "whole"
        whole.mkdir()
        records = []

        def save(state, report):
            save_checkpoint(state, whole / f"session_{state.session:02d}.gcmr")

        reports, _ = trainer.run_protocol(materialize_sessions(dataset, split),
                                          parsed["train"], records.append, on_session=save)
        saved = sorted(p.name for p in whole.iterdir())
        assert len(saved) == 4
        for data in (tmp_path / "data.gcmr", tmp_path / "data.csv"):
            out = tmp_path / f"run-{data.suffix[1:]}"
            assert main(["run", "--config", str(config), "--data", str(data),
                         "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["sessions"] == json.loads(json.dumps([r.to_json_dict()
                                                                for r in reports]))
            assert (out / "run_log.jsonl").read_text().splitlines() == [json.dumps(r)
                                                                        for r in records]
            assert saved == sorted(p.name for p in (out / "checkpoints").iterdir())
            for name in saved:
                assert (out / "checkpoints" / name).read_bytes() == (whole / name).read_bytes()

    def test_stream_reads_the_same_rows_in_the_same_order(self, tmp_path):
        gen = np.random.default_rng(19)
        labels = gen.permutation(np.repeat(np.arange(6), 10))
        dataset = TokenDataset(gen.normal(size=(60, 2, 3)), labels)
        split = fscil_split(ProtocolSpec(6, 2, 2, 2, seed=5, test_per_class=3), labels)
        save_dataset(dataset, tmp_path / "data.gcmr")
        write_token_csv(tmp_path / "data.csv", dataset)
        for path in (tmp_path / "data.gcmr", tmp_path / "data.csv"):
            with load_features(path) as source:
                assert source.labels.tolist() == labels.tolist()
                assert source.row_shape == (2, 3)
                sessions = source.sessions(split)
                # as materialize_sessions' are: the split's own assignments
                # over the label column and features indexed by dataset row
                assert type(sessions) is list and len(sessions) == len(split)
                for session, part in zip(sessions, split, strict=True):
                    assert session.assignment is part and session.labels is source.labels
                    assert session.features.shape == (len(dataset), 2, 3)
                    for idx in (part.train_indices, part.test_indices):
                        assert (session.features[idx].tobytes()
                                == dataset.features[idx].tobytes())
                # a CSV's sessions share its one parsed array; a binary
                # file's each have their own SessionRows
                assert len({id(s.features) for s in sessions}) == (
                    1 if path.suffix == ".csv" else len(split))

    def test_peak_holds_one_incremental_session_at_a_time(self, tmp_path, traced_peak):
        # the base session fixed, 2 or 8 incremental sessions of 2 classes:
        # the longer run holds 6 more sessions' cached test features and
        # label column, but never more than one session's rows
        g, d, k_shot, test, examples = 8, 64, 2, 4, 100
        peaks = []
        for n_sessions in (2, 8):
            n_classes = 4 + 2 * n_sessions
            config = tmp_path / f"config{n_sessions}.json"
            config.write_text(json.dumps({
                "version": 1,
                "train": {"base_epochs": 1, "incr_epochs": 1, "batch_size": 64,
                          "hidden_dim": 8},
                "protocol": {"total_classes": n_classes, "base_classes": 4, "n_way": 2,
                             "k_shot": k_shot, "test_per_class": test},
                "synthetic": {"d": d, "g": g, "n_classes": n_classes, "class_mean_norm": 8.0,
                              "within_class_sigma": 1.0, "examples_per_class": examples}}))
            data, out = tmp_path / f"data{n_sessions}.gcmr", tmp_path / f"run{n_sessions}"
            assert main(["synth", "--spec", str(config), "--out", str(data)]) == 0
            code, peak = traced_peak(main, ["run", "--config", str(config), "--data",
                                            str(data), "--out", str(out)])
            assert code == 0
            peaks.append(peak)
        session_rows = 2 * (k_shot + test) * g * d * 8
        extra_sessions = 8 - 2
        extra_features = extra_sessions * 2 * test * d * 8
        # int64 labels of the source, class-table indices and their cast
        extra_labels = extra_sessions * 2 * examples * (8 + 4 + 8)
        assert peaks[1] - peaks[0] < session_rows + extra_features + extra_labels

    def test_peak_never_holds_a_sessions_test_rows_whole(self, tmp_path, traced_peak):
        # 2 base classes of 25 train and 250 test rows of 32 x 64 tokens
        # (16 KiB a row): the base session's test rows are 8 MB, ten times
        # its train rows, and are read one encode chunk at a time
        g, d, k_shot, test, examples = 32, 64, 2, 250, 275
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "version": 1,
            "train": {"base_epochs": 1, "incr_epochs": 1, "batch_size": 8, "hidden_dim": 8},
            "protocol": {"total_classes": 4, "base_classes": 2, "n_way": 2,
                         "k_shot": k_shot, "test_per_class": test},
            "synthetic": {"d": d, "g": g, "n_classes": 4, "class_mean_norm": 8.0,
                          "within_class_sigma": 1.0, "examples_per_class": examples}}))
        data, out = tmp_path / "data.gcmr", tmp_path / "run"
        assert main(["synth", "--spec", str(config), "--out", str(data)]) == 0
        code, peak = traced_peak(main, ["run", "--config", str(config), "--data", str(data),
                                        "--out", str(out)])
        assert code == 0
        test_rows = 2 * test * g * d * 8
        # the encoded test features of every session, one session's encoded
        # test rows beside them, and the label column
        encoded = 2 * 4 * test * d * 8 + 4 * examples * (8 + 4 + 8)
        bound = encoded + 4 * encoder.ENCODE_CHUNK_BYTES
        assert peak < bound < test_rows

    def test_peak_never_holds_a_sessions_train_rows(self, tmp_path, traced_peak,
                                                    monkeypatch):
        # 2 base classes of 70 train rows of 64 x 64 tokens (32 KiB a row):
        # the base session's train rows are 4.4 MiB, more than 4 encode
        # chunks, and are read one batch or one encode chunk at a time
        g, d, train, test = 64, 64, 70, 2
        labels = np.repeat(np.arange(3), train + test)
        path = tmp_path / "data.gcmr"
        save_dataset(TokenDataset(np.random.default_rng(24).normal(size=(labels.size, g, d)),
                                  labels), path)
        split = fscil_split(ProtocolSpec(3, 2, 1, 2, test_per_class=test), labels)
        train_rows = split[0].train_indices.size * g * d * 8
        assert train_rows > 4 * encoder.ENCODE_CHUNK_BYTES
        cfg = trainer.TrainConfig(base_epochs=1, incr_epochs=1, batch_size=4, hidden_dim=8)
        calls = []
        preadv = os.preadv

        def recording_preadv(*args):
            calls.append(args[2])
            return preadv(*args)

        monkeypatch.setattr(os, "preadv", recording_preadv)
        with load_features(path) as source:
            sessions = source.sessions(split)
            assert calls == []  # making the sessions reads no row
            _, peak = traced_peak(trainer.run_protocol, sessions, cfg)
        assert calls
        # the encoded test features of every session and their labels
        test_buffer = sum(part.test_indices.size for part in split) * (d + 1) * 8
        assert peak < 3 * encoder.ENCODE_CHUNK_BYTES + test_buffer < train_rows

    def test_reads_each_run_of_rows_with_one_call_in_the_order_asked(self, tmp_path,
                                                                      monkeypatch):
        # a session's rows are read when they are gathered, each time: the
        # base session's two training batches in their shuffled order, then
        # its train rows and its test rows as they are encoded; an
        # incremental session's train rows, then its test rows, each in the
        # assignment's order. Every read makes one positioned read per run of
        # consecutive rows, at that run's offset, in the order the rows were
        # asked for
        split = fscil_split(ProtocolSpec(6, 2, 2, 2, seed=4, test_per_class=3), RUN_LABELS)
        asked, calls = [], []
        read, preadv = data_io.RowSource._read, os.preadv

        def recording_read(source, rows, session):
            asked.append((session, rows.tolist()))
            return read(source, rows, session)

        def recording_preadv(fd, buffers, offset):
            calls.append((offset, [len(b) for b in buffers]))
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(data_io.RowSource, "_read", recording_read)
        monkeypatch.setattr(os, "preadv", recording_preadv)
        assert self.run(tmp_path, write_blob(tmp_path, SEALED))[0] == 0
        base = split[0].train_indices
        order = rng.stream(0, trainer.SHUFFLE_TAG, 0, 0).permutation(base.size)
        assert base.size == 14  # two batches of at most 8, one epoch at seed 0
        reads = [(0, base[order[:8]]), (0, base[order[8:]])]
        for part in split:
            reads += [(part.session, part.train_indices), (part.session, part.test_indices)]
        assert asked == [(session, rows.tolist()) for session, rows in reads]
        expected = []
        for _, rows in asked:
            at = 0
            for length in run_lengths(np.array(rows)):
                expected.append((312 + rows[at] * 48, [length * 48]))
                at += length
        assert calls == expected
        assert any(sizes != [48] for _, sizes in calls)  # some run is longer than a row

    def write_row(self, path, row: int, value: float) -> None:
        """Overwrite the first value of payload row `row` of a RUN_BODY file
        in place."""
        with open(path, "r+b") as fh:
            fh.seek(312 + row * 2 * 3 * 8)
            fh.write(struct.pack("<d", value))

    def run_changing_the_file(self, tmp_path, monkeypatch, change, owner=data_io,
                              after="save_checkpoint"):
        """gcmr run on SEALED that calls change(path, split) once, right
        after the first call of owner.after returned: by default once
        session 0's checkpoint is saved and before session 1 reads a row;
        trainer.train_base or trainer.train_incremental change it between a
        session's train read and its test read."""
        data = write_blob(tmp_path, SEALED)
        split = fscil_split(ProtocolSpec(6, 2, 2, 2, seed=4, test_per_class=3), RUN_LABELS)
        original, changed = getattr(owner, after), []

        def call_then_change(*args, **kwargs):
            result = original(*args, **kwargs)
            if not changed:
                changed.append(after)
                change(data, split)
            return result

        monkeypatch.setattr(owner, after, call_then_change)
        return self.run(tmp_path, data)

    def rewrite(self, path, row: int, keep_mtime: bool) -> None:
        """Overwrite payload row `row` in place: with 1e3 under a new
        modification time, or with a NaN and the old time restored, as a
        copy tool that keeps timestamps would."""
        before = os.stat(path)
        time.sleep(0.02)  # a file timestamp may be as coarse as a clock tick
        self.write_row(path, row, math.nan if keep_mtime else 1e3)
        if keep_mtime:
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size

    @pytest.mark.parametrize("keep_mtime", [False, True], ids=["new mtime", "mtime restored"])
    def test_a_row_rewritten_after_validation_exits_3(self, tmp_path, capsys, monkeypatch,
                                                       keep_mtime):
        def rewrite(path, split):
            self.rewrite(path, int(split[1].train_indices[0]), keep_mtime)

        code, out = self.run_changing_the_file(tmp_path, monkeypatch, rewrite)
        assert code == EXIT_DATA
        reason = ": non-finite values in its rows" if keep_mtime else ""
        assert capsys.readouterr().err == (
            f"data error: session 1: the dataset file changed after it was validated{reason}\n")
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["session_00.gcmr"]

    @pytest.mark.parametrize("keep_mtime", [False, True], ids=["new mtime", "mtime restored"])
    @pytest.mark.parametrize("after, session", [("train_base", 0), ("train_incremental", 1)])
    def test_a_test_row_rewritten_after_the_train_read_exits_3(self, tmp_path, capsys,
                                                                monkeypatch, keep_mtime,
                                                                after, session):
        # the session trained on rows that were sound; its test rows are
        # read, and checked, only when they are encoded
        def rewrite(path, split):
            self.rewrite(path, int(split[session].test_indices[-1]), keep_mtime)

        code, out = self.run_changing_the_file(tmp_path, monkeypatch, rewrite, trainer, after)
        assert code == EXIT_DATA
        reason = ": non-finite values in its rows" if keep_mtime else ""
        assert capsys.readouterr().err == (f"data error: session {session}: the dataset file "
                                           f"changed after it was validated{reason}\n")
        saved = sorted(p.name for p in (out / "checkpoints").iterdir())
        assert saved == [f"session_{t:02d}.gcmr" for t in range(session)]

    def test_a_truncated_file_exits_3(self, tmp_path, capsys, monkeypatch):
        code, out = self.run_changing_the_file(
            tmp_path, monkeypatch, lambda path, split: os.truncate(path, 1000))
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: session 1: the dataset file changed after it was validated\n")
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["session_00.gcmr"]

    def test_a_failed_or_interrupted_run_closes_the_dataset(self, tmp_path, capsys,
                                                            monkeypatch):
        data = write_blob(tmp_path, SEALED)
        opened = []

        def recording_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if path == str(data):
                opened.append(fh)
            return fh

        monkeypatch.setattr(data_io, "open", recording_open, raising=False)
        config = run_config(tmp_path)
        diverging = json.loads(config.read_text())
        diverging["train"].update(incr_lr=1e200, momentum=0.9, incr_epochs=3)
        config.write_text(json.dumps(diverging))
        assert main(["run", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "diverged")]) == EXIT_NUMERIC
        assert "at session 1" in capsys.readouterr().err

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(trainer, "train_incremental", interrupt)
        with pytest.raises(KeyboardInterrupt):
            self.run(tmp_path, data)
        assert len(opened) == 2 and all(fh.closed for fh in opened)

    def test_scores_that_overflow_end_the_run_with_one_line(self, tmp_path):
        # with incr_lr 1e200 session 1's head stays finite but its logits
        # overflow: evaluation raises before the session's checkpoint, and in
        # a fresh interpreter (where numpy's warnings would reach stderr)
        # that failure is the one line written
        data = write_blob(tmp_path, SEALED)
        config = run_config(tmp_path)
        diverging = json.loads(config.read_text())
        diverging["train"]["incr_lr"] = 1e200
        config.write_text(json.dumps(diverging))
        out = tmp_path / "run"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(data_io.__file__)),
                          os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "gcmr", "run", "--config", str(config),
                               "--data", str(data), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_NUMERIC, done.stderr
        assert done.stderr == ("numerical failure: evaluation logits diverged to non-finite "
                               "values at session 1\n")
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["session_00.gcmr"]


def run_lengths(rows: np.ndarray) -> list[int]:
    """Lengths of the runs of consecutive ascending values in rows, in
    order."""
    starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)
    return np.diff(np.append(starts, rows.size)).tolist()


def write_token_csv(path, dataset: TokenDataset) -> None:
    """dataset in the token-group CSV layout, each value written exactly."""
    d = dataset.features.shape[2]
    lines = ["label,token," + ",".join(f"f{i}" for i in range(d))]
    for label, example in zip(dataset.labels.tolist(), dataset.features.tolist()):
        lines += [f"{label},{t}," + ",".join(map(repr, token))
                  for t, token in enumerate(example)]
    path.write_text("\n".join(lines) + "\n")


class TestLazyLoad:
    def test_reads_the_rows_of_a_full_load(self, tmp_path):
        # train rows 8 0 1, test row 5 of 9: the payload's last and first
        # rows, a run of two and runs of one; the payload starts at byte 92,
        # off the 8-byte grid, and every read is an aligned float64 array
        assert run_lengths(np.array([8, 0, 1, 5])) == [1, 2, 1]
        features = np.random.default_rng(20).normal(size=(9, 2, 3))
        dataset = TokenDataset(features, np.arange(9) % 4 - 2)
        save_dataset(dataset, tmp_path / "data.gcmr")
        write_token_csv(tmp_path / "data.csv", dataset)
        part = data_io.SessionAssignment(3, (-2, 1), np.array([8, 0, 1]), np.array([5]))
        with load_features(tmp_path / "data.gcmr") as source:
            assert source.labels.tolist() == (np.arange(9) % 4 - 2).tolist()
            (session,) = source.sessions([part])
            # the dataset's shape and label column, the split's assignment
            assert session.features.shape == (9, 2, 3)
            assert session.labels is source.labels and session.assignment is part
            for rows in ([8, 0, 1], [5], [5, 8, 5], [1, 0, 5], []):
                got = session.features[np.array(rows, dtype=np.intp)]
                assert got.tobytes() == features[rows].tobytes()
                assert got.shape == (len(rows), 2, 3) and got.dtype == np.float64
                assert got.flags.c_contiguous and got.flags.aligned and got.flags.writeable
                got[...] = 1.0  # writable in place
        with load_features(tmp_path / "data.csv") as source:
            (session,) = source.sessions([part])
            assert session.assignment is part
            assert session.features.tobytes() == features.tobytes()

    def test_validation_chunks_cover_every_row(self, tmp_path, monkeypatch):
        # a chunk of 3 rows, and of less than one row, over 10
        features = np.random.default_rng(21).normal(size=(10, 2, 3))
        path = tmp_path / "data.gcmr"
        for chunk in (3 * 48, 40):
            monkeypatch.setattr(data_io, "CHUNK_BYTES", chunk)
            for row in range(10):
                bad = features.copy()
                bad[row, 1, 2] = math.inf
                path.write_bytes(with_crc(dataset_body(8, 2, 3, range(3), np.arange(10) % 3,
                                                       bad.ravel())))
                with pytest.raises(FormatError, match="non-finite values in feature payload"):
                    load_features(path)
            save_dataset(TokenDataset(features, np.arange(10) % 3), path)
            with load_features(path) as source:
                assert source.labels.tolist() == (np.arange(10) % 3).tolist()

    def test_validation_allocates_one_chunk_and_the_labels(self, tmp_path, traced_peak):
        n = 8 * data_io.CHUNK_BYTES // 4096  # 8 chunks of 4 KiB rows
        path = tmp_path / "big.gcmr"
        save_dataset(TokenDataset(np.random.default_rng(22).normal(size=(n, 8, 64)),
                                  np.arange(n) % 10), path)
        source, peak = traced_peak(load_features, path)
        source.close()
        # the chunk, its finiteness mask (1/8), and the label column as table
        # indices, their intp cast and class ids
        allowed = data_io.CHUNK_BYTES * 9 // 8 + n * (4 + 8 + 8)
        assert peak <= allowed + 64 * 1024
        assert allowed < path.stat().st_size // 4

    def cut_short(self, tmp_path, train: int):
        """A session of row `train` and test row 8 of 9, its source's
        sessions made once the file was cut 100 bytes short (the checksum and
        rows 7 and 8) under an identity the source takes for its own."""
        path = tmp_path / "data.gcmr"
        save_dataset(TokenDataset(np.ones((9, 2, 3)), np.arange(9)), path)
        part = data_io.SessionAssignment(4, (7, 8), np.array([train]), np.array([8]))
        source = load_features(path)
        os.truncate(path, path.stat().st_size - 100)
        source._identity = data_io._identity(source._fh)
        (session,) = source.sessions([part])  # reads nothing
        return source, session

    @staticmethod
    def refused(row: int):
        return pytest.raises(FormatError, match="^session 4: the dataset file changed after it "
                                                f"was validated: it ends inside row {row}$")

    def test_a_file_cut_short_under_a_read_is_refused(self, tmp_path):
        source, session = self.cut_short(tmp_path, 7)
        with source, self.refused(7):
            session.features[session.assignment.train_indices]

    def test_a_file_cut_short_under_a_test_read_is_refused(self, tmp_path):
        source, session = self.cut_short(tmp_path, 0)
        with source:
            assert session.features[session.assignment.train_indices].shape == (1, 2, 3)
            with self.refused(8):
                session.features[session.assignment.test_indices]

    def test_opens_the_file_once(self, tmp_path, monkeypatch):
        # the format is sniffed from the handle that is then read, so a file
        # swapped in between cannot be read under the other format
        binary, flat = tmp_path / "data.gcmr", tmp_path / "flat.csv"
        save_dataset(TokenDataset(np.ones((2, 2, 2)), np.array([0, 1])), binary)
        flat.write_text("label,f0,f1\n1,0.5,2.0\n")
        opened = []

        def recording_open(*args, **kwargs):
            opened.append((args[0], open(*args, **kwargs)))
            return opened[-1][1]

        monkeypatch.setattr(data_io, "open", recording_open, raising=False)
        for path in (binary, flat):
            opened.clear()
            with load_features(path):
                assert [name for name, _ in opened] == [path]
                # only a binary load keeps its handle, until the source closes
                assert opened[0][1].closed != (path == binary)
            assert opened[0][1].closed

    def test_a_replaced_path_does_not_reach_the_source(self, tmp_path):
        features = np.random.default_rng(23).normal(size=(4, 2, 2))
        path = tmp_path / "data.gcmr"
        save_dataset(TokenDataset(features, np.arange(4)), path)
        part = data_io.SessionAssignment(0, (0, 1, 2, 3), np.arange(2), np.arange(2, 4))
        with load_features(path) as source:
            save_dataset(TokenDataset(np.zeros((4, 2, 2)), np.arange(4)), path)  # atomic
            (session,) = source.sessions([part])
            assert session.features[np.arange(4)].tobytes() == features.tobytes()

    @FUZZ
    @given(blob=dataset_blobs())
    def test_fuzz_lazy_load_matches_a_full_load(self, tmp_path, blob):
        # the rows read match the drawn blob's payload, decoded directly;
        # test_fuzz_structured_datasets judges the blobs that fail to load
        try:
            source = load_features(write_blob(tmp_path, blob))
        except FormatError:
            return
        n, g, d, n_classes = struct.unpack_from("<IIII", blob, 8)
        labels_at = 24 + 8 * n_classes
        class_ids = np.frombuffer(blob, "<i8", n_classes, 24)
        label_idx = np.frombuffer(blob, "<u4", n, labels_at)
        payload = np.frombuffer(blob, "<f8", n * g * d, labels_at + 4 * n).reshape(n, g, d)
        part = data_io.SessionAssignment(0, (), np.arange(0, n, 2), np.arange(1, n, 2))
        with source:
            assert source.labels.tolist() == class_ids[label_idx].tolist()
            assert source.row_shape == (g, d)
            (session,) = source.sessions([part])
            for rows in (part.train_indices, part.test_indices):
                assert session.features[rows].tobytes() == payload[rows].tobytes()


def rank_in_class(labels: np.ndarray) -> np.ndarray:
    """Each row's position among the rows of its class, in row order."""
    by_class = np.argsort(labels, kind="stable")
    grouped = labels[by_class]
    rank = np.empty(labels.size, dtype=np.int64)
    rank[by_class] = np.arange(labels.size) - np.searchsorted(grouped, grouped)
    return rank


def output_files(out) -> dict:
    """Every file under the run directory out, by relative path: its bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def metamorphic_config(tmp_path):
    """A three-session run config over six synthetic classes, written to
    tmp_path/config.json, and the dataset its synthetic section generates."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "version": 1,
        "train": {"base_epochs": 1, "incr_epochs": 2, "batch_size": 8, "seed": 5,
                  "hidden_dim": 8},
        "protocol": {"total_classes": 6, "base_classes": 2, "n_way": 2, "k_shot": 2,
                     "seed": 5, "test_per_class": 3},
        "synthetic": {"d": 6, "g": 4, "n_classes": 6, "class_mean_norm": 3.0,
                      "within_class_sigma": 1.5, "examples_per_class": 12, "seed": 5}}))
    return config, generate_synthetic(load_run_config(config)["synthetic"])


class TestInterleavedRows:
    def test_interleaving_the_classes_rows_leaves_every_output_unchanged(self, tmp_path,
                                                                         capsys):
        # a metamorphic relation: a dataset whose rows are reordered so that
        # each class keeps its rows' relative order is, to the protocol, the
        # same dataset. Interleaved, every run of consecutive rows a session
        # reads has length 1; the run log, every checkpoint and the reports
        # must not change, for the binary file and the token-group CSV alike.
        # Each run directory is named "run", so the reports' label agrees too.
        config, dataset = metamorphic_config(tmp_path)
        order = np.lexsort((dataset.labels, rank_in_class(dataset.labels)))
        interleaved = TokenDataset(dataset.features[order], dataset.labels[order])
        for c in range(6):
            assert (interleaved.features[interleaved.labels == c].tobytes()
                    == dataset.features[dataset.labels == c].tobytes())
        assert run_lengths(np.flatnonzero(interleaved.labels == 0)) == [1] * 12
        save_dataset(dataset, tmp_path / "data.gcmr")
        save_dataset(interleaved, tmp_path / "interleaved.gcmr")
        write_token_csv(tmp_path / "interleaved.csv", interleaved)
        runs = {}
        for data in ("data.gcmr", "interleaved.gcmr", "interleaved.csv"):
            out = tmp_path / f"out-{data}" / "run"
            assert main(["run", "--config", str(config), "--data", str(tmp_path / data),
                         "--out", str(out)]) == 0
            runs[data] = (capsys.readouterr().out, output_files(out))
        stdout, files = runs.pop("data.gcmr")
        assert len([name for name in files if name.startswith("checkpoints")]) == 3
        for name, run in runs.items():
            assert run == (stdout, files), name


class TestRelabelledClasses:
    def test_an_increasing_relabel_maps_every_output(self, tmp_path):
        # a metamorphic relation: class ids relabelled by an increasing map
        # keep their order, so the split, the training and the scores do not
        # change. The run log names no class and stays byte-identical; the
        # reports and the checkpoints name the classes, so they must agree
        # under the map.
        def relabel(c):
            return 7 * c + 1000

        config, dataset = metamorphic_config(tmp_path)
        save_dataset(dataset, tmp_path / "data.gcmr")
        save_dataset(TokenDataset(dataset.features, relabel(dataset.labels)),
                     tmp_path / "relabelled.gcmr")
        outs = []
        for data in ("data.gcmr", "relabelled.gcmr"):
            out = tmp_path / f"out-{data}" / "run"
            assert main(["run", "--config", str(config), "--data", str(tmp_path / data),
                         "--out", str(out)]) == 0
            outs.append(out)
        plain, mapped = outs
        assert (plain / "run_log.jsonl").read_bytes() == (mapped / "run_log.jsonl").read_bytes()
        reports = [json.loads((out / "report.json").read_text())["sessions"] for out in outs]
        assert len(reports[0]) == len(reports[1]) == 3
        for ours, theirs in zip(*reports):
            for key in ("acc_all", "acc_base", "acc_novel"):
                assert ours[key] == theirs[key]
            assert {str(relabel(int(c))): acc for c, acc in ours["per_class_acc"].items()} == (
                theirs["per_class_acc"])
        states = [load_checkpoint(out / "checkpoints" / "session_02.gcmr") for out in outs]
        ours, theirs = states
        assert theirs.mem.class_ids == tuple(relabel(c) for c in ours.mem.class_ids)
        assert ours.session == theirs.session == 2
        assert ours.mem.session_of == theirs.mem.session_of
        arrays = [[state.encoder.w, state.encoder.b, *state.classifier.arrays().values(),
                   *state.wmem.classifier_snapshot.arrays().values(), state.mem.rows]
                  for state in states]
        assert [a.tobytes() for a in arrays[0]] == [a.tobytes() for a in arrays[1]]
