import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gcmr import data_io, trainer
from gcmr.data_io import (BadMagicError, ChecksumError, ContentError, DimensionError,
                          FormatError, ProtocolSpec, SyntheticSpec,
                          TokenDataset, TruncatedFileError, VersionError,
                          atomic_open, fscil_split, generate_synthetic, load_checkpoint,
                          load_dataset, load_features, materialize_sessions,
                          save_checkpoint, save_dataset)


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


class TestSessionSequence:
    def dataset_and_split(self):
        spec = SyntheticSpec(d=32, g=4, n_classes=10, class_mean_norm=4.0,
                             within_class_sigma=1.0, examples_per_class=50, seed=4)
        ds = generate_synthetic(spec)
        proto = ProtocolSpec(total_classes=10, base_classes=4, n_way=2, k_shot=5,
                             seed=4, test_per_class=10)
        return ds, fscil_split(proto, ds.labels)

    @staticmethod
    def assert_session_equals_subset(session, ds, part):
        assert session.session == part.session
        assert session.class_ids == part.class_ids
        for got, indices in ((session.train, part.train_indices),
                             (session.test, part.test_indices)):
            want = ds.subset(indices)
            assert got.features.tobytes() == want.features.tobytes()
            np.testing.assert_array_equal(got.labels, want.labels)

    def test_indices_and_slices_behave_as_on_a_list(self):
        ds, split = self.dataset_and_split()
        sessions = materialize_sessions(ds, split)
        assert len(sessions) == len(split) == 4
        for i in range(-len(split), len(split)):
            self.assert_session_equals_subset(sessions[i], ds, split[i])
        for part_slice in (slice(1, None), slice(None, -1), slice(None, None, -2),
                           slice(5, None)):
            sliced = sessions[part_slice]
            assert len(sliced) == len(split[part_slice])
            for session, part in zip(sliced, split[part_slice]):
                self.assert_session_equals_subset(session, ds, part)
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
                self.assert_session_equals_subset(session, ds, part)

    def test_a_session_is_its_dataset_and_assignment(self, traced_peak):
        ds, split = self.dataset_and_split()
        sessions = materialize_sessions(ds, split)
        held, peak = traced_peak(lambda: [sessions[i] for i in range(-len(split), len(split))])
        # indexing wraps; only reading train or test slices rows
        assert peak < 0.01 * ds.features.nbytes
        for session, part in zip(held, split + split):
            assert session.dataset is ds and session.assignment is part
            assert session.test.features is not session.test.features

    def test_from_datasets_stacks_train_then_test(self):
        ds, split = self.dataset_and_split()
        train, test = ds.subset(split[1].train_indices), ds.subset(split[1].test_indices)
        session = data_io.SessionData.from_datasets(1, split[1].class_ids, train, test)
        assert session.session == 1 and session.class_ids == split[1].class_ids
        np.testing.assert_array_equal(session.assignment.train_indices, np.arange(len(train)))
        np.testing.assert_array_equal(session.assignment.test_indices,
                                      np.arange(len(train), len(train) + len(test)))
        for got, want in ((session.train, train), (session.test, test)):
            assert got.features.tobytes() == want.features.tobytes()
            np.testing.assert_array_equal(got.labels, want.labels)

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


def checkpoint_body(width, state, version=2) -> bytes:
    """Version 2: session, encoder, head, representation memory. Version 1
    followed these with the weight-memory session, a second copy of the head
    and the memory rows projected through it."""
    enc, mem = state.encoder, state.mem
    body = (file_header(data_io.KIND_CHECKPOINT, width, version)
            + struct.pack("<I", state.session)
            + struct.pack("<BBBII", ("identity", "tanh").index(enc.activation),
                          ("layer", "l2").index(enc.feature_norm), int(enc.frozen),
                          enc.raw_dim, enc.dim)
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


def seal(draw, body: bytes) -> bytes:
    """body whole, cut at a drawn point or followed by drawn bytes; then its CRC."""
    mode = draw(st.sampled_from(("whole", "cut", "extra")))
    if mode == "cut":
        body = body[:draw(st.integers(0, len(body)))]
    elif mode == "extra":
        body += draw(st.binary(min_size=1, max_size=9))
    return with_crc(body)


SMALL = st.integers(0, 3)


def float_payload(draw, count: int, width: int, finite: bool = False) -> bytes:
    """count drawn floats of the width, NaN and infinities included unless
    finite is set."""
    values = draw(st.lists(st.floats(width=8 * width, allow_nan=not finite,
                                     allow_infinity=not finite),
                           min_size=count, max_size=count))
    return np.asarray(values, dtype=WIDTH_DTYPES[width]).tobytes()


@st.composite
def dataset_blobs(draw):
    width = draw(st.sampled_from((4, 8)))
    n, g, d, n_classes = draw(st.integers(0, 5)), draw(SMALL), draw(SMALL), draw(SMALL)
    class_ids = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                              min_size=n_classes, max_size=n_classes))
    # one index past the end of the table is drawn as often as a valid one
    label_idx = draw(st.lists(st.integers(0, n_classes), min_size=n, max_size=n))
    body = dataset_body(width, g, d, class_ids, label_idx, [])
    return seal(draw, body + float_payload(draw, n * g * d, width))


@st.composite
def checkpoint_blobs(draw):
    width = draw(st.sampled_from((4, 8)))
    # consistent blobs have valid codes, sizes and dropout and agreeing
    # section shapes, so some of them load
    consistent = draw(st.booleans())
    finite = draw(st.booleans())
    code = st.integers(0, 1) if consistent else SMALL
    size = st.integers(1, 3) if consistent else SMALL

    def floats(count):
        return float_payload(draw, count, width, finite)

    raw_dim, dim = draw(size), draw(st.integers(2, 3) if consistent else SMALL)
    body = file_header(data_io.KIND_CHECKPOINT, width, 2)
    body += struct.pack("<I", draw(st.integers(0, 2 ** 32 - 1)))
    body += struct.pack("<BBBII", draw(code), draw(code), draw(st.integers(0, 255)),
                        raw_dim, dim)
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
        loaded = load_dataset(path)
        assert loaded.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        # signed zero preserved
        assert np.signbit(loaded.features[0, 0, 1])
        assert not np.signbit(loaded.features[0, 0, 0])

    def test_checkpoint_round_trip_deep_equal(self, tmp_path):
        state = small_state()
        path = tmp_path / "state.gcmr"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.session == state.session
        assert loaded.encoder.state_bytes() == state.encoder.state_bytes()
        assert loaded.encoder.frozen == state.encoder.frozen
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

    def test_float32_round_trip(self, tmp_path):
        gen = np.random.default_rng(7)
        ds = TokenDataset(gen.normal(size=(3, 2, 2)).astype(np.float32).astype(np.float64),
                          np.array([0, 1, 0]))
        path = tmp_path / "data32.gcmr"
        save_dataset(ds, path, precision=4)
        loaded = load_dataset(path)
        assert loaded.features.tobytes() == ds.features.tobytes()

    def test_dataset_file_matches_reference_layout(self, tmp_path):
        # the streamed writer produces the documented layout byte for byte
        gen = np.random.default_rng(14)
        features = gen.normal(size=(3, 2, 2))
        path = tmp_path / "data.gcmr"
        for width in (4, 8):
            save_dataset(TokenDataset(features, np.array([7, -2, 7])), path, precision=width)
            expected = with_crc(dataset_body(width, 2, 2, [-2, 7], [1, 0, 1], features.ravel()))
            assert path.read_bytes() == expected

    @pytest.mark.parametrize("width", [4, 8])
    def test_checkpoint_file_matches_reference_layout(self, tmp_path, width):
        state = small_state()
        path = tmp_path / "state.gcmr"
        save_checkpoint(state, path, precision=width)
        assert path.read_bytes() == with_crc(checkpoint_body(width, state))

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

    @pytest.mark.parametrize("width", [4, 8])
    def test_checkpoint_resaves_byte_identical(self, tmp_path, width):
        state = small_state()
        a, b = tmp_path / "a.gcmr", tmp_path / "b.gcmr"
        save_checkpoint(state, a, precision=width)
        loaded = load_checkpoint(a)
        save_checkpoint(loaded, b, precision=width)
        assert a.read_bytes() == b.read_bytes()
        assert loaded.mem.rows.tobytes() == \
            state.mem.rows.astype(WIDTH_DTYPES[width]).astype(np.float64).tobytes()


class TestZeroCopyLoad:
    @pytest.mark.parametrize("n", [4, 5])  # the payload offset is unaligned for odd n
    @pytest.mark.parametrize("width", [4, 8])
    def test_features_are_contiguous_aligned_writable_float64(self, tmp_path, n, width):
        features = np.random.default_rng(15).normal(size=(n, 3, 2))
        path = tmp_path / "data.gcmr"
        save_dataset(TokenDataset(features, np.arange(n) % 2), path, precision=width)
        loaded = load_dataset(path).features
        assert loaded.dtype == np.float64
        assert loaded.flags.c_contiguous and loaded.flags.aligned and loaded.flags.writeable
        stored = features.astype(WIDTH_DTYPES[width]).astype(np.float64)
        assert loaded.tobytes() == stored.tobytes()
        loaded[0, 0, 0] = 1.0  # writable in place

    def test_load_allocates_little_beyond_the_file(self, tmp_path, traced_peak):
        features = np.random.default_rng(16).normal(size=(1024, 8, 64))  # 4 MB
        path = tmp_path / "big.gcmr"
        save_dataset(TokenDataset(features, np.arange(1024) % 10), path)
        size = path.stat().st_size
        loaded, peak = traced_peak(load_dataset, path)
        assert loaded.features.tobytes() == features.tobytes()
        # one buffer of the file plus the finiteness mask (1/8) and labels
        assert peak <= 1.25 * size

    def test_loaders_build_through_the_scan_free_constructor(self, tmp_path, monkeypatch):
        # the binary reader scans once itself; CSV values are checked per line
        path = tmp_path / "data.gcmr"
        save_dataset(TokenDataset(np.ones((2, 2, 2)), np.array([0, 1])), path)
        flat = tmp_path / "flat.csv"
        flat.write_text("label,f0,f1\n1,0.5,2.0\n")
        groups = tmp_path / "groups.csv"
        groups.write_text("label,token,f0\n3,0,1.0\n3,1,2.0\n")

        def fail(*args, **kwargs):
            raise AssertionError("second finiteness scan")

        monkeypatch.setattr(TokenDataset, "__post_init__", fail)
        assert len(load_dataset(path)) == 2
        monkeypatch.setattr(np, "isfinite", fail)
        assert load_features(flat).features.shape == (1, 1, 2)
        assert load_features(groups).features.shape == (1, 2, 1)

    def test_plain_constructor_still_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                TokenDataset(np.array([[[1.0, bad]]]), np.array([0]))
        ds = TokenDataset.from_finite(np.ones((2, 1, 2)), [4, 5])
        assert ds.labels.dtype == np.int64
        with pytest.raises(ValueError, match="align"):
            TokenDataset.from_finite(np.ones((2, 1, 2)), [4])


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
        assert load_dataset(path).features.tobytes() == ds.features.tobytes()
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
        with pytest.raises(BadMagicError):
            load_dataset(path)

    def test_version_mismatch(self, tmp_path):
        path = self.make_dataset_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(VersionError):
            load_dataset(path)

    def test_versions_are_per_kind(self, tmp_path):
        state = small_state()
        v1_checkpoint = with_crc(checkpoint_body(8, state, version=1))
        with pytest.raises(VersionError) as excinfo:
            load_checkpoint(write_blob(tmp_path, v1_checkpoint))
        assert excinfo.value.offset == 4
        v1_dataset = dataset_body(8, 1, 2, [3], [0], [1.0, -2.0])
        assert load_dataset(write_blob(tmp_path, with_crc(v1_dataset))).labels.tolist() == [3]
        v2_dataset = v1_dataset[:4] + struct.pack("<H", 2) + v1_dataset[6:]
        with pytest.raises(VersionError) as excinfo:
            load_dataset(write_blob(tmp_path, with_crc(v2_dataset)))
        assert excinfo.value.offset == 4

    def test_truncation_reports_offset(self, tmp_path):
        path = self.make_dataset_file(tmp_path)
        blob = path.read_bytes()
        truncated = blob[:len(blob) // 2]
        body = truncated[:-4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(TruncatedFileError) as excinfo:
            load_dataset(path)
        assert excinfo.value.offset is not None

    def test_checksum_mismatch(self, tmp_path):
        path = self.make_dataset_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(blob)
        with pytest.raises(ChecksumError):
            load_dataset(path)

    def test_kind_mismatch(self, tmp_path):
        path = self.make_dataset_file(tmp_path)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_fuzz_random_bytes_raise_format_errors_only(self, tmp_path):
        # 10,000 random byte strings must never crash the loader
        gen = np.random.default_rng(9)
        path = tmp_path / "fuzz.bin"
        for _ in range(10_000):
            length = int(gen.integers(0, 120))
            path.write_bytes(gen.bytes(length))
            with pytest.raises(FormatError):
                load_dataset(path)

    def test_fuzz_with_valid_magic_prefix(self, tmp_path):
        gen = np.random.default_rng(10)
        path = tmp_path / "fuzz.bin"
        for _ in range(500):
            blob = b"GCMR" + gen.bytes(int(gen.integers(0, 80)))
            path.write_bytes(blob)
            with pytest.raises(FormatError):
                load_dataset(path)

    def test_empty_class_table_with_examples(self, tmp_path):
        blob = with_crc(dataset_body(8, 1, 2, [], [0, 0], np.zeros(4)))
        with pytest.raises(DimensionError, match="class table") as excinfo:
            load_dataset(write_blob(tmp_path, blob))
        assert excinfo.value.offset == 24 + 4 * 2  # after the labels

    def test_label_index_past_the_table(self, tmp_path):
        blob = with_crc(dataset_body(8, 1, 2, [5, 6], [0, 2], np.zeros(4)))
        with pytest.raises(DimensionError) as excinfo:
            load_dataset(write_blob(tmp_path, blob))
        assert excinfo.value.offset == 24 + 8 * 2 + 4 * 2

    def test_empty_dataset_loads(self, tmp_path):
        ds = load_dataset(write_blob(tmp_path, with_crc(dataset_body(8, 2, 3, [], [], []))))
        assert ds.features.shape == (0, 2, 3) and ds.labels.shape == (0,)

    def test_non_finite_payload_reports_payload_end(self, tmp_path):
        for bad in (np.nan, np.inf):
            blob = with_crc(dataset_body(4, 1, 2, [1], [0], [0.0, bad]))
            with pytest.raises(FormatError, match="non-finite") as excinfo:
                load_dataset(write_blob(tmp_path, blob))
            assert excinfo.value.offset == len(blob) - 4

    @pytest.mark.parametrize("corrupt", ["duplicate ids", "dropout", "nan dropout",
                                         "encoder dim", "encoder wider than head",
                                         "nan encoder bias", "nan head w2",
                                         "inf memory row", "head narrower than memory"])
    def test_checkpoint_fields_the_model_rejects(self, tmp_path, corrupt):
        # checksum-valid files whose sections fail the model's own checks
        state = small_state()
        error = ContentError
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
            error = DimensionError
        elif corrupt == "nan encoder bias":
            state.encoder.b = np.where(np.arange(state.encoder.dim) == 1, np.nan,
                                       state.encoder.b)
        elif corrupt == "nan head w2":
            state.classifier.w2 = state.classifier.w2.copy()
            state.classifier.w2[-1, -1] = np.nan
        elif corrupt == "head narrower than memory":
            state.classifier.w2 = state.classifier.w2[:, :2]
            state.classifier.b2 = state.classifier.b2[:2]
            error = DimensionError
        else:
            rows = state.mem.rows.copy()
            rows[0, 0] = np.inf
            object.__setattr__(state.mem, "rows", rows)
        path = tmp_path / "state.gcmr"
        save_checkpoint(state, path)
        with pytest.raises(error) as excinfo:
            load_checkpoint(path)
        assert 0 < excinfo.value.offset < path.stat().st_size

    @FUZZ
    @given(blob=dataset_blobs())
    def test_fuzz_structured_datasets(self, tmp_path, blob):
        try:
            ds = load_dataset(write_blob(tmp_path, blob))
        except FormatError:
            return
        assert ds.features.dtype == np.float64 and np.isfinite(ds.features).all()
        assert ds.labels.shape == (ds.features.shape[0],)

    @FUZZ
    @given(blob=checkpoint_blobs())
    def test_fuzz_structured_checkpoints(self, tmp_path, blob):
        try:
            state = load_checkpoint(write_blob(tmp_path, blob))
        except FormatError:
            return
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
        ds = load_features(path)
        assert ds.features.shape == (3, 1, 3)
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])
        assert ds.features[1, 0, 2] == -0.125

    def test_token_group_fixture(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("label,token,f0,f1\n"
                        "2,0,1.0,2.0\n"
                        "2,1,3.0,4.0\n"
                        "5,0,5.0,6.0\n"
                        "5,1,7.0,8.0\n")
        ds = load_features(path)
        assert ds.features.shape == (2, 2, 2)
        np.testing.assert_array_equal(ds.labels, [2, 5])
        np.testing.assert_array_equal(ds.features[1], [[5.0, 6.0], [7.0, 8.0]])

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n1,0.5\n")
        with pytest.raises(DimensionError):
            load_features(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n1,0.5,abc\n")
        with pytest.raises(FormatError):
            load_features(path)

    def test_inconsistent_token_counts_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,token,f0\n1,0,0.5\n1,1,0.5\n2,0,0.5\n")
        with pytest.raises(DimensionError):
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
                load_features(path)
            except FormatError:
                pass  # the only acceptable failure mode

    def test_binary_dispatch_by_magic(self, tmp_path):
        gen = np.random.default_rng(11)
        ds = TokenDataset(gen.normal(size=(2, 2, 2)), np.array([0, 1]))
        path = tmp_path / "data.gcmr"
        save_dataset(ds, path)
        loaded = load_features(path)
        assert loaded.features.tobytes() == ds.features.tobytes()

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
