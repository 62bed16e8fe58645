import struct
import zlib

import numpy as np
import pytest

from gcmr import data_io, trainer
from gcmr.data_io import (BadMagicError, ChecksumError, DimensionError,
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
        assert loaded.wmem.projected_means.tobytes() == \
            state.wmem.projected_means.tobytes()

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
