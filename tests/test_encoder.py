import numpy as np
import pytest

from gcmr.encoder import (DecoderParams, EncoderParams, encode_batch,
                          init_decoder, init_encoder, mask_features,
                          normalize_rows, normalize_rows_backward,
                          normalized_features, reconstruct)

from oracles import encode_scalar, layer_normalize_scalar


def encode(group, enc):
    """encode_batch on a single group (n = 1)."""
    return encode_batch(np.asarray(group)[None], enc)[0]


def pool_normalize(group, kind="layer"):
    """normalized_features of one group through an identity encoder (n = 1)."""
    dim = group.shape[1]
    return normalized_features(group[None], init_encoder(dim, dim, "identity", kind))[0]


class TestEncode:
    def test_identity_configuration_is_identity(self):
        enc = init_encoder(6, 6, activation="identity")
        gen = np.random.default_rng(0)
        raw = gen.normal(size=(4, 6))
        np.testing.assert_array_equal(encode(raw, enc), raw)

    def test_zero_input_zero_bias(self):
        enc = init_encoder(5, 5, activation="tanh")
        np.testing.assert_array_equal(encode(np.zeros((3, 5)), enc), 0.0)

    def test_matches_row_wise_scalar_oracle(self):
        gen = np.random.default_rng(1)
        enc = EncoderParams(gen.normal(size=(5, 7)), gen.normal(size=7), "tanh")
        raw = gen.normal(size=(4, 5))
        expected = np.asarray(encode_scalar(raw, enc))
        np.testing.assert_allclose(encode(raw, enc), expected, rtol=1e-12)

    def test_batch_matches_single(self):
        gen = np.random.default_rng(2)
        enc = EncoderParams(gen.normal(size=(5, 7)), gen.normal(size=7), "tanh")
        raw = gen.normal(size=(3, 4, 5))
        batch = encode_batch(raw, enc)
        for j in range(3):
            np.testing.assert_allclose(batch[j], encode_batch(raw[j:j + 1], enc)[0],
                                       rtol=1e-12)

    def test_dimension_mismatch(self):
        enc = init_encoder(5, 5)
        with pytest.raises(ValueError):
            encode(np.zeros((3, 4)), enc)

    def test_freeze_makes_arrays_read_only(self):
        enc = init_encoder(3, 3)
        enc.freeze()
        assert enc.frozen
        with pytest.raises(ValueError):
            enc.w[0, 0] = 1.0


class TestMaskFeatures:
    def test_three_quarters_of_sixteen(self):
        gen = np.random.default_rng(3)
        group = gen.normal(size=(16, 4))
        visible, plan = mask_features(group, 0.75, seed=42)
        assert len(plan.masked_indices) == 12
        assert visible.shape == (4, 4)

    def test_ratio_zero_keeps_everything(self):
        gen = np.random.default_rng(4)
        group = gen.normal(size=(8, 3))
        visible, plan = mask_features(group, 0.0, seed=1)
        np.testing.assert_array_equal(visible, group)
        assert plan.masked_indices == ()

    def test_visible_keeps_original_order(self):
        group = np.arange(20.0).reshape(10, 2)
        visible, plan = mask_features(group, 0.5, seed=5)
        kept = [i for i in range(10) if i not in plan.masked_indices]
        np.testing.assert_array_equal(visible, group[kept])

    def test_same_seed_same_plan(self):
        gen = np.random.default_rng(5)
        group = gen.normal(size=(12, 3))
        _, plan_a = mask_features(group, 0.75, seed=99)
        _, plan_b = mask_features(group, 0.75, seed=99)
        assert plan_a == plan_b

    def test_masking_frequency_is_uniform(self):
        # each index should be masked with empirical frequency ratio +- 0.02
        group = np.zeros((16, 2))
        counts = np.zeros(16)
        n_seeds = 10_000
        for seed in range(n_seeds):
            _, plan = mask_features(group, 0.75, seed=seed)
            counts[list(plan.masked_indices)] += 1
        freq = counts / n_seeds
        assert np.all(np.abs(freq - 0.75) < 0.02)

    def test_invalid_ratios(self):
        group = np.zeros((4, 2))
        with pytest.raises(ValueError):
            mask_features(group, -0.1, seed=0)
        with pytest.raises(ValueError):
            mask_features(group, 1.0, seed=0)


class TestReconstruct:
    def test_identity_decoder_ratio_zero_is_identity(self):
        gen = np.random.default_rng(6)
        group = gen.normal(size=(6, 4))
        dec = init_decoder(4)
        visible, plan = mask_features(group, 0.0, seed=0)
        recon = reconstruct(visible, plan, dec)
        np.testing.assert_allclose(recon, group, rtol=1e-12)
        assert float(((recon - group) ** 2).mean()) == 0.0

    def test_zero_weights_fill_masked_rows_with_bias(self):
        gen = np.random.default_rng(7)
        group = gen.normal(size=(8, 3))
        bias = np.array([1.0, -2.0, 0.5])
        dec = DecoderParams(np.zeros((3, 3)), bias, gen.normal(size=3))
        visible, plan = mask_features(group, 0.75, seed=3)
        recon = reconstruct(visible, plan, dec)
        for i in plan.masked_indices:
            np.testing.assert_array_equal(recon[i], bias)

    def test_mse_matches_scalar_oracle(self):
        gen = np.random.default_rng(8)
        group = gen.normal(size=(6, 5))
        dec = DecoderParams(gen.normal(size=(5, 5)), gen.normal(size=5),
                            gen.normal(size=5))
        visible, plan = mask_features(group, 0.5, seed=11)
        recon = reconstruct(visible, plan, dec)
        masked = set(plan.masked_indices)
        expected = np.empty_like(group)
        for i in range(6):
            source = dec.mask_token if i in masked else group[i]
            for b in range(5):
                expected[i, b] = sum(source[a] * dec.w[a, b] for a in range(5)) + dec.b[b]
        np.testing.assert_allclose(recon, expected, rtol=1e-12)
        mse = float(((recon - group) ** 2).mean())
        mse_scalar = sum((expected[i, b] - group[i, b]) ** 2
                         for i in range(6) for b in range(5)) / 30.0
        assert mse == pytest.approx(mse_scalar, rel=1e-12)

    def test_plan_group_consistency(self):
        dec = init_decoder(3)
        group = np.zeros((5, 3))
        visible, plan = mask_features(group, 0.5, seed=1)
        with pytest.raises(ValueError):
            reconstruct(visible[:-1], plan, dec)


class TestPoolNormalize:
    def test_identical_tokens_reduce_to_layer_norm(self):
        gen = np.random.default_rng(9)
        v = gen.normal(size=8)
        group = np.tile(v, (5, 1))
        np.testing.assert_allclose(pool_normalize(group), layer_normalize_scalar(v), rtol=1e-10)

    def test_antipodal_tokens_cancel(self):
        gen = np.random.default_rng(10)
        v = gen.normal(size=6)
        group = np.stack([v, -v])
        np.testing.assert_array_equal(pool_normalize(group), np.zeros(6))

    def test_matches_mean_then_normalize(self):
        gen = np.random.default_rng(11)
        group = gen.normal(size=(7, 9))
        expected = layer_normalize_scalar(group.mean(axis=0))
        np.testing.assert_allclose(pool_normalize(group), expected, rtol=1e-10)

    def test_l2_variant(self):
        gen = np.random.default_rng(12)
        group = gen.normal(size=(4, 5))
        out = pool_normalize(group, kind="l2")
        np.testing.assert_allclose(np.linalg.norm(out), 1.0, rtol=1e-12)


class TestRowNormalization:
    def test_rows_match_vector_functions(self):
        gen = np.random.default_rng(13)
        rows = gen.normal(size=(6, 10))
        batched = normalize_rows(rows, "layer")
        for j in range(6):
            np.testing.assert_allclose(batched[j], layer_normalize_scalar(rows[j]), rtol=1e-10)

    def test_backward_matches_finite_differences(self):
        gen = np.random.default_rng(14)
        rows = gen.normal(size=(3, 6))
        downstream = gen.normal(size=(3, 6))
        for kind in ("layer", "l2"):
            analytic = normalize_rows_backward(downstream, rows, kind)
            h = 1e-6
            numeric = np.zeros_like(rows)
            for i in range(rows.shape[0]):
                for j in range(rows.shape[1]):
                    rows[i, j] += h
                    up = float((normalize_rows(rows, kind) * downstream).sum())
                    rows[i, j] -= 2 * h
                    down = float((normalize_rows(rows, kind) * downstream).sum())
                    rows[i, j] += h
                    numeric[i, j] = (up - down) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_normalized_features_pipeline(self):
        gen = np.random.default_rng(15)
        enc = init_encoder(5, 5, activation="tanh")
        raw = gen.normal(size=(4, 6, 5))
        out = normalized_features(raw, enc)
        for j in range(4):
            pooled = np.asarray(encode_scalar(raw[j], enc)).mean(axis=0)
            np.testing.assert_allclose(out[j], layer_normalize_scalar(pooled), rtol=1e-10)
