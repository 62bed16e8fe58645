import numpy as np
import pytest

from gcmr.encoder import (DecoderParams, EncoderParams, encode_batch, encode_chunk_rows,
                          encode_rows, init_decoder, init_encoder, mask_count,
                          mask_features, normalize_rows, normalize_rows_backward,
                          normalized_features, reconstruct)

from oracles import encode_scalar, layer_normalize_scalar


def encode(group, enc):
    """encode_batch on a single group (n = 1)."""
    return encode_batch(np.asarray(group)[None], enc)[0]


def pool_normalize(group):
    """normalized_features of one group through the identity-initialized
    encoder (n = 1), so each token is tanh of itself."""
    dim = group.shape[1]
    return normalized_features(group[None], init_encoder(dim, dim))[0]


class TestEncode:
    def test_identity_initialization_is_tanh(self):
        enc = init_encoder(6, 6)
        gen = np.random.default_rng(0)
        raw = gen.normal(size=(4, 6))
        np.testing.assert_array_equal(encode(raw, enc), np.tanh(raw))

    def test_zero_input_zero_bias(self):
        enc = init_encoder(5, 5)
        np.testing.assert_array_equal(encode(np.zeros((3, 5)), enc), 0.0)

    def test_matches_row_wise_scalar_oracle(self):
        gen = np.random.default_rng(1)
        enc = EncoderParams(gen.normal(size=(5, 7)), gen.normal(size=7))
        raw = gen.normal(size=(4, 5))
        expected = np.asarray(encode_scalar(raw, enc))
        np.testing.assert_allclose(encode(raw, enc), expected, rtol=1e-12)

    def test_batch_matches_single(self):
        gen = np.random.default_rng(2)
        enc = EncoderParams(gen.normal(size=(5, 7)), gen.normal(size=7))
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
        enc = EncoderParams(np.eye(3), np.zeros(3))
        assert not enc.frozen
        enc.freeze()
        assert enc.frozen
        with pytest.raises(ValueError):
            enc.w[0, 0] = 1.0
        with pytest.raises(ValueError):
            enc.b[0] = 1.0

    def test_frozen_is_not_a_field(self):
        # a stray third argument has no field to land in
        with pytest.raises(TypeError):
            EncoderParams(np.eye(3), np.zeros(3), "tanh")
        with pytest.raises(TypeError):
            EncoderParams(np.eye(3), np.zeros(3), frozen=True)
        with pytest.raises(AttributeError):
            init_encoder(3, 3).frozen = True


class TestMaskFeatures:
    def test_three_quarters_of_sixteen(self):
        gen = np.random.default_rng(3)
        group = gen.normal(size=(16, 4))
        masked = mask_features(group[None], 0.75, seed=42)
        assert masked.shape == (1, 16) and masked.dtype == bool
        assert masked.sum() == 12
        assert group[~masked[0]].shape == (4, 4)

    def test_ratio_zero_keeps_everything(self):
        gen = np.random.default_rng(4)
        group = gen.normal(size=(8, 3))
        masked = mask_features(group[None], 0.0, seed=1)
        np.testing.assert_array_equal(group[~masked[0]], group)
        assert not masked.any()

    def test_visible_keeps_original_order(self):
        group = np.arange(20.0).reshape(10, 2)
        masked = mask_features(group[None], 0.5, seed=5)
        kept = [i for i in range(10) if not masked[0, i]]
        np.testing.assert_array_equal(group[~masked[0]], group[kept])

    def test_every_row_hides_the_rounded_count(self):
        groups = np.zeros((200, 10, 2))
        for ratio, count in ((0.75, 8), (0.5, 5), (0.34, 3), (0.04, 0)):
            masked = mask_features(groups, ratio, seed=5)
            # a boolean row marks distinct positions, so the count is exact
            np.testing.assert_array_equal(masked.sum(axis=1), count)
            assert mask_count(10, ratio) == count

    def test_same_seed_same_plan(self):
        groups = np.zeros((6, 12, 3))
        np.testing.assert_array_equal(mask_features(groups, 0.75, seed=99),
                                      mask_features(groups, 0.75, seed=99))
        assert not np.array_equal(mask_features(groups, 0.75, seed=99),
                                  mask_features(groups, 0.75, seed=100))

    def test_rows_of_one_block_differ(self):
        masked = mask_features(np.zeros((50, 16, 2)), 0.75, seed=7)
        assert len({row.tobytes() for row in masked}) == 50

    def test_masking_frequency_is_uniform(self):
        # each index should be masked with empirical frequency ratio +- 0.02
        n_rows = 10_000
        masked = mask_features(np.zeros((n_rows, 16, 2)), 0.75, seed=0)
        freq = masked.sum(axis=0) / n_rows
        assert np.all(np.abs(freq - 0.75) < 0.02)

    def test_invalid_ratios(self):
        groups = np.zeros((2, 4, 2))
        with pytest.raises(ValueError):
            mask_features(groups, -0.1, seed=0)
        with pytest.raises(ValueError):
            mask_features(groups, 1.0, seed=0)
        with pytest.raises(ValueError, match="every token"):
            mask_features(groups, 0.9, seed=0)

    def test_groups_need_two_tokens(self):
        with pytest.raises(ValueError):
            mask_features(np.zeros((3, 1, 2)), 0.5, seed=0)
        with pytest.raises(ValueError):
            mask_features(np.zeros((4, 2)), 0.5, seed=0)


class TestReconstruct:
    def test_identity_decoder_ratio_zero_is_identity(self):
        gen = np.random.default_rng(6)
        groups = gen.normal(size=(3, 6, 4))
        dec = init_decoder(4)
        masked = mask_features(groups, 0.0, seed=0)
        recon = reconstruct(groups, masked, dec)
        np.testing.assert_allclose(recon, groups, rtol=1e-12)
        assert float(((recon - groups) ** 2).mean()) == 0.0

    def test_zero_weights_fill_masked_rows_with_bias(self):
        gen = np.random.default_rng(7)
        groups = gen.normal(size=(2, 8, 3))
        bias = np.array([1.0, -2.0, 0.5])
        dec = DecoderParams(np.zeros((3, 3)), bias, gen.normal(size=3))
        masked = mask_features(groups, 0.75, seed=3)
        recon = reconstruct(groups, masked, dec)
        np.testing.assert_array_equal(recon[masked], np.tile(bias, (12, 1)))

    def test_mse_matches_scalar_oracle(self):
        gen = np.random.default_rng(8)
        groups = gen.normal(size=(3, 6, 5))
        dec = DecoderParams(gen.normal(size=(5, 5)), gen.normal(size=5),
                            gen.normal(size=5))
        masked = mask_features(groups, 0.5, seed=11)
        recon = reconstruct(groups, masked, dec)
        for j, group in enumerate(groups):
            expected = np.empty_like(group)
            for i in range(6):
                source = dec.mask_token if masked[j, i] else group[i]
                for b in range(5):
                    expected[i, b] = sum(source[a] * dec.w[a, b] for a in range(5)) + dec.b[b]
            np.testing.assert_allclose(recon[j], expected, rtol=1e-12)
            mse = float(((recon[j] - group) ** 2).mean())
            mse_scalar = sum((expected[i, b] - group[i, b]) ** 2
                             for i in range(6) for b in range(5)) / 30.0
            assert mse == pytest.approx(mse_scalar, rel=1e-12)

    def test_plan_group_consistency(self):
        dec = init_decoder(3)
        groups = np.zeros((2, 5, 3))
        masked = mask_features(groups, 0.5, seed=1)
        with pytest.raises(ValueError):
            reconstruct(groups[:, :-1], masked, dec)
        with pytest.raises(ValueError):
            reconstruct(groups[:1], masked, dec)


class TestPoolNormalize:
    def test_identical_tokens_reduce_to_layer_norm(self):
        gen = np.random.default_rng(9)
        v = gen.normal(size=8)
        group = np.tile(v, (5, 1))
        np.testing.assert_allclose(pool_normalize(group), layer_normalize_scalar(np.tanh(v)),
                                   rtol=1e-10)

    def test_antipodal_tokens_cancel(self):
        # tanh is odd, so the encoded tokens cancel too
        gen = np.random.default_rng(10)
        v = gen.normal(size=6)
        group = np.stack([v, -v])
        np.testing.assert_array_equal(pool_normalize(group), np.zeros(6))

    def test_matches_mean_then_normalize(self):
        gen = np.random.default_rng(11)
        group = gen.normal(size=(7, 9))
        expected = layer_normalize_scalar(np.tanh(group).mean(axis=0))
        np.testing.assert_allclose(pool_normalize(group), expected, rtol=1e-10)


class TestRowNormalization:
    def test_rows_match_vector_functions(self):
        gen = np.random.default_rng(13)
        rows = gen.normal(size=(6, 10))
        batched = normalize_rows(rows)
        for j in range(6):
            np.testing.assert_allclose(batched[j], layer_normalize_scalar(rows[j]), rtol=1e-10)

    def test_backward_matches_finite_differences(self):
        gen = np.random.default_rng(14)
        rows = gen.normal(size=(3, 6))
        downstream = gen.normal(size=(3, 6))
        analytic = normalize_rows_backward(downstream, rows)
        h = 1e-6
        numeric = np.zeros_like(rows)
        for i in range(rows.shape[0]):
            for j in range(rows.shape[1]):
                rows[i, j] += h
                up = float((normalize_rows(rows) * downstream).sum())
                rows[i, j] -= 2 * h
                down = float((normalize_rows(rows) * downstream).sum())
                rows[i, j] += h
                numeric[i, j] = (up - down) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_normalized_features_pipeline(self):
        gen = np.random.default_rng(15)
        enc = init_encoder(5, 5)
        raw = gen.normal(size=(4, 6, 5))
        out = normalized_features(raw, enc)
        for j in range(4):
            pooled = np.asarray(encode_scalar(raw[j], enc)).mean(axis=0)
            np.testing.assert_allclose(out[j], layer_normalize_scalar(pooled), rtol=1e-10)


def random_encoder(raw_dim, dim, seed=16):
    gen = np.random.default_rng(seed)
    return EncoderParams(gen.normal(size=(raw_dim, dim)), gen.normal(size=dim))


# rows of 16 tokens encoded 5 -> 8 wide are 1 KiB, so a chunk holds 256
CHUNK_TOKENS = 16
CHUNK_ROWS = encode_chunk_rows(CHUNK_TOKENS, random_encoder(5, 8))

# (raw_dim, dim) pairs: widening, narrowing, the narrowest feature dim the
# layer norm allows, and a raw width that sets a smaller chunk (128 rows)
WIDTHS = [(5, 8), (8, 5), (16, 2), (3, 16)]


class TestChunkedEncoding:
    @pytest.mark.parametrize("tokens, raw_dim, dim, rows", [
        (16, 64, 64, 32),     # cli-stream rows: 8 KiB each
        (16, 4, 64, 32),      # the encoded width sets the size when wider
        (196, 768, 2, 1),     # a row over the budget is encoded alone
    ])
    def test_chunk_rows_fit_the_byte_budget(self, tokens, raw_dim, dim, rows):
        enc = EncoderParams(np.zeros((raw_dim, dim)), np.zeros(dim))
        assert encode_chunk_rows(tokens, enc) == rows

    @pytest.mark.parametrize("raw_dim, dim", WIDTHS)
    def test_encode_batch_matches_the_out_of_place_expression(self, raw_dim, dim):
        enc = random_encoder(raw_dim, dim)
        raw = np.random.default_rng(17).normal(size=(9, 3, raw_dim))
        expected = np.tanh(raw @ enc.w + enc.b)
        assert encode_batch(raw, enc).tobytes() == expected.tobytes()

    # n is one chunk less a row, one chunk, one chunk and a row, and two
    # chunks and three rows, in chunks of the encoder's own width
    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
    @pytest.mark.parametrize("raw_dim, dim", WIDTHS)
    def test_chunks_are_byte_equal_to_the_whole_batch(self, chunks, extra, raw_dim, dim):
        enc = random_encoder(raw_dim, dim)
        n = chunks * encode_chunk_rows(CHUNK_TOKENS, enc) + extra
        raw = np.random.default_rng(n).normal(size=(n, CHUNK_TOKENS, raw_dim))
        whole = normalize_rows(encode_batch(raw, enc).mean(axis=1))
        out = encode_rows(raw, np.arange(n), enc)
        assert out.shape == (n, dim)
        assert out.tobytes() == whole.tobytes()

    def test_rows_encode_into_the_given_array(self):
        enc = random_encoder(5, 8)
        raw = np.random.default_rng(19).normal(size=(6, CHUNK_TOKENS, 5))
        indices = np.array([4, 0, 4, 2])
        buf = np.full((4, 8), np.nan)
        assert encode_rows(raw, indices, enc, out=buf) is buf
        assert buf.tobytes() == encode_rows(raw, indices, enc).tobytes()

    def test_no_rows_give_an_empty_feature_matrix(self):
        out = normalized_features(np.zeros((0, 3, 5)), random_encoder(5, 6))
        assert out.shape == (0, 6)

    @pytest.mark.parametrize("shape", [(0, 3, 4), (2, 3, 4), (0, 5), (2, 5), (2, 3, 5, 1)])
    def test_wrong_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="raw tokens of shape"):
            normalized_features(np.zeros(shape), random_encoder(5, 6))

    def test_peak_memory_is_bounded_by_the_chunk(self, traced_peak):
        tokens, dim = 16, 4
        enc = random_encoder(dim, dim)
        rows = encode_chunk_rows(tokens, enc)
        raw = np.random.default_rng(18).normal(size=(8 * rows, tokens, dim))
        chunk_activations = rows * tokens * dim * 8
        _, peak = traced_peak(encode_rows, raw, np.arange(raw.shape[0]), enc)
        # one chunk of gathered rows, one of activations and the half-chunk
        # (n, dim) result; gathering and encoding the whole batch would
        # take 8 chunks each
        assert peak < 3 * chunk_activations
