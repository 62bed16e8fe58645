import math

import numpy as np
import pytest

from gcmr.classifier import init_classifier, project_batch
from gcmr.encoder import DecoderParams, EncoderParams, init_decoder, init_encoder
from gcmr.losses import (RECON_REDUCTIONS, RECON_SCOPES, DistanceDictionary, LossConfig,
                         _base_core, alpha_schedule, base_loss, base_loss_backward,
                         build_distance_dictionary, incremental_loss)
from gcmr.memory import init_representation_memory

from oracles import (base_core_reference, base_loss_scalar, cross_entropy_scalar,
                     distance_vector_scalar, finite_difference,
                     incremental_loss_scalar, project_scalar)


def distance_term(f, target, dictionary, params):
    """The distance term of the incremental objective for one example (n = 1):
    cross-entropy over its negated squared distances to the dictionary rows."""
    _, breakdown = incremental_loss(f[None, :], [target], f[None, :], dictionary,
                                    params, LossConfig(beta=1.0), seed=0)
    return breakdown["distance"]


def random_incremental_instance(seed, dim=4, hidden=2, n_classes=3, n_batch=1,
                                n_memory=2, beta=0.7, dropout_rate=0.1):
    gen = np.random.default_rng(seed)
    params = init_classifier(dim, hidden, n_classes, seed, dropout_rate)
    features = gen.standard_normal((n_batch, dim))
    labels = gen.integers(0, n_classes, size=n_batch)
    memory_rows = gen.standard_normal((n_memory, dim))
    dictionary = DistanceDictionary(gen.standard_normal((n_classes, hidden)))
    cfg = LossConfig(beta=beta)
    return params, features, labels, memory_rows, dictionary, cfg


class TestAlphaSchedule:
    def test_epoch_zero_equals_c(self):
        assert alpha_schedule(LossConfig(c=0.3), 0) == 0.3

    def test_epoch_two_is_c_over_e(self):
        assert alpha_schedule(LossConfig(c=0.3), 2) == pytest.approx(0.3 / math.e, rel=1e-12)

    def test_epoch_twenty_nearly_vanishes(self):
        value = alpha_schedule(LossConfig(c=0.5), 20)
        assert value == pytest.approx(0.5 * math.exp(-10), rel=1e-12)
        assert value < 1e-4

    def test_strictly_decreasing_with_constant_ratio(self):
        cfg = LossConfig(c=0.9)
        values = [alpha_schedule(cfg, e) for e in range(100)]
        assert all(a > b for a, b in zip(values, values[1:]))
        for e in range(50):
            assert values[e] / values[e + 2] == pytest.approx(math.e, rel=1e-12)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            alpha_schedule(LossConfig(), -1)


class TestDistanceVector:
    def test_zero_distance_on_matching_row(self):
        params = init_classifier(4, 3, 2, seed=0)
        gen = np.random.default_rng(0)
        f = gen.normal(size=4)
        rows = np.stack([project_batch(f[None, :], params)[0], np.zeros(3)])
        dictionary = DistanceDictionary(rows)
        own_gap = float(rows[0] @ rows[0])      # distance to the zero row
        # d = [0, own_gap], so the term is log(1 + exp(-own_gap))
        assert distance_term(f, 0, dictionary, params) == pytest.approx(
            math.log1p(math.exp(-own_gap)), rel=1e-12)

    def test_orthonormal_basis_distance_two(self):
        # identity first layer, zero bias: the projection of a one-hot
        # feature is the feature itself
        params = init_classifier(3, 3, 2, seed=1)
        params.w1, params.b1 = np.eye(3), np.zeros(3)
        dictionary = DistanceDictionary(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
        # d = [2, 0]: -log(e^-2 / (e^-2 + 1)) = log(1 + e^2)
        assert distance_term(np.array([1.0, 0.0, 0.0]), 0, dictionary, params) == \
            pytest.approx(math.log1p(math.exp(2.0)), rel=1e-12)

    def test_matches_per_coordinate_scalar_sum(self):
        gen = np.random.default_rng(2)
        params = init_classifier(5, 4, 3, seed=2)
        f = gen.normal(size=5)
        rows = gen.normal(size=(3, 4))
        dictionary = DistanceDictionary(rows)
        d = distance_vector_scalar(project_scalar(f.tolist(), params), rows.tolist())
        for target in range(3):
            assert distance_term(f, target, dictionary, params) == pytest.approx(
                cross_entropy_scalar([-v for v in d], target), rel=1e-12)

    def test_dimension_mismatch(self):
        params = init_classifier(4, 3, 2, seed=3)
        dictionary = DistanceDictionary(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            distance_term(np.zeros(4), 0, dictionary, params)


class TestBaseLoss:
    def make_instance(self, seed, n=2, g=4, dim=6, n_classes=3, **cfg_kwargs):
        gen = np.random.default_rng(seed)
        enc = EncoderParams(np.eye(dim) + 0.1 * gen.standard_normal((dim, dim)),
                            0.1 * gen.standard_normal(dim), "tanh")
        dec = DecoderParams(np.eye(dim) + 0.1 * gen.standard_normal((dim, dim)),
                            0.1 * gen.standard_normal(dim),
                            0.1 * gen.standard_normal(dim))
        params = init_classifier(dim, 4, n_classes, seed, dropout_rate=0.1)
        raw = gen.standard_normal((n, g, dim))
        labels = gen.integers(0, n_classes, size=n)
        cfg = LossConfig(**cfg_kwargs)
        return raw, labels, enc, dec, params, cfg

    def test_alpha_zero_is_pure_classification(self):
        raw, labels, enc, dec, params, cfg = self.make_instance(0, c=0.0)
        total, breakdown = base_loss(raw, labels, enc, dec, params, cfg, 0, seed=5)
        assert total == breakdown["classification"]

    def test_identity_pipeline_mask_ratio_zero(self):
        gen = np.random.default_rng(1)
        dim = 5
        enc = init_encoder(dim, dim, activation="identity")
        dec = init_decoder(dim)
        params = init_classifier(dim, 3, 2, seed=1, dropout_rate=0.0)
        raw = gen.standard_normal((3, 4, dim))
        labels = gen.integers(0, 2, size=3)
        cfg = LossConfig(c=0.4, mask_ratio=0.0)
        total, breakdown = base_loss(raw, labels, enc, dec, params, cfg, 0, seed=2)
        assert breakdown["reconstruction"] == 0.0
        alpha = alpha_schedule(cfg, 0)
        assert total == pytest.approx((1 - alpha) * breakdown["classification"], rel=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_scalar_oracle(self, seed):
        raw, labels, enc, dec, params, cfg = self.make_instance(
            seed, c=0.3, mask_ratio=0.5)
        total, breakdown = base_loss(raw, labels, enc, dec, params, cfg, 1, seed=seed)
        ref_total, ref_terms = base_loss_scalar(raw, labels, enc, dec, params,
                                                cfg, 1, seed=seed)
        assert total == pytest.approx(ref_total, rel=1e-10)
        assert breakdown["reconstruction"] == pytest.approx(
            ref_terms["reconstruction"], rel=1e-10)
        assert breakdown["classification"] == pytest.approx(
            ref_terms["classification"], rel=1e-10)

    def test_masked_scope_matches_scalar_oracle(self):
        raw, labels, enc, dec, params, cfg = self.make_instance(
            6, c=0.5, mask_ratio=0.5, recon_scope="masked")
        total, _ = base_loss(raw, labels, enc, dec, params, cfg, 0, seed=6)
        ref_total, _ = base_loss_scalar(raw, labels, enc, dec, params, cfg, 0, seed=6)
        assert total == pytest.approx(ref_total, rel=1e-10)

    def test_sum_reduction_matches_scalar_oracle(self):
        raw, labels, enc, dec, params, cfg = self.make_instance(
            7, c=0.5, mask_ratio=0.5, recon_reduction="sum")
        total, _ = base_loss(raw, labels, enc, dec, params, cfg, 0, seed=7)
        ref_total, _ = base_loss_scalar(raw, labels, enc, dec, params, cfg, 0, seed=7)
        assert total == pytest.approx(ref_total, rel=1e-10)

    @pytest.mark.parametrize("scope", ["all", "masked"])
    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("ratio", [0.5, 0.1])
    def test_gradients_match_finite_differences(self, scope, reduction, ratio):
        # ratio 0.1 hides no token of a 4-token group: the masked scope is
        # empty and its reconstruction term and decoder gradients vanish
        raw, labels, enc, dec, params, cfg = self.make_instance(
            9, n=5, c=0.5, mask_ratio=ratio, recon_scope=scope,
            recon_reduction=reduction)
        _, terms, grads = base_loss_backward(raw, labels, enc, dec, params, cfg, 0, seed=4)
        if scope == "masked" and ratio == 0.1:
            assert terms["reconstruction"] == 0.0
            assert not grads["dec_w"].any() and not grads["mask_token"].any()
        for name, arr in (("enc_w", enc.w), ("enc_b", enc.b), ("dec_w", dec.w),
                          ("dec_b", dec.b), ("mask_token", dec.mask_token),
                          ("head_w1", params.w1), ("head_b2", params.b2)):
            numeric = finite_difference(
                lambda: base_loss(raw, labels, enc, dec, params, cfg, 0, seed=4)[0], arr)
            np.testing.assert_allclose(grads[name], numeric, rtol=1e-5, atol=1e-8)

    def test_generator_count_is_independent_of_batch(self, rng_calls):
        counts = set()
        for n in (1, 8, 64):
            raw, labels, enc, dec, params, cfg = self.make_instance(2, n=n, mask_ratio=0.5)
            rng_calls.clear()
            base_loss_backward(raw, labels, enc, dec, params, cfg, 0, seed=3)
            counts.add(len(rng_calls.stream))
            assert rng_calls.generator == []     # a step builds no generator
        assert counts == {2}   # one mask block and one dropout block

    def test_label_out_of_range(self):
        # the objective's one label check, below zero and at the class count
        raw, labels, enc, dec, params, cfg = self.make_instance(16, n=3)
        for bad in (-1, params.n_classes):
            labels[2] = bad
            with pytest.raises(ValueError, match="label out of range"):
                base_loss_backward(raw, labels, enc, dec, params, cfg, 0, seed=0)

    def test_nonnegative_and_finite(self):
        for seed in range(5):
            raw, labels, enc, dec, params, cfg = self.make_instance(seed, c=0.7)
            total, _ = base_loss(raw, labels, enc, dec, params, cfg, 0, seed=seed)
            assert np.isfinite(total) and total >= 0.0

    def test_empty_batch_rejected(self):
        _, _, enc, dec, params, cfg = self.make_instance(8)
        with pytest.raises(ValueError):
            base_loss(np.empty((0, 4, 6)), np.empty(0, dtype=int), enc, dec,
                      params, cfg, 0, seed=0)


class TestBaseCoreBytes:
    """_base_core against its first form, oracles.base_core_reference: the
    value, the breakdown and every gradient agree byte for byte, signed
    zeros included."""

    @pytest.mark.parametrize("scope", RECON_SCOPES)
    @pytest.mark.parametrize("reduction", RECON_REDUCTIONS)
    @pytest.mark.parametrize("activation, norm", [("tanh", "layer"), ("tanh", "l2"),
                                                  ("identity", "layer"),
                                                  ("identity", "l2")])
    @pytest.mark.parametrize("ratio", [0.5, 0.1])
    def test_matches_reference_bytes(self, scope, reduction, activation, norm, ratio):
        # ratio 0.1 hides no token of a 5-token group, so the masked scope
        # is empty; a large negative head bias kills ReLU units, which
        # gives signed zeros in the gradients
        gen = np.random.default_rng(31)
        enc = EncoderParams(np.eye(5, 6) + 0.2 * gen.standard_normal((5, 6)),
                            0.1 * gen.standard_normal(6), activation, norm)
        dec = DecoderParams(np.eye(6) + 0.1 * gen.standard_normal((6, 6)),
                            0.1 * gen.standard_normal(6), 0.1 * gen.standard_normal(6))
        params = init_classifier(6, 7, 4, seed=31, dropout_rate=0.3)
        params.b1[:3] = -10.0
        raw = gen.standard_normal((9, 5, 5))
        labels = gen.integers(0, 4, size=9)
        cfg = LossConfig(c=0.6, mask_ratio=ratio, recon_scope=scope,
                         recon_reduction=reduction)
        for epoch, compute_grads in ((0, True), (3, True), (1, False)):
            total, terms, grads = _base_core(raw, labels, enc, dec, params, cfg,
                                             epoch, 8, compute_grads)
            ref_total, ref_terms, ref_grads = base_core_reference(
                raw, labels, enc, dec, params, cfg, epoch, 8, compute_grads)
            assert np.float64(total).tobytes() == np.float64(ref_total).tobytes()
            assert terms == ref_terms
            if not compute_grads:
                assert grads is ref_grads is None
                continue
            assert list(grads) == list(ref_grads)
            for name, grad in grads.items():
                assert grad.dtype == ref_grads[name].dtype, name
                assert grad.tobytes() == ref_grads[name].tobytes(), name


class TestIncrementalLoss:
    def test_beta_one_is_distance_only(self):
        params, features, labels, memory_rows, dictionary, _ = \
            random_incremental_instance(0, beta=1.0)
        cfg = LossConfig(beta=1.0)
        total, breakdown = incremental_loss(features, labels, memory_rows,
                                            dictionary, params, cfg, seed=0)
        assert total == breakdown["distance"]

    def test_beta_zero_is_memory_plus_classification(self):
        params, features, labels, memory_rows, dictionary, _ = \
            random_incremental_instance(1)
        cfg = LossConfig(beta=0.0)
        total, breakdown = incremental_loss(features, labels, memory_rows,
                                            dictionary, params, cfg, seed=1)
        assert total == breakdown["memory"] + breakdown["classification"]

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_matches_scalar_oracle(self, seed):
        params, features, labels, memory_rows, dictionary, cfg = \
            random_incremental_instance(seed, beta=0.7)
        total, breakdown = incremental_loss(features, labels, memory_rows,
                                            dictionary, params, cfg, seed=seed)
        ref_total, ref_terms = incremental_loss_scalar(
            features, labels, memory_rows, dictionary, params, cfg, seed=seed)
        assert total == pytest.approx(ref_total, rel=1e-10)
        for key in ref_terms:
            assert breakdown[key] == pytest.approx(ref_terms[key], rel=1e-10)

    def test_beta_derivative_matches_breakdown(self):
        # E_i is linear in beta with slope distance - memory - classification
        params, features, labels, memory_rows, dictionary, _ = \
            random_incremental_instance(5, n_batch=3, n_memory=2)
        h = 1e-6
        up, _ = incremental_loss(features, labels, memory_rows, dictionary, params,
                                 LossConfig(beta=0.7 + h), seed=5)
        down, _ = incremental_loss(features, labels, memory_rows, dictionary, params,
                                   LossConfig(beta=0.7 - h), seed=5)
        _, terms = incremental_loss(features, labels, memory_rows, dictionary, params,
                                    LossConfig(beta=0.7), seed=5)
        slope = (up - down) / (2 * h)
        expected = terms["distance"] - terms["memory"] - terms["classification"]
        assert slope == pytest.approx(expected, abs=1e-6)

    def test_shrinking_own_distance_decreases_distance_term(self):
        params, features, labels, memory_rows, _, cfg = \
            random_incremental_instance(6, n_batch=1)
        point = project_batch(features[:1], params)[0]
        far = np.stack([point + 2.0, point - 3.0, point + 4.0])
        labels = np.array([1])
        previous = None
        for shrink in (4.0, 2.0, 1.0, 0.5):
            rows = far.copy()
            rows[1] = point + shrink  # move the own-class row closer
            dictionary = DistanceDictionary(rows)
            _, breakdown = incremental_loss(features, labels, memory_rows,
                                            dictionary, params, cfg, seed=6)
            if previous is not None:
                assert breakdown["distance"] < previous
            previous = breakdown["distance"]

    def test_batch_order_invariance(self):
        params, features, labels, memory_rows, dictionary, cfg = \
            random_incremental_instance(7, n_batch=4, n_classes=3, dropout_rate=0.0)
        total, breakdown = incremental_loss(features, labels, memory_rows, dictionary,
                                            params, cfg, seed=7)
        perm = np.array([2, 0, 3, 1])
        total_p, breakdown_p = incremental_loss(features[perm], labels[perm], memory_rows,
                                                dictionary, params, cfg, seed=7)
        assert total == pytest.approx(total_p, abs=1e-12)
        for key in breakdown:
            assert breakdown[key] == pytest.approx(breakdown_p[key], abs=1e-12)

    def test_nonnegative_and_finite(self):
        for seed in range(8, 13):
            params, features, labels, memory_rows, dictionary, cfg = \
                random_incremental_instance(seed, n_batch=3)
            total, _ = incremental_loss(features, labels, memory_rows,
                                        dictionary, params, cfg, seed=seed)
            assert np.isfinite(total) and total >= 0.0

    def test_empty_memory_rejected(self):
        params, features, labels, _, dictionary, cfg = random_incremental_instance(13)
        with pytest.raises(ValueError):
            incremental_loss(features, labels, np.empty((0, 4)), dictionary,
                             params, cfg, seed=0)


class TestBuildDictionary:
    def test_rows_are_live_projections(self):
        gen = np.random.default_rng(14)
        mem = init_representation_memory({c: gen.normal(size=(2, 6)) for c in range(3)})
        params = init_classifier(6, 4, 5, seed=14)
        extra_mean = gen.normal(size=6)
        dictionary = build_distance_dictionary(mem, params, [extra_mean])
        assert dictionary.projected_rows.shape == (4, 4)
        np.testing.assert_allclose(dictionary.projected_rows[3],
                                   project_scalar(extra_mean.tolist(), params), rtol=1e-12)
        for k in range(3):
            np.testing.assert_allclose(dictionary.projected_rows[k],
                                       project_scalar(mem.rows[k].tolist(), params),
                                       rtol=1e-12)


    def test_squared_norms_are_cached_read_only(self):
        rows = np.random.default_rng(17).normal(size=(5, 3))
        dictionary = DistanceDictionary(rows)
        assert dictionary.sq_norms.tobytes() == (rows * rows).sum(axis=1).tobytes()
        for arr in (dictionary.projected_rows, dictionary.sq_norms):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestLossConfigValidation:
    def test_accepts_c_zero_for_tests(self):
        assert LossConfig(c=0.0).c == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LossConfig(c=1.5)
        with pytest.raises(ValueError):
            LossConfig(beta=-0.1)
        with pytest.raises(ValueError):
            LossConfig(mask_ratio=1.0)
        with pytest.raises(ValueError):
            LossConfig(recon_scope="sometimes")
