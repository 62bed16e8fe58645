import math

import numpy as np
import pytest

from gcmr.data_io import TokenDataset
from gcmr.encoder import normalize_rows
from gcmr.nn_core import (cosine_lr, cross_entropy_rows, sgd_momentum_step,
                          softmax_rows)
from gcmr.trainer import TrainConfig

from oracles import (cross_entropy_scalar, layer_normalize_scalar,
                     softmax_scalar)


def softmax(logits):
    """softmax_rows on a single row (n = 1)."""
    return softmax_rows(np.asarray(logits, dtype=np.float64)[None, :])[0]


def cross_entropy(logits, label):
    """cross_entropy_rows on a single row (n = 1)."""
    value, _ = cross_entropy_rows(np.asarray(logits, dtype=np.float64)[None, :],
                                  np.array([label]))
    return value


def layer_normalize(vector):
    return normalize_rows(np.asarray(vector, dtype=np.float64)[None, :], "layer")[0]


def l2_normalize(vector):
    return normalize_rows(np.asarray(vector, dtype=np.float64)[None, :], "l2")[0]


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax([0, 0, 0, 0]), 0.25, atol=1e-12)

    def test_large_logits_no_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_matches_scalar_recomputation(self):
        logits = [0.3, -1.2, 2.0]
        expected = softmax_scalar(logits)
        np.testing.assert_allclose(softmax(logits), expected, rtol=1e-12)

    def test_sums_to_one_across_magnitudes(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            scale = 10.0 ** gen.uniform(-2, 4)
            logits = gen.uniform(-1, 1, size=gen.integers(2, 12)) * scale
            out = softmax(logits)
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.argmax(out) == np.argmax(logits)

    def test_rejects_bad_input(self):
        # non-finite values are rejected where data enters the package
        with pytest.raises(ValueError):
            softmax([])
        with pytest.raises(ValueError):
            TokenDataset(np.array([[[1.0, np.nan]]]), np.array([0]))

    def test_input_is_not_modified(self):
        logits = np.random.default_rng(9).normal(size=(4, 5)) * 3
        before = logits.tobytes()
        probs = softmax_rows(logits)
        assert logits.tobytes() == before
        assert not np.shares_memory(probs, logits)

    def test_argmax_invariant_under_constant_shift(self):
        gen = np.random.default_rng(8)
        for _ in range(100):
            logits = gen.normal(size=5) * 4
            shift = gen.normal() * 100
            np.testing.assert_allclose(softmax(logits), softmax(logits + shift),
                                       atol=1e-12)
            assert np.argmax(softmax(logits)) == np.argmax(softmax(logits + shift))


class TestCrossEntropy:
    def test_uniform_four_classes(self):
        assert cross_entropy([1.0, 1.0, 1.0, 1.0], 2) == pytest.approx(math.log(4), rel=1e-12)

    def test_saturated_correct_class(self):
        assert cross_entropy([50.0, 0.0, 0.0], 0) < 1e-9

    def test_matches_scalar_recomputation(self):
        gen = np.random.default_rng(1)
        logits = gen.normal(size=5)
        expected = cross_entropy_scalar(logits.tolist(), 2)
        assert cross_entropy(logits, 2) == pytest.approx(expected, rel=1e-12)
        # a batch is the mean of its rows
        rows = gen.normal(size=(4, 5))
        targets = np.array([0, 3, 1, 4])
        value, probs = cross_entropy_rows(rows, targets)
        expected = np.mean([cross_entropy_scalar(r.tolist(), t) for r, t in zip(rows, targets)])
        assert value == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)

    def test_input_is_not_modified(self):
        logits = np.random.default_rng(10).normal(size=(4, 5)) * 3
        before = logits.tobytes()
        _, probs = cross_entropy_rows(logits, np.array([0, 4, 2, 2]))
        assert logits.tobytes() == before
        assert not np.shares_memory(probs, logits)

    def test_nonnegative(self):
        gen = np.random.default_rng(2)
        for _ in range(200):
            logits = gen.normal(size=6) * 3
            assert cross_entropy(logits, int(gen.integers(6))) >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy([0.0, 1.0], 2)
        with pytest.raises(ValueError):
            cross_entropy([0.0, 1.0], -1)


class TestLayerNormalize:
    def test_constant_vector_maps_to_zero(self):
        np.testing.assert_array_equal(layer_normalize([3.0, 3.0, 3.0, 3.0]), 0.0)

    def test_standardized_vector_is_near_fixed_point(self):
        gen = np.random.default_rng(3)
        v = gen.normal(size=64)
        v = (v - v.mean()) / v.std()
        np.testing.assert_allclose(layer_normalize(v), v, atol=1e-4)

    def test_postconditions_on_random_768d(self):
        gen = np.random.default_rng(4)
        v = gen.normal(scale=10.0, size=768)
        out = layer_normalize(v)
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-6
        np.testing.assert_allclose(out, layer_normalize_scalar(v), rtol=1e-9, atol=1e-12)

    def test_postconditions_hold_over_1000_vectors(self):
        gen = np.random.default_rng(5)
        for _ in range(1000):
            v = gen.normal(scale=10.0, size=int(gen.integers(8, 128)))
            out = layer_normalize(v)
            assert abs(out.mean()) < 1e-9
            assert abs(out.var() - 1.0) < 1e-6

    def test_rejects_degenerate_input(self):
        # a 1-wide feature normalizes to a constant, so the widths are
        # rejected where they are configured
        from gcmr.encoder import init_encoder
        with pytest.raises(ValueError):
            init_encoder(1, 1)
        with pytest.raises(ValueError):
            TrainConfig(feature_dim=1)


class TestL2Normalize:
    def test_unit_norm(self):
        out = l2_normalize([3.0, 4.0])
        np.testing.assert_allclose(np.linalg.norm(out), 1.0, rtol=1e-12)

    def test_zero_vector_passes_through(self):
        np.testing.assert_array_equal(l2_normalize([0.0, 0.0, 0.0]), 0.0)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 0.1, 0.001, 100) == pytest.approx(0.1, rel=1e-12)
        assert cosine_lr(100, 0.1, 0.001, 100) == pytest.approx(0.001, rel=1e-12)
        assert cosine_lr(50, 0.1, 0.001, 100) == pytest.approx((0.1 + 0.001) / 2, rel=1e-12)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(e, 0.1, 0.001, 73) for e in range(74)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 0.1, 0.001, 10)
        with pytest.raises(ValueError):
            cosine_lr(-1, 0.1, 0.001, 10)


class TestSgdMomentum:
    def step(self, params, grads, velocities, momentum, lr):
        named = lambda arrays: {str(i): a for i, a in enumerate(arrays)}
        sgd_momentum_step(named(params), named(grads), named(velocities), momentum, lr)

    def test_momentum_zero_is_vanilla_descent(self):
        gen = np.random.default_rng(6)
        params = gen.normal(size=(4, 3))
        grads = gen.normal(size=(4, 3))
        expected = params - 0.1 * grads
        self.step([params], [grads], [np.zeros((4, 3))], 0.0, lr=0.1)
        assert params.tobytes() == expected.tobytes()

    def test_zero_gradients_zero_velocity_fixed_point(self):
        params = np.ones((2, 2))
        velocity = np.zeros((2, 2))
        self.step([params], [np.zeros((2, 2))], [velocity], 0.9, lr=0.5)
        np.testing.assert_array_equal(params, 1.0)
        np.testing.assert_array_equal(velocity, 0.0)

    def test_two_identical_steps_with_momentum(self):
        # second displacement is lr * (1 + momentum) * grad
        gen = np.random.default_rng(7)
        params = gen.normal(size=5)
        grads = gen.normal(size=5)
        velocity = np.zeros(5)
        self.step([params], [grads], [velocity], 0.9, lr=0.2)
        after_one = params.copy()
        self.step([params], [grads], [velocity], 0.9, lr=0.2)
        np.testing.assert_allclose(after_one - params, 0.2 * 1.9 * grads, rtol=1e-12)

    def test_purity_and_shape_check(self):
        # the step writes the parameters and velocities, never the gradients
        params, grads, velocity = np.ones(3), np.ones(3), np.zeros(3)
        self.step([params], [grads], [velocity], 0.9, lr=0.1)
        np.testing.assert_array_equal(grads, 1.0)
        np.testing.assert_array_equal(velocity, 1.0)
        np.testing.assert_allclose(params, 0.9, rtol=1e-15)
        with pytest.raises(ValueError):
            self.step([np.ones(3)], [np.ones(4)], [np.zeros(3)], 0.9, lr=0.1)

    def test_state_validation(self):
        # momentum and learning rates are validated with the run config,
        # the schedule length by the schedule
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(base_lr=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(incr_lr=math.inf)
        with pytest.raises(ValueError):
            cosine_lr(0, 0.1, 0.001, 0)

    def test_non_finite_update_names_the_parameter(self):
        from gcmr.nn_core import NumericalError
        params = {"good": np.ones(2), "bad": np.ones(2)}
        grads = {"good": np.ones(2), "bad": np.array([0.0, np.nan])}
        velocities = {name: np.zeros(2) for name in params}
        with pytest.raises(NumericalError, match="bad"):
            sgd_momentum_step(params, grads, velocities, 0.9, 0.1)
