import numpy as np
import pytest

from gcmr import rng
from gcmr.classifier import (ClassifierParams, dropout_scale, eval_logits_batch,
                             expand_with_imprinting, incremental_terms,
                             init_classifier, project_batch)
from gcmr.losses import DistanceDictionary, LossConfig, incremental_loss

from oracles import (cross_entropy_scalar, finite_difference, head_forward_scalar,
                     max_rel_err, project_scalar)


def make_params(dim=6, hidden=4, n_classes=3, seed=0, dropout_rate=0.0):
    return init_classifier(dim, hidden, n_classes, seed, dropout_rate)


def project(fbar, params):
    """project_batch on one feature vector (n = 1)."""
    return project_batch(np.asarray(fbar)[None, :], params)[0]


def eval_logits(fbar, params):
    """eval_logits_batch on one feature vector (n = 1)."""
    return eval_logits_batch(np.asarray(fbar)[None, :], params)[0]


def train_ce(fbar, label, params, seed):
    """Train-mode (dropout) cross-entropy of one example: the classification
    term of the incremental objective with n = 1."""
    _, breakdown, _ = incremental_terms(np.asarray(fbar)[None, :], [label], None, None,
                                        params, LossConfig(), seed,
                                        memory_regularization=False, compute_grads=False)
    return breakdown["classification"]


def random_instance(seed, dim=8, hidden=4, n_classes=5, n_batch=3, n_memory=3,
                    dropout_rate=0.1, beta=0.7):
    gen = np.random.default_rng(seed)
    params = init_classifier(dim, hidden, n_classes, seed, dropout_rate)
    features = gen.standard_normal((n_batch, dim))
    labels = gen.integers(0, n_classes, size=n_batch)
    memory_rows = gen.standard_normal((n_memory, dim))
    dictionary = DistanceDictionary(gen.standard_normal((n_classes, hidden)),
                                    tuple(range(n_classes)), "hidden")
    cfg = LossConfig(beta=beta)
    return params, features, labels, memory_rows, dictionary, cfg


class TestForward:
    def test_zero_parameters_give_uniform_softmax(self):
        params = ClassifierParams(np.zeros((4, 3)), np.zeros(3),
                                  np.zeros((3, 2)), np.zeros(2), 0.0)
        np.testing.assert_array_equal(eval_logits(np.ones(4), params), 0.0)

    def test_dropout_zero_train_equals_eval(self):
        params = make_params(dropout_rate=0.0)
        gen = np.random.default_rng(1)
        f = gen.normal(size=6)
        expected = cross_entropy_scalar(eval_logits(f, params).tolist(), 1)
        assert train_ce(f, 1, params, seed=7) == pytest.approx(expected, rel=1e-12)

    def test_matches_scalar_recomputation(self):
        gen = np.random.default_rng(2)
        params = make_params(seed=2)
        f = gen.normal(size=6)
        h_ref, l_ref = head_forward_scalar(f.tolist(), params)
        np.testing.assert_allclose(project(f, params), h_ref, rtol=1e-12)
        np.testing.assert_allclose(eval_logits(f, params), l_ref, rtol=1e-12)

    def test_eval_mode_is_seed_independent(self):
        # eval logits take no seed; with dropout, train mode depends on it
        gen = np.random.default_rng(3)
        params = make_params(dropout_rate=0.5)
        f = gen.normal(size=6)
        a = eval_logits(f, params)
        np.testing.assert_array_equal(a, eval_logits(f, params))
        values = {train_ce(f, 0, params, seed) for seed in range(8)}
        assert len(values) > 1

    def test_train_dropout_is_deterministic_per_seed(self):
        gen = np.random.default_rng(4)
        params = make_params(dropout_rate=0.5)
        f = gen.normal(size=6)
        assert train_ce(f, 2, params, seed=9) == train_ce(f, 2, params, seed=9)

    def test_dimension_mismatch(self):
        params = make_params()
        with pytest.raises(ValueError):
            train_ce(np.zeros(5), 0, params, seed=0)


class TestProject:
    def test_zero_input_zero_bias(self):
        params = ClassifierParams(np.ones((4, 3)), np.zeros(3),
                                  np.ones((3, 2)), np.zeros(2))
        np.testing.assert_array_equal(project(np.zeros(4), params), 0.0)

    def test_equals_eval_forward_hidden(self):
        gen = np.random.default_rng(5)
        params = make_params(dropout_rate=0.3)
        features = gen.normal(size=(20, 6))
        hidden = project_batch(features, params)
        np.testing.assert_array_equal(hidden @ params.w2 + params.b2,
                                      eval_logits_batch(features, params))
        for j in range(20):
            np.testing.assert_allclose(hidden[j], head_forward_scalar(
                features[j].tolist(), params)[0], rtol=1e-12)

    def test_output_is_nonnegative(self):
        gen = np.random.default_rng(6)
        params = make_params(seed=6)
        assert np.all(project_batch(gen.normal(size=(1000, 6)) * 3, params) >= 0.0)


class TestBackward:
    def test_saturated_distance_gradients_vanish(self):
        # the example's projection sits exactly on its own dictionary row and
        # every other row is 50 squared-distance units away (logit gap 50)
        dim, hidden = 6, 4
        params = make_params(dim, hidden, 3, seed=7, dropout_rate=0.0)
        gen = np.random.default_rng(7)
        features = gen.standard_normal((1, dim))
        point = np.maximum(features @ params.w1 + params.b1, 0.0)[0]
        offset = np.sqrt(50.0 / hidden)
        rows = np.stack([point, point + offset, point - offset])
        dictionary = DistanceDictionary(rows, (0, 1, 2), "hidden")
        cfg = LossConfig(beta=1.0)
        _, _, grads = incremental_terms(features, np.array([0]), features, dictionary,
                                        params, cfg, seed=0)
        norm = sum(float(np.abs(g).sum()) for g in grads.values())
        assert norm < 1e-6

    def test_hand_computed_linear_case(self):
        # single example, two classes, one hidden unit in its active region
        fbar = np.array([1.0, 2.0])
        w1 = np.array([[0.5], [0.25]])
        b1 = np.array([0.2])
        w2 = np.array([[1.0, -1.0]])
        b2 = np.array([0.1, -0.1])
        params = ClassifierParams(w1, b1, w2, b2, dropout_rate=0.0)
        mem = np.array([[0.5, 0.5]])
        dictionary = DistanceDictionary(np.array([[0.0], [1.0]]), (0, 1), "hidden")
        cfg = LossConfig(beta=0.0)
        label = np.array([0])

        z = 1.0 * 0.5 + 2.0 * 0.25 + 0.2          # 1.2, ReLU active
        logits = np.array([z * 1.0 + 0.1, z * -1.0 - 0.1])
        p = np.exp(logits - logits.max())
        p = p / p.sum()
        dlogits = p - np.array([1.0, 0.0])
        dz = dlogits @ w2.T * 1.0                   # (1,)
        _, _, grads = incremental_terms(fbar[None, :], label, mem, dictionary, params,
                                        cfg, seed=0)
        # beta = 0: gradient = memory-term grads + classification grads; isolate
        # the classification part by comparing against the combined scalar
        # derivation for both inputs
        zm = 0.5 * 0.5 + 0.5 * 0.25 + 0.2          # memory row hidden pre-act
        logits_m = np.array([zm + 0.1, -zm - 0.1])
        pm = np.exp(logits_m - logits_m.max())
        pm = pm / pm.sum()
        dlogits_m = pm - np.array([1.0, 0.0])
        dzm = dlogits_m @ w2.T
        expected_w2 = (np.array([[z]]).T @ dlogits[None, :]
                       + np.array([[zm]]).T @ dlogits_m[None, :])
        expected_b2 = dlogits + dlogits_m
        expected_w1 = fbar[:, None] @ dz[None, :] + mem[0][:, None] @ dzm[None, :]
        expected_b1 = dz + dzm
        np.testing.assert_allclose(grads["w2"], expected_w2, rtol=1e-10)
        np.testing.assert_allclose(grads["b2"], expected_b2, rtol=1e-10)
        np.testing.assert_allclose(grads["w1"], expected_w1, rtol=1e-10)
        np.testing.assert_allclose(grads["b1"], expected_b1, rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        params, features, labels, memory_rows, dictionary, cfg = random_instance(seed)
        _, _, grads = incremental_terms(features, labels, memory_rows, dictionary,
                                        params, cfg, seed)

        def value():
            total, _ = incremental_loss(features, labels, memory_rows, dictionary,
                                        params, cfg, seed)
            return total

        for name, arr in params.arrays().items():
            numeric = finite_difference(value, arr)
            assert max_rel_err(grads[name], numeric) < 1e-4, name

    def test_label_out_of_range(self):
        params, features, labels, memory_rows, dictionary, cfg = random_instance(3)
        bad = labels.copy()
        bad[0] = params.n_classes
        with pytest.raises(ValueError):
            incremental_terms(features, bad, memory_rows, dictionary, params, cfg, 0)

    def test_missing_dictionary_row(self):
        params, features, labels, memory_rows, _, cfg = random_instance(4)
        tiny = DistanceDictionary(np.zeros((1, 4)), (0,), "hidden")
        labels = np.full(len(labels), params.n_classes - 1)
        with pytest.raises(ValueError):
            incremental_terms(features, labels, memory_rows, tiny, params, cfg, 0)

    def test_ignore_novel_mode_skips_unmatched_labels(self):
        params, features, labels, memory_rows, _, _ = random_instance(5)
        tiny = DistanceDictionary(np.zeros((1, 4)), (0,), "hidden")
        cfg = LossConfig(beta=0.7, novel_label_handling="ignore")
        labels = np.full(len(labels), params.n_classes - 1)
        total, breakdown, _ = incremental_terms(
            features, labels, memory_rows, tiny, params, cfg, 0, compute_grads=False)
        assert breakdown["distance"] == 0.0
        assert np.isfinite(total)


    def test_gram_form_matches_explicit_differences(self):
        gen = np.random.default_rng(21)
        params = init_classifier(8, 16, 1000, seed=21, dropout_rate=0.1)
        features = gen.standard_normal((12, 8))
        labels = gen.integers(0, 1000, size=12)
        points = project_batch(features, params)
        rows = points.mean(axis=0) + 0.5 * gen.standard_normal((1000, 16))
        rows[labels[0]] = points[0]          # a point equal to its own row
        dictionary = DistanceDictionary(rows, tuple(range(1000)), "hidden")
        _, terms, grads = incremental_terms(features, labels, features[:1], dictionary,
                                            params, LossConfig(beta=1.0), seed=3)
        # explicit form: the (n, rows, hidden) difference tensor
        diff = points[:, None, :] - rows[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        assert d2[0, labels[0]] == 0.0
        expected = np.mean([cross_entropy_scalar(-d2[j], int(labels[j]))
                            for j in range(12)])
        assert terms["distance"] == pytest.approx(expected, rel=1e-12)
        shifted = np.exp(-d2 + d2.min(axis=1, keepdims=True))
        coeff = shifted / shifted.sum(axis=1, keepdims=True)
        coeff[np.arange(12), labels] -= 1.0
        dpoints = -2.0 * np.einsum("nr,nrw->nw", coeff, diff) / 12
        dz1 = dpoints * (points > 0)
        for name, ref in (("w1", features.T @ dz1), ("b1", dz1.sum(axis=0))):
            assert np.linalg.norm(grads[name] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_generator_count_is_independent_of_batch_and_memory(self, monkeypatch):
        calls = []
        original = rng.generator

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rng, "generator", counting)
        counts = set()
        for n_batch, n_memory in ((2, 3), (40, 3), (2, 300), (40, 300)):
            params, features, labels, memory_rows, dictionary, cfg = random_instance(
                1, n_classes=300, n_batch=n_batch, n_memory=n_memory, dropout_rate=0.2)
            del calls[:]
            incremental_terms(features, labels, memory_rows, dictionary, params, cfg, 9)
            counts.add(len(calls))
        assert counts == {2}


class TestImprinting:
    def test_zero_novel_classes_byte_identical(self):
        params = make_params(seed=8)
        expanded = expand_with_imprinting(params, [])
        assert expanded.w1.tobytes() == params.w1.tobytes()
        assert expanded.b1.tobytes() == params.b1.tobytes()
        assert expanded.w2.tobytes() == params.w2.tobytes()
        assert expanded.b2.tobytes() == params.b2.tobytes()

    def test_imprinted_logit_attains_projection_norm(self):
        gen = np.random.default_rng(9)
        params = ClassifierParams(gen.normal(size=(6, 4)), np.zeros(4),
                                  gen.normal(size=(4, 3)), np.zeros(3), 0.0)
        mean = gen.normal(size=6)
        expanded = expand_with_imprinting(params, [mean])
        logits = eval_logits(mean, expanded)
        expected = float(np.linalg.norm(project(mean, params)))
        assert logits[3] == pytest.approx(expected, rel=1e-12)
        # Cauchy-Schwarz: no unit-norm column can beat the parallel one
        for c in range(4):
            assert logits[3] >= logits[c] - 1e-9 or np.linalg.norm(expanded.w2[:, c]) > 1.0

    def test_old_columns_bit_identical_after_expansion(self):
        gen = np.random.default_rng(10)
        params = make_params(seed=10)
        means = [gen.normal(size=6) for _ in range(2)]
        expanded = expand_with_imprinting(params, means)
        assert expanded.n_classes == params.n_classes + 2
        assert expanded.w2[:, :3].tobytes() == params.w2.tobytes()
        assert expanded.b2[:3].tobytes() == params.b2.tobytes()
        assert expanded.w1.tobytes() == params.w1.tobytes()
        np.testing.assert_array_equal(expanded.b2[3:], 0.0)

    def test_new_columns_have_unit_norm(self):
        gen = np.random.default_rng(11)
        params = make_params(seed=11)
        # positive first-layer bias keeps every projection away from zero
        params.b1 = params.b1 + 1.0
        means = [gen.normal(size=6) for _ in range(3)]
        expanded = expand_with_imprinting(params, means)
        for c in range(3, 6):
            np.testing.assert_allclose(np.linalg.norm(expanded.w2[:, c]), 1.0, rtol=1e-12)
            # the batched projection matches the per-vector scalar one
            h = np.asarray(project_scalar(means[c - 3].tolist(), params))
            np.testing.assert_allclose(expanded.w2[:, c], h / np.linalg.norm(h), rtol=1e-12)

    def test_zero_projection_mean_leaves_zero_column(self):
        params = ClassifierParams(-np.ones((4, 3)), np.zeros(3),
                                  np.zeros((3, 2)), np.zeros(2))
        expanded = expand_with_imprinting(params, [np.ones(4)])
        np.testing.assert_array_equal(expanded.w2[:, 2], 0.0)

    def test_never_mutates_input(self):
        params = make_params(seed=12)
        before = params.state_bytes()
        expand_with_imprinting(params, [np.ones(6)])
        assert params.state_bytes() == before


class TestDropoutScale:
    def test_rate_zero_is_all_ones(self):
        scale = dropout_scale(3, 8, 0.0, 123)
        assert scale.shape == (3, 8)
        np.testing.assert_array_equal(scale, 1.0)

    def test_inverted_scaling(self):
        scale = dropout_scale(4, 1000, 0.25, 7)
        kept = scale > 0
        np.testing.assert_allclose(scale[kept], 1 / 0.75, rtol=1e-12)
        # keep frequency near 75%
        assert abs(kept.mean() - 0.75) < 0.05

    def test_one_block_per_seed(self):
        a = dropout_scale(6, 50, 0.5, 11)
        np.testing.assert_array_equal(a, dropout_scale(6, 50, 0.5, 11))
        assert not np.array_equal(a, dropout_scale(6, 50, 0.5, 12))
        # rows of one block are distinct masks
        assert len({row.tobytes() for row in a}) == 6
