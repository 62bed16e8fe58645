import numpy as np
import pytest

from gcmr import classifier, rng
from gcmr.classifier import (ClassifierParams, _distance_ce_with_grads, _mean_ce_with_grads,
                             dropout_scale, eval_logits_batch, expand_with_imprinting,
                             incremental_terms, init_classifier, project_batch)
from gcmr.losses import DistanceDictionary, LossConfig, incremental_loss
from gcmr.nn_core import PROB_FLOOR, cross_entropy_sum_overwrite

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


def stream(seed):
    """The dropout stream of seed, as the head's terms draw it."""
    return rng.stream(seed, classifier.DROPOUT_STREAM)


def random_instance(seed, dim=8, hidden=4, n_classes=5, n_batch=3, n_memory=3,
                    dropout_rate=0.1, beta=0.7):
    gen = np.random.default_rng(seed)
    params = init_classifier(dim, hidden, n_classes, seed, dropout_rate)
    features = gen.standard_normal((n_batch, dim))
    labels = gen.integers(0, n_classes, size=n_batch)
    memory_rows = gen.standard_normal((n_memory, dim))
    dictionary = DistanceDictionary(gen.standard_normal((n_classes, hidden)))
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
        dictionary = DistanceDictionary(rows)
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
        dictionary = DistanceDictionary(np.array([[0.0], [1.0]]))
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
        for value in (-1, params.n_classes):
            bad = labels.copy()
            bad[0] = value
            for memory_regularization in (True, False):
                with pytest.raises(ValueError, match="label out of range"):
                    incremental_terms(features, bad, memory_rows, dictionary, params, cfg,
                                      0, memory_regularization=memory_regularization)

    def test_missing_dictionary_row(self):
        # one dictionary row per classifier column, no fewer and no more
        params, features, labels, memory_rows, _, cfg = random_instance(4)
        for n_rows in (1, params.n_classes - 1, params.n_classes + 1):
            wrong = DistanceDictionary(np.zeros((n_rows, 4)))
            with pytest.raises(ValueError, match=f"{n_rows} rows for 5 classifier columns"):
                incremental_terms(features, labels, memory_rows, wrong, params, cfg, 0)

    def test_gram_form_matches_explicit_differences(self):
        gen = np.random.default_rng(21)
        params = init_classifier(8, 16, 1000, seed=21, dropout_rate=0.1)
        features = gen.standard_normal((12, 8))
        labels = gen.integers(0, 1000, size=12)
        points = project_batch(features, params)
        rows = points.mean(axis=0) + 0.5 * gen.standard_normal((1000, 16))
        rows[labels[0]] = points[0]          # a point equal to its own row
        dictionary = DistanceDictionary(rows)
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

    def test_generator_count_is_independent_of_batch_and_memory(self, rng_calls):
        counts = set()
        for n_batch, n_memory in ((2, 3), (40, 3), (2, 300), (40, 300)):
            params, features, labels, memory_rows, dictionary, cfg = random_instance(
                1, n_classes=300, n_batch=n_batch, n_memory=n_memory, dropout_rate=0.2)
            rng_calls.clear()
            incremental_terms(features, labels, memory_rows, dictionary, params, cfg, 9)
            counts.add(len(rng_calls.stream))
            assert rng_calls.generator == []     # a step builds no generator
        assert counts == {2}   # one dropout stream per head term

    def test_memory_term_builds_no_rows_by_classes_array(self, traced_peak):
        # one (1000, 1000) float64 block is 8 MB; row blocks keep the call
        # under half of that
        params, features, labels, memory_rows, dictionary, cfg = random_instance(
            5, n_classes=1000, hidden=8, n_batch=4, n_memory=1000)
        _, peak = traced_peak(incremental_terms, features, labels, memory_rows,
                              dictionary, params, cfg, 3)
        assert peak < 4 * 2**20

    def test_gradients_across_block_boundaries(self, monkeypatch):
        monkeypatch.setattr(classifier, "HEAD_BLOCK_ROWS", 2)
        params, features, labels, memory_rows, dictionary, cfg = random_instance(
            8, n_batch=5, n_memory=5)
        _, _, grads = incremental_terms(features, labels, memory_rows, dictionary,
                                        params, cfg, 8)

        def value():
            total, _ = incremental_loss(features, labels, memory_rows, dictionary,
                                        params, cfg, 8)
            return total

        for name, arr in params.arrays().items():
            numeric = finite_difference(value, arr)
            assert max_rel_err(grads[name], numeric) < 1e-4, name


def out_of_place_mean_ce(inputs, targets, params, dropout_seed):
    """The head's train-mode term written as out-of-place expressions, each
    intermediate a fresh array: (value, grads, dz1) as _mean_ce_with_grads
    returns them."""
    n = inputs.shape[0]
    z1 = inputs @ params.w1 + params.b1
    relu = np.maximum(z1, 0.0)
    scales = dropout_scale(stream(dropout_seed), n, params.hidden, params.dropout_rate)
    hidden = relu * scales
    logits = hidden @ params.w2 + params.b2
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    value = float(-np.log(np.maximum(probs[np.arange(n), targets], PROB_FLOOR)).mean())
    dlogits = probs
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    dz1 = (dlogits @ params.w2.T) * scales * (z1 > 0)
    grads = {"w1": inputs.T @ dz1, "b1": dz1.sum(axis=0),
             "w2": hidden.T @ dlogits, "b2": dlogits.sum(axis=0)}
    return value, grads, dz1


def explicit_distance_ce(features, targets, dictionary, params):
    """The distance term with its pre-activation written out,
    z1 = features @ w1 + b1, and the ReLU mask read from z1: (value, grads)
    as _distance_ce_with_grads returns them."""
    n = features.shape[0]
    rows = dictionary.projected_rows
    z1 = features @ params.w1 + params.b1
    points = np.maximum(z1, 0.0)
    d2 = ((points * points).sum(axis=1)[:, None] + dictionary.sq_norms
          - 2.0 * (points @ rows.T))
    total, probs = cross_entropy_sum_overwrite(-d2, targets)
    coeff = probs
    coeff[np.arange(n), targets] -= 1.0
    dpoints = 2.0 * (coeff @ rows) / n
    dz1 = dpoints * (z1 > 0)
    return total / n, {"w1": features.T @ dz1, "b1": dz1.sum(axis=0)}


class TestInPlaceBuffers:
    """The head's forward and backward overwrite their own buffers; every
    result must equal the out-of-place expressions byte for byte, signed
    zeros included, and the caller's arrays must stay untouched."""

    @pytest.mark.parametrize("rate, n, b1", [(0.0, 6, None), (0.5, 6, None),
                                             (0.0, 1, None), (0.5, 1, None),
                                             (0.0, 5, -10.0), (0.5, 5, -10.0),
                                             (0.5, 256, None)])
    def test_train_term_matches_out_of_place_bytes(self, rate, n, b1):
        gen = np.random.default_rng(n)
        params = init_classifier(7, 9, 11, seed=n, dropout_rate=rate)
        params.b2 = gen.normal(size=11)
        if b1 is not None:
            params.b1 = np.full(9, b1)      # every ReLU unit dead
        inputs = gen.normal(size=(n, 7))
        targets = gen.integers(0, 11, size=n)
        before = inputs.tobytes(), targets.tobytes(), params.state_bytes()
        value, grads, dz1 = _mean_ce_with_grads(inputs, targets, params, 99, True,
                                                keep_dz1=True)
        ref_value, ref_grads, ref_dz1 = out_of_place_mean_ce(inputs, targets, params, 99)
        assert (inputs.tobytes(), targets.tobytes(), params.state_bytes()) == before
        assert value == ref_value
        assert dz1.tobytes() == ref_dz1.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), name
        if b1 is not None:
            # the byte comparison above covered negative zeros
            assert np.signbit(ref_dz1[ref_dz1 == 0.0]).any()
        assert _mean_ce_with_grads(inputs, targets, params, 99, False) == (value, None, None)
        # without keep_dz1 each block's dz1 is its own array: same bytes
        _, fresh, none = _mean_ce_with_grads(inputs, targets, params, 99, True)
        assert none is None
        assert all(fresh[name].tobytes() == grad.tobytes() for name, grad in grads.items())

    @pytest.mark.parametrize("n", [257, 600])
    def test_row_blocks_match_the_one_pass_reference(self, n):
        # more rows than one block: sums over blocks move the last bits only,
        # and the dropout rows are the ones a single draw gives
        gen = np.random.default_rng(n)
        params = init_classifier(7, 9, 11, seed=n, dropout_rate=0.5)
        params.b2 = gen.normal(size=11)
        inputs = gen.normal(size=(n, 7))
        targets = gen.integers(0, 11, size=n)
        value, grads, dz1 = _mean_ce_with_grads(inputs, targets, params, 99, True,
                                                keep_dz1=True)
        ref_value, ref_grads, ref_dz1 = out_of_place_mean_ce(inputs, targets, params, 99)
        assert value == pytest.approx(ref_value, rel=1e-12)
        np.testing.assert_array_equal(dz1 == 0.0, ref_dz1 == 0.0)
        for name, ref in [("dz1", ref_dz1), *ref_grads.items()]:
            got = dz1 if name == "dz1" else grads[name]
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), name

    @pytest.mark.parametrize("n", [3, 256, 600])
    @pytest.mark.parametrize("random_b1", [False, True])
    def test_distance_term_matches_explicit_pre_activation_bytes(self, n, random_b1):
        gen = np.random.default_rng(n + random_b1)
        params = init_classifier(7, 9, 11, seed=n, dropout_rate=0.5)
        if random_b1:
            params.b1 = gen.normal(size=9)
        features = gen.normal(size=(n, 7))
        targets = gen.integers(0, 11, size=n)
        dictionary = DistanceDictionary(np.abs(gen.normal(size=(11, 9))))
        before = features.tobytes(), targets.tobytes(), params.state_bytes()
        value, grads = _distance_ce_with_grads(features, targets, dictionary, params, True)
        ref_value, ref_grads = explicit_distance_ce(features, targets, dictionary, params)
        assert (features.tobytes(), targets.tobytes(), params.state_bytes()) == before
        assert value == ref_value
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), name
        assert _distance_ce_with_grads(features, targets, dictionary, params,
                                       False) == (value, None)

    @pytest.mark.parametrize("n, b1", [(1, None), (40, None), (40, -10.0)])
    def test_eval_logits_match_out_of_place_bytes(self, n, b1):
        gen = np.random.default_rng(n + 1)
        params = init_classifier(7, 9, 11, seed=n, dropout_rate=0.5)
        params.b2 = gen.normal(size=11)
        if b1 is not None:
            params.b1 = np.full(9, b1)
        features = gen.normal(size=(n, 7))
        before = features.tobytes(), params.state_bytes()
        expected = np.maximum(features @ params.w1 + params.b1, 0.0) @ params.w2 + params.b2
        assert eval_logits_batch(features, params).tobytes() == expected.tobytes()
        assert (features.tobytes(), params.state_bytes()) == before


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
        scale = dropout_scale(None, 3, 8, 0.0)
        assert scale.shape == (3, 8)
        np.testing.assert_array_equal(scale, 1.0)

    def test_inverted_scaling(self):
        scale = dropout_scale(stream(7), 4, 1000, 0.25)
        kept = scale > 0
        np.testing.assert_allclose(scale[kept], 1 / 0.75, rtol=1e-12)
        # keep frequency near 75%
        assert abs(kept.mean() - 0.75) < 0.05

    def test_one_block_per_seed(self):
        a = dropout_scale(stream(11), 6, 50, 0.5)
        np.testing.assert_array_equal(a, dropout_scale(stream(11), 6, 50, 0.5))
        assert not np.array_equal(a, dropout_scale(stream(12), 6, 50, 0.5))
        # rows of one block are distinct masks
        assert len({row.tobytes() for row in a}) == 6
        # consecutive draws from one stream are the rows of one draw
        gen = stream(11)
        parts = [dropout_scale(gen, rows, 50, 0.5) for rows in (2, 1, 3)]
        assert np.concatenate(parts).tobytes() == a.tobytes()
