"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Tolerances are pinned here and nowhere else: gradient checks at relative
error 1e-4 (h=1e-5, float64), loss decompositions at 1e-12, oracle
equivalence at 1e-10, the forgetting comparison at >= 8/10 paired seeds and
a mean gap of >= 5 accuracy points.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gcmr import data_io, trainer
from gcmr.classifier import (eval_logits_batch, expand_with_imprinting,
                             incremental_terms, init_classifier, project_batch)
from gcmr.cli import main
from gcmr.encoder import DecoderParams, EncoderParams
from gcmr.eval_report import evaluate_session
from gcmr.losses import (DistanceDictionary, LossConfig, alpha_schedule,
                         base_loss, base_loss_backward, incremental_loss)
from gcmr.memory import (build_weight_memory, init_representation_memory,
                         memory_budget_bytes, update_representation_memory)
from gcmr.nn_core import cross_entropy_rows, softmax_rows

from oracles import (base_loss_scalar, cross_entropy_scalar,
                     distance_vector_scalar, finite_difference,
                     incremental_loss_scalar, max_rel_err, project_scalar,
                     softmax_scalar)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def _incremental_instance(seed, dim=8, hidden=4, n_classes=5, n_batch=3,
                          n_memory=3, beta=0.7):
    gen = np.random.default_rng(seed)
    params = init_classifier(dim, hidden, n_classes, seed, dropout_rate=0.1)
    features = gen.standard_normal((n_batch, dim))
    labels = gen.integers(0, n_classes, size=n_batch)
    memory_rows = gen.standard_normal((n_memory, dim))
    dictionary = DistanceDictionary(gen.standard_normal((n_classes, hidden)))
    return params, features, labels, memory_rows, dictionary, LossConfig(beta=beta)


def _base_instance(seed, dim=8, hidden=4, n_classes=5, n_batch=2, n_tokens=4):
    gen = np.random.default_rng(10_000 + seed)
    enc = EncoderParams(np.eye(dim) + 0.1 * gen.standard_normal((dim, dim)),
                        0.1 * gen.standard_normal(dim))
    dec = DecoderParams(np.eye(dim) + 0.1 * gen.standard_normal((dim, dim)),
                        0.1 * gen.standard_normal(dim),
                        0.1 * gen.standard_normal(dim))
    params = init_classifier(dim, hidden, n_classes, seed, dropout_rate=0.1)
    raw = gen.standard_normal((n_batch, n_tokens, dim))
    labels = gen.integers(0, n_classes, size=n_batch)
    return raw, labels, enc, dec, params, LossConfig(c=0.4, beta=0.7, mask_ratio=0.5)


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        params, features, labels, memory_rows, dictionary, cfg = \
            _incremental_instance(seed)
        _, _, grads = incremental_terms(features, labels, memory_rows, dictionary,
                                        params, cfg, seed)

        def incr_value():
            total, _ = incremental_loss(features, labels, memory_rows, dictionary,
                                        params, cfg, seed)
            return total

        for name, arr in (("w1", params.w1), ("b1", params.b1),
                          ("w2", params.w2), ("b2", params.b2)):
            numeric = finite_difference(incr_value, arr, h=1e-5)
            worst = max(worst, max_rel_err(grads[name], numeric))

        raw, base_labels, enc, dec, bparams, bcfg = _base_instance(seed)
        _, _, bgrads = base_loss_backward(raw, base_labels, enc, dec, bparams,
                                          bcfg, 1, seed)

        def base_value():
            total, _ = base_loss(raw, base_labels, enc, dec, bparams, bcfg, 1, seed)
            return total

        for name, arr in (("enc_w", enc.w), ("enc_b", enc.b), ("dec_w", dec.w),
                          ("dec_b", dec.b), ("mask_token", dec.mask_token),
                          ("head_w1", bparams.w1), ("head_b1", bparams.b1),
                          ("head_w2", bparams.w2), ("head_b2", bparams.b2)):
            numeric = finite_difference(base_value, arr, h=1e-5)
            worst = max(worst, max_rel_err(bgrads[name], numeric))
    elapsed = time.time() - start
    _report("1 gradient-correctness", worst < 1e-4 and elapsed < 10.0,
            f"worst rel err {worst:.2e} over 20 instances, {elapsed:.1f}s")


def test_criterion_2_loss_decomposition():
    worst = 0.0
    for seed in range(5):
        params, features, labels, memory_rows, dictionary, _ = \
            _incremental_instance(seed + 100)
        total, terms = incremental_loss(features, labels, memory_rows, dictionary,
                                        params, LossConfig(beta=1.0), seed)
        worst = max(worst, abs(total - terms["distance"]))
        total, terms = incremental_loss(features, labels, memory_rows, dictionary,
                                        params, LossConfig(beta=0.0), seed)
        worst = max(worst, abs(total - (terms["memory"] + terms["classification"])))
        raw, base_labels, enc, dec, bparams, _ = _base_instance(seed + 100)
        total, terms = base_loss(raw, base_labels, enc, dec, bparams,
                                 LossConfig(c=0.0), 0, seed)
        worst = max(worst, abs(total - terms["classification"]))
    _report("2 loss-decomposition", worst <= 1e-12, f"worst gap {worst:.2e}")


def test_criterion_3_alpha_schedule():
    cfg = LossConfig(c=0.3)
    exact_at_zero = alpha_schedule(cfg, 0) == 0.3
    at_two = abs(alpha_schedule(cfg, 2) - 0.3 / math.e) <= 1e-12 * (0.3 / math.e)
    values = [alpha_schedule(cfg, e) for e in range(101)]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    _report("3 alpha-schedule", exact_at_zero and at_two and decreasing,
            f"alpha(0)={values[0]}, alpha(2)={values[2]:.12f}")


def test_criterion_4_protocol_shape():
    labels_100 = np.repeat(np.arange(100), 20)
    spec = data_io.ProtocolSpec(100, 60, 5, 5, seed=0, test_per_class=10)
    split = data_io.fscil_split(spec, labels_100)
    ok = len(split) == 9
    gen = np.random.default_rng(0)
    mem = init_representation_memory(
        {cid: gen.normal(size=(1, 8)) for cid in split[0].class_ids})
    row_counts = [mem.n_classes]
    for part in split[1:]:
        mem = update_representation_memory(
            mem, {cid: gen.normal(size=(1, 8)) for cid in part.class_ids},
            part.session)
        row_counts.append(mem.n_classes)
    ok = ok and row_counts == list(range(60, 101, 5))
    labels_200 = np.repeat(np.arange(200), 20)
    spec_cub = data_io.ProtocolSpec(200, 100, 10, 5, seed=0, test_per_class=10)
    ok = ok and len(data_io.fscil_split(spec_cub, labels_200)) == 11
    _report("4 protocol-shape", ok, f"memory rows {row_counts[0]}->{row_counts[-1]}")


def test_criterion_5_memory_budget():
    gen = np.random.default_rng(1)
    mem = init_representation_memory(
        {c: gen.normal(size=(1, 768)) for c in range(1000)})
    params = init_classifier(768, 4, 1000, seed=0)
    wmem = build_weight_memory(params, mem, 0)
    budget = memory_budget_bytes(mem, wmem, 4)
    exact = budget["representation"] == 3_072_000
    within = abs(budget["representation"] - 3_000_000) / 3_000_000 < 0.10
    _report("5 memory-budget", exact and within,
            f"representation {budget['representation']} bytes")


def _forgetting_stream(seed):
    spec = data_io.SyntheticSpec(d=32, g=8, n_classes=20,
                                 class_mean_norm=float(np.sqrt(32.0)),
                                 within_class_sigma=3.5,
                                 examples_per_class=40, seed=seed)
    ds = data_io.generate_synthetic(spec)
    proto = data_io.ProtocolSpec(total_classes=20, base_classes=12, n_way=2,
                                 k_shot=5, seed=seed, test_per_class=15)
    return data_io.materialize_sessions(ds, data_io.fscil_split(proto, ds.labels))


def _forgetting_config(seed, memory_regularization=True):
    return trainer.TrainConfig(base_epochs=15, incr_epochs=40, base_lr=0.05,
                               incr_lr=0.02, batch_size=32, seed=seed,
                               hidden_dim=16, loss=LossConfig(c=0.3, beta=0.7),
                               memory_regularization=memory_regularization)


def test_criterion_6_frozen_encoder_and_snapshot_invariants():
    start = time.time()
    sessions = _forgetting_stream(0)
    cfg = _forgetting_config(0)
    state = trainer.train_base(sessions[0], cfg)
    encoder_bytes = state.encoder.state_bytes()
    ok = state.wmem.classifier_snapshot.state_bytes() == state.classifier.state_bytes()
    for session in sessions[1:]:
        state = trainer.train_incremental(state, session, cfg)
        ok = ok and state.encoder.state_bytes() == encoder_bytes
        ok = ok and state.wmem.classifier_snapshot.state_bytes() == \
            state.classifier.state_bytes()
    elapsed = time.time() - start
    _report("6 frozen-encoder-and-snapshots", ok and elapsed < 60.0,
            f"{len(sessions)} sessions, {elapsed:.1f}s")


def test_criterion_7_forgetting_mitigation():
    start = time.time()
    wins, gaps, base_accs = 0, [], []
    for seed in range(10):
        sessions = _forgetting_stream(seed)
        r_on, _ = trainer.run_protocol(sessions, _forgetting_config(seed))
        r_off, _ = trainer.run_protocol(sessions,
                                        _forgetting_config(seed, False))
        drop_on = r_on[0].acc_base - r_on[-1].acc_base
        drop_off = r_off[0].acc_base - r_off[-1].acc_base
        wins += drop_on < drop_off
        gaps.append(drop_off - drop_on)
        base_accs.append(r_on[0].acc_base)
    elapsed = time.time() - start
    mean_gap = float(np.mean(gaps))
    ok = wins >= 8 and mean_gap >= 0.05 and elapsed < 120.0
    _report("7 forgetting-mitigation", ok,
            f"wins {wins}/10, mean drop gap {mean_gap * 100:.1f} pts, "
            f"base acc {np.mean(base_accs):.2f}, {elapsed:.0f}s")


def test_criterion_8_imprinting_property():
    ok = True
    for seed in range(5):
        gen = np.random.default_rng(seed)
        params = init_classifier(12, 6, 4, seed, dropout_rate=0.0)  # zero biases
        means = [gen.standard_normal(12) for _ in range(3)]
        expanded = expand_with_imprinting(params, means)
        all_logits = eval_logits_batch(np.stack(means), expanded)
        projections = project_batch(np.stack(means), params)
        for i, logits in enumerate(all_logits):
            own = logits[4 + i]
            others = [logits[4 + j] for j in range(3) if j != i]
            ok = ok and all(own >= other for other in others)
            expected = float(np.linalg.norm(projections[i]))
            ok = ok and abs(own - expected) <= 1e-9 * max(expected, 1.0)
    _report("8 imprinting", ok)


def test_criterion_9_run_determinism(tmp_path):
    start = time.time()
    import json
    config = {
        "version": 1,
        "train": {"base_epochs": 4, "incr_epochs": 6, "base_lr": 0.05,
                  "incr_lr": 0.02, "batch_size": 16, "seed": 5, "hidden_dim": 8},
        "loss": {"c": 0.3, "beta": 0.7},
        "protocol": {"total_classes": 8, "base_classes": 4, "n_way": 2,
                     "k_shot": 5, "seed": 3, "test_per_class": 5},
        "synthetic": {"d": 12, "g": 4, "n_classes": 8, "class_mean_norm": 4.0,
                      "within_class_sigma": 2.0, "examples_per_class": 20,
                      "seed": 3},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    data_path = tmp_path / "data.gcmr"
    assert main(["synth", "--spec", str(config_path), "--out", str(data_path)]) == 0
    out_a = tmp_path / "first" / "out"
    out_b = tmp_path / "second" / "out"
    for out in (out_a, out_b):
        assert main(["run", "--config", str(config_path), "--data", str(data_path),
                     "--out", str(out)]) == 0
    ok = (out_a / "run_log.jsonl").read_bytes() == (out_b / "run_log.jsonl").read_bytes()
    ok = ok and (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    ok = ok and (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    for t in range(3):
        name = f"checkpoints/session_{t:02d}.gcmr"
        ok = ok and (out_a / name).read_bytes() == (out_b / name).read_bytes()
    elapsed = time.time() - start
    _report("9 determinism", ok and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_10_oracle_equivalence():
    start = time.time()
    worst = 0.0

    def track(actual, expected):
        nonlocal worst
        expected = np.asarray(expected, dtype=np.float64)
        actual = np.asarray(actual, dtype=np.float64)
        rel = np.abs(actual - expected) / (np.abs(expected) + 1e-300)
        rel = np.where(np.abs(expected) < 1e-300, np.abs(actual), rel)
        worst = max(worst, float(rel.max()))

    gen = np.random.default_rng(42)
    for i in range(100):
        logits = gen.standard_normal(int(gen.integers(2, 8))) * 3
        track(softmax_rows(logits[None, :])[0], softmax_scalar(logits.tolist()))
        label = int(gen.integers(len(logits)))
        track(cross_entropy_rows(logits[None, :], np.array([label]))[0],
              cross_entropy_scalar(logits.tolist(), label))

        params, features, labels, memory_rows, dictionary, cfg = \
            _incremental_instance(2000 + i, dim=6, hidden=3, n_classes=4,
                                  n_batch=2, n_memory=2)
        # distance term of example 0 alone (n = 1); row j holds class j
        point = project_scalar(features[0].tolist(), params)
        d_ref = distance_vector_scalar(point, dictionary.projected_rows.tolist())
        _, one = incremental_loss(features[:1], labels[:1], memory_rows,
                                  dictionary, params, cfg, seed=i)
        track(one["distance"], cross_entropy_scalar([-v for v in d_ref], int(labels[0])))
        total, terms = incremental_loss(features, labels, memory_rows,
                                        dictionary, params, cfg, seed=i)
        ref_total, ref_terms = incremental_loss_scalar(
            features, labels, memory_rows, dictionary, params, cfg, seed=i)
        track(total, ref_total)
        for key in ref_terms:
            track(terms[key], ref_terms[key])

        raw, base_labels, enc, dec, bparams, bcfg = _base_instance(
            2000 + i, dim=6, hidden=3, n_classes=4, n_batch=2, n_tokens=4)
        total, terms = base_loss(raw, base_labels, enc, dec, bparams, bcfg,
                                 1, seed=i)
        ref_total, ref_terms = base_loss_scalar(raw, base_labels, enc, dec,
                                                bparams, bcfg, 1, seed=i)
        track(total, ref_total)
        for key in ref_terms:
            track(terms[key], ref_terms[key])
    elapsed = time.time() - start
    _report("10 oracle-equivalence", worst < 1e-10 and elapsed < 10.0,
            f"worst rel err {worst:.2e} over 100 instances, {elapsed:.1f}s")
