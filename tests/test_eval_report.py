import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from gcmr import trainer
from gcmr.classifier import ClassifierParams, eval_logits_batch
from gcmr.encoder import EncoderParams, normalized_features
from gcmr.eval_report import (EVAL_CHUNK_ROWS, SessionReport, aggregate,
                              evaluate_session, read_report, write_report)
from gcmr.memory import (RepresentationMemory, build_weight_memory,
                         init_representation_memory)


def oracle_state(n_classes, class_ids=None, session_of=None):
    """A state whose head maps the one-hot pooled feature of class c to
    logit argmax c exactly (identity-style classifier over basis features)."""
    class_ids = class_ids or tuple(range(n_classes))
    dim = n_classes
    enc = EncoderParams(np.eye(dim), np.zeros(dim), "identity", "layer")
    enc.freeze()
    head = ClassifierParams(np.eye(dim), np.zeros(dim), np.eye(dim),
                            np.zeros(dim), 0.0)
    mem = init_representation_memory({cid: [np.eye(dim)[i]]
                                      for i, cid in enumerate(class_ids)})
    if session_of is not None:
        mem = type(mem)(mem.rows, mem.class_ids, session_of)
    wmem = build_weight_memory(head, mem, 0)
    return trainer.SessionState(0, enc, head, mem, wmem)


def random_head_state(n_classes, dim=4, hidden=8, seed=0):
    """A state with a random head over n_classes columns; class ids are the
    column indices."""
    gen = np.random.default_rng(seed)
    enc = EncoderParams(np.eye(dim), np.zeros(dim), "identity", "layer")
    enc.freeze()
    head = ClassifierParams(gen.normal(size=(dim, hidden)), gen.normal(size=hidden),
                            gen.normal(size=(hidden, n_classes)),
                            gen.normal(size=n_classes), 0.0)
    mem = RepresentationMemory(gen.normal(size=(n_classes, dim)),
                               tuple(range(n_classes)), (0,) * n_classes)
    return trainer.SessionState(0, enc, head, mem, build_weight_memory(head, mem, 0))


def basis_examples(n_classes, labels, feature_classes=None):
    """Token groups whose normalized pooled feature is (a positive multiple
    of) the basis vector of feature_classes[i] (defaults to the label)."""
    feature_classes = labels if feature_classes is None else feature_classes
    raw = np.zeros((len(labels), 2, n_classes))
    for i, fc in enumerate(feature_classes):
        raw[i, :, fc] = 1.0
    return raw, np.asarray(labels)


class TestEvaluateSession:
    def test_oracle_stub_scores_perfectly(self):
        state = oracle_state(4)
        raw, labels = basis_examples(4, [0, 1, 2, 3, 2, 1])
        report = evaluate_session(state, normalized_features(raw, state.encoder), labels)
        assert report.acc_all == 1.0
        assert report.per_class_acc == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}

    def test_uniform_random_predictor_near_chance(self):
        k = 5
        state = oracle_state(k)
        gen = np.random.default_rng(0)
        n = 10_000
        labels = np.repeat(np.arange(k), n // k)
        feature_classes = gen.integers(0, k, size=n)  # prediction independent of label
        raw, labels = basis_examples(k, labels, feature_classes)
        report = evaluate_session(state, normalized_features(raw, state.encoder), labels)
        assert abs(report.acc_all - 1 / k) < 0.02

    def test_hand_built_three_of_four_correct(self):
        state = oracle_state(2)
        raw, labels = basis_examples(2, [0, 0, 1, 1], feature_classes=[0, 0, 1, 0])
        report = evaluate_session(state, normalized_features(raw, state.encoder), labels)
        assert report.acc_all == 0.75

    def test_base_and_novel_breakdown(self):
        state = oracle_state(4, session_of=(0, 0, 1, 1))
        raw, labels = basis_examples(4, [0, 1, 2, 3], feature_classes=[0, 1, 2, 0])
        report = evaluate_session(state, normalized_features(raw, state.encoder), labels)
        assert report.acc_base == 1.0
        assert report.acc_novel == 0.5
        assert report.acc_all == 0.75

    def test_novel_accuracy_none_for_base_only(self):
        state = oracle_state(3)
        raw, labels = basis_examples(3, [0, 1, 2])
        report = evaluate_session(state, normalized_features(raw, state.encoder), labels)
        assert report.acc_novel is None

    def test_unseen_label_rejected(self):
        state = oracle_state(3)
        raw, labels = basis_examples(3, [0, 1, 2])
        with pytest.raises(ValueError, match=r"unknown classes: \[7\]"):
            evaluate_session(state, normalized_features(raw, state.encoder),
                             np.array([0, 1, 7]))

    def test_acc_all_bounded_by_per_class_extremes(self):
        state = oracle_state(3, session_of=(0, 0, 1))
        raw, labels = basis_examples(3, [0, 0, 1, 1, 2, 2],
                                     feature_classes=[0, 1, 1, 1, 2, 0])
        report = evaluate_session(state, normalized_features(raw, state.encoder), labels)
        values = list(report.per_class_acc.values())
        assert min(values) <= report.acc_all <= max(values)

    def test_balanced_acc_equals_unweighted_class_mean(self):
        state = oracle_state(3)
        raw, labels = basis_examples(3, [0, 0, 1, 1, 2, 2],
                                     feature_classes=[0, 1, 1, 2, 2, 2])
        report = evaluate_session(state, normalized_features(raw, state.encoder), labels)
        assert report.acc_all == pytest.approx(
            np.mean(list(report.per_class_acc.values())), abs=1e-12)

    def test_raw_groups_rejected(self):
        state = oracle_state(3)
        raw, labels = basis_examples(3, [0, 1, 2])
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            evaluate_session(state, raw, labels)

    def test_feature_width_mismatch_rejected(self):
        state = oracle_state(3)
        with pytest.raises(ValueError, match=r"shape \(n, 3\), got \(3, 4\)"):
            evaluate_session(state, np.eye(3, 4), np.array([0, 1, 2]))


class TestChunkedScoring:
    @pytest.mark.parametrize("n", [EVAL_CHUNK_ROWS - 1, EVAL_CHUNK_ROWS,
                                   EVAL_CHUNK_ROWS + 1, 2 * EVAL_CHUNK_ROWS + 3])
    def test_matches_whole_batch_argmax(self, n):
        state = random_head_state(7, seed=n)
        features = np.random.default_rng(n).normal(size=(n, 4))
        whole = np.argmax(eval_logits_batch(features, state.classifier), axis=1)
        # labelled with the whole-batch predictions every row is a hit, and
        # labelled one column off every row is a miss; a row scored
        # differently in its chunk, or never scored, breaks one of the two
        report = evaluate_session(state, features, whole)
        assert report.acc_all == 1.0 and report.n_test == n
        assert report.per_class_acc == {int(c): 1.0 for c in np.unique(whole)}
        assert evaluate_session(state, features, (whole + 1) % 7).acc_all == 0.0

    def test_all_ties_predict_the_lowest_column(self):
        state = random_head_state(5)
        state.classifier.w2 = np.zeros_like(state.classifier.w2)
        state.classifier.b2 = np.zeros_like(state.classifier.b2)
        n = 2 * EVAL_CHUNK_ROWS + 3
        labels = np.arange(n) % 2
        features = np.random.default_rng(1).normal(size=(n, 4))
        report = evaluate_session(state, features, labels)
        assert report.per_class_acc == {0: 1.0, 1: 0.0}

    def test_peak_memory_is_bounded_by_the_chunk(self, traced_peak):
        n_classes, n = 512, 8 * EVAL_CHUNK_ROWS
        state = random_head_state(n_classes)
        gen = np.random.default_rng(2)
        features = gen.normal(size=(n, 4))
        labels = gen.integers(0, n_classes, size=n)
        chunk_logits = EVAL_CHUNK_ROWS * n_classes * 8
        _, peak = traced_peak(evaluate_session, state, features, labels)
        # the whole batch's logits would be 8 chunks, twice over with the bias
        assert peak < 2 * chunk_logits


def make_report(session, acc_all, acc_base=0.9):
    return SessionReport(session=session, acc_all=acc_all, acc_base=acc_base,
                         acc_novel=None if session == 0 else acc_all,
                         per_class_acc={0: acc_all},
                         memory_budget={"representation": 10, "projected": 5,
                                        "classifier": 5, "total": 20},
                         avg_acc_so_far=acc_all, n_test=100)


class TestJsonDict:
    def multi_class_report(self):
        return SessionReport(session=2, acc_all=0.75, acc_base=0.8, acc_novel=0.5,
                             per_class_acc={7: 1.0, 3: 0.5, 11: 0.0, 0: 0.25},
                             memory_budget={"representation": 96, "classifier": 640,
                                            "total": 736},
                             avg_acc_so_far=0.8, n_test=40)

    def test_equals_the_asdict_form(self):
        report = self.multi_class_report()
        expected = dataclasses.asdict(report)
        expected["per_class_acc"] = {str(k): v for k, v in report.per_class_acc.items()}
        out = report.to_json_dict()
        assert out == expected
        assert list(out) == list(expected)
        assert list(out["per_class_acc"]) == ["7", "3", "11", "0"]
        assert json.dumps(out) == json.dumps(expected)

    def test_mutating_the_result_leaves_the_report_unchanged(self):
        report = self.multi_class_report()
        before = dataclasses.asdict(report)
        out = report.to_json_dict()
        out["per_class_acc"]["7"] = -1.0
        out["per_class_acc"].clear()
        out["memory_budget"]["total"] = 0
        out["memory_budget"]["extra"] = 1
        out["acc_all"] = 0.0
        assert dataclasses.asdict(report) == before


class TestAggregate:
    def test_single_report(self):
        summary = aggregate([make_report(0, 0.8)])
        assert summary == {"avg_acc": 0.8, "final_acc": 0.8, "base_acc_drop": 0.0}

    def test_three_reports_average(self):
        reports = [make_report(0, 0.9, acc_base=0.9),
                   make_report(1, 0.8, acc_base=0.85),
                   make_report(2, 0.7, acc_base=0.8)]
        summary = aggregate(reports)
        assert summary["avg_acc"] == pytest.approx(0.8)
        assert summary["final_acc"] == 0.7
        assert summary["base_acc_drop"] == pytest.approx(0.1)

    def test_gap_in_sessions_rejected(self):
        with pytest.raises(ValueError):
            aggregate([make_report(0, 0.9), make_report(2, 0.7)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestWriteReport:
    def test_json_round_trip(self, tmp_path):
        reports = [make_report(0, 0.9), make_report(1, 0.8)]
        summary = aggregate(reports)
        path = tmp_path / "report.json"
        write_report(reports, summary, path, "json", label="demo")
        loaded = read_report(path)
        assert loaded["label"] == "demo"
        assert loaded["summary"] == summary
        assert [s["acc_all"] for s in loaded["sessions"]] == [0.9, 0.8]
        # a second write is byte-identical
        blob = path.read_bytes()
        write_report(reports, summary, path, "json", label="demo")
        assert path.read_bytes() == blob

    def test_csv_has_one_column_per_session_plus_average(self, tmp_path):
        reports = [make_report(t, 0.9 - 0.05 * t) for t in range(9)]
        summary = aggregate(reports)
        path = tmp_path / "report.csv"
        write_report(reports, summary, path, "csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == (["run"] + [f"session_{t}" for t in range(9)]
                           + ["avg_acc", "memory_bytes"])
        assert len(rows) == 2

    def test_json_write_that_raises_midway_keeps_previous_report(self, tmp_path):
        reports = [make_report(0, 0.9), make_report(1, 0.8)]
        path = tmp_path / "report.json"
        write_report(reports, aggregate(reports), path, "json")
        before = path.read_bytes()
        # json.dump has streamed the sessions out when it reaches the summary
        with pytest.raises(TypeError):
            write_report(reports, {"avg_acc": object()}, path, "json")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_overwrite_keeps_previous_report(self, tmp_path, monkeypatch, fmt):
        reports = [make_report(0, 0.9), make_report(1, 0.8)]
        path = tmp_path / f"report.{fmt}"
        write_report(reports, aggregate(reports), path, fmt, label="old")
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_report(reports, aggregate(reports), path, fmt, label="new")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report([make_report(0, 0.5)], {"avg_acc": 0.5}, tmp_path / "x", "xml")
