import dataclasses
import json
import re

import numpy as np
import pytest

from gcmr import classifier, data_io, encoder, rng, trainer
from gcmr.classifier import expand_with_imprinting
from gcmr.encoder import normalized_features
from gcmr.eval_report import evaluate_session
from gcmr.losses import LossConfig
from gcmr.memory import (column_labels, init_representation_memory,
                         update_representation_memory)
from gcmr.nn_core import NumericalError

from oracles import reencoded_reports


def small_stream(seed=3, n_classes=8, base_classes=4, n_way=2, sigma=2.0,
                 examples_per_class=20, test_per_class=5):
    spec = data_io.SyntheticSpec(d=16, g=4, n_classes=n_classes, class_mean_norm=4.0,
                                 within_class_sigma=sigma,
                                 examples_per_class=examples_per_class, seed=seed)
    ds = data_io.generate_synthetic(spec)
    proto = data_io.ProtocolSpec(total_classes=n_classes, base_classes=base_classes,
                                 n_way=n_way, k_shot=5, seed=seed,
                                 test_per_class=test_per_class)
    return data_io.materialize_sessions(ds, data_io.fscil_split(proto, ds.labels))


def small_config(**overrides):
    defaults = dict(base_epochs=5, incr_epochs=8, base_lr=0.05, incr_lr=0.02,
                    batch_size=16, seed=5, hidden_dim=8,
                    loss=LossConfig(c=0.3, beta=0.7))
    defaults.update(overrides)
    return trainer.TrainConfig(**defaults)


class TestTrainBase:
    def test_zero_epochs_still_builds_memories(self):
        sessions = small_stream()
        state = trainer.train_base(sessions[0], small_config(base_epochs=0))
        assert state.session == 0
        assert state.mem.n_classes == 4
        assert state.encoder.frozen

    def test_encoder_is_tanh_layer_norm_as_wide_as_the_tokens(self):
        base = small_stream()[0]
        state = trainer.train_base(base, small_config(base_epochs=0))
        assert state.encoder.state_bytes() == encoder.init_encoder(16, 16).state_bytes()

    def test_separable_clusters_reach_95_percent(self):
        # four well-separated clusters (mean gap > 6 sigma), 50 epochs
        spec = data_io.SyntheticSpec(d=16, g=4, n_classes=4, class_mean_norm=6.0,
                                     within_class_sigma=1.0, examples_per_class=40,
                                     seed=21)
        ds = data_io.generate_synthetic(spec)
        proto = data_io.ProtocolSpec(total_classes=4, base_classes=4, n_way=1,
                                     k_shot=1, seed=21, test_per_class=10)
        sessions = data_io.materialize_sessions(ds, data_io.fscil_split(proto, ds.labels))
        cfg = small_config(base_epochs=50, batch_size=32, seed=13, hidden_dim=16)
        reports, _ = trainer.run_protocol(sessions, cfg)
        assert reports[0].acc_all >= 0.95

    def test_same_seed_is_bit_identical(self):
        sessions = small_stream()
        cfg = small_config()
        a = trainer.train_base(sessions[0], cfg)
        b = trainer.train_base(sessions[0], cfg)
        assert a.encoder.state_bytes() == b.encoder.state_bytes()
        assert a.classifier.state_bytes() == b.classifier.state_bytes()
        assert a.mem.rows.tobytes() == b.mem.rows.tobytes()

    def test_log_records_schedule(self):
        sessions = small_stream()
        records = []
        trainer.train_base(sessions[0], small_config(base_epochs=3), records.append)
        assert [r["epoch"] for r in records] == [0, 1, 2]
        assert records[0]["alpha"] == pytest.approx(0.3)
        assert records[0]["lr"] >= records[-1]["lr"]
        assert {"total", "reconstruction", "classification",
                "weighted"} <= set(records[0]["loss_breakdown"])

    def test_memory_rows_are_the_class_means_in_row_order(self):
        # shuffled rows: each class's rows are averaged in their order in the
        # session, as a per-class boolean mask selects them
        base = small_stream()[0]
        part = base.assignment
        train = part.train_indices[np.random.default_rng(7).permutation(len(part.train_indices))]
        shuffled = dataclasses.replace(
            base, assignment=dataclasses.replace(part, train_indices=train))
        state = trainer.train_base(shuffled, small_config(base_epochs=2))
        fbar = normalized_features(base.features[train], state.encoder)
        y = column_labels(base.labels[train], part.class_ids)
        expected = init_representation_memory(
            {cid: fbar[y == col] for col, cid in enumerate(part.class_ids)})
        assert state.mem.class_ids == expected.class_ids
        assert state.mem.rows.tobytes() == expected.rows.tobytes()

    def test_class_without_examples_rejected(self):
        base = small_stream()[0]
        part = base.assignment
        keep = base.labels[part.train_indices] != part.class_ids[0]
        broken = dataclasses.replace(base, assignment=dataclasses.replace(
            part, train_indices=part.train_indices[keep]))
        with pytest.raises(ValueError, match=rf"without examples: \[{part.class_ids[0]}\]"):
            trainer.train_base(broken, small_config())

    def test_rejection_names_the_session(self):
        base = small_stream()[0]
        empty = dataclasses.replace(base, assignment=dataclasses.replace(
            base.assignment, train_indices=base.assignment.train_indices[:0]))
        with pytest.raises(ValueError, match="^session 0: base session has no training"):
            trainer.train_base(empty, small_config())

    def test_unknown_label_is_named(self):
        base = small_stream()[0]
        labels = base.labels.copy()
        labels[base.assignment.train_indices[3]] = 999
        broken = dataclasses.replace(base, labels=labels)
        with pytest.raises(ValueError, match=r"unknown classes: \[999\]"):
            trainer.train_base(broken, small_config())


class TestTrainIncremental:
    def test_zero_epochs_equals_imprinted_expansion(self):
        sessions = small_stream()
        cfg = small_config(incr_epochs=0)
        state = trainer.train_base(sessions[0], cfg)
        nxt = trainer.train_incremental(state, sessions[1], cfg)
        session, part = sessions[1], sessions[1].assignment
        fbar = normalized_features(session.features[part.train_indices], state.encoder)
        labels = session.labels[part.train_indices]
        means = [fbar[labels == cid].mean(axis=0) for cid in part.class_ids]
        expected = expand_with_imprinting(state.wmem.classifier_snapshot, means)
        assert nxt.classifier.state_bytes() == expected.state_bytes()
        assert nxt.mem.n_classes == state.mem.n_classes + 2

    def test_encoder_untouched_and_snapshot_invariant(self):
        sessions = small_stream()
        cfg = small_config()
        state = trainer.train_base(sessions[0], cfg)
        frozen = state.encoder.state_bytes()
        for session in sessions[1:]:
            state = trainer.train_incremental(state, session, cfg)
            assert state.encoder.state_bytes() == frozen

    def test_state_head_is_its_read_only_snapshot(self, monkeypatch):
        # each session's state holds its head once, as the snapshot, and the
        # next session trains a head imprinted from it, which is frozen in
        # place into the new state's snapshot
        imprinted = []
        expand = classifier.expand_with_imprinting

        def recording(params, means):
            imprinted.append(expand(params, means))
            return imprinted[-1]

        monkeypatch.setattr(classifier, "expand_with_imprinting", recording)
        sessions = small_stream()
        cfg = small_config(base_epochs=1, incr_epochs=1)
        state = trainer.train_base(sessions[0], cfg)
        for session in [None, *sessions[1:]]:
            if session is not None:
                state = trainer.train_incremental(state, session, cfg)
                assert state.classifier is imprinted[-1]
            assert state.classifier is state.wmem.classifier_snapshot
            for arr in state.classifier.arrays().values():
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0
        assert len(imprinted) == len(sessions) - 1

    def test_unknown_label_is_named(self):
        sessions = small_stream()
        cfg = small_config(base_epochs=0)
        state = trainer.train_base(sessions[0], cfg)
        session = sessions[1]
        labels = session.labels.copy()
        labels[session.assignment.train_indices[0]] = -7
        broken = dataclasses.replace(session, labels=labels)
        with pytest.raises(ValueError, match=r"unknown classes: \[-7\]"):
            trainer.train_incremental(state, broken, cfg)

    def test_row_of_an_earlier_class_is_rejected(self):
        # a base-class row among the support rows is no novel class's row:
        # the session must refuse it, as the base session refuses a row
        # outside its classes, not train on it under its old column
        sessions = small_stream()
        cfg = small_config(base_epochs=0)
        state = trainer.train_base(sessions[0], cfg)
        base_row = sessions[0].assignment.train_indices[0]
        base_class = int(sessions[0].labels[base_row])
        part = sessions[1].assignment
        broken = dataclasses.replace(sessions[1], assignment=dataclasses.replace(
            part, train_indices=np.append(part.train_indices, base_row)))
        with pytest.raises(ValueError,
                           match=rf"^session 1: labels of unknown classes: \[{base_class}\]$"):
            trainer.train_incremental(state, broken, cfg)

    def test_support_rows_are_grouped_in_row_order(self):
        # shuffled support rows: each novel class's mean and memory row
        # average its rows in their order in the session, as a per-class
        # boolean mask selects them
        sessions = small_stream()
        cfg = small_config(base_epochs=1, incr_epochs=0)
        state = trainer.train_base(sessions[0], cfg)
        session, part = sessions[1], sessions[1].assignment
        train = part.train_indices[np.random.default_rng(3).permutation(len(part.train_indices))]
        shuffled = dataclasses.replace(
            session, assignment=dataclasses.replace(part, train_indices=train))
        nxt = trainer.train_incremental(state, shuffled, cfg)
        fbar = normalized_features(session.features[train], state.encoder)
        labels = session.labels[train]
        new_features = {cid: fbar[labels == cid] for cid in part.class_ids}
        means = [rows.mean(axis=0) for rows in new_features.values()]
        imprinted = expand_with_imprinting(state.wmem.classifier_snapshot, means)
        expected = update_representation_memory(state.mem, new_features, 1)
        assert nxt.classifier.state_bytes() == imprinted.state_bytes()
        assert nxt.mem.class_ids == expected.class_ids
        assert nxt.mem.rows.tobytes() == expected.rows.tobytes()

    def test_novel_class_without_support_rejected(self):
        sessions = small_stream()
        cfg = small_config(base_epochs=0)
        state = trainer.train_base(sessions[0], cfg)
        session = sessions[1]
        part = session.assignment
        keep = session.labels[part.train_indices] != part.class_ids[1]
        broken = dataclasses.replace(session, assignment=dataclasses.replace(
            part, train_indices=part.train_indices[keep]))
        with pytest.raises(ValueError, match=rf"without support examples: \[{part.class_ids[1]}\]"):
            trainer.train_incremental(state, broken, cfg)

    def test_label_collision_rejected(self):
        sessions = small_stream()
        cfg = small_config()
        state = trainer.train_base(sessions[0], cfg)
        with pytest.raises(ValueError):
            trainer.train_incremental(state, sessions[0], cfg)

    def test_rejection_names_the_session(self):
        sessions = small_stream()
        cfg = small_config(base_epochs=0, incr_epochs=0)
        state = trainer.train_incremental(trainer.train_base(sessions[0], cfg), sessions[1], cfg)
        repeated = sorted(sessions[1].assignment.class_ids)
        with pytest.raises(ValueError, match=rf"^session 2: duplicate class ids in memory: "
                                             rf"{re.escape(str(repeated))}$"):
            trainer.train_incremental(state, sessions[1], cfg)

    def test_off_mode_step_is_plain_cross_entropy(self):
        # with memory regularization off, the logged loss must equal plain
        # cross-entropy finetuning of the classifier on the session batch
        sessions = small_stream()
        cfg = small_config(memory_regularization=False, incr_epochs=1,
                           batch_size=1000)
        state = trainer.train_base(sessions[0], cfg)
        records = []
        trainer.train_incremental(state, sessions[1], cfg, records.append)
        record = [r for r in records if r["session"] == 1][0]
        assert set(record["loss_breakdown"]) == {"total", "classification"}
        assert record["loss_breakdown"]["total"] == pytest.approx(
            record["loss_breakdown"]["classification"], rel=1e-12)

    def test_forgetting_is_milder_with_memory_regularization(self):
        # paired-seed comparison on one 2-way 5-shot session
        wins = 0
        for seed in range(10):
            sessions = small_stream(seed=seed, sigma=2.5)
            cfg = small_config(seed=seed, base_epochs=8, incr_epochs=25)
            base = trainer.train_base(sessions[0], cfg)
            on = trainer.train_incremental(base, sessions[1], cfg)
            cfg_off = dataclasses.replace(
                cfg, memory_regularization=False, loss=LossConfig(c=0.3, beta=0.7))
            off = trainer.train_incremental(base, sessions[1], cfg_off)
            base_session, test = sessions[0], sessions[0].assignment.test_indices
            acc_on = evaluate_session(
                on, normalized_features(base_session.features[test], on.encoder),
                base_session.labels[test]).acc_base
            acc_off = evaluate_session(
                off, normalized_features(base_session.features[test], off.encoder),
                base_session.labels[test]).acc_base
            wins += acc_on > acc_off
        assert wins >= 8


class TestStateShape:
    def test_every_state_holds_one_read_only_head(self, tmp_path):
        # trained or loaded, a state is its encoder and its two memories,
        # and its head is the weight memory's, with no writable array
        assert [f.name for f in dataclasses.fields(data_io.SessionState)] == \
            ["encoder", "mem", "wmem"]
        sessions = small_stream()
        cfg = small_config(base_epochs=1, incr_epochs=1)
        states = [trainer.train_base(sessions[0], cfg)]
        for session in sessions[1:]:
            states.append(trainer.train_incremental(states[-1], session, cfg))
        for t, state in enumerate(list(states)):
            path = tmp_path / f"state_{t}.gcmr"
            data_io.save_checkpoint(state, path)
            states.append(data_io.load_checkpoint(path))
        for state in states:
            assert state.classifier is state.wmem.classifier_snapshot
            arrays = [state.encoder.w, state.encoder.b, state.mem.rows,
                      *state.classifier.arrays().values()]
            assert not any(arr.flags.writeable for arr in arrays)

    def test_training_from_a_loaded_checkpoint_is_byte_identical(self, tmp_path):
        # session k + 1 trained from state k read back from its checkpoint
        # ends in the bytes, and scores the reports, of the in-memory run
        sessions = small_stream(n_classes=10)
        assert len(sessions) >= 4
        cfg = small_config()
        states = [trainer.train_base(sessions[0], cfg)]
        for session in sessions[1:]:
            states.append(trainer.train_incremental(states[-1], session, cfg))
        for k, session in enumerate(sessions[1:]):
            path = tmp_path / f"state_{k}.gcmr"
            data_io.save_checkpoint(states[k], path)
            resumed = trainer.train_incremental(data_io.load_checkpoint(path), session, cfg)
            expected = states[k + 1]
            assert resumed.session == expected.session == k + 1
            assert resumed.encoder.state_bytes() == expected.encoder.state_bytes()
            assert resumed.classifier.state_bytes() == expected.classifier.state_bytes()
            assert resumed.mem.rows.tobytes() == expected.mem.rows.tobytes()
            assert resumed.mem.class_ids == expected.mem.class_ids
            assert resumed.mem.session_of == expected.mem.session_of
            seen = sessions[:k + 2]
            raw = np.concatenate([s.features[s.assignment.test_indices] for s in seen])
            labels = np.concatenate([s.labels[s.assignment.test_indices] for s in seen])
            features = normalized_features(raw, expected.encoder)
            assert evaluate_session(resumed, features, labels) == \
                evaluate_session(expected, features, labels)


class TestLogSchema:
    @pytest.mark.parametrize("mode", ["base", "incremental-on", "incremental-off"])
    def test_epoch_record_layout_and_weighted_terms(self, mode):
        sessions = small_stream()
        cfg = small_config(base_epochs=2, incr_epochs=2,
                           memory_regularization=mode != "incremental-off")
        records = []
        state = trainer.train_base(sessions[0], cfg,
                                   records.append if mode == "base" else None)
        if mode != "base":
            trainer.train_incremental(state, sessions[1], cfg, records.append)
        field = "alpha" if mode == "base" else "beta"
        assert [r["epoch"] for r in records] == [0, 1]
        for record in records:
            assert list(record) == ["session", "epoch", "lr", field, "loss_breakdown"]
            breakdown = record["loss_breakdown"]
            if mode == "incremental-off":
                assert list(breakdown) == ["total", "classification"]
                continue
            w = record[field]
            weights = ({"reconstruction": w, "classification": 1.0 - w} if mode == "base"
                       else {"distance": w, "memory": 1.0 - w, "classification": 1.0 - w})
            assert list(breakdown) == ["total", *weights, "weighted"]
            assert list(breakdown["weighted"]) == list(weights)
            for key, weight in weights.items():
                assert breakdown["weighted"][key] == weight * breakdown[key]


class TestRunProtocol:
    def test_base_only_gives_one_report(self):
        spec = data_io.SyntheticSpec(d=8, g=4, n_classes=4, class_mean_norm=4.0,
                                     within_class_sigma=1.0, examples_per_class=15,
                                     seed=2)
        ds = data_io.generate_synthetic(spec)
        proto = data_io.ProtocolSpec(total_classes=4, base_classes=4, n_way=1,
                                     k_shot=1, seed=2, test_per_class=5)
        sessions = data_io.materialize_sessions(ds, data_io.fscil_split(proto, ds.labels))
        assert len(sessions) == 1
        reports, state = trainer.run_protocol(sessions, small_config(base_epochs=2))
        assert len(reports) == 1
        assert state.session == 0

    def test_session_growth_and_report_shape(self):
        sessions = small_stream(n_classes=20, base_classes=12, n_way=2,
                                examples_per_class=12, test_per_class=5)
        cfg = small_config(base_epochs=3, incr_epochs=3)
        reports, state = trainer.run_protocol(sessions, cfg)
        assert [r.session for r in reports] == [0, 1, 2, 3, 4]
        counts = [len(r.per_class_acc) for r in reports]
        assert counts == [12, 14, 16, 18, 20]
        assert state.mem.n_classes == 20
        for r in reports:
            assert 0.0 <= r.acc_all <= 1.0
            assert r.memory_budget["total"] > 0

    def test_memory_rows_grow_in_steps_of_n_way(self):
        sessions = small_stream(n_classes=8, base_classes=4, n_way=2)
        cfg = small_config(base_epochs=2, incr_epochs=2)
        state = trainer.train_base(sessions[0], cfg)
        sizes = [state.mem.n_classes]
        for session in sessions[1:]:
            state = trainer.train_incremental(state, session, cfg)
            sizes.append(state.mem.n_classes)
        assert sizes == [4, 6, 8]

    def test_full_protocol_bit_reproducible(self):
        sessions = small_stream()
        cfg = small_config()
        r1, s1 = trainer.run_protocol(sessions, cfg)
        r2, s2 = trainer.run_protocol(sessions, cfg)
        assert [r.acc_all for r in r1] == [r.acc_all for r in r2]
        assert [r.per_class_acc for r in r1] == [r.per_class_acc for r in r2]
        assert s1.classifier.state_bytes() == s2.classifier.state_bytes()
        assert s1.mem.rows.tobytes() == s2.mem.rows.tobytes()

    def test_memory_wider_than_one_head_block_is_bit_reproducible(self):
        # 300 base classes: the memory term runs in two row blocks
        spec = data_io.SyntheticSpec(d=4, g=4, n_classes=302, class_mean_norm=2.0,
                                     within_class_sigma=1.0, examples_per_class=3,
                                     seed=4)
        ds = data_io.generate_synthetic(spec)
        proto = data_io.ProtocolSpec(total_classes=302, base_classes=300, n_way=2,
                                     k_shot=1, seed=4, test_per_class=1)
        sessions = data_io.materialize_sessions(ds, data_io.fscil_split(proto, ds.labels))
        cfg = small_config(base_epochs=1, incr_epochs=2, hidden_dim=4)
        r1, s1 = trainer.run_protocol(sessions, cfg)
        r2, s2 = trainer.run_protocol(sessions, cfg)
        assert s1.mem.n_classes == 302 > classifier.HEAD_BLOCK_ROWS
        assert [r.to_json_dict() for r in r1] == [r.to_json_dict() for r in r2]
        assert s1.classifier.state_bytes() == s2.classifier.state_bytes()

    @pytest.mark.parametrize("memory_regularization", [True, False])
    def test_cached_test_features_match_reencoding(self, memory_regularization):
        sessions = small_stream(n_classes=10, base_classes=4, n_way=2)
        cfg = small_config(base_epochs=3, incr_epochs=4,
                           memory_regularization=memory_regularization)
        reports, _ = trainer.run_protocol(sessions, cfg)
        expected = reencoded_reports(sessions, cfg)
        assert len(reports) == len(expected) == 4
        for got, want in zip(reports, expected):
            assert got.to_json_dict() == want.to_json_dict()

    def test_each_test_example_is_encoded_once(self, monkeypatch):
        # every row the encoder sees is a training example or a test example
        # seen for the first time; a re-encoded cumulative test set fails this
        sessions = small_stream(n_classes=10, base_classes=4, n_way=2)
        encoded = []
        encode = encoder.normalized_features

        def counting(raw_tokens, params):
            encoded.append(len(raw_tokens))
            return encode(raw_tokens, params)

        monkeypatch.setattr(encoder, "normalized_features", counting)
        trainer.run_protocol(sessions, small_config(base_epochs=1, incr_epochs=1))
        n_train = sum(len(s.assignment.train_indices) for s in sessions)
        n_test = sum(len(s.assignment.test_indices) for s in sessions)
        assert sum(encoded) - n_train == n_test

    def test_no_copy_of_a_session_is_made(self, traced_peak):
        # a base-only stream with 4,000 train and 8,000 test rows of 64
        # tokens of width 4 (8.2 and 16.4 MB): a copy of either slice shows
        # in the traced peak, the encoder's 256 KiB chunks and 4-wide
        # features do not
        spec = data_io.SyntheticSpec(d=4, g=64, n_classes=4, class_mean_norm=4.0,
                                     within_class_sigma=1.0, examples_per_class=3000,
                                     seed=6)
        ds = data_io.generate_synthetic(spec)
        proto = data_io.ProtocolSpec(total_classes=4, base_classes=4, n_way=1, k_shot=1,
                                     seed=6, test_per_class=2000)
        split = data_io.fscil_split(proto, ds.labels)
        sessions = data_io.materialize_sessions(ds, split)
        test_bytes = ds.features[split[0].test_indices].nbytes
        cfg = small_config(base_epochs=1, batch_size=64)
        (reports, _), peak = traced_peak(trainer.run_protocol, sessions, cfg)
        assert len(reports) == 1
        assert peak < test_bytes / 4

    def test_encoded_test_rows_exist_once(self, traced_peak):
        # a base-only stream with 8,192 test rows of 4 tokens of width 64:
        # their encoded features are 4 MiB, eight encode chunks, so a second
        # copy of them outweighs every chunk-sized transient together
        spec = data_io.SyntheticSpec(d=64, g=4, n_classes=4, class_mean_norm=4.0,
                                     within_class_sigma=1.0, examples_per_class=2050,
                                     seed=7)
        ds = data_io.generate_synthetic(spec)
        proto = data_io.ProtocolSpec(total_classes=4, base_classes=4, n_way=1, k_shot=1,
                                     seed=7, test_per_class=2048)
        sessions = data_io.materialize_sessions(ds, data_io.fscil_split(proto, ds.labels))
        cfg = small_config(base_epochs=0)
        (reports, _), peak = traced_peak(trainer.run_protocol, sessions, cfg)
        assert len(reports) == 1
        n_test = 4 * 2048
        encoded = n_test * 64 * 8
        # the test features and their labels, one chunk of gathered rows, one
        # of activations and one to spare
        test_buffer = n_test * (64 + 1) * 8
        assert peak < test_buffer + 3 * encoder.ENCODE_CHUNK_BYTES < 2 * encoded

    def test_an_incremental_session_holds_each_head_sized_array_once(self, traced_peak):
        # 1,500 memory rows (five full head blocks) and a 256-wide hidden
        # layer over 4-wide features: the head terms dominate. In the memory
        # term's last block of the second step, seven (hidden x columns)
        # arrays are alive: the previous head (its state's read-only
        # snapshot), the new head, its velocity, the distance dictionary,
        # the term's summed w2 gradient, the block's logits (head-sized,
        # since hidden == HEAD_BLOCK_ROWS) and the block's w2 share. All
        # else fits in an eighth; a second copy of the previous head or the
        # first step's gradients would exceed it.
        base, ways, hidden = 1500, 2, classifier.HEAD_BLOCK_ROWS
        spec = data_io.SyntheticSpec(d=4, g=2, n_classes=base + ways, class_mean_norm=2.0,
                                     within_class_sigma=1.0, examples_per_class=3, seed=4)
        ds = data_io.generate_synthetic(spec)
        proto = data_io.ProtocolSpec(total_classes=base + ways, base_classes=base,
                                     n_way=ways, k_shot=2, seed=4, test_per_class=1)
        sessions = data_io.materialize_sessions(ds, data_io.fscil_split(proto, ds.labels))
        cfg = small_config(base_epochs=0, incr_epochs=1, batch_size=2, hidden_dim=hidden)
        (reports, _), peak = traced_peak(trainer.run_protocol, sessions, cfg)
        assert len(reports) == 2
        head = hidden * (base + ways) * 8
        assert peak < 8 * head

    def test_wide_rows_encode_within_the_chunk_budget(self, traced_peak):
        # 1,024 indices into rows of 64 x 64 tokens (32 KiB each): gathering
        # them in one chunk would take 32 MiB, and as much again to encode.
        # The (1,024, 64) result is alive throughout, beside one chunk of
        # gathered rows and one of activations, with a chunk to spare
        features = np.random.default_rng(8).normal(size=(32, 64, 64))
        indices = np.arange(1024) % 32
        enc = encoder.init_encoder(64, 64)
        out, peak = traced_peak(encoder.encode_rows, features, indices, enc)
        assert out.tobytes() == np.tile(normalized_features(features, enc), (32, 1)).tobytes()
        assert peak < out.nbytes + 3 * encoder.ENCODE_CHUNK_BYTES <= 3 << 20

    def test_eager_sessions_run_like_views(self):
        # each eager session's features and labels hold only that session's rows
        sessions = small_stream(n_classes=10, base_classes=4, n_way=2)
        eager = []
        for s in sessions:
            part = s.assignment
            rows = np.concatenate([part.train_indices, part.test_indices])
            n = len(part.train_indices)
            eager.append(data_io.SessionData(
                s.features[rows], s.labels[rows],
                data_io.SessionAssignment(part.session, part.class_ids, np.arange(n),
                                          np.arange(n, len(rows)))))
        cfg = small_config(base_epochs=2, incr_epochs=3)
        runs = []
        for stream in (sessions, eager):
            reports, state = trainer.run_protocol(stream, cfg)
            runs.append((json.dumps([r.to_json_dict() for r in reports]),
                         state.classifier.state_bytes(), state.mem.rows.tobytes(),
                         state.encoder.state_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("memory_regularization", [True, False])
    def test_shared_draws_match_fresh_generators(self, monkeypatch, memory_regularization):
        # every per-step draw re-keys rng's shared generator; a run where
        # each draw builds a new generator instead must match it byte for byte
        sessions = small_stream(n_classes=10, base_classes=4, n_way=2)
        cfg = small_config(base_epochs=3, incr_epochs=4, dropout_rate=0.3,
                           memory_regularization=memory_regularization)

        def run():
            records = []
            reports, state = trainer.run_protocol(sessions, cfg, records.append)
            return (json.dumps([r.to_json_dict() for r in reports]), json.dumps(records),
                    state.classifier.state_bytes(), state.mem.rows.tobytes(),
                    state.encoder.state_bytes())

        shared = run()
        with monkeypatch.context() as patch:
            patch.setattr(rng, "stream", lambda seed, *parts: rng.generator(seed, *parts))
            fresh = run()
        assert shared == fresh

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            trainer.run_protocol([], small_config())

    @pytest.mark.parametrize("make_stream", [
        lambda sessions: sessions[:0],
        lambda sessions: (s for s in sessions[:0]),
    ], ids=["sequence", "generator"])
    def test_empty_sequence_or_generator_rejected(self, make_stream):
        with pytest.raises(ValueError, match="protocol stream is empty"):
            trainer.run_protocol(make_stream(small_stream()), small_config())

    def test_generator_stream_runs_like_the_sequence(self):
        sessions = small_stream()
        cfg = small_config(base_epochs=2, incr_epochs=2)
        from_sequence, s1 = trainer.run_protocol(sessions, cfg)
        from_generator, s2 = trainer.run_protocol((s for s in sessions), cfg)
        assert ([r.to_json_dict() for r in from_generator]
                == [r.to_json_dict() for r in from_sequence])
        assert s1.classifier.state_bytes() == s2.classifier.state_bytes()

    def test_reruns_over_one_sequence_are_byte_identical(self):
        sessions = small_stream(n_classes=10, base_classes=4, n_way=2)
        cfg = small_config(base_epochs=2, incr_epochs=3)
        runs = []
        for _ in range(2):
            reports, state = trainer.run_protocol(sessions, cfg)
            runs.append((json.dumps([r.to_json_dict() for r in reports]),
                         state.classifier.state_bytes(), state.mem.rows.tobytes(),
                         state.encoder.state_bytes()))
        assert runs[0] == runs[1]

    def test_diverging_base_session_names_the_parameter(self):
        names = "enc_w|enc_b|dec_w|dec_b|mask_token|head_w1|head_b1|head_w2|head_b2"
        where = r"at session 0, epoch \d+, step \d+$"
        with pytest.raises(NumericalError, match=f"parameter ({names}) diverged.* {where}"):
            trainer.run_protocol(small_stream(), small_config(base_lr=1e200))

    def test_on_session_sees_every_state_and_report(self):
        seen = []
        reports, state = trainer.run_protocol(
            small_stream(), small_config(base_epochs=1, incr_epochs=1),
            on_session=lambda s, r: seen.append((s.session, r.session)))
        assert seen == [(0, 0), (1, 1), (2, 2)]
        assert [r.session for r in reports] == [0, 1, 2] and state.session == 2


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(base_epochs=-1)
        with pytest.raises(ValueError):
            trainer.TrainConfig(dropout_rate=1.5)
