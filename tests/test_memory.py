import numpy as np
import pytest

from gcmr.classifier import init_classifier
from gcmr.memory import (RepresentationMemory, build_weight_memory, column_labels,
                         init_representation_memory, memory_budget_bytes,
                         update_representation_memory)


class TestInit:
    def test_single_example_class(self):
        v = np.array([1.0, -2.0, 0.5])
        mem = init_representation_memory({7: [v]})
        np.testing.assert_array_equal(mem.rows[0], v)
        assert mem.class_ids == (7,)
        assert mem.session_of == (0,)

    def test_antipodal_features_average_to_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        mem = init_representation_memory({0: [v, -v]})
        np.testing.assert_array_equal(mem.rows[0], 0.0)

    def test_sixty_classes_of_768(self):
        gen = np.random.default_rng(0)
        feats = {c: gen.normal(size=(3, 768)) for c in range(60)}
        mem = init_representation_memory(feats)
        assert mem.rows.shape == (60, 768)

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            init_representation_memory({0: np.empty((0, 4))})

    def test_rejects_ragged_dims(self):
        with pytest.raises(ValueError):
            init_representation_memory({0: [np.zeros(3)], 1: [np.zeros(4)]})

    def test_rows_are_read_only(self):
        mem = init_representation_memory({0: [np.zeros(3)]})
        with pytest.raises(ValueError):
            mem.rows[0, 0] = 1.0


class TestUpdate:
    def test_five_way_session_onto_sixty_rows(self):
        gen = np.random.default_rng(1)
        mem = init_representation_memory({c: gen.normal(size=(2, 16)) for c in range(60)})
        mem2 = update_representation_memory(
            mem, {c: gen.normal(size=(5, 16)) for c in range(60, 65)}, session=1)
        assert mem2.rows.shape == (65, 16)
        assert mem2.session_of[-5:] == (1,) * 5

    def test_empty_update_returns_memory_unchanged(self):
        mem = init_representation_memory({0: [np.zeros(3)]})
        assert update_representation_memory(mem, {}, 1) is mem

    def test_identical_support_vectors_give_that_vector(self):
        v = np.array([0.5, 1.5])
        mem = init_representation_memory({0: [np.zeros(2)]})
        mem2 = update_representation_memory(mem, {1: [v] * 5}, 1)
        np.testing.assert_array_equal(mem2.rows[1], v)

    def test_existing_rows_byte_identical(self):
        gen = np.random.default_rng(2)
        mem = init_representation_memory({c: gen.normal(size=(2, 8)) for c in range(4)})
        before = mem.rows.tobytes()
        mem2 = update_representation_memory(mem, {9: gen.normal(size=(3, 8))}, 1)
        assert mem2.rows[:4].tobytes() == before

    def test_class_id_collision(self):
        mem = init_representation_memory({0: [np.zeros(2)], 3: [np.ones(2)]})
        with pytest.raises(ValueError, match=r"^duplicate class ids in memory: \[0, 3\]$"):
            update_representation_memory(mem, {3: [np.ones(2)], 5: [np.ones(2)],
                                               0: [np.ones(2)]}, 1)

    def test_append_only_across_sessions(self):
        gen = np.random.default_rng(3)
        mem = init_representation_memory({c: gen.normal(size=(2, 6)) for c in range(3)})
        snapshots = [mem.rows.copy()]
        for t in range(1, 4):
            mem = update_representation_memory(
                mem, {10 * t + c: gen.normal(size=(2, 6)) for c in range(2)}, t)
            snapshots.append(mem.rows.copy())
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later[:earlier.shape[0]].tobytes() == earlier.tobytes()


class TestWeightMemory:
    def test_snapshot_is_bit_exact_deep_copy(self):
        gen = np.random.default_rng(7)
        mem = init_representation_memory({0: gen.normal(size=(2, 4))})
        params = init_classifier(4, 3, 1, seed=3)
        before = params.state_bytes()
        wmem = build_weight_memory(params, mem, 0)
        # the snapshot is the head itself, frozen: no copy, and no write
        # through the head can change it
        assert wmem.classifier_snapshot is params
        with pytest.raises(ValueError, match="read-only"):
            params.w1 += 1.0
        assert wmem.classifier_snapshot.state_bytes() == before

    def test_snapshot_arrays_are_read_only(self):
        mem = init_representation_memory({0: [np.zeros(4)]})
        params = init_classifier(4, 3, 1, seed=3)
        snap = build_weight_memory(params, mem, 0).classifier_snapshot
        for arr in snap.arrays().values():
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    def test_freezing_a_wide_head_allocates_no_copy(self, traced_peak):
        # a 64 -> 256 -> 1,000 head is 2,189,120 bytes; freezing it is a flag
        mem = RepresentationMemory(np.zeros((1000, 64)), tuple(range(1000)), (0,) * 1000)
        params = init_classifier(64, 256, 1000, seed=4)
        wmem, peak = traced_peak(build_weight_memory, params, mem, 2)
        assert wmem.classifier_snapshot is params and wmem.session == 2
        assert peak < 1024

    def test_dimension_mismatch(self):
        mem = init_representation_memory({0: [np.zeros(5)]})
        params = init_classifier(4, 3, 1, seed=5)
        with pytest.raises(ValueError):
            build_weight_memory(params, mem, 0)


class TestBudget:
    def make_pair(self, n_classes, dim, hidden):
        gen = np.random.default_rng(9)
        mem = init_representation_memory(
            {c: gen.normal(size=(1, dim)) for c in range(n_classes)})
        params = init_classifier(dim, hidden, n_classes, seed=6)
        return mem, build_weight_memory(params, mem, 0)

    def test_thousand_classes_768d_about_3mb(self):
        mem, wmem = self.make_pair(1000, 768, 4)
        budget = memory_budget_bytes(mem, wmem, 4)
        assert budget["representation"] == 3_072_000

    def test_component_arithmetic(self):
        mem, wmem = self.make_pair(65, 768, 256)
        budget = memory_budget_bytes(mem, wmem, 4)
        assert budget["representation"] == 65 * 768 * 4 == 199_680
        snap = wmem.classifier_snapshot
        expected_clf = (snap.w1.size + snap.b1.size + snap.w2.size + snap.b2.size) * 4
        assert budget["classifier"] == expected_clf
        assert budget["total"] == sum(v for k, v in budget.items() if k != "total")

    def test_linear_growth_in_class_count(self):
        budgets = []
        for n in (10, 20, 30):
            mem, wmem = self.make_pair(n, 16, 4)
            budgets.append(memory_budget_bytes(mem, wmem, 8)["representation"])
        assert budgets[1] - budgets[0] == budgets[2] - budgets[1] == 10 * 16 * 8

    def test_invalid_precision(self):
        mem, wmem = self.make_pair(2, 4, 3)
        with pytest.raises(ValueError):
            memory_budget_bytes(mem, wmem, 2)


class TestColumnLabels:
    def test_shuffled_negative_and_wide_ids(self):
        ids = (7, -3, 2**40, 0, 2**32 + 5, -2**35)
        labels = [2**32 + 5, -3, -3, -2**35, 7, 2**40, 0, 2**32 + 5]
        np.testing.assert_array_equal(column_labels(labels, ids),
                                      [ids.index(v) for v in labels])

    def test_unknown_ids_are_named(self):
        with pytest.raises(ValueError, match=r"unknown classes: \[-1, 4294967296\]"):
            column_labels([3, 2**32, 1, -1, 2**32], (1, 2, 3))
        with pytest.raises(ValueError, match=r"\[0\]"):
            column_labels([0], ())


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate class ids in memory: \[1, 4\]$"):
            RepresentationMemory(np.zeros((5, 3)), (4, 1, 2, 1, 4), (0,) * 5)

    def test_metadata_alignment(self):
        with pytest.raises(ValueError):
            RepresentationMemory(np.zeros((2, 3)), (1,), (0, 0))
