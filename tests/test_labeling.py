import numpy as np
import pytest

from pseudocl import labeling, nn, protocol
from pseudocl.config import BlobSpec, RunConfig
from pseudocl.data import Dataset, generate_gaussian_stream


def step_labels(monkeypatch, last_step):
    """The (assignments, pseudo labels) each step of a run hands to exemplar
    selection, steps 1 .. last_step of a 6-class stream in tasks of 2."""
    dataset = generate_gaussian_stream(BlobSpec(
        num_classes=6, dim=6, samples_per_class=30, separation=3.0, std=0.3,
        seed=5))
    cfg = RunConfig(step_size=2, epochs=2, batch_size=16, hidden_width=16,
                    n_hidden=1, q=3, lr=0.1, arrangement_seed=1993)
    seen = []
    real = protocol._update_store

    def recording(state, model, x, assignments, labels, *rest):
        seen.append((np.array(assignments), np.array(labels)))
        return real(state, model, x, assignments, labels, *rest)

    monkeypatch.setattr(protocol, "_update_store", recording)
    protocol.run_experiment(cfg, dataset)
    return seen[:last_step]


class TestAssignPseudoLabels:
    # a step's pseudo labels are its cluster assignments offset by the
    # m = (step - 1) * n classes already learned
    def test_offset_added(self, monkeypatch):
        assignments, labels = step_labels(monkeypatch, 2)[1]
        assert np.array_equal(labels, assignments + 2)
        assert set(assignments.tolist()) == {0, 1}

    def test_zero_offset_is_identity(self, monkeypatch):
        assignments, labels = step_labels(monkeypatch, 1)[0]
        assert np.array_equal(labels, assignments)
        assert sorted(set(labels.tolist())) == [0, 1]

    def test_labels_disjoint_from_old_classes(self, monkeypatch):
        for step, (_, labels) in enumerate(step_labels(monkeypatch, 3), 1):
            m = (step - 1) * 2
            assert labels.min() >= m
            assert labels.max() < m + 2


def herd_oracle(feats, q):
    """Direct transcription of greedy mean-matching selection, one pick at
    a time, recomputing the candidate running means from scratch."""
    mu = feats.mean(axis=0)
    picked = []
    for k in range(1, min(q, len(feats)) + 1):
        best, best_d = None, np.inf
        for i in range(len(feats)):
            if i in picked:
                continue
            mean_if_added = feats[picked + [i]].mean(axis=0)
            d = np.linalg.norm(mu - mean_if_added)
            if d < best_d:
                best_d, best = d, i
        picked.append(best)
    return picked


class TestHerding:
    def test_three_point_line_q1(self):
        feats = np.array([[0.0], [2.0], [3.0]])
        rows = labeling.select_exemplars_herding(
            feats, np.zeros(3, dtype=int), q=1)
        assert rows.tolist() == [1]

    def test_three_point_line_q2(self):
        feats = np.array([[0.0], [2.0], [3.0]])
        rows = labeling.select_exemplars_herding(
            feats, np.zeros(3, dtype=int), q=2)
        assert rows.tolist() == [1, 0]

    def test_matches_stepwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            feats = rng.standard_normal((12, 3))
            rows = labeling.select_exemplars_herding(
                feats, np.zeros(12, dtype=int), q=6)
            assert rows.tolist() == herd_oracle(feats, 6)

    def test_no_repeats_and_q_cap(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((30, 4))
        assignments = np.repeat([0, 1, 2], 10)
        rows = labeling.select_exemplars_herding(feats, assignments, q=4)
        assert len(rows) == 12
        assert len(set(rows)) == 12
        labels, counts = np.unique((assignments + 5)[rows], return_counts=True)
        assert labels.tolist() == [5, 6, 7] and counts.tolist() == [4, 4, 4]

    def test_small_cluster_takes_all_members(self):
        feats = np.array([[0.0], [1.0], [10.0]])
        assignments = np.array([0, 0, 1])
        rows = labeling.select_exemplars_herding(feats, assignments, q=5)
        labels, counts = np.unique(assignments[rows], return_counts=True)
        assert labels.tolist() == [0, 1] and counts.tolist() == [2, 1]

    def test_huge_q_sizes_work_by_largest_cluster(self):
        # q far beyond any cluster must neither allocate per q nor change
        # the picks: every cluster gives all its members, as at q = 9
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((15, 3))
        assignments = np.repeat([0, 1, 2], [9, 2, 4])
        at_largest = labeling.select_exemplars_herding(
            feats, assignments, q=9)
        huge = labeling.select_exemplars_herding(feats, assignments, q=10**12)
        assert huge.tolist() == at_largest.tolist()
        assert len(huge) == 15

    def test_tie_break_lowest_index(self):
        # symmetric pair: both points equally far from the mean
        feats = np.array([[1.0], [-1.0]])
        rows = labeling.select_exemplars_herding(
            feats, np.zeros(2, dtype=int), q=1)
        assert rows.tolist() == [0]

    def test_custom_sample_ids_propagated(self):
        # the state's exemplars grow by the sample ids of the picked rows of
        # the task's rows, with their labels
        feats = np.array([[0.0], [9.0], [2.0], [9.0], [3.0]])
        dataset = Dataset(np.array([500, 100, 200, 400, 300]), feats,
                          np.zeros(5, dtype=int))
        cfg = RunConfig(q=1, hidden_width=1, n_hidden=1)
        model = nn.init_model(1, 1, 1, 1, 0)
        model.layers[0][0][:] = 1.0  # ReLU(x): features are the rows
        model.layers[0][1][:] = 0.0
        task_rows = np.array([0, 2, 4])
        state = protocol.RunState(1, model, model, np.array([7]),
                                  np.array([0]), ())
        ids, labels = protocol._update_store(
            state, model, dataset, np.zeros(3, dtype=int),
            np.array([1, 1, 1]), task_rows, cfg, step=2)
        assert ids.tolist() == [7, 200]
        assert labels.tolist() == [0, 1]

    def test_first_pick_closest_to_mean(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((20, 5))
        rows = labeling.select_exemplars_herding(
            feats, np.zeros(20, dtype=int), q=1)
        mu = feats.mean(axis=0)
        dists = np.linalg.norm(feats - mu, axis=1)
        assert rows.tolist() == [int(np.argmin(dists))]

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            labeling.select_exemplars_herding(
                np.zeros((3, 2)), np.zeros(3, dtype=int), q=0)

    @pytest.mark.parametrize("value", [1e160, np.inf],
                             ids=["norms-overflow", "non-finite"])
    def test_overflowing_features_rejected(self, value):
        # a finite row of 1e160 has a squared norm of 1e320, which the key
        # bounds cannot cover
        feats = np.zeros((4, 2))
        feats[2, 1] = value
        with pytest.raises(ValueError, match="squared norms overflow"):
            labeling.select_exemplars_herding(
                feats, np.array([0, 0, 1, 1]), q=1)


class TestRandomSelection:
    def test_counts_and_uniqueness(self):
        assignments = np.repeat([0, 1], 20)
        rows = labeling.select_exemplars_random(assignments, q=6, seed=0)
        assert len(rows) == 12
        assert len(set(rows)) == 12

    def test_members_come_from_own_cluster(self):
        assignments = np.repeat([0, 1, 2], 10)
        rows = labeling.select_exemplars_random(assignments, q=4, seed=1)
        assert np.array_equal(assignments[rows], np.repeat([0, 1, 2], 4))

    def test_deterministic_given_seed(self):
        a = np.zeros(20, dtype=int)
        s1 = labeling.select_exemplars_random(a, q=5, seed=42)
        s2 = labeling.select_exemplars_random(a, q=5, seed=42)
        assert s1.tolist() == s2.tolist()

    def test_approximately_uniform_over_many_seeds(self):
        # Monte Carlo: each of 10 members should be picked ~ q/10 of the time
        a = np.zeros(10, dtype=int)
        counts = np.zeros(10)
        trials = 2000
        for seed in range(trials):
            counts[labeling.select_exemplars_random(a, q=3, seed=seed)] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.3) < 0.04)

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            labeling.select_exemplars_random(np.zeros(3, dtype=int), q=0,
                                             seed=0)


class TestMergeReplay:
    def test_contents_preserved(self):
        x_new = np.arange(6.0).reshape(3, 2)
        y_new = np.array([5, 6, 7])
        x_old = np.array([[100.0, 101.0]])
        y_old = np.array([0])
        x, y, origin = labeling.merge_replay(x_new, y_new, x_old, y_old, seed=0)
        assert len(x) == 4
        assert sorted(y.tolist()) == [0, 5, 6, 7]
        rows = {tuple(r) for r in x}
        assert (100.0, 101.0) in rows and (0.0, 1.0) in rows

    def test_origin_marks_replayed_rows(self):
        x_new = np.ones((3, 2))
        x_old = np.zeros((2, 2))
        x, y, origin = labeling.merge_replay(
            x_new, np.array([1, 1, 1]), x_old, np.array([0, 0]), seed=1)
        assert np.sum(origin == -1) == 2
        for row, o in zip(x, origin):
            assert np.all(row == (0.0 if o == -1 else 1.0))
        assert sorted(o for o in origin if o >= 0) == [0, 1, 2]

    def test_empty_replay_is_pure_shuffle(self):
        x_new = np.arange(8.0).reshape(4, 2)
        y_new = np.array([0, 1, 2, 3])
        x, y, origin = labeling.merge_replay(
            x_new, y_new, np.empty((0, 2)), np.empty(0, dtype=int), seed=2)
        assert len(x) == 4
        assert np.array_equal(x[np.argsort(origin)], x_new)
        assert np.array_equal(y[np.argsort(origin)], y_new)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        x_new = rng.standard_normal((5, 3))
        y_new = rng.integers(0, 3, 5)
        x_old = rng.standard_normal((3, 3))
        y_old = rng.integers(0, 3, 3)
        a = labeling.merge_replay(x_new, y_new, x_old, y_old, seed=9)
        b = labeling.merge_replay(x_new, y_new, x_old, y_old, seed=9)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_labels_travel_with_rows(self):
        x_new = np.array([[1.0], [2.0]])
        y_new = np.array([10, 20])
        x_old = np.array([[3.0]])
        y_old = np.array([30])
        x, y, _ = labeling.merge_replay(x_new, y_new, x_old, y_old, seed=3)
        pairs = {(float(a[0]), int(b)) for a, b in zip(x, y)}
        assert pairs == {(1.0, 10), (2.0, 20), (3.0, 30)}

    @pytest.mark.parametrize("old_ids", [[7, 1, 3], []])
    def test_ids_merge_as_their_rows_do(self, old_ids):
        # merged sample ids keep the order and origin map of a merge of
        # their feature rows at the same seed, with or without exemplars, so
        # gathering the merged ids gives the merged rows
        features = np.random.default_rng(4).standard_normal((9, 3))
        new_ids = np.array([6, 2, 8, 0, 5])
        old_ids = np.array(old_ids, dtype=int)
        old_y = np.full(len(old_ids), 4)
        y_new = np.array([0, 1, 1, 0, 1])
        x, y, origin = labeling.merge_replay(
            features[new_ids], y_new, features[old_ids], old_y, seed=11)
        ids, id_y, id_origin = labeling.merge_replay(
            new_ids, y_new, old_ids, old_y, seed=11)
        assert ids.dtype == id_y.dtype == np.dtype(int)
        assert np.array_equal(features[ids], x)
        assert np.array_equal(id_y, y)
        assert np.array_equal(id_origin, origin)

