import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudocl import metrics


def brute_force_assignment(cost):
    """Minimum-cost assignment by trying every row permutation."""
    n = cost.shape[0]
    best = np.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best:
            best = total
            best_perm = perm
    return best, best_perm


class TestContingency:
    def test_small_table_by_hand(self):
        pred = [0, 0, 1, 1, 1]
        truth = [0, 1, 1, 1, 0]
        table = metrics.contingency(pred, truth)
        assert np.array_equal(table, [[1, 1], [1, 2]])

    def test_total_equals_sample_count(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, 37)
        truth = rng.integers(0, 6, 37)
        assert metrics.contingency(pred, truth).sum() == 37

    def test_non_contiguous_labels_compacted(self):
        table = metrics.contingency([5, 5, 90], [100, 3, 3])
        assert table.shape == (2, 2)
        assert table.sum() == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.contingency([0, 1], [0, 1, 2])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            metrics.contingency([], [])


def total_cost(cost, assignment):
    """Cost of an assignment, summed left to right over the rows."""
    return float(sum(cost[np.arange(len(assignment)), assignment]))


class TestHungarian:
    def test_identity_cost_favors_diagonal(self):
        cost = np.ones((3, 3)) - np.eye(3)
        assignment = metrics.hungarian(cost)
        assert np.array_equal(assignment, [0, 1, 2])
        assert total_cost(cost, assignment) == 0.0

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            cost = rng.uniform(0, 10, (n, n))
            expected, _ = brute_force_assignment(cost)
            assignment = metrics.hungarian(cost)
            assert np.isclose(total_cost(cost, assignment), expected,
                              atol=1e-9), f"trial {trial}"
            assert sorted(assignment.tolist()) == list(range(n))

    def test_negative_costs_supported(self):
        rng = np.random.default_rng(2)
        cost = rng.uniform(-5, 5, (5, 5))
        expected, _ = brute_force_assignment(cost)
        assert np.isclose(total_cost(cost, metrics.hungarian(cost)),
                          expected, atol=1e-9)

    def test_single_cell(self):
        cost = np.array([[7.0]])
        assignment = metrics.hungarian(cost)
        assert assignment.tolist() == [0]
        assert total_cost(cost, assignment) == 7.0

    def test_non_square_rejected(self):
        # r < c is matched row by row; more rows than columns is not
        with pytest.raises(ValueError):
            metrics.hungarian(np.zeros((3, 2)))

    def test_non_2d_rejected(self):
        for cost in (np.zeros(3), np.zeros((1, 2, 2))):
            with pytest.raises(ValueError):
                metrics.hungarian(cost)

    def test_non_finite_rejected(self):
        cost = np.zeros((2, 2))
        cost[0, 0] = np.inf
        with pytest.raises(ValueError):
            metrics.hungarian(cost)


def brute_force_accuracy(pred, truth):
    """Best relabeling accuracy by trying every injective cluster->class map."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    clusters = np.unique(pred)
    classes = np.unique(truth)
    size = max(len(clusters), len(classes))
    slots = list(range(size))
    best = 0
    for perm in itertools.permutations(slots, len(clusters)):
        correct = 0
        for c, slot in zip(clusters, perm):
            if slot < len(classes):
                correct += np.sum((pred == c) & (truth == classes[slot]))
        best = max(best, correct)
    return best / len(pred)


class TestClusterAccuracy:
    def test_perfect_relabeling_scores_one(self):
        truth = [0, 0, 1, 1, 2, 2]
        pred = [2, 2, 0, 0, 1, 1]
        assert metrics.cluster_accuracy(pred, truth) == 1.0

    def test_matches_exhaustive_relabeling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(5, 15))
            pred = rng.integers(0, 3, n)
            truth = rng.integers(0, 4, n)
            assert np.isclose(metrics.cluster_accuracy(pred, truth),
                              brute_force_accuracy(pred, truth), atol=1e-12)

    def test_more_clusters_than_classes(self):
        pred = [0, 1, 2, 3]
        truth = [0, 0, 1, 1]
        # two clusters can land on the right class, two are orphaned
        assert metrics.cluster_accuracy(pred, truth) == 0.5
        assert np.isclose(metrics.cluster_accuracy(pred, truth),
                          brute_force_accuracy(pred, truth))

    def test_single_cluster_prediction(self):
        pred = [0, 0, 0, 0]
        truth = [0, 0, 1, 2]
        assert metrics.cluster_accuracy(pred, truth) == 0.5

    def test_symmetric_under_cluster_renaming(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 3, 30)
        truth = rng.integers(0, 3, 30)
        renamed = np.array([7, 2, 99])[pred]
        assert metrics.cluster_accuracy(pred, truth) == \
            metrics.cluster_accuracy(renamed, truth)

    def test_returns_plain_float(self):
        assert type(metrics.cluster_accuracy([0, 1], [0, 1])) is float


def exact_nmi(a, b):
    """NMI via Fraction-based counting, converted to float only at the end."""
    a, b = np.asarray(a), np.asarray(b)
    n = len(a)
    from math import log, sqrt
    pa = {v: np.sum(a == v) for v in np.unique(a)}
    pb = {v: np.sum(b == v) for v in np.unique(b)}
    ha = -sum((c / n) * log(c / n) for c in pa.values())
    hb = -sum((c / n) * log(c / n) for c in pb.values())
    if ha == 0 or hb == 0:
        return 0.0
    mi = 0.0
    for va, ca in pa.items():
        for vb, cb in pb.items():
            nij = np.sum((a == va) & (b == vb))
            if nij:
                mi += (nij / n) * log(Fraction(int(n) * int(nij),
                                               int(ca) * int(cb)))
    return mi / sqrt(ha * hb)


class TestNmi:
    def test_crossed_pairs_give_zero(self):
        assert metrics.nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_identical_partitions_give_one(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 4, 40)
        assert np.isclose(metrics.nmi(a, a), 1.0, atol=1e-12)

    def test_relabeled_partition_gives_one(self):
        a = np.array([0, 0, 1, 1, 2])
        b = np.array([9, 9, 4, 4, 1])
        assert np.isclose(metrics.nmi(a, b), 1.0, atol=1e-12)

    def test_degenerate_single_cluster_gives_zero(self):
        assert metrics.nmi([0, 0, 0], [0, 1, 2]) == 0.0
        assert metrics.nmi([0, 1, 2], [5, 5, 5]) == 0.0

    def test_matches_exact_fraction_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(6, 20))
            a = rng.integers(0, 3, n)
            b = rng.integers(0, 4, n)
            assert np.isclose(metrics.nmi(a, b), exact_nmi(a, b), atol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, 25)
        b = rng.integers(0, 5, 25)
        assert np.isclose(metrics.nmi(a, b), metrics.nmi(b, a), atol=1e-12)

    def test_bounded_by_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.integers(0, 4, 30)
            b = rng.integers(0, 4, 30)
            v = metrics.nmi(a, b)
            assert -1e-12 <= v <= 1.0 + 1e-12


def exact_ari(a, b):
    """ARI with exact rational arithmetic over pair counts."""
    a, b = np.asarray(a), np.asarray(b)
    n = len(a)
    comb2 = lambda x: Fraction(int(x) * (int(x) - 1), 2)
    sum_ij = Fraction(0)
    for va in np.unique(a):
        for vb in np.unique(b):
            sum_ij += comb2(np.sum((a == va) & (b == vb)))
    sum_i = sum(comb2(np.sum(a == v)) for v in np.unique(a))
    sum_j = sum(comb2(np.sum(b == v)) for v in np.unique(b))
    expected = Fraction(sum_i * sum_j, comb2(n))
    denom = Fraction(sum_i + sum_j, 2) - expected
    if denom == 0:
        return 1.0
    return float((sum_ij - expected) / denom)


class TestAri:
    def test_crossed_pairs_give_minus_half(self):
        assert np.isclose(metrics.ari([0, 0, 1, 1], [0, 1, 0, 1]), -0.5,
                          atol=1e-12)

    def test_identical_partitions_give_one(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 4, 40)
        assert metrics.ari(a, a) == 1.0

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(4, 25))
            a = rng.integers(0, 3, n)
            b = rng.integers(0, 4, n)
            assert np.isclose(metrics.ari(a, b), exact_ari(a, b), atol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 3, 30)
        b = rng.integers(0, 5, 30)
        assert np.isclose(metrics.ari(a, b), metrics.ari(b, a), atol=1e-12)

    def test_trivial_partitions_agree(self):
        assert metrics.ari([0, 0, 0], [1, 1, 1]) == 1.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            metrics.ari([0], [0])


class TestReports:
    def test_step_report_fields(self):
        rep = metrics.step_report(3, 15, [0, 0, 1, 1], [0, 1, 0, 1])
        assert rep.step == 3 and rep.classes_seen == 15
        assert rep.acc == 0.5 and rep.nmi == 0.0
        assert np.isclose(rep.ari, -0.5, atol=1e-12)

    def test_step_report_is_frozen(self):
        rep = metrics.step_report(1, 2, [0, 1], [0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.acc = 0.0
        assert rep.acc == 1.0


@st.composite
def relabelled_partitions(draw):
    """Two labelings of the same samples and a permutation of label values."""
    n = draw(st.integers(2, 60))
    k = draw(st.integers(1, 8))
    labels = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    perm = draw(st.permutations(range(k)))
    return (np.array(draw(labels)), np.array(draw(labels)), np.array(perm))


class TestRelabelInvariance:
    @settings(max_examples=100, deadline=None)
    @given(case=relabelled_partitions())
    def test_permuting_either_labeling_keeps_scores(self, case):
        pred, truth, perm = case
        for score in (metrics.cluster_accuracy, metrics.nmi, metrics.ari):
            base = score(pred, truth)
            # the sums run in another order, so the last bits may move
            assert np.isclose(score(perm[pred], truth), base,
                              rtol=1e-12, atol=1e-12)
            assert np.isclose(score(pred, perm[truth]), base,
                              rtol=1e-12, atol=1e-12)
