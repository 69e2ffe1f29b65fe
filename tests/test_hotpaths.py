"""The vectorised cluster/match hot paths against the loops they replaced.

Each oracle below is the earlier loop implementation, kept here as the
reference. Where the arithmetic is unchanged the results must be equal bit
for bit, not merely close: report.csv and every checkpoint depend on them.
"""

import numpy as np
import pytest

from pseudocl import clustering, data, labeling, metrics
from test_acceptance import _herd_brute


def assign_oracle(x, centroids):
    d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def update_oracle(x, centroids, assignments):
    """Per-cluster mask update and repair; returns centroids, repair count."""
    k = centroids.shape[0]
    new_centroids = centroids.copy()
    for j in range(k):
        mask = assignments == j
        if np.any(mask):
            new_centroids[j] = x[mask].mean(axis=0)
    repairs = 0
    for j in range(k):
        if not np.any(assignments == j):
            dists = np.sum((x - new_centroids[assignments]) ** 2, axis=1)
            far = int(np.argmax(dists))
            new_centroids[j] = x[far]
            assignments[far] = j
            repairs += 1
    return new_centroids, repairs


def kmeans_single_oracle(x, k, seed, max_iter, tol):
    """Lloyd iterations with the per-cluster mask update; counts repairs."""
    rng = np.random.default_rng(seed)
    centroids = clustering._kmeans_pp_init(x, k, rng)
    assignments = assign_oracle(x, centroids)
    repairs = 0
    it = 0
    for it in range(1, max_iter + 1):
        new_centroids, step_repairs = update_oracle(x, centroids, assignments)
        repairs += step_repairs
        new_assignments = assign_oracle(x, new_centroids)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        assignments = new_assignments
        if shift < tol:
            break
    return centroids, assignments, it, repairs


def herd_loop_oracle(feats, q):
    mu = feats.mean(axis=0)
    picked = []
    running = np.zeros_like(mu)
    available = list(range(feats.shape[0]))
    for k in range(1, min(q, feats.shape[0]) + 1):
        best, best_dist = None, np.inf
        for idx in available:
            cand = np.linalg.norm(mu - (running + feats[idx]) / k)
            if cand < best_dist:
                best_dist, best = cand, idx
        picked.append(best)
        available.remove(best)
        running = running + feats[best]
    return picked


def hungarian_oracle(cost):
    c = np.asarray(cost, dtype=float)
    n = c.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = np.inf
            j1 = -1
            for j in range(1, n + 1):
                if not used[j]:
                    cur = c[i0 - 1, j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assignment = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        assignment[p[j] - 1] = j - 1
    return assignment, float(sum(c[i, assignment[i]] for i in range(n)))


def nmi_terms_oracle(table):
    n = table.sum()
    ni = table.sum(axis=1)
    nj = table.sum(axis=0)
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij > 0:
                mi += (nij / n) * np.log(n * nij / (ni[i] * nj[j]))
    return mi


class TestAssign:
    def test_random_data(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, k, d = rng.integers(1, 300), rng.integers(1, 40), rng.integers(1, 70)
            x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            c = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(clustering._assign(x, c), assign_oracle(x, c))

    def test_duplicated_centroids_take_lowest_index(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 8))
        c = rng.normal(size=(5, 8))
        c = np.vstack([c, c[::-1], c])
        got = clustering._assign(x, c)
        assert np.array_equal(got, assign_oracle(x, c))
        assert got.max() < 5

    def test_points_exactly_at_midpoints(self):
        rng = np.random.default_rng(2)
        c = rng.integers(-4, 5, size=(6, 3)).astype(float)
        pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        x = np.array([(c[a] + c[b]) / 2.0 for a, b in pairs])
        assert np.array_equal(clustering._assign(x, c), assign_oracle(x, c))

    def test_large_offset_cancellation(self):
        # at a 1e6 offset the GEMM form is off by ~0.1, far more than the
        # gap between each centroid and its 1e-6 near-copy
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 16)) + 1e6
        c = x[rng.choice(300, 10, replace=False)]
        c = np.vstack([c, c + rng.normal(size=c.shape) * 1e-6])
        assert np.array_equal(clustering._assign(x, c), assign_oracle(x, c))


class TestKmeansUpdate:
    @staticmethod
    def check(x, k, seed, max_iter=300, tol=1e-6):
        want_c, want_a, want_it, repairs = kmeans_single_oracle(
            x, k, seed, max_iter, tol)
        got = clustering._kmeans_single(x, k, seed, max_iter, tol)
        assert got.iterations == want_it
        assert got.centroids.tobytes() == want_c.tobytes()
        assert np.array_equal(got.assignments, want_a)
        return repairs

    def test_empty_cluster_repair(self):
        # 3 distinct points for 6 clusters: k-means++ must reuse a point, the
        # duplicate centroid loses every tie, and repair refills it
        base = np.array([[0.0, 0.0], [5.0, 1.0], [-3.0, 4.0]])
        x = np.repeat(base, [5, 4, 3], axis=0)
        assert sum(self.check(x, 6, seed) for seed in range(5)) > 0

    def test_update_with_arbitrary_assignments(self):
        rng = np.random.default_rng(9)
        repairs = 0
        for _ in range(200):
            n, k, d = rng.integers(1, 30), rng.integers(1, 8), rng.integers(1, 5)
            # few distinct rows, so every point may sit on its centroid
            x = rng.integers(-2, 3, size=(n, d)).astype(float)
            a = rng.integers(0, k, n)
            c = rng.normal(size=(k, d))
            want_a = a.copy()
            want, step_repairs = update_oracle(x, c, want_a)
            got = clustering._update(x, c, a)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(a, want_a)
            repairs += step_repairs
        assert repairs > 0

    def test_repair_cascades_to_later_cluster(self):
        # every point sits on its cluster mean, so the farthest point is
        # point 0; moving it to empty cluster 0 empties cluster 2
        x = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        a = np.array([2, 1, 1])
        want_a = a.copy()
        want, repairs = update_oracle(x, np.zeros((3, 2)), want_a)
        got = clustering._update(x, np.zeros((3, 2)), a)
        assert repairs == 2
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(a, want_a)

    def test_random_blobs_bitwise(self):
        rng = np.random.default_rng(4)
        for seed, d in enumerate((1, 2, 5, 16, 64)):
            centers = rng.normal(size=(8, d)) * 4
            x = centers[rng.integers(0, 8, 400)] + rng.normal(size=(400, d))
            self.check(x, 8, seed)


class TestHerding:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(300, 64))
        assert labeling._herd_cluster(feats, 20) == _herd_brute(feats, 20)

    def test_matches_loop_with_ties(self):
        rng = np.random.default_rng(6)
        for d in (1, 3, 17):
            feats = rng.integers(-2, 3, size=(60, d)).astype(float)
            assert labeling._herd_cluster(feats, 25) == herd_loop_oracle(feats, 25)


class TestHungarian:
    @pytest.mark.parametrize("k", [20, 100, 200])
    def test_tie_heavy_contingency(self, k):
        rng = np.random.default_rng(k)
        cost = -rng.integers(0, 4, size=(k, k)).astype(float)
        want, want_total = hungarian_oracle(cost)
        got = metrics.hungarian(cost)
        assert np.array_equal(got.assignment, want)
        assert got.total_cost == want_total


class TestNmi:
    def test_same_bytes_as_double_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.integers(0, rng.integers(1, 30), 500)
            b = rng.integers(0, rng.integers(1, 30), 500)
            table = metrics.contingency(a, b)
            n = table.sum()
            ha = metrics._entropy(table.sum(axis=1), n)
            hb = metrics._entropy(table.sum(axis=0), n)
            if ha == 0.0 or hb == 0.0:
                continue
            want = float(nmi_terms_oracle(table) / np.sqrt(ha * hb))
            assert repr(metrics.nmi(a, b)) == repr(want)


class TestPositions:
    def test_matches_dict_lookup_and_rejects_unknown_ids(self):
        rng = np.random.default_rng(8)
        ids = rng.permutation(1000)[:200] * 3
        ds = data.Dataset(ids, rng.normal(size=(200, 2)), np.arange(200) % 4)
        index = {int(i): pos for pos, i in enumerate(ids)}
        query = ids[rng.integers(0, 200, 50)]
        assert ds.positions(query).tolist() == [index[int(i)] for i in query]
        with pytest.raises(KeyError):
            ds.positions([ids[0], 1])
