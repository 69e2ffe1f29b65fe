"""The vectorised hot paths against the loops they replaced.

Each oracle below is the earlier loop implementation, kept here as the
reference. Where the arithmetic is unchanged the results must be equal bit
for bit, not merely close: report.csv and every checkpoint depend on them.
"""

import fractions
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from pseudocl import clustering, config, data, labeling, metrics, nn, protocol
from pseudocl.config import RunConfig
from test_acceptance import _herd_brute


def kmeans_pp_init_oracle(x, k, rng):
    """k-means++ seeding with the exact distance of every row each round."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    idx = int(rng.integers(n))
    centroids[0] = x[idx]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))
    return centroids


def assign_oracle(x, centroids):
    d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def objective_oracle(x, centroids, assignments):
    diff = x - centroids[assignments]
    return float(np.mean(np.sum(diff * diff, axis=1)))


def assign(x, centroids):
    return clustering._assign(x, clustering._sq_norms(x), centroids)


def blobs(rng, n, d, centers):
    """Gaussian blobs around ``centers`` random class centers."""
    mu = rng.normal(size=(centers, d)) * 3.0
    return mu[rng.integers(0, centers, n)] + rng.normal(size=(n, d))


def near_overflow(rng, n, d):
    """Rows near 1e160: |x|^2 overflows, but the differences of rows and
    their squares stay finite."""
    return 1e160 + 1e160 * 2.0 ** -48 * rng.integers(-8, 9, size=(n, d))


class RecordingRng:
    """A generator that records the bytes of every probability vector that
    k-means++ hands to choice."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.p = []

    def integers(self, n):
        return self.rng.integers(n)

    def choice(self, n, p):
        self.p.append(p.tobytes())
        return self.rng.choice(n, p=p)


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
    centroids = kmeans_pp_init_oracle(x, k, rng)
    assignments = assign_oracle(x, centroids)
    repairs = 0
    trace = []
    it = 0
    for it in range(1, max_iter + 1):
        new_centroids, step_repairs = update_oracle(x, centroids, assignments)
        repairs += step_repairs
        new_assignments = assign_oracle(x, new_centroids)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        assignments = new_assignments
        trace.append(objective_oracle(x, centroids, assignments))
        if shift < tol:
            break
    return centroids, assignments, it, repairs, trace


def eval_mask_oracle(labels, fraction, seed):
    """The stratified split with a full label scan per class, and the
    per-class check loop of Dataset.__init__."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(labels), dtype=bool)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        n_eval = max(1, int(round(fraction * len(members))))
        chosen = rng.choice(members, size=n_eval, replace=False)
        mask[chosen] = True
    for c in np.unique(labels):
        in_class = labels == c
        if not np.any(mask & in_class):
            raise data.FormatError(f"class {c} has no eval sample")
        if np.all(mask[in_class]):
            raise data.FormatError(f"class {c} has no training sample")
    return mask


def herd_cluster_oracle(feats, q):
    """Greedy herding over one cluster's features; local indices returned.
    The per-cluster form that select_exemplars_herding replaced."""
    mu = feats.mean(axis=0)
    picked = []
    running = np.zeros_like(mu)
    available = np.arange(feats.shape[0])
    for k in range(1, min(q, feats.shape[0]) + 1):
        diff = mu - (running + feats[available]) / k
        dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
        pos = int(np.argmin(dist))
        best = int(available[pos])
        picked.append(best)
        available = np.delete(available, pos)
        running = running + feats[best]
    return picked


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


def herding_append_oracle(features, assignments, pseudo_labels, q,
                          sample_ids):
    """The per-sample append loop of the list-backed exemplar store."""
    ids, labels = [], []
    for j in np.unique(assignments):
        members = np.flatnonzero(assignments == j)
        for li in herd_cluster_oracle(features[members], q):
            gi = members[li]
            ids.append(int(sample_ids[gi]))
            labels.append(int(pseudo_labels[gi]))
    return ids, labels


def random_append_oracle(assignments, pseudo_labels, q, seed, sample_ids):
    rng = np.random.default_rng(seed)
    ids, labels = [], []
    for j in np.unique(assignments):
        members = np.flatnonzero(assignments == j)
        chosen = rng.choice(members, size=min(q, members.size), replace=False)
        for gi in chosen:
            ids.append(int(sample_ids[gi]))
            labels.append(int(pseudo_labels[gi]))
    return ids, labels


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


def matched_count_oracle(table):
    """_matched_count before it matched rectangles: pad to a square."""
    r, c = table.shape
    size = max(r, c)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[:r, :c] = table
    assignment, _ = hungarian_oracle(-padded.astype(float))
    return int(padded[np.arange(size), assignment].sum())


def assignment_brute(cost):
    """Least total over every injective row-to-column map, r <= c."""
    r, c = cost.shape
    return min(sum(cost[i, j] for i, j in enumerate(cols))
               for cols in itertools.permutations(range(c), r))


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


def backward_oracle(model, x, teacher_logits, labels, alpha, temperature, m):
    """nn.backward before it took the teacher's probabilities: teacher
    logits in, a one-hot matrix and fresh gradient views on every call."""
    batch = x.shape[0]
    acts, logits = nn._forward_cached(model, x)
    z = logits - np.max(logits, axis=1, keepdims=True)
    log_probs = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    probs = np.exp(log_probs)
    l_c = -log_probs[np.arange(batch), labels]
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(batch), labels] = 1.0
    d_logits = (1.0 - alpha) * (probs - one_hot) / batch
    l_d = np.zeros(batch)
    if alpha > 0.0:
        p = nn.softened_probs(logits[:, :m], temperature)
        p_hat = nn.softened_probs(teacher_logits[:, :m], temperature)
        l_d = -np.sum(p_hat * np.log(p), axis=1)
        d_logits[:, :m] += alpha * (p - p_hat) / (temperature * batch)
    loss = float(np.mean(alpha * l_d + (1.0 - alpha) * l_c))
    grads = np.empty_like(model.params)
    grad_layers = nn._layer_views(model.dims, grads)
    delta = d_logits
    for i in range(len(model.layers) - 1, -1, -1):
        g_w, g_b = grad_layers[i]
        g_w[...] = acts[i].T @ delta
        g_b[...] = delta.sum(axis=0)
        if i:
            delta = (delta @ model.layers[i][0].T) * (acts[i] > 0)
    return loss, grads


def train_oracle(model, x, y, teacher, m, n, cfg, step, forward=nn.forward):
    """The offline loop of protocol._train with a fresh teacher forward for
    every minibatch."""
    alpha = m / (m + n)
    base_seed = protocol._seed(cfg.shuffle_seed, "task", step)
    for epoch in range(cfg.epochs):
        lr = protocol._lr_at(cfg, epoch)
        order = np.random.default_rng(
            protocol._seed(base_seed, "epoch", epoch)).permutation(len(x))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = x[idx]
            _, grads = backward_oracle(model, xb, forward(teacher, xb),
                                       y[idx], alpha, cfg.temperature, m)
            nn.sgd_step(model, grads, lr, cfg.weight_decay)
    return model


class TestAssign:
    def test_random_data(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, k, d = rng.integers(1, 300), rng.integers(1, 40), rng.integers(1, 70)
            x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            c = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(assign(x, c), assign_oracle(x, c))

    def test_duplicated_centroids_take_lowest_index(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 8))
        c = rng.normal(size=(5, 8))
        c = np.vstack([c, c[::-1], c])
        got = assign(x, c)
        assert np.array_equal(got, assign_oracle(x, c))
        assert got.max() < 5

    def test_points_exactly_at_midpoints(self):
        rng = np.random.default_rng(2)
        c = rng.integers(-4, 5, size=(6, 3)).astype(float)
        pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        x = np.array([(c[a] + c[b]) / 2.0 for a, b in pairs])
        assert np.array_equal(assign(x, c), assign_oracle(x, c))

    def test_large_offset_cancellation(self):
        # at a 1e6 offset the GEMM form is off by ~0.1, far more than the
        # gap between each centroid and its 1e-6 near-copy
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 16)) + 1e6
        c = x[rng.choice(300, 10, replace=False)]
        c = np.vstack([c, c + rng.normal(size=c.shape) * 1e-6])
        assert np.array_equal(assign(x, c), assign_oracle(x, c))

    def test_runner_up_equal_to_minimum(self):
        # rows that sit on a centroid with a duplicate: the runner-up
        # distance equals the minimum, at the origin and at a 1e6 offset
        rng = np.random.default_rng(17)
        for offset in (0.0, 1e6):
            c = rng.normal(size=(6, 5)) + offset
            c = np.vstack([c, c[[4, 1, 1]]])
            x = np.vstack([c, c[rng.integers(0, 9, 40)],
                           rng.normal(size=(40, 5)) + offset])
            got = assign(x, c)
            assert np.array_equal(got, assign_oracle(x, c))
            assert got.max() < 6

    def test_overflowing_gemm_form_takes_exact_form(self):
        # |x|^2 overflows, so every GEMM distance is NaN; the exact form
        # still separates the rows
        rng = np.random.default_rng(18)
        x = near_overflow(rng, 120, 4)
        c = x[:7]
        want = assign_oracle(x, c)
        assert len(np.unique(want)) > 1
        assert np.array_equal(assign(x, c), want)

    def test_every_row_near_a_tie_takes_exact_form_in_blocks(self):
        # duplicated centroids put every row's two nearest at equal GEMM
        # distance, so every row takes the exact form; its (rows, k, d)
        # differences come a block at a time, not for all rows at once
        rng = np.random.default_rng(19)
        c = rng.normal(size=(20, 16))
        c = np.vstack([c, c])
        x = rng.normal(size=(2000, 16))
        want = assign_oracle(x, c)
        tracemalloc.start()
        try:
            got = assign(x, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        # a block of GEMM distances, a block of differences, one more block
        # of slack and a few (n,) vectors: nothing grows with n times k
        assert peak <= 3 * clustering._BLOCK * 8 + 4 * 2000 * 8


class TestKmeansPPInit:
    """Seeding screens rows with the GEMM form; the exact distances of
    every row, which feed rng.choice, are the oracle."""

    @staticmethod
    def check(x, k, seeds=range(3)):
        for seed in seeds:
            want_rng, got_rng = RecordingRng(seed), RecordingRng(seed)
            want = kmeans_pp_init_oracle(x, k, want_rng)
            got = clustering._kmeans_pp_init(x, clustering._sq_norms(x), k,
                                             got_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.p == want_rng.p

    def test_large_offset(self):
        rng = np.random.default_rng(19)
        self.check(rng.normal(size=(300, 16)) + 1e6, 20)

    def test_duplicate_rows(self):
        rng = np.random.default_rng(20)
        base = rng.normal(size=(6, 5))
        self.check(base[rng.integers(0, 6, 80)], 10)

    def test_identical_rows(self):
        # after the first seed every distance is 0, so total == 0 and the
        # seeds are drawn uniformly
        self.check(np.full((30, 5), 3.25), 6)

    def test_integer_grid(self):
        rng = np.random.default_rng(21)
        for d in (1, 3):
            self.check(rng.integers(-3, 4, size=(200, d)).astype(float), 30)

    def test_k_equals_n(self):
        rng = np.random.default_rng(22)
        self.check(rng.normal(size=(12, 4)), 12)
        self.check(rng.integers(0, 2, size=(12, 2)).astype(float), 12)

    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    def test_wide_shaped_blobs(self, scale):
        rng = np.random.default_rng(23)
        self.check(blobs(rng, 1200, 64, 50) * scale, 50)

    def test_overflowing_gemm_form(self):
        rng = np.random.default_rng(24)
        self.check(near_overflow(rng, 150, 4), 12)


class TestObjective:
    def test_same_repr_as_old_formula(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            n, k, d = rng.integers(1, 300), rng.integers(1, 40), rng.integers(1, 70)
            scale = 10.0 ** rng.uniform(-3, 3)
            offset = rng.choice([0.0, 1e6])
            x = rng.normal(size=(n, d)) * scale + offset
            c = rng.normal(size=(k, d)) * scale + offset
            a = rng.integers(0, k, n)
            x0, c0 = x.copy(), c.copy()
            got = clustering._objective(x, c, a)
            assert repr(got) == repr(objective_oracle(x, c, a))
            assert x.tobytes() == x0.tobytes() and c.tobytes() == c0.tobytes()


class TestKmeansUpdate:
    @staticmethod
    def check(x, k, seed, tol=1e-6):
        want_c, want_a, want_it, repairs, want_trace = kmeans_single_oracle(
            x, k, seed, clustering._MAX_ITER, tol)
        got = clustering._kmeans_single(x, clustering._sq_norms(x), k, seed,
                                        tol)
        assert got.iterations == want_it
        assert got.centroids.tobytes() == want_c.tobytes()
        assert np.array_equal(got.assignments, want_a)
        assert list(map(repr, got.objective_trace)) == list(map(repr,
                                                                want_trace))
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

    def test_full_kmeans_on_wide_shaped_blobs(self):
        rng = np.random.default_rng(26)
        x = blobs(rng, 600, 64, 25)
        want_c, want_a, want_it, _, want_trace = kmeans_single_oracle(
            x, 25, 3, 300, 1e-6)
        got = clustering.kmeans(x, 25, seed=3)
        assert got.centroids.tobytes() == want_c.tobytes()
        assert got.assignments.tobytes() == want_a.tobytes()
        assert got.iterations == want_it and got.converged
        assert list(map(repr, got.objective_trace)) == list(map(repr,
                                                                want_trace))
        assert repr(got.objective) == repr(want_trace[-1])


class TestKmeansBlocks:
    """Every k-means pass takes its rows in blocks of at most _BLOCK values.
    With _BLOCK at 120, 6-dimensional rows come 20 to a block, 4 GEMM
    distances 30 to a block and 4 x 6 differences 5 to a block, so 61 and
    62 rows span at least 3 blocks of each width and end in a 2-row tail,
    which at 61 rows takes a row from the block before it; every result
    keeps the oracle's bits."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(clustering, "_BLOCK", 120)

    @pytest.mark.parametrize("n", [61, 62])
    def test_assign(self, n):
        rng = np.random.default_rng(n)
        x = blobs(rng, n, 6, 4) + 1e6
        c = x[rng.choice(n, 4, replace=False)] + rng.normal(size=(4, 6))
        assert np.array_equal(assign(x, c), assign_oracle(x, c))
        # duplicated centroids send every row to the exact form
        c = np.vstack([c[:2], c[:2]])
        assert np.array_equal(assign(x, c), assign_oracle(x, c))
        # so does a GEMM distance that overflows
        x = near_overflow(rng, n, 6)
        c = x[:4]
        want = assign_oracle(x, c)
        assert len(np.unique(want)) > 1
        assert np.array_equal(assign(x, c), want)

    @pytest.mark.parametrize("budget", [24, 48])
    def test_exact_assign_in_blocks_of_one_or_two_rows(self, monkeypatch,
                                                       budget):
        # 4 x 6 differences take 1 or 2 rows a block, and duplicated
        # centroids send every row to the exact form
        monkeypatch.setattr(clustering, "_BLOCK", budget)
        rng = np.random.default_rng(budget)
        x = blobs(rng, 61, 6, 4) + 1e6
        c = x[rng.choice(61, 2, replace=False)] + rng.normal(size=(2, 6))
        c = np.vstack([c, c])
        assert np.array_equal(assign(x, c), assign_oracle(x, c))

    @pytest.mark.parametrize("n", [61, 62])
    def test_kmeans_pp_init(self, n):
        rng = np.random.default_rng(n)
        TestKmeansPPInit.check(blobs(rng, n, 6, 4) + 1e6, 4)
        TestKmeansPPInit.check(near_overflow(rng, n, 6), 4)

    @pytest.mark.parametrize("n", [61, 62])
    def test_objective(self, n):
        rng = np.random.default_rng(n)
        x = blobs(rng, n, 6, 4) + 1e6
        c = rng.normal(size=(4, 6)) + 1e6
        a = rng.integers(0, 4, n)
        assert repr(clustering._objective(x, c, a)) == repr(
            objective_oracle(x, c, a))

    @pytest.mark.parametrize("d, sizes", [
        (6, [40, 20, 1]),    # 20 rows, then 19 and a 1-row tail
        (6, [41, 19, 2]),    # 20 rows, then 19 and a 2-row tail
        (2, [130, 1, 1]),    # 60 rows, then 59 and 11
        (1, [200, 30, 5]),   # one column, gathered whole
    ])
    def test_update_sums_clusters_larger_than_a_block(self, d, sizes):
        # the last of k = 4 clusters is empty, so a repair runs over every row
        rng = np.random.default_rng(sum(sizes) + d)
        x = rng.normal(size=(sum(sizes), d)) * 1e3 + 1e6
        a = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        c = rng.normal(size=(4, d))
        want_a = a.copy()
        want, repairs = update_oracle(x, c, want_a)
        got = clustering._update(x, c, a)
        assert repairs == 1
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(a, want_a)

    @pytest.mark.parametrize("n", [61, 62])
    def test_kmeans(self, n):
        rng = np.random.default_rng(n)
        for seed in range(3):
            TestKmeansUpdate.check(blobs(rng, n, 6, 4), 4, seed)
        # 3 distinct rows for 6 clusters: the repairs run over 3 blocks
        base = rng.normal(size=(3, 6))
        x = np.repeat(base, [n - 30, 20, 10], axis=0)
        assert sum(TestKmeansUpdate.check(x, 6, seed) for seed in range(3)) > 0
        want_c, want_a, _, _, want_trace = kmeans_single_oracle(
            x, 6, 5, clustering._MAX_ITER, 1e-6)
        got = clustering.kmeans(x, 6, seed=5)
        assert got.centroids.tobytes() == want_c.tobytes()
        assert np.array_equal(got.assignments, want_a)
        assert repr(got.objective) == repr(want_trace[-1])


@pytest.mark.parametrize("n, k", [(6000, 50), (20000, 5), (3200, 100)])
def test_kmeans_peak_is_a_few_blocks_beyond_its_input(n, k):
    rng = np.random.default_rng(k)
    x = blobs(rng, n, 64, k)
    tracemalloc.start()
    try:
        clustering.kmeans(x, k, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few 256 KB blocks and a few (n,) vectors; one (n, 64) copy of the
    # rows would take 3.1 MB at n = 6,000
    assert peak <= 1.5e6


class TestHerding:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(300, 64))
        assert herd_cluster_oracle(feats, 20) == _herd_brute(feats, 20)

    def test_matches_loop_with_ties(self):
        rng = np.random.default_rng(6)
        for d in (1, 3, 17):
            feats = rng.integers(-2, 3, size=(60, d)).astype(float)
            assert herd_cluster_oracle(feats, 25) == herd_loop_oracle(feats, 25)


class TestOnePassHerding:
    """select_exemplars_herding runs every cluster in one pass; the
    per-cluster loop over herd_cluster_oracle is the reference."""

    @staticmethod
    def check(feats, assignments, q):
        n = len(assignments)
        store = labeling.select_exemplars_herding(feats, assignments,
                                                  assignments + 1000, q,
                                                  np.arange(n) * 3 + 5)
        want = herding_append_oracle(feats, assignments, assignments + 1000,
                                     q, np.arange(n) * 3 + 5)
        assert (store.ids.tolist(), store.labels.tolist()) == want

    @staticmethod
    def assignments(rng, n, q):
        """Non-contiguous cluster ids with a size-1 cluster and clusters
        below and above q."""
        sizes = [1, max(1, q // 2), q, q + 1, 3 * q]
        sizes += list(rng.integers(1, 3 * q, n - len(sizes)))
        ids = rng.choice(1000, size=len(sizes), replace=False) - 300
        return rng.permutation(np.repeat(ids, sizes))

    @pytest.mark.parametrize("d", [1, 3, 17])
    def test_tie_heavy_integer_features(self, d):
        rng = np.random.default_rng(d)
        for q in (1, 2, 5, 20):
            a = self.assignments(rng, 8, q)
            feats = rng.integers(-2, 3, size=(len(a), d)).astype(float)
            self.check(feats, a, q)

    def test_duplicate_rows_and_offset(self):
        # whole clusters of repeated rows far from the origin: every round
        # is a tie, decided by the lowest row
        rng = np.random.default_rng(12)
        a = self.assignments(rng, 10, 6)
        base = rng.integers(0, 2, size=(4, 5)).astype(float) + 1e6
        self.check(base[rng.integers(0, 4, len(a))], a, 6)

    def test_normal_features_64d(self):
        rng = np.random.default_rng(13)
        for q in (1, 7, 20):
            a = self.assignments(rng, 30, q)
            feats = rng.normal(size=(len(a), 64)) * 3.0 + rng.normal(size=64)
            self.check(feats, a, q)

    def test_nonnegative_features_like_relu_outputs(self):
        rng = np.random.default_rng(14)
        a = self.assignments(rng, 50, 20)
        feats = np.maximum(rng.normal(size=(len(a), 64)), 0.0)
        self.check(feats, a, 20)


class TestSelectExemplars:
    def cases(self):
        """Non-contiguous cluster ids, clusters smaller and larger than q,
        and sample ids that are not row numbers."""
        rng = np.random.default_rng(10)
        for trial in range(20):
            n = int(rng.integers(1, 80))
            cluster_ids = rng.choice(50, size=int(rng.integers(1, 6)),
                                     replace=False)
            assignments = rng.choice(cluster_ids, size=n)
            pseudo_labels = assignments + 3 * trial
            sample_ids = rng.permutation(10 * n)[:n] + 1000
            yield (rng.normal(size=(n, 4)), assignments, pseudo_labels,
                   int(rng.integers(1, 12)), sample_ids)

    @staticmethod
    def check(store, want, q):
        assert store.q == q
        assert store.ids.dtype == store.labels.dtype == np.dtype(int)
        assert (store.ids.tolist(), store.labels.tolist()) == want

    def test_herding_matches_append_loop(self):
        for feats, a, labels, q, sample_ids in self.cases():
            self.check(labeling.select_exemplars_herding(feats, a, labels, q,
                                                         sample_ids),
                       herding_append_oracle(feats, a, labels, q, sample_ids),
                       q)

    def test_random_matches_append_loop(self):
        for seed, (_, a, labels, q, sample_ids) in enumerate(self.cases()):
            self.check(labeling.select_exemplars_random(a, labels, q, seed,
                                                        sample_ids),
                       random_append_oracle(a, labels, q, seed, sample_ids), q)

    def test_default_sample_ids_are_row_numbers(self):
        a = np.array([4, 9, 4, 9, 4])
        feats = np.arange(5.0)[:, None]
        self.check(labeling.select_exemplars_herding(feats, a, a, 2),
                   herding_append_oracle(feats, a, a, 2, np.arange(5)), 2)
        self.check(labeling.select_exemplars_random(a, a, 2, 0),
                   random_append_oracle(a, a, 2, 0, np.arange(5)), 2)

    def test_empty_input_gives_empty_store(self):
        none = np.empty(0, dtype=int)
        self.check(labeling.select_exemplars_herding(np.empty((0, 3)), none,
                                                     none, 4), ([], []), 4)
        self.check(labeling.select_exemplars_random(none, none, 4, 0),
                   ([], []), 4)


class TestHungarian:
    @pytest.mark.parametrize("k", [20, 100, 200])
    def test_tie_heavy_contingency(self, k):
        rng = np.random.default_rng(k)
        cost = -rng.integers(0, 4, size=(k, k)).astype(float)
        want, want_total = hungarian_oracle(cost)
        got = metrics.hungarian(cost)
        assert np.array_equal(got, want)
        assert float(sum(cost[np.arange(k), got])) == want_total

    def test_rectangular_against_brute_force(self):
        rng = np.random.default_rng(15)
        for _ in range(150):
            r = int(rng.integers(1, 5))
            c = int(rng.integers(r, 7))
            if rng.random() < 0.5:
                cost = rng.integers(0, 3, size=(r, c)).astype(float)
            else:
                cost = rng.normal(size=(r, c))
            got = metrics.hungarian(cost)
            assert got.shape == (r,)
            assert len(set(got.tolist())) == r
            assert got.min() >= 0 and got.max() < c
            assert np.isclose(float(sum(cost[np.arange(r), got])),
                              assignment_brute(cost), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 8), (8, 3), (7, 7),
                                       (20, 60), (60, 20), (40, 40)])
    def test_matched_count_against_padded_square(self, shape):
        rng = np.random.default_rng(shape)
        for high in (2, 4, 50):  # tie-heavy to spread
            table = rng.integers(0, high, size=shape)
            assert metrics._matched_count(table) == matched_count_oracle(table)


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


class TestEvalSplit:
    """Dataset groups the rows with one argsort; the per-class scans are
    the oracle."""

    @staticmethod
    def outcome(fn, labels):
        try:
            return fn(labels).tobytes()
        except data.FormatError as exc:
            return str(exc)

    def test_same_split_and_first_failing_class(self):
        rng = np.random.default_rng(27)
        fails = 0
        for trial in range(60):
            n_classes = int(rng.integers(1, 40))
            # non-contiguous, negative and shuffled class ids, some classes
            # of one sample
            ids = rng.choice(500, size=n_classes, replace=False) - 200
            sizes = rng.integers(1 if trial % 3 == 0 else 2, 30, n_classes)
            labels = rng.permutation(np.repeat(ids, sizes))
            want = self.outcome(lambda y: eval_mask_oracle(
                y, data.EVAL_FRACTION, data.SPLIT_SEED), labels)
            got = self.outcome(lambda y: data.Dataset(
                np.arange(len(y)), np.zeros((len(y), 1)), y).is_eval, labels)
            assert got == want
            fails += isinstance(want, str)
        assert 0 < fails < 60


class TestTrueSlots:
    def test_matches_dict_lookup_with_one_label_read(self):
        rng = np.random.default_rng(9)
        labels = 7 * (np.arange(240) % 12) + 3  # class ids 3, 10, ..., 80
        ds = data.Dataset(rng.permutation(240), rng.normal(size=(240, 2)),
                          labels)
        for classes in protocol.split_tasks(ds, 4, arrangement_seed=5):
            ids = ds.ids_for_classes(classes, eval_split=False)
            true = ds.sealed._peek()[ds.positions(ids)]
            slot_of = {int(c): i for i, c in enumerate(classes)}
            want = np.array([slot_of[int(y)] for y in true])
            before = ds.sealed.access_count
            got = protocol._true_slots(ds, classes, ids)
            assert ds.sealed.access_count == before + 1
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRowBlocks:
    """Every pass over rows takes them in nn._row_blocks, and the feature
    passes' bytes are those of one pass over every row: blocks of two or
    more rows take the matrix-matrix kernel a whole pass takes, so a 1-row
    tail takes a row from the block before it."""

    # k-means' exact pass in _assign takes blocks of 1 or 2 rows when
    # k * d > 2^15 / 3, where no block can give a row to the tail
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 7, 512])
    def test_blocks_cover_rows_with_no_single_row_tail(self, block):
        assert nn._row_blocks(0, block) == []
        for n in [*range(1, 5 * block + 2), 2 * block + 1, 3 * block + 1]:
            spans = nn._row_blocks(n, block)
            assert [i for s in spans for i in range(n)[s]] == list(range(n))
            sizes = [s.stop - s.start for s in spans]
            assert all(1 <= size <= block for size in sizes)
            if block < 3:
                assert sizes[:-1] == [block] * (len(sizes) - 1)
            else:
                assert n < 2 or min(sizes) >= 2

    @pytest.mark.parametrize("dims", [(16, 64, 2), (64, 64, 2), (6, 16, 1)],
                             ids=["standard", "wide", "small"])
    @pytest.mark.parametrize("n", [513, 1025])
    def test_tail_features_match_one_shot(self, dims, n):
        # n = 1 (mod _ROW_BLOCK): 512-row blocks would leave one row
        d, width, n_hidden = dims
        rng = np.random.default_rng(n)
        ds = data.Dataset(rng.permutation(2 * n), rng.normal(size=(2 * n, d)),
                          np.zeros(2 * n, dtype=int))
        ids = rng.permutation(ds.ids)[:n]
        model = nn.init_model(d, width, n_hidden, 5, seed=n)
        want = nn.extract_features(model, ds.features_for(ids))
        got = protocol._row_features(model, ds, ids)
        assert got.tobytes() == want.tobytes()


class TestUnitRows:
    """_unit_rows scales rows by np.linalg.norm's norms, taken by its own
    formula a block of rows at a time."""

    @staticmethod
    def oracle(feats):
        return feats / np.maximum(np.linalg.norm(feats, axis=1, keepdims=True),
                                  1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 16, 64, 65])
    def test_same_bytes_as_linalg_norm(self, d):
        rng = np.random.default_rng(d)
        for n in [0, 1, 2, 511, 512, 513, 1025, 1500]:
            scale = 10.0 ** rng.integers(-3, 4, (n, 1))
            feats = rng.normal(size=(n, d)) * scale
            feats[::7] = 0.0  # zero rows divide by the floor
            want = self.oracle(feats)
            got = protocol._unit_rows(feats.copy())
            assert got.tobytes() == want.tobytes()

    def test_holds_a_block_beyond_its_input(self):
        feats = np.random.default_rng(0).normal(size=(4800, 64))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            protocol._unit_rows(feats)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # a block of squares and a few per-row vectors; np.linalg.norm took
        # 2.5 MB
        assert peak <= nn._ROW_BLOCK * 64 * 8 + 16384


class TestLeanBackward:
    def test_same_bytes_as_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n_hidden = trial % 3
            m = int(rng.integers(1, 8))
            model = nn.init_model(6, 9, n_hidden, m + int(rng.integers(1, 5)),
                                  seed=trial)
            batch = int(rng.integers(1, 40))
            x = rng.normal(size=(batch, 6)) * 3.0
            t = rng.normal(size=(batch, m + 2)) * 3.0
            y = rng.integers(0, model.out_dim, batch)
            alpha, temp = (0.0, 1.0) if trial % 4 == 0 else (m / (m + 2), 2.0)
            want = backward_oracle(model, x, t, y, alpha, temp, m)
            got = nn.backward(model, x, nn.softened_probs(t[:, :m], temp), y,
                              alpha, temp, m)
            assert repr(got[0]) == repr(want[0])
            assert got[1].tobytes() == want[1].tobytes()


def forward_no_row_alone(model, x):
    """nn.forward of rows ``x``, a single row taken as two copies of
    itself, so no row goes through BLAS's matrix-vector kernel."""
    return nn.forward(model, x if len(x) > 1 else np.repeat(x, 2, 0))[:len(x)]


class TestTrainLoop:
    """Training takes the frozen teacher's probabilities from one teacher
    pass a step; the per-batch loop it replaced is the oracle. A step
    trains m + 5 classes with a teacher of m on 64-wide features: m of 5 to
    15, as on the benchmark's standard run, keeps a table of the teacher's
    probabilities, and m of 100, as on its wide run, the teacher's features.
    _train reads the merged rows by position in a larger feature array; the
    oracle gets them gathered."""
    BATCH = 32

    def step_inputs(self, m, rows, batch=BATCH):
        rng = np.random.default_rng(rows)
        teacher = nn.init_model(16, 64, 2, m, seed=3)
        features = rng.normal(size=(2 * rows, 16)) * 2.0
        pos = rng.permutation(2 * rows)[:rows]
        y = rng.integers(0, m + 5, rows)
        cfg = RunConfig(epochs=4, lr_decay_period=2, batch_size=batch)
        return (nn.expand_head(teacher, 5, seed=4), features, pos, y, teacher,
                cfg)

    def train_both(self, m, rest, forward=nn.forward, batch=BATCH):
        student, features, pos, y, teacher, cfg = self.step_inputs(
            m, 5 * batch + rest, batch)
        got = nn.Model(student.dims, student.params.copy())
        protocol._train(got, features, pos, y,
                        protocol._teacher_probs(teacher, features, pos, cfg),
                        m, 5, cfg, 2, range(cfg.epochs), cfg.epochs)
        x = features[pos]
        want = train_oracle(nn.Model(student.dims, student.params.copy()),
                            x, y, teacher, m, 5, cfg, 2, forward)
        return got.params, want.params

    @pytest.mark.parametrize("m, rest", [(5, 0), (10, 0), (15, 0), (5, 2),
                                         (5, BATCH - 1), (15, 2), (100, 0),
                                         (100, 2), (100, BATCH - 1)])
    def test_params_match_per_batch_loop(self, m, rest):
        got, want = self.train_both(m, rest)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, rest", [(5, 1), (10, 2), (10, 3)])
    def test_partial_last_batch_within_rounding(self, m, rest):
        # the oracle forwards each epoch's last `rest` rows as one product,
        # and the teacher's rows that fall in the BLAS kernel's row tail can
        # round differently from the same rows in a full block: a single
        # row goes to a matrix-vector kernel, and with a 10-wide head
        # OpenBLAS's tail rows differ in the last bit
        got, want = self.train_both(m, rest)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 2, BATCH])
    def test_no_teacher_row_computed_alone(self, batch):
        # 5 * batch + 1 rows leave each epoch a 1-row minibatch; with the
        # teacher's features kept, its head product is taken over the row
        # twice, as the oracle's forward of two copies of a 1-row minibatch
        got, want = self.train_both(100, 1, forward_no_row_alone, batch)
        assert got.tobytes() == want.tobytes()

    def test_teacher_forwarded_once_per_step(self, monkeypatch):
        # one pass over the merged rows in blocks of two or more, none
        # while training, on both paths: a teacher of 5 classes keeps its
        # probabilities, one of 100 its features
        rows = []
        real = nn.extract_features

        def counting(model, xb):
            rows.append(len(xb))
            return real(model, xb)

        monkeypatch.setattr(nn, "extract_features", counting)
        for m, batch, rest in itertools.product(
                [5, 100], [1, 2, self.BATCH], [0, 1, 2]):
            student, features, pos, y, teacher, cfg = self.step_inputs(
                m, 5 * batch + rest, batch)
            rows.clear()
            probs = protocol._teacher_probs(teacher, features, pos, cfg)
            assert sum(rows) == len(pos) and min(rows) >= 2
            protocol._train(student, features, pos, y, probs, m, 5, cfg, 2,
                            range(cfg.epochs), cfg.epochs)
            assert sum(rows) == len(pos)

    def test_feature_path_holds_no_probability_table(self):
        # 2,000 rows of a teacher of 200 classes on 64 features: the
        # (rows x 200) probabilities are 3.2 MB, its features 1.0 MB
        student, features, pos, y, teacher, cfg = self.step_inputs(200, 2000)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            probs = protocol._teacher_probs(teacher, features, pos, cfg)
            held = tracemalloc.get_traced_memory()[0] - start
            protocol._train(student, features, pos, y, probs, 200, 5, cfg, 2,
                            range(1), 1)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        table = len(pos) * 200 * 8
        assert held <= len(pos) * 64 * 8 + 4096
        assert peak < table


def csv_rows_oracle(ids, labels, features):
    """Dataset CSV rows as one bytes template of %.17g fields formats
    them, a row at a time."""
    template = b"%d,%d," + b",".join([b"%.17g"] * features.shape[1]) + b"\n"
    return b"".join(template % (i, y, *f) for i, y, f in zip(
        ids.tolist(), labels.tolist(), features.tolist()))


def halfway_values(rng, count):
    """(k, v) for float64 values v exactly halfway between two decimals of
    17 significant digits and decimal exponent k, -4 <= k <= 15: with
    g = 16 - k, (D + 1/2) * 10**-g is m * 2**(k - 17) for the odd
    m = (2D + 1) / 5**g, a float64 when m < 2**53."""
    values = []
    for k in range(-4, 16):
        g = 16 - k
        low = -(-2 * 10 ** 16 // 5 ** g) | 1   # first odd m, 2D + 1 >= 2e16
        high = min((2 * 10 ** 17 - 1) // 5 ** g, 2 ** 53 - 1)
        for _ in range(count):
            m = low + 2 * int(rng.integers((high - low) // 2 + 1))
            values.append((k, math.ldexp(m, k - 17)))
    return values


class TestCsvRows:
    """data._csv_rows, which builds the digits of most features with numpy,
    against the per-row %.17g template."""

    BLOCK = data._CSV_BLOCK_ROWS

    def assert_same_rows(self, values, d=64, seed=0):
        """The values with both signs, shuffled, d to a row, give the
        template's bytes. Those that %.17g prints in fixed notation fill
        rows of their own, which take the digit path; a row holding any
        other value is %-formatted whole."""
        rng = np.random.default_rng(seed)
        values = np.array(values, dtype=np.float64)
        values = np.concatenate([values, -values])
        exponent = np.array([b"e" in b"%.17g" % v for v in values.tolist()])
        # only what %.17g prints with an exponent misses the digit path
        key, _ = data._fixed_digits(values)
        assert ((key == 21) == exponent).all()
        values = np.concatenate([rng.permutation(values[~exponent]),
                                 rng.permutation(values[exponent])])
        values = np.resize(values, (-(-len(values) // d), d))
        ids = rng.permutation(len(values)) - 7
        labels = rng.integers(0, 5, len(values))
        assert data._csv_rows(ids, labels, values) == csv_rows_oracle(
            ids, labels, values)

    def test_random_bits_of_every_exponent(self):
        rng = np.random.default_rng(1)
        exponents = np.repeat(np.arange(2047, dtype=np.uint64), 16)
        fraction_bits = rng.integers(0, 2 ** 52, len(exponents),
                                     dtype=np.uint64)
        patterns = (exponents << np.uint64(52)) | fraction_bits
        extremes = [0.0, 5e-324, 2.2250738585072009e-308,
                    2.2250738585072014e-308, 1.7976931348623157e308]
        self.assert_same_rows([*patterns.view(np.float64), *extremes])

    def test_decades(self):
        rng = np.random.default_rng(2)
        values = [10.0 ** p * m for p in range(-12, 19)
                  for m in [1.0, *rng.uniform(1, 10, 40)]]
        self.assert_same_rows(values)

    def test_next_to_every_power_of_ten(self):
        # %g switches notation where the rounded exponent leaves -4..16
        values = [float(f"1e{p}") for p in range(-8, 20)]
        for _ in range(3):
            values = [*values, *np.nextafter(values, 0),
                      *np.nextafter(values, np.inf)]
        texts = {b"%.17g" % v for v in values}
        assert b"0.0001" in texts and b"9.9999999999999991e-05" in texts
        assert b"1e+17" in texts and b"99999999999999984" in texts
        self.assert_same_rows(values)

    def test_halfway_cases_round_to_even(self):
        cases = halfway_values(np.random.default_rng(3), 200)
        parities = set()
        for k, v in cases:
            scaled = fractions.Fraction(v) * 10 ** (16 - k)
            assert scaled.denominator == 2  # exactly halfway
            parities.add(int(scaled) % 2)
        assert parities == {0, 1}  # ties both round down and round up
        self.assert_same_rows([v for _, v in cases])

    def test_scaled_is_exact_from_1e16(self):
        # x = a * 10**(16 - k) in [1e16, 1e17) for every k: at random,
        # within 3 ulps of 10**16 and 10**17, and exactly halfway
        rng = np.random.default_rng(8)
        cases = []
        for k in range(-4, 17):
            near = np.array([float(fractions.Fraction(c, 10 ** (16 - k)))
                             for c in (10 ** 16, 10 ** 17)])
            for _ in range(3):
                near = np.concatenate([near, np.nextafter(near, 0),
                                       np.nextafter(near, np.inf)])
            cases += [(k, a) for a in [*np.unique(near).tolist(),
                                       *(10.0 ** rng.uniform(k, k + 1,
                                                             200)).tolist()]
                      if 10 ** 16 <= fractions.Fraction(a) * 10 ** (16 - k)
                      < 10 ** 17]
        cases += halfway_values(rng, 20)
        ks, values = zip(*cases)
        rounded = data._scaled(np.array(values), np.array(ks))
        tie_parities = set()
        for k, a, r_i in zip(ks, values, rounded.tolist()):
            x = fractions.Fraction(a) * 10 ** (16 - k)
            assert r_i == round(x), (k, a)  # Fraction rounds half to even
            if x.denominator == 2:
                tie_parities.add(math.floor(x) % 2)
        assert tie_parities == {0, 1}  # ties both round down and round up

    def test_int64_extreme_ids_and_labels(self):
        extremes = np.array([-2 ** 63, 2 ** 63 - 1, -1, 0, 1])
        features = np.random.default_rng(4).standard_normal((5, 3))
        assert data._csv_rows(extremes, extremes[::-1], features) == \
            csv_rows_oracle(extremes, extremes[::-1], features)

    @pytest.mark.parametrize("d", [1, 64])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_row_counts(self, tmp_path, n, d):
        rng = np.random.default_rng(n + d)
        features = rng.standard_normal((n, d)) * 10.0 ** rng.integers(
            -6, 19, (n, d))
        ids, labels = np.arange(n), np.arange(n) % 2
        want = csv_rows_oracle(ids, labels, features)
        assert data._csv_rows(ids, labels, features) == want
        if n > 1:  # a Dataset needs a training row besides its eval row
            path = tmp_path / "ds.csv"
            data.save_dataset(data.Dataset(ids, features, labels, seed=3),
                              str(path))
            header = ",".join(["id", "label", *(f"f{i}" for i in range(d))])
            assert path.read_bytes() == (f"# seed=3\n{header}\n".encode()
                                         + want)

    def test_values_outside_fixed_notation(self, tmp_path):
        spec = config.BlobSpec(num_classes=3, dim=5, samples_per_class=200,
                               separation=1e18, std=0.15, seed=5,
                               signal_dims=2, noise_std=1e-7)
        ds = data.generate_gaussian_stream(spec)
        extremes = np.array([5e-324, 2.2250738585072009e-308, 1e300])
        ds.features[:3, 2:] = np.resize(extremes, (3, 3))
        key, _ = data._fixed_digits(ds.features.ravel())
        assert (key == 21).all()  # every value takes the %.17g fallback
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, str(path))
        assert path.read_bytes().split(b"\n", 2)[2] == csv_rows_oracle(
            ds.ids, ds.sealed._peek(), ds.features)
        # blocks whose rows all, half or none hold such a value, in turn
        n = 3 * self.BLOCK
        features = np.random.default_rng(9).standard_normal((n, 4))
        features[:self.BLOCK] *= 1e20
        features[self.BLOCK:2 * self.BLOCK:2, 1] *= 1e-9
        key, _ = data._fixed_digits(features.ravel())
        outside = (key == 21).reshape(n, 4).any(axis=1)
        assert outside.reshape(3, -1).sum(axis=1).tolist() == [
            self.BLOCK, self.BLOCK // 2, 0]
        ds = data.Dataset(np.arange(n), features, np.arange(n) % 3, seed=5)
        data.save_dataset(ds, str(path))
        assert path.read_bytes().split(b"\n", 2)[2] == csv_rows_oracle(
            ds.ids, ds.sealed._peek(), ds.features)

    def test_streams_one_block_at_a_time(self, tmp_path, monkeypatch):
        n = 5 * self.BLOCK
        ds = data.Dataset(np.arange(n), np.random.default_rng(6)
                          .standard_normal((n, 4)), np.arange(n) % 4, seed=1)
        path = tmp_path / "ds.csv"
        chunks = []
        real = data._write_atomic

        def spy(target, parts, mode="w"):
            if target == str(path):
                assert not isinstance(parts, (list, tuple))
                parts = (chunks.append(part) or part for part in parts)
            real(target, parts, mode)

        monkeypatch.setattr(data, "_write_atomic", spy)
        data.save_dataset(ds, str(path))
        blob = path.read_bytes()
        assert b"".join(chunks) == blob
        assert [chunk.count(b"\n") for chunk in chunks] == [2] + [
            self.BLOCK] * 5
        sealed = (tmp_path / "ds.csv.parsed").read_bytes()
        header = json.loads(sealed[16:16 + int.from_bytes(sealed[8:16],
                                                          "little")])
        assert header["csv_sha256"] == hashlib.sha256(blob).hexdigest()
