import itertools

import numpy as np
import pytest

from pseudocl import clustering


def brute_force_kmeans(x, k):
    """Exhaustive search over all assignments of n points to k clusters."""
    n = x.shape[0]
    best_obj = np.inf
    best_centroids = None
    for assign in itertools.product(range(k), repeat=n):
        assign = np.array(assign)
        if len(np.unique(assign)) < k:
            continue
        centroids = np.array([x[assign == j].mean(axis=0) for j in range(k)])
        diff = x - centroids[assign]
        obj = float(np.mean(np.sum(diff * diff, axis=1)))
        if obj < best_obj:
            best_obj = obj
            best_centroids = centroids
    return best_obj, best_centroids


class TestKmeans:
    def test_well_separated_pairs_on_a_line(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = clustering.kmeans(x, 2, seed=0)
        got = sorted(res.centroids[:, 0].tolist())
        assert got == [0.5, 10.5]
        assert np.isclose(res.objective, 0.25, atol=1e-12)
        assert res.converged

    def test_matches_exhaustive_partition_search(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 2))
        expected_obj, _ = brute_force_kmeans(x, 2)
        res = clustering.kmeans(x, 2, seed=0, n_restarts=8)
        assert np.isclose(res.objective, expected_obj, rtol=1e-10)

    def test_single_cluster_is_global_mean(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((20, 3))
        res = clustering.kmeans(x, 1, seed=5)
        assert np.allclose(res.centroids[0], x.mean(axis=0), atol=1e-12)
        assert np.all(res.assignments == 0)

    def test_k_equals_n_gives_zero_objective(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        res = clustering.kmeans(x, 4, seed=3, n_restarts=4)
        assert res.objective <= 1e-20
        assert len(np.unique(res.assignments)) == 4

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(13)
        x = np.vstack([rng.normal(c, 0.4, (30, 4)) for c in (0.0, 3.0, -3.0)])
        res = clustering.kmeans(x, 3, seed=1)
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((40, 5))
        a = clustering.kmeans(x, 4, seed=9)
        b = clustering.kmeans(x, 4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_restarts_never_increase_objective(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((25, 3))
        one = clustering.kmeans(x, 5, seed=2, n_restarts=1)
        many = clustering.kmeans(x, 5, seed=2, n_restarts=6)
        assert many.objective <= one.objective + 1e-12

    def test_duplicate_points_still_fill_all_clusters(self):
        x = np.zeros((6, 2))
        x[5] = [1.0, 1.0]
        res = clustering.kmeans(x, 2, seed=0)
        assert len(np.unique(res.assignments)) == 2

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            clustering.kmeans(np.zeros((2, 2)), 3)

    def test_non_finite_points_rejected(self):
        x = np.zeros((4, 2))
        x[1, 0] = np.nan
        with pytest.raises(ValueError):
            clustering.kmeans(x, 2)

    @pytest.mark.parametrize("rows, value", [(4, 1e155), (1000, 1e153)],
                             ids=["norms-overflow", "distance-total-overflows"])
    def test_overflowing_squared_norms_rejected(self, rows, value):
        # |x|^2 = 2e310 overflows; at 1e153 it is 2e306, but the seeding's
        # distance total over 1,000 rows could reach 8e309
        with pytest.raises(ValueError, match="squared norms overflow"):
            clustering.kmeans(np.full((rows, 2), value), 2)

    @pytest.mark.parametrize("points, k, n_restarts, message", [
        (np.zeros(4), 2, 1, "2-D"), (np.zeros((4, 2)), 0, 1, "k must"),
        (np.zeros((4, 2)), 2, 0, "n_restarts must")],
        ids=["1-d-points", "k-zero", "no-restarts"])
    def test_bad_arguments_rejected(self, points, k, n_restarts, message):
        with pytest.raises(ValueError, match=message):
            clustering.kmeans(points, k, n_restarts=n_restarts)


def char_poly_eigvals_2x2(cov):
    """Eigenvalues of a symmetric 2x2 from the characteristic polynomial."""
    a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
    tr, det = a + c, a * c - b * b
    disc = np.sqrt(tr * tr - 4 * det)
    return np.sort([(tr - disc) / 2, (tr + disc) / 2])[::-1]


def eigh_components(x, d_out):
    """Top d_out principal components of rows x, straight from eigh of
    np.cov, each with its largest-magnitude entry positive."""
    evecs = np.linalg.eigh(np.cov(x, rowvar=False))[1][:, ::-1]
    comps = evecs[:, :d_out].T
    pivots = comps[np.arange(d_out), np.argmax(np.abs(comps), axis=1)]
    return comps * np.sign(pivots)[:, None]


def components_of(x, z):
    """The components C behind coordinates z of rows x: the least-squares
    solution of (x - mean) C^T = z, exact when x has full column rank."""
    return np.linalg.lstsq(x - x.mean(axis=0), z, rcond=None)[0].T


class TestPca:
    def test_coordinates_match_eigh_oracle(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((40, 6)) * np.array([4.0, 3.0, 2.0, 1.5, 1.0,
                                                     0.5])
        for d_out in (1, 3, 6):
            z = clustering.pca_coordinates(x, d_out)
            want = (x - x.mean(axis=0)) @ eigh_components(x, d_out).T
            assert z.shape == (40, d_out)
            assert np.allclose(z, want, atol=1e-10)

    def test_explained_variance_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((50, 2)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / (x.shape[0] - 1)
        expected = char_poly_eigvals_2x2(cov)
        explained = np.var(clustering.pca_coordinates(x, 2), axis=0, ddof=1)
        assert np.allclose(explained, expected, rtol=1e-10)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((40, 6))
        comps = components_of(x, clustering.pca_coordinates(x, 4))
        assert np.allclose(comps @ comps.T, np.eye(4), atol=1e-10)

    def test_variance_ordering_non_increasing(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((60, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
        explained = np.var(clustering.pca_coordinates(x, 5), axis=0, ddof=1)
        assert np.all(np.diff(explained) <= 1e-12)

    def test_axis_aligned_data_recovers_dominant_axis(self):
        rng = np.random.default_rng(34)
        x = np.zeros((100, 3))
        x[:, 1] = rng.standard_normal(100) * 10.0
        x[:, 0] = rng.standard_normal(100) * 0.01
        comp = components_of(x, clustering.pca_coordinates(x, 1))[0]
        assert abs(comp[1]) > 0.999
        assert comp[1] > 0  # sign convention

    def test_projection_preserves_pairwise_distances_at_full_rank(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((10, 4))
        z = clustering.pca_coordinates(x, 4)
        orig = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        proj = np.linalg.norm(z[:, None] - z[None, :], axis=2)
        assert np.allclose(orig, proj, atol=1e-9)

    def test_projection_reconstruction_identity(self):
        rng = np.random.default_rng(36)
        x = rng.standard_normal((30, 3))
        z = clustering.pca_coordinates(x, 3)
        back = z @ eigh_components(x, 3) + x.mean(axis=0)
        assert np.allclose(back, x, atol=1e-10)

    def test_deterministic_sign_fix(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((50, 4))
        a = clustering.pca_coordinates(x, 3)
        b = clustering.pca_coordinates(x.copy(), 3)
        assert np.array_equal(a, b)
        for row in components_of(x, a):
            assert row[np.argmax(np.abs(row))] > 0

    def test_bad_output_dim_rejected(self):
        x = np.zeros((5, 3))
        with pytest.raises(ValueError):
            clustering.pca_coordinates(x, 4)
        with pytest.raises(ValueError):
            clustering.pca_coordinates(x, 0)

    def test_one_point_rejected(self):
        with pytest.raises(ValueError, match="two points"):
            clustering.pca_coordinates(np.ones((1, 3)), 1)
