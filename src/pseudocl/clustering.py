"""Clustering backends: Lloyd K-means and PCA."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ClusterResult:
    centroids: np.ndarray          # (k, d)
    assignments: np.ndarray        # (n,) int
    objective: float               # mean squared distance to assigned centroid
    iterations: int
    converged: bool
    objective_trace: list[float] = field(default_factory=list)


@dataclass
class PcaBasis:
    components: np.ndarray         # (d_out, d), orthonormal rows
    mean: np.ndarray               # (d,)


def _validate_points(points: np.ndarray, k: int) -> np.ndarray:
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if x.shape[0] < k:
        raise ValueError(f"{x.shape[0]} points cannot form {k} clusters")
    if not np.all(np.isfinite(x)):
        raise ValueError("points contain non-finite values")
    return x


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row, lowest index on ties.

    The screen uses the GEMM form |x|^2 - 2 x.c + |c|^2. Its rounding error
    and that of the exact form sum((x - c)^2) are each below
    (d + 3) eps (|x|^2 + |c|^2). A row whose two smallest GEMM distances
    differ by more than four times that bound (with the largest |c|^2)
    therefore has the same argmin under both forms; the remaining rows are
    decided by the exact form.
    """
    xx = np.einsum("ij,ij->i", x, x)
    cc = np.einsum("ij,ij->i", centroids, centroids)
    d2 = xx[:, None] - 2.0 * (x @ centroids.T) + cc
    best = np.argmin(d2, axis=1)
    if centroids.shape[0] > 1:
        two = np.partition(d2, 1, axis=1)
        slack = 4 * (x.shape[1] + 3) * np.finfo(float).eps * (xx + cc.max())
        near = np.flatnonzero(two[:, 1] - two[:, 0] <= slack)
        if near.size:
            diff = x[near, None, :] - centroids[None, :, :]
            best[near] = np.argmin(np.sum(diff ** 2, axis=2), axis=1)
    return best


def _objective(x: np.ndarray, centroids: np.ndarray,
               assignments: np.ndarray) -> float:
    diff = x - centroids[assignments]
    return float(np.mean(np.sum(diff * diff, axis=1)))


def _update(x: np.ndarray, centroids: np.ndarray,
            assignments: np.ndarray) -> np.ndarray:
    """Lloyd centroid update with empty-cluster repair.

    Repair moves points between clusters, so ``assignments`` is updated in
    place.
    """
    k = centroids.shape[0]
    new_centroids = centroids.copy()
    counts = np.bincount(assignments, minlength=k)
    ends = np.cumsum(counts)
    # each cluster's rows in index order, as one contiguous block, so the
    # block mean sums in the same order as x[assignments == j].mean(0)
    grouped = x[np.argsort(assignments, kind="stable")]
    for j in np.flatnonzero(counts):
        new_centroids[j] = grouped[ends[j] - counts[j]:ends[j]].mean(axis=0)
    # empty-cluster repair: seed each empty cluster with the point
    # currently farthest from its own centroid (lowest index on ties);
    # a repair that empties a later cluster is repaired in the same pass
    for j in range(k):
        if counts[j]:
            continue
        dists = np.sum((x - new_centroids[assignments]) ** 2, axis=1)
        far = int(np.argmax(dists))
        new_centroids[j] = x[far]
        counts[assignments[far]] -= 1
        counts[j] += 1
        assignments[far] = j
    return new_centroids


def _kmeans_single(x: np.ndarray, k: int, seed: int, max_iter: int,
                   tol: float) -> ClusterResult:
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, k, rng)
    assignments = _assign(x, centroids)
    trace: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        new_centroids = _update(x, centroids, assignments)
        new_assignments = _assign(x, new_centroids)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        assignments = new_assignments
        trace.append(_objective(x, centroids, assignments))
        if shift < tol:
            converged = True
            break
    return ClusterResult(centroids, assignments,
                         trace[-1] if trace else _objective(x, centroids, assignments),
                         it, converged, trace)


_MAX_ITER = 300  # Lloyd iterations per restart


def kmeans(points: np.ndarray, k: int, seed: int = 0, tol: float = 1e-6,
           n_restarts: int = 1) -> ClusterResult:
    """Lloyd iterations from k-means++ init; deterministic given seed."""
    x = _validate_points(points, k)
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    best: ClusterResult | None = None
    for r in range(n_restarts):
        res = _kmeans_single(x, k, seed + r, _MAX_ITER, tol)
        if best is None or res.objective < best.objective:
            best = res
    return best  # type: ignore[return-value]


def pca_fit(points: np.ndarray, d_out: int) -> PcaBasis:
    """Top d_out principal components via full symmetric eigendecomposition."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two points")
    d = x.shape[1]
    if not 1 <= d_out <= d:
        raise ValueError(f"d_out must lie in [1, {d}]")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:d_out]
    components = evecs[:, order].T
    # deterministic sign: largest-magnitude entry of each component positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaBasis(components, mean)


def pca_project(basis: PcaBasis, point: np.ndarray) -> np.ndarray:
    x = np.asarray(point, dtype=float)
    return (x - basis.mean) @ basis.components.T
