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


def _sq_norms(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


def _sum_sq(diff: np.ndarray) -> np.ndarray:
    """Sums of ``diff`` squared along its last axis, the exact form of a
    squared distance when ``diff`` holds the differences. Squares ``diff``
    in place, so the form takes no temporary beyond the differences."""
    diff *= diff
    return np.add.reduce(diff, axis=-1)


def _rounding(d: int) -> float:
    """Bound factor r: each form of a squared distance D = |x - c|^2 in d
    dimensions is within r S of D, with S = |x|^2 + |c|^2.

    - The GEMM form |x|^2 - 2 x.c + |c|^2 takes three length-d dot
      products with error below d eps (|x|^2 + 2|x||c| + |c|^2)
      <= 2 d eps S, and two additions whose results are at most 2 S, each
      rounded by less than 2 eps S: (2 d + 4) eps S in all.
    - The exact form sum((x - c)^2) rounds each difference, its square and
      a d-term sum: error below (d + 3) eps D <= 2 (d + 3) eps S, because
      D <= 2 S.

    Both hold for any summation order, so for any BLAS thread split.
    """
    return 2 * (d + 3) * np.finfo(float).eps


def _kmeans_pp_init(x: np.ndarray, xx: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007).

    ``d2`` holds each row's exact squared distance sum((x - c)^2) to its
    nearest seed and feeds ``rng.choice``, so it must keep every bit. Each
    round screens the rows with the GEMM form g of the distance to the new
    seed c (``xx`` is |x|^2). Both forms are within 2 (d + 3) eps S of the
    true distance (S = |x|^2 + |c|^2), so a row with
    g - 6 (d + 3) eps S > d2 has an exact distance above d2, and
    min(d2, exact) is d2: such a row keeps its value without computing it.
    Of the 6 (d + 3), 4 (d + 3) covers the two forms and the rest the
    rounding of the two subtractions in the test itself. Only the other
    rows, and any row whose g overflowed to NaN, get the exact form.
    """
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    idx = int(rng.integers(n))
    centroids[0] = x[idx]
    d2 = _sum_sq(x - centroids[0])
    slack = 3 * _rounding(x.shape[1])
    slack_x = slack * xx
    g = np.empty(n)
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        c = centroids[j] = x[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            cc = float(c @ c)
            np.matmul(x, c, out=g)
            g *= -2.0
            g += xx
            g += cc
            g -= slack_x
            g -= slack * cc
            # NaN > d2 is false, so an overflowed row takes the exact form
            rows = np.flatnonzero(~(g > d2))
        diff = x[rows]
        diff -= c
        d2[rows] = np.minimum(d2[rows], _sum_sq(diff))
    return centroids


_EXACT_BLOCK = 4096  # row-centroid pairs per block of _assign's exact form


def _assign(x: np.ndarray, xx: np.ndarray,
            centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row, lowest index on ties; ``xx`` is |x|^2.

    The screen uses the GEMM form |x|^2 - 2 x.c + |c|^2. It and the exact
    form sum((x - c)^2) are each within 2 (d + 3) eps (|x|^2 + |c|^2) of
    the true distance. A row whose two smallest GEMM distances differ by
    more than four times that bound (with the largest |c|^2) therefore has
    the same argmin under both forms; the remaining rows, and rows whose
    GEMM distances overflowed to NaN, are decided by the exact form.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cc = _sq_norms(centroids)
        d2 = x @ centroids.T
        d2 *= -2.0
        d2 += xx[:, None]
        d2 += cc
        best = np.argmin(d2, axis=1)
        if centroids.shape[0] == 1:
            return best
        rows = np.arange(x.shape[0])
        first = d2[rows, best]
        d2[rows, best] = np.inf
        gap = d2.min(axis=1)
        gap -= first
        slack = 4 * _rounding(x.shape[1]) * (xx + cc.max())
        near = np.flatnonzero(~(gap > slack))
    # blocks of rows hold at most _EXACT_BLOCK distances, whatever k and
    # however many rows are near a tie
    step = max(1, _EXACT_BLOCK // centroids.shape[0])
    for start in range(0, near.size, step):
        rows = near[start:start + step]
        best[rows] = np.argmin(_sum_sq(x[rows, None, :] - centroids), axis=1)
    return best


def _objective(x: np.ndarray, centroids: np.ndarray,
               assignments: np.ndarray) -> float:
    """Mean squared distance to the assigned centroid."""
    diff = centroids[assignments]
    np.subtract(x, diff, out=diff)
    return float(np.mean(_sum_sq(diff)))


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
    del grouped  # the repair's distances are the one (n, d) temporary
    # empty-cluster repair: seed each empty cluster with the point
    # currently farthest from its own centroid (lowest index on ties);
    # a repair that empties a later cluster is repaired in the same pass
    for j in range(k):
        if counts[j]:
            continue
        diff = new_centroids[assignments]
        np.subtract(x, diff, out=diff)
        dists = _sum_sq(diff)
        far = int(np.argmax(dists))
        new_centroids[j] = x[far]
        counts[assignments[far]] -= 1
        counts[j] += 1
        assignments[far] = j
    return new_centroids


_MAX_ITER = 300  # Lloyd iterations per restart, so the loop runs at least once


def _kmeans_single(x: np.ndarray, xx: np.ndarray, k: int, seed: int,
                   tol: float) -> ClusterResult:
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, xx, k, rng)
    assignments = _assign(x, xx, centroids)
    trace: list[float] = []
    converged = False
    for it in range(1, _MAX_ITER + 1):
        new_centroids = _update(x, centroids, assignments)
        new_assignments = _assign(x, xx, new_centroids)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        assignments = new_assignments
        trace.append(_objective(x, centroids, assignments))
        if shift < tol:
            converged = True
            break
    return ClusterResult(centroids, assignments, trace[-1], it, converged,
                         trace)


def kmeans(points: np.ndarray, k: int, seed: int = 0, tol: float = 1e-6,
           n_restarts: int = 1) -> ClusterResult:
    """Lloyd iterations from k-means++ init; deterministic given seed.
    Points must be finite, and a ValueError rejects any whose squared norms
    overflow."""
    x = _validate_points(points, k)
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    with np.errstate(over="ignore"):
        xx = _sq_norms(x)
        # the rounding bounds assume a finite S = |x|^2 + |c|^2, and the
        # seeding's distance total stays below 4 n max |x|^2
        if not np.isfinite(4.0 * len(x) * xx.max()):
            raise ValueError("points' squared norms overflow")
    best: ClusterResult | None = None
    for r in range(n_restarts):
        res = _kmeans_single(x, xx, k, seed + r, tol)
        if best is None or res.objective < best.objective:
            best = res
    return best  # type: ignore[return-value]


def pca_coordinates(points: np.ndarray, d_out: int) -> np.ndarray:
    """The rows' coordinates on their top d_out principal components, by
    full symmetric eigendecomposition."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two points")
    d = x.shape[1]
    if not 1 <= d_out <= d:
        raise ValueError(f"d_out must lie in [1, {d}]")
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:d_out]
    components = evecs[:, order].T
    # deterministic sign: largest-magnitude entry of each component positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return xc @ components.T
