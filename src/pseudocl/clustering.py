"""Clustering backends: Lloyd K-means and PCA."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import _row_blocks


@dataclass
class ClusterResult:
    centroids: np.ndarray          # (k, d)
    assignments: np.ndarray        # (n,) int
    objective: float               # mean squared distance to assigned centroid
    iterations: int
    converged: bool
    objective_trace: list[float] = field(default_factory=list)


# float64 values per k-means temporary: each pass over the rows takes them
# in blocks whose row count follows from the width of what it computes
_BLOCK = 1 << 15


def _blocks(n: int, width: int) -> list[slice]:
    """``_row_blocks`` of n rows, each of at most _BLOCK // width rows and
    at least one."""
    return _row_blocks(n, max(1, _BLOCK // max(1, width)))


def _validate_points(points: np.ndarray, k: int) -> np.ndarray:
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if x.shape[0] < k:
        raise ValueError(f"{x.shape[0]} points cannot form {k} clusters")
    if not all(np.isfinite(x[s]).all() for s in _blocks(*x.shape)):
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


def _distances(x: np.ndarray, centroids: np.ndarray,
               assignments: np.ndarray) -> np.ndarray:
    """Each row's exact squared distance to its assigned centroid."""
    dists = np.empty(x.shape[0])
    for s in _blocks(*x.shape):
        diff = centroids[assignments[s]]
        np.subtract(x[s], diff, out=diff)
        dists[s] = _sum_sq(diff)
    return dists


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
    n, d = x.shape
    centroids = np.empty((k, d))
    # before the first seed every row is infinitely far, so that seed's
    # screen passes every row to the exact form
    d2 = np.full(n, np.inf)
    slack = 3 * _rounding(d)
    slack_x = slack * xx
    g = np.empty(n)
    for j in range(k):
        total = d2.sum()
        if j == 0 or total == 0.0:
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
            near = np.flatnonzero(~(g > d2))
        for s in _blocks(near.size, d):
            rows = near[s]
            diff = x[rows]
            diff -= c
            d2[rows] = np.minimum(d2[rows], _sum_sq(diff))
    return centroids


def _assign(x: np.ndarray, xx: np.ndarray,
            centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row, lowest index on ties; ``xx`` is |x|^2.

    The screen uses the GEMM form |x|^2 - 2 x.c + |c|^2. It and the exact
    form sum((x - c)^2) are each within 2 (d + 3) eps (|x|^2 + |c|^2) of
    the true distance. A row whose two smallest GEMM distances differ by
    more than four times that bound (with the largest |c|^2) therefore has
    the same argmin under both forms; the remaining rows, and rows whose
    GEMM distances overflowed to NaN, are decided by the exact form. Both
    go a block of rows at a time: (rows, k) GEMM distances, then
    (rows, k, d) differences.
    """
    k, d = centroids.shape
    best = np.empty(x.shape[0], dtype=np.intp)
    with np.errstate(over="ignore"):
        cc = _sq_norms(centroids)
    for s in _blocks(x.shape[0], k):
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = x[s] @ centroids.T
            d2 *= -2.0
            d2 += xx[s, None]
            d2 += cc
            block_best = best[s] = np.argmin(d2, axis=1)
            rows = np.arange(d2.shape[0])
            first = d2[rows, block_best]
            d2[rows, block_best] = np.inf
            gap = d2.min(axis=1)
            gap -= first
            slack = 4 * _rounding(d) * (xx[s] + cc.max())
            near = s.start + np.flatnonzero(~(gap > slack))
        for t in _blocks(near.size, k * d):
            rows = near[t]
            best[rows] = np.argmin(_sum_sq(x[rows, None, :] - centroids),
                                   axis=1)
    return best


def _objective(x: np.ndarray, centroids: np.ndarray,
               assignments: np.ndarray) -> float:
    """Mean squared distance to the assigned centroid."""
    return float(np.mean(_distances(x, centroids, assignments)))


def _update(x: np.ndarray, centroids: np.ndarray,
            assignments: np.ndarray) -> np.ndarray:
    """Lloyd centroid update with empty-cluster repair.

    Repair moves points between clusters, so ``assignments`` is updated in
    place.
    """
    n, d = x.shape
    k = centroids.shape[0]
    new_centroids = centroids.copy()
    counts = np.bincount(assignments, minlength=k)
    ends = np.cumsum(counts)
    order = np.argsort(assignments, kind="stable")
    # each cluster's rows in index order, gathered a block at a time; each
    # later block carries the running sums in its first row, so the columns
    # sum row by row, as x[assignments == j].mean(0) sums them. One column
    # sums pairwise instead, so it is gathered whole, an (n,) vector at most
    step = max(2, _BLOCK // d if d > 1 else n)
    block = np.empty((min(step, n), d))
    for j in np.flatnonzero(counts):
        members = order[ends[j] - counts[j]:ends[j]]
        # mode="clip" gathers straight into ``out``; "raise" buffers it
        head = np.take(x, members[:step], axis=0,
                       out=block[:min(step, counts[j])], mode="clip")
        total = np.add.reduce(head, axis=0)
        for start in range(step, members.size, step - 1):
            part = members[start:start + step - 1]
            block[0] = total
            np.take(x, part, axis=0, out=block[1:part.size + 1], mode="clip")
            total = np.add.reduce(block[:part.size + 1], axis=0)
        new_centroids[j] = total / counts[j]
    # empty-cluster repair: seed each empty cluster with the point
    # currently farthest from its own centroid (lowest index on ties);
    # a repair that empties a later cluster is repaired in the same pass
    for j in range(k):
        if counts[j]:
            continue
        far = int(np.argmax(_distances(x, new_centroids, assignments)))
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
    # min keeps the first of equal objectives
    return min((_kmeans_single(x, xx, k, seed + r, tol)
                for r in range(n_restarts)), key=lambda res: res.objective)


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
