"""Exemplar selection and replay of pseudo-labelled samples."""

from __future__ import annotations

import numpy as np

from . import nn


def select_exemplars_herding(features: np.ndarray, assignments: np.ndarray,
                             q: int) -> np.ndarray:
    """Per-cluster greedy herding toward the cluster mean, q picks each;
    the picked rows, by cluster in ascending id, each in pick order.

    Pick k of a cluster with mean mu and running sum r of its k - 1 picks
    is the available row f minimising |mu - (r + f) / k|, computed row by
    row as below; ties go to the lowest row. All clusters run in one pass
    of min(q, largest cluster) rounds over flat (n, d) arrays, in ascending
    cluster id.

    Each round screens with the centred form: for g = f - mu and S the sum
    of the centred picks, k^2 |mu - (r + f) / k|^2 = |S|^2 + 2 S.g + |g|^2,
    so the key 2 S.g + |g|^2 orders a cluster's rows by distance. With R
    the largest row norm in the cluster, the key's rounding error is below
    8 (d + k + 8) k^2 eps R^2, and that of k^2 times the squared exact
    distance below 4 (d + 10) k^2 eps R^2, which also covers the last bit
    of the square root. Twice their sum is below
    32 (d + k + 10) k^2 eps R^2, so a row whose key exceeds its cluster's
    smallest key by more than that cannot be the first minimum; only the
    remaining rows get the exact distance. A ValueError rejects features
    whose squared norms overflow, for which the bounds say nothing.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    features = np.asarray(features, dtype=float)
    clusters, cluster_of, sizes = np.unique(
        np.asarray(assignments, dtype=int), return_inverse=True,
        return_counts=True)
    order = np.argsort(cluster_of, kind="stable")
    cluster_of = cluster_of[order]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # each cluster's rows in index order, as one contiguous block, so the
    # block mean sums in the same order as features[assignments == j].mean(0);
    # each block then becomes its rows minus their mean, in place
    centred = features[order]
    d = features.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = np.maximum.reduceat(np.einsum("ij,ij->i", centred, centred),
                                    starts)
        # a mean sums up to n rows, and keys and distances stay below
        # 8 q R^2 with q <= n, so a finite 8 n R^2 keeps them all finite
        if not np.isfinite(8.0 * len(order) * norm2.max(initial=0.0)):
            raise ValueError("features' squared norms overflow")
    mu = np.empty((len(clusters), d))
    for j, (lo, hi) in enumerate(zip(starts, ends)):
        mu[j] = centred[lo:hi].mean(axis=0)
        centred[lo:hi] -= mu[j]
    sq = np.einsum("ij,ij->i", centred, centred)
    running = np.zeros_like(mu)
    centred_sum = np.zeros_like(mu)
    picked = np.zeros(len(order), dtype=bool)
    rounds = min(q, sizes.max(initial=0))
    picks = np.zeros((len(clusters), rounds), dtype=int)
    key = np.empty(len(order))
    eps = np.finfo(float).eps
    # in row blocks, so each round gathers no (n, d) array
    blocks = nn._row_blocks(len(order), nn._ROW_BLOCK)
    for k in range(1, rounds + 1):
        for s in blocks:
            np.einsum("ij,ij->i", centred[s], centred_sum[cluster_of[s]],
                      out=key[s])
        key *= 2.0
        key += sq
        key[picked] = np.inf
        slack = 32 * (d + k + 10) * k * k * eps * norm2
        near = ~(key > np.minimum.reduceat(key, starts)[cluster_of]
                 + slack[cluster_of]) & ~picked
        rows = np.flatnonzero(near)
        c = cluster_of[rows]
        diff = mu[c] - (running[c] + features[order[rows]]) / k
        # row-by-row BLAS dot products: the same rounding as
        # np.linalg.norm of each row on its own, which a reduction along
        # axis 1 does not reproduce
        dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
        # by cluster, then distance; the sort is stable, so the lowest row
        # wins ties
        by = np.lexsort((dist, c))
        first = by[np.r_[True, c[by[1:]] != c[by[:-1]]]]
        best, j = rows[first], c[first]
        picked[best] = True
        picks[j, k - 1] = best
        running[j] = running[j] + features[order[best]]
        centred_sum[j] = centred_sum[j] + centred[best]
    taken = np.arange(rounds) < sizes[:, None]
    return order[picks[taken]]


def select_exemplars_random(assignments: np.ndarray, q: int,
                            seed: int) -> np.ndarray:
    """Uniform without-replacement pick of min(q, cluster size) rows per
    cluster; the picked rows, by cluster in ascending id."""
    if q < 1:
        raise ValueError("q must be >= 1")
    assignments = np.asarray(assignments, dtype=int)
    rng = np.random.default_rng(seed)
    # one stable argsort groups the rows: each cluster's block lists its
    # rows in index order, as np.flatnonzero(assignments == j) does
    order = np.argsort(assignments, kind="stable")
    _, starts, sizes = np.unique(assignments[order], return_index=True,
                                 return_counts=True)
    # the leading empty part keeps the rows int-typed for an empty input
    return np.concatenate([np.empty(0, dtype=int)] + [
        rng.choice(order[start:start + size], size=min(q, size),
                   replace=False)
        for start, size in zip(starts.tolist(), sizes.tolist())])


def merge_replay(rows_new: np.ndarray, y_new: np.ndarray,
                 rows_old: np.ndarray, y_old: np.ndarray,
                 seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The task's row positions and the replayed exemplars', shuffled
    (seeded), with their labels and each position's index in rows_new, -1
    for an exemplar's."""
    rows = np.concatenate([rows_new, rows_old])
    y = np.concatenate([y_new, y_old]).astype(int, copy=False)
    origin = np.concatenate([np.arange(len(rows_new)),
                             np.full(len(rows_old), -1)])
    perm = np.random.default_rng(seed).permutation(len(rows))
    return rows[perm], y[perm], origin[perm]
