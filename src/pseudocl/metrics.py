"""Partition-agreement metrics: Hungarian matching, ACC, NMI and ARI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StepReport:
    step: int
    classes_seen: int
    acc: float
    nmi: float
    ari: float


def contingency(pred, truth) -> np.ndarray:
    """Counts N[i, j] of samples in predicted cluster i with true class j."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size == 0:
        raise ValueError("pred and truth must be equal-length 1-D arrays")
    pi = np.unique(pred, return_inverse=True)[1]
    ti = np.unique(truth, return_inverse=True)[1]
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Each row's column in a minimum-cost assignment of an r x c cost, r <= c.

    The e-maxx form of the O(r^2 c) potentials algorithm: the outer loop
    runs over the r rows, and each row's search is over all c columns. On
    a square cost it is the square algorithm step for step.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] > c.shape[1]:
        raise ValueError("cost matrix must be 2-D with rows <= columns")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    r, n = c.shape
    u = np.zeros(r + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)    # p[j]: row matched to column j (1-based)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, r + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = np.flatnonzero(~used)
            cur = c[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < minv[free]
            minv[free[better]] = cur[better]
            way[free[better]] = j0
            j1 = free[np.argmin(minv[free])]  # first minimum, as a column scan
            delta = minv[j1]
            u[p[used]] += delta  # rows matched to used columns are distinct
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    matched = np.flatnonzero(p[1:])
    assignment = np.empty(r, dtype=int)
    assignment[p[1 + matched] - 1] = matched
    return assignment


def _matched_count(table: np.ndarray) -> int:
    """Samples on the optimal cluster-to-class matching; the count is the
    same whichever optimum the tie-breaking finds."""
    if table.shape[0] > table.shape[1]:
        table = table.T
    assignment = hungarian(-table.astype(float))
    return int(table[np.arange(table.shape[0]), assignment].sum())


def cluster_accuracy(pred, truth) -> float:
    """Fraction correct after optimal cluster-to-class Hungarian matching."""
    table = contingency(pred, truth)
    return float(_matched_count(table) / table.sum())


def _entropy(counts: np.ndarray, total: int) -> float:
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log(p)))


def nmi(a, b) -> float:
    """I(A,B) / sqrt(H(A) H(B)), natural logs; 0 for degenerate partitions."""
    table = contingency(a, b)
    n = table.sum()
    ni = table.sum(axis=1)
    nj = table.sum(axis=0)
    ha = _entropy(ni, n)
    hb = _entropy(nj, n)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    i, j = np.nonzero(table)
    nij = table[i, j]
    terms = (nij / n) * np.log(n * nij / (ni[i] * nj[j]))
    # Python's sum keeps the row-major, left-to-right order of the terms;
    # np.sum would add them pairwise and could move the last bit
    mi = sum(terms)
    return float(mi / np.sqrt(ha * hb))


def _comb2(x: np.ndarray) -> np.ndarray:
    x = x.astype(float)
    return x * (x - 1.0) / 2.0


def ari(a, b) -> float:
    """Adjusted Rand index from the pair-counting contingency formula."""
    table = contingency(a, b)
    n = int(table.sum())
    if n < 2:
        raise ValueError("ARI needs at least two samples")
    sum_ij = float(np.sum(_comb2(table)))
    sum_i = float(np.sum(_comb2(table.sum(axis=1))))
    sum_j = float(np.sum(_comb2(table.sum(axis=0))))
    expected = sum_i * sum_j / _comb2(np.array(n))
    denom = 0.5 * (sum_i + sum_j) - expected
    if denom == 0.0:
        # both partitions trivial; every pair agrees
        return 1.0
    return float((sum_ij - expected) / denom)


def step_report(step: int, classes_seen: int, pred, truth) -> StepReport:
    return StepReport(step=step, classes_seen=classes_seen,
                      acc=cluster_accuracy(pred, truth),
                      nmi=nmi(pred, truth), ari=ari(pred, truth))

