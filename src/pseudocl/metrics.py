"""Partition-agreement metrics: Hungarian matching, ACC, NMI and ARI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Matching:
    assignment: np.ndarray  # assignment[i] = column matched to row i
    total_cost: float


@dataclass
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


def hungarian(cost: np.ndarray) -> Matching:
    """Minimum-cost assignment on a square matrix, O(n^3) with potentials."""
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    n = c.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)    # p[j]: row matched to column j (1-based)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
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
    assignment = np.empty(n, dtype=int)
    assignment[p[1:] - 1] = np.arange(n)
    # Python's sum adds left to right; np.sum adds pairwise and could
    # move the last bit of the total
    total = float(sum(c[np.arange(n), assignment]))
    return Matching(assignment, total)


def _matched_count(table: np.ndarray) -> int:
    r, c = table.shape
    size = max(r, c)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[:r, :c] = table
    match = hungarian(-padded.astype(float))
    return int(padded[np.arange(size), match.assignment].sum())


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


def aggregate(reports: list[StepReport]) -> dict[str, float]:
    """Avg = mean over given reports, Last = final report, per metric."""
    if not reports:
        raise ValueError("no reports to aggregate")
    return {
        "avg_acc": float(np.mean([r.acc for r in reports])),
        "last_acc": reports[-1].acc,
        "avg_nmi": float(np.mean([r.nmi for r in reports])),
        "last_nmi": reports[-1].nmi,
        "avg_ari": float(np.mean([r.ari for r in reports])),
        "last_ari": reports[-1].ari,
    }
