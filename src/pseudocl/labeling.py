"""Pseudo labels from cluster assignments and exemplar selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ExemplarStore:
    q: int
    ids: list[int] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for y in self.labels:
            counts[y] = counts.get(y, 0) + 1
        return counts

    def copy(self) -> "ExemplarStore":
        return ExemplarStore(self.q, list(self.ids), list(self.labels))


def assign_pseudo_labels(assignments: np.ndarray, m: int) -> np.ndarray:
    """Offset cluster assignments by the number of already-learned classes,
    giving per-sample class indices in {m .. m+n-1}."""
    a = np.asarray(assignments, dtype=int)
    if np.any(a < 0):
        raise ValueError("negative cluster assignment")
    if m < 0:
        raise ValueError("m must be >= 0")
    return a + m


def _herd_cluster(feats: np.ndarray, q: int) -> list[int]:
    """Greedy herding over one cluster's features; local indices returned."""
    mu = feats.mean(axis=0)
    picked: list[int] = []
    running = np.zeros_like(mu)
    available = np.arange(feats.shape[0])
    for k in range(1, min(q, feats.shape[0]) + 1):
        diff = mu - (running + feats[available]) / k
        # row-by-row BLAS dot products: the same rounding as
        # np.linalg.norm of each row on its own, which a reduction along
        # axis 1 does not reproduce
        dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
        pos = int(np.argmin(dist))  # first minimum: lowest index wins ties
        best = int(available[pos])
        picked.append(best)
        available = np.delete(available, pos)
        running = running + feats[best]
    return picked


def select_exemplars_herding(features: np.ndarray, assignments: np.ndarray,
                             pseudo_labels: np.ndarray, q: int,
                             sample_ids: np.ndarray | None = None) -> ExemplarStore:
    """Per-cluster greedy herding toward the cluster mean, q picks each."""
    if q < 1:
        raise ValueError("q must be >= 1")
    features = np.asarray(features, dtype=float)
    assignments = np.asarray(assignments, dtype=int)
    pseudo_labels = np.asarray(pseudo_labels, dtype=int)
    if sample_ids is None:
        sample_ids = np.arange(len(assignments))
    store = ExemplarStore(q)
    for j in np.unique(assignments):
        members = np.flatnonzero(assignments == j)
        if members.size == 0:
            raise ValueError(f"cluster {j} is empty")
        local = _herd_cluster(features[members], q)
        for li in local:
            gi = members[li]
            store.ids.append(int(sample_ids[gi]))
            store.labels.append(int(pseudo_labels[gi]))
    return store


def select_exemplars_random(features: np.ndarray, assignments: np.ndarray,
                            pseudo_labels: np.ndarray, q: int, seed: int,
                            sample_ids: np.ndarray | None = None) -> ExemplarStore:
    """Uniform without-replacement pick of min(q, cluster size) per cluster."""
    if q < 1:
        raise ValueError("q must be >= 1")
    assignments = np.asarray(assignments, dtype=int)
    pseudo_labels = np.asarray(pseudo_labels, dtype=int)
    if sample_ids is None:
        sample_ids = np.arange(len(assignments))
    rng = np.random.default_rng(seed)
    store = ExemplarStore(q)
    for j in np.unique(assignments):
        members = np.flatnonzero(assignments == j)
        if members.size == 0:
            raise ValueError(f"cluster {j} is empty")
        chosen = rng.choice(members, size=min(q, members.size), replace=False)
        for gi in chosen:
            store.ids.append(int(sample_ids[gi]))
            store.labels.append(int(pseudo_labels[gi]))
    return store


def merge_replay(x_new: np.ndarray, y_new: np.ndarray, x_old: np.ndarray,
                 y_old: np.ndarray,
                 seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate new data with replayed exemplars and shuffle (seeded).

    The third return value maps each output row to its index in x_new,
    or -1 for replayed exemplar rows.
    """
    x_new = np.asarray(x_new, dtype=float)
    y_new = np.asarray(y_new, dtype=int)
    origin = np.arange(len(x_new))
    if len(x_old):
        x = np.vstack([x_new, np.asarray(x_old, dtype=float)])
        y = np.concatenate([y_new, np.asarray(y_old, dtype=int)])
        origin = np.concatenate([origin, np.full(len(x_old), -1)])
    else:
        x, y = x_new, y_new
    perm = np.random.default_rng(seed).permutation(len(x))
    return x[perm], y[perm], origin[perm]
