"""Pseudo labels from cluster assignments and exemplar selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ExemplarStore:
    q: int
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    labels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __len__(self) -> int:
        return len(self.ids)


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


def _select(assignments: np.ndarray, pseudo_labels: np.ndarray, q: int,
            sample_ids: np.ndarray | None, pick) -> ExemplarStore:
    """Exemplars of every cluster in ascending cluster id; ``pick(members)``
    returns the chosen rows of one cluster's row indices."""
    if q < 1:
        raise ValueError("q must be >= 1")
    assignments = np.asarray(assignments, dtype=int)
    if sample_ids is None:
        sample_ids = np.arange(len(assignments))
    # the leading empty part keeps the rows int-typed for an empty input
    rows = np.concatenate([np.empty(0, dtype=int)] + [
        pick(np.flatnonzero(assignments == j)) for j in np.unique(assignments)])
    return ExemplarStore(q, np.asarray(sample_ids, dtype=int)[rows],
                         np.asarray(pseudo_labels, dtype=int)[rows])


def select_exemplars_herding(features: np.ndarray, assignments: np.ndarray,
                             pseudo_labels: np.ndarray, q: int,
                             sample_ids: np.ndarray | None = None) -> ExemplarStore:
    """Per-cluster greedy herding toward the cluster mean, q picks each."""
    features = np.asarray(features, dtype=float)
    return _select(assignments, pseudo_labels, q, sample_ids,
                   lambda members: members[_herd_cluster(features[members], q)])


def select_exemplars_random(assignments: np.ndarray, pseudo_labels: np.ndarray,
                            q: int, seed: int,
                            sample_ids: np.ndarray | None = None) -> ExemplarStore:
    """Uniform without-replacement pick of min(q, cluster size) per cluster."""
    rng = np.random.default_rng(seed)
    return _select(assignments, pseudo_labels, q, sample_ids,
                   lambda members: rng.choice(members, size=min(q, members.size),
                                              replace=False))


def merge_replay(x_new: np.ndarray, y_new: np.ndarray, x_old: np.ndarray,
                 y_old: np.ndarray,
                 seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate new data with replayed exemplars and shuffle (seeded).

    The third return value maps each output row to its index in x_new,
    or -1 for replayed exemplar rows.
    """
    x = np.vstack([x_new, x_old]).astype(float)
    y = np.concatenate([y_new, y_old]).astype(int)
    origin = np.concatenate([np.arange(len(x_new)), np.full(len(x_old), -1)])
    perm = np.random.default_rng(seed).permutation(len(x))
    return x[perm], y[perm], origin[perm]
