"""Synthetic feature datasets, CSV interchange, checkpoints and reports.

Ground-truth labels are sealed behind an access-counting accessor so the
training path can be audited: after the supervised first task, only the
evaluator may reveal labels.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .nn import DenseLayer, Model

EVAL_FRACTION = 0.2
SPLIT_SEED = 7919  # fixed so a reloaded CSV reproduces the same split

REPORT_COLUMNS = ["step", "classes_seen", "acc", "nmi", "ari"]
SUMMARY_COLUMNS = ["avg_acc", "last_acc", "avg_nmi", "avg_ari", "seed", "variant"]

_CKPT_MAGIC = b"PCLCKPT1"


class FormatError(ValueError):
    """Malformed dataset file or corrupt checkpoint."""


@dataclass
class BlobSpec:
    num_classes: int
    dim: int
    samples_per_class: int
    separation: float
    std: float
    seed: int
    # optional structured-noise extension: class centers occupy only the
    # first signal_dims coordinates; remaining dims carry noise_std noise
    signal_dims: int | None = None
    noise_std: float | None = None

    def __post_init__(self):
        if self.separation <= 0 or self.std <= 0:
            raise ValueError("separation and std must be positive")
        if self.num_classes < 1 or self.dim < 1 or self.samples_per_class < 1:
            raise ValueError("counts must be positive")
        if self.signal_dims is not None and not 1 <= self.signal_dims <= self.dim:
            raise ValueError("signal_dims must lie in [1, dim]")


class SealedLabels:
    """Ground-truth labels guarded by an access counter."""

    def __init__(self, labels: np.ndarray):
        self._labels = np.asarray(labels, dtype=int)
        self.access_count = 0

    def reveal(self, index=None) -> np.ndarray:
        self.access_count += 1
        if index is None:
            return self._labels.copy()
        return self._labels[index].copy()

    def _peek(self) -> np.ndarray:
        # internal use (splitting, serialization); does not count as access
        return self._labels


class Dataset:
    def __init__(self, ids: np.ndarray, features: np.ndarray,
                 labels: np.ndarray, seed: int | None = None):
        ids = np.asarray(ids, dtype=int)
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=int)
        if features.ndim != 2 or len(features) == 0 or len(ids) != len(features):
            raise FormatError("features must be a nonempty 2-D array with one id per row")
        if len(labels) != len(ids):
            raise FormatError("label count mismatch")
        if len(np.unique(ids)) != len(ids):
            raise FormatError("duplicate sample ids")
        self.ids = ids
        self.features = features
        self.sealed = SealedLabels(labels)
        self.seed = seed
        self._order = np.argsort(ids, kind="stable")
        self._sorted_ids = ids[self._order]
        self.is_eval = _stratified_eval_mask(labels, EVAL_FRACTION, SPLIT_SEED)
        for c in np.unique(labels):
            if not np.any(self.is_eval & (labels == c)):
                raise FormatError(f"class {c} has no eval sample")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def num_classes(self) -> int:
        return len(np.unique(self.sealed._peek()))

    def classes(self) -> np.ndarray:
        return np.unique(self.sealed._peek())

    def positions(self, ids) -> np.ndarray:
        """Row index of each sample id; KeyError names the first unknown id."""
        ids = np.asarray(ids, dtype=int)
        slot = np.minimum(np.searchsorted(self._sorted_ids, ids), len(self) - 1)
        unknown = self._sorted_ids[slot] != ids
        if unknown.any():
            raise KeyError(int(ids[unknown][0]))
        return self._order[slot]

    def features_for(self, ids) -> np.ndarray:
        return self.features[self.positions(ids)]

    def ids_for_classes(self, classes, eval_split: bool) -> np.ndarray:
        labels = self.sealed._peek()
        mask = np.isin(labels, classes) & (self.is_eval == eval_split)
        return self.ids[mask]


def _stratified_eval_mask(labels: np.ndarray, fraction: float,
                          seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(labels), dtype=bool)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        n_eval = max(1, int(round(fraction * len(members))))
        chosen = rng.choice(members, size=n_eval, replace=False)
        mask[chosen] = True
    return mask


def generate_gaussian_stream(spec: BlobSpec) -> Dataset:
    """Seeded Gaussian blobs: one isotropic cluster per class."""
    rng = np.random.default_rng(spec.seed)
    sdims = spec.signal_dims if spec.signal_dims is not None else spec.dim
    nstd = spec.noise_std if spec.noise_std is not None else spec.std
    centers = np.zeros((spec.num_classes, spec.dim))
    centers[:, :sdims] = spec.separation * rng.standard_normal(
        (spec.num_classes, sdims))
    n = spec.num_classes * spec.samples_per_class
    features = np.empty((n, spec.dim))
    labels = np.empty(n, dtype=int)
    row = 0
    for c in range(spec.num_classes):
        noise = rng.standard_normal((spec.samples_per_class, spec.dim))
        noise[:, :sdims] *= spec.std
        noise[:, sdims:] *= nstd
        features[row:row + spec.samples_per_class] = centers[c] + noise
        labels[row:row + spec.samples_per_class] = c
        row += spec.samples_per_class
    return Dataset(np.arange(n), features, labels, seed=spec.seed)


def save_dataset(dataset: Dataset, path: str) -> None:
    d = dataset.dim
    labels = dataset.sealed._peek()
    with open(path, "w") as fh:
        if dataset.seed is not None:
            fh.write(f"# seed={dataset.seed}\n")
        fh.write("id,label," + ",".join(f"f{i}" for i in range(d)) + "\n")
        for i in range(len(dataset)):
            feats = ",".join(repr(float(v)) for v in dataset.features[i])
            fh.write(f"{dataset.ids[i]},{labels[i]},{feats}\n")


def load_dataset(path: str) -> Dataset:
    seed = None
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            if "seed=" in line:
                seed = int(line.split("seed=")[1])
            continue
        body.append(line)
    if not body:
        raise FormatError(f"{path}: empty dataset file")
    header = body[0].split(",")
    if header[:2] != ["id", "label"] or len(header) < 3:
        raise FormatError(f"{path}: bad header {body[0]!r}")
    d = len(header) - 2
    expected = ["id", "label"] + [f"f{i}" for i in range(d)]
    if header != expected:
        raise FormatError(f"{path}: bad feature columns")
    ids, labels, rows = [], [], []
    for lineno, line in enumerate(body[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 2:
            raise FormatError(f"{path}:{lineno}: expected {d + 2} fields, "
                              f"got {len(parts)}")
        try:
            ids.append(int(parts[0]))
            labels.append(int(parts[1]))
            rows.append([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no records")
    return Dataset(np.array(ids), np.array(rows), np.array(labels), seed=seed)


def write_checkpoint(model: Model, path: str, meta: dict | None = None) -> None:
    """Self-describing binary: JSON header, float64 params, sha256 trailer."""
    header = {
        "hidden_shapes": [list(l.w.shape) for l in model.hidden],
        "feature_dim": model.feature_dim,
        "out_dim": model.out_dim,
        "seeds": model.seeds,
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = b"".join(
        np.ascontiguousarray(arr, dtype=np.float64).tobytes()
        for layer in model.layers() for arr in (layer.w, layer.b))
    digest = hashlib.sha256(header_bytes + payload).digest()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        fh.write(payload)
        fh.write(digest)


def read_checkpoint(path: str) -> tuple[Model, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    hlen = int.from_bytes(blob[8:16], "little")
    header_bytes = blob[16:16 + hlen]
    digest = blob[-32:]
    payload = blob[16 + hlen:-32]
    if hashlib.sha256(header_bytes + payload).digest() != digest:
        raise FormatError(f"{path}: checksum mismatch")
    header = json.loads(header_bytes)
    hidden_shapes = [tuple(s) for s in header["hidden_shapes"]]
    feature_dim = header["feature_dim"]
    offset = 0

    def take(shape) -> np.ndarray:
        nonlocal offset
        size = int(np.prod(shape)) * 8
        arr = np.frombuffer(payload[offset:offset + size],
                            dtype=np.float64).reshape(shape).copy()
        offset += size
        return arr

    hidden = [DenseLayer(take(s), take((s[1],))) for s in hidden_shapes]
    head = DenseLayer(take((feature_dim, header["out_dim"])),
                      take((header["out_dim"],)))
    if offset != len(payload):
        raise FormatError(f"{path}: trailing parameter bytes")
    return Model(hidden, head, list(header["seeds"])), header["meta"]


def write_report(reports, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for r in reports:
            fh.write(f"{r.step},{r.classes_seen},{r.acc!r},{r.nmi!r},{r.ari!r}\n")


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        fh.write(",".join(str(summary[c]) for c in SUMMARY_COLUMNS) + "\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
