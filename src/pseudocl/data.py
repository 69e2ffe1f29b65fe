"""Synthetic feature datasets, CSV interchange, checkpoints and reports.

Ground-truth labels are sealed behind an access-counting accessor so the
training path can be audited: after the supervised first task, only the
evaluator may reveal labels.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .nn import Model

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
    head = [] if dataset.seed is None else [f"# seed={dataset.seed}\n"]
    head.append("id,label," + ",".join(f"f{i}" for i in range(dataset.dim))
                + "\n")
    # repr round-trips exactly; Python floats of one row at a time
    rows = (f"{i},{y},{','.join(map(repr, f.tolist()))}\n"
            for i, y, f in zip(dataset.ids.tolist(),
                               dataset.sealed._peek().tolist(),
                               dataset.features))
    _write_atomic(path, itertools.chain(head, rows))


def load_dataset(path: str) -> Dataset:
    """Read a dataset CSV; errors name ``path:lineno``, the file's own line."""
    seed = None
    with open(path) as fh:
        line, lineno = fh.readline(), 1
        while line.startswith("#"):
            if "seed=" in line:
                try:
                    seed = int(line.split("seed=")[1])
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad seed comment "
                                      f"{line.rstrip()!r}") from None
            line, lineno = fh.readline(), lineno + 1
        header = line.rstrip("\n").split(",")
        d = len(header) - 2
        if d < 1 or header != ["id", "label", *(f"f{i}" for i in range(d))]:
            raise FormatError(f"{path}: bad header {line.rstrip()!r}")
        dtype = [("id", np.int64), ("label", np.int64), ("f", np.float64, (d,))]
        start = fh.tell()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", ndmin=1)
            except ValueError as exc:
                # numpy's row numbers are not the file's line numbers
                fh.seek(start)
                for lineno, text in enumerate(fh, start=lineno + 1):
                    try:
                        np.loadtxt([text], dtype=dtype, delimiter=",")
                    except ValueError as line_exc:
                        message = str(line_exc).split(" at row")[0]
                        raise FormatError(f"{path}:{lineno}: {message}") from exc
                raise FormatError(f"{path}: {exc}") from exc
    if len(rows) == 0:
        raise FormatError(f"{path}: no records")
    return Dataset(rows["id"].copy(), rows["f"].copy(), rows["label"].copy(),
                   seed=seed)


def write_checkpoint(model: Model, path: str, meta: dict | None = None) -> None:
    """Self-describing binary: JSON header, float64 params, sha256 trailer."""
    header = {
        "hidden_shapes": [list(w.shape) for w, _ in model.layers[:-1]],
        "feature_dim": model.feature_dim,
        "out_dim": model.out_dim,
        "seeds": model.seeds,
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = model.params.tobytes()
    digest = hashlib.sha256(header_bytes + payload).digest()
    _write_atomic(path, [_CKPT_MAGIC, len(header_bytes).to_bytes(8, "little"),
                         header_bytes, payload, digest], "wb")


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
    try:
        header = json.loads(header_bytes)
        shapes = header["hidden_shapes"]
        dims = [s[0] for s in shapes] + [header["feature_dim"],
                                         header["out_dim"]]
        if shapes != [[a, b] for a, b in zip(dims, dims[1:-1])]:
            raise ValueError(f"hidden_shapes {shapes} do not chain")
        model = Model(dims, seeds=header["seeds"])
        meta = dict(header["meta"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad header: {exc!r}") from exc
    if len(payload) != model.params.nbytes:
        raise FormatError(f"{path}: {len(payload)} parameter bytes, header "
                          f"describes {model.params.nbytes}")
    model.params[:] = np.frombuffer(payload, dtype=np.float64)
    return model, meta


def write_report(reports, path: str) -> None:
    _write_table(path, REPORT_COLUMNS,
                 ([r.step, r.classes_seen, r.acc, r.nmi, r.ari] for r in reports))


def write_summary(summary: dict, path: str) -> None:
    _write_table(path, SUMMARY_COLUMNS, [[summary[c] for c in SUMMARY_COLUMNS]])


# The helpers below are private so that perfbench's span tracer, which wraps
# public functions only, times their work inside the public caller.

def _write_atomic(path: str, chunks, mode: str = "w") -> None:
    """Write ``chunks`` to ``<path>.tmp`` beside ``path``, then os.replace it
    into place: ``path`` holds the old file or the whole new one, never part
    of one. A write that raises removes the temporary file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_table(path: str, header, rows) -> None:
    """A CSV table: None is an empty cell, a float its str (equal to repr)."""
    _write_atomic(path, (",".join("" if v is None else str(v) for v in row)
                         + "\n" for row in itertools.chain([header], rows)))


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        header, *rows = (line.split(",") for line in fh.read().splitlines())
    return header, rows
