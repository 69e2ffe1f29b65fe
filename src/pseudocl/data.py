"""Synthetic feature datasets, CSV interchange, checkpoints and reports.

Ground-truth labels are sealed behind an access-counting accessor so the
training path can be audited: after the supervised first task, only the
evaluator may reveal labels.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import os
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .nn import Model, _row_blocks

if TYPE_CHECKING:  # config imports this module
    from .config import BlobSpec

EVAL_FRACTION = 0.2
SPLIT_SEED = 7919  # fixed so a reloaded CSV reproduces the same split

REPORT_COLUMNS = ["step", "classes_seen", "acc", "nmi", "ari"]
SUMMARY_COLUMNS = ["avg_acc", "last_acc", "avg_nmi", "avg_ari", "seed", "variant"]

_CKPT_MAGIC = b"PCLCKPT1"
# The dataset sidecar holds one parse's result, so bump its version when the
# CSV's parse rules or the sidecar's header change; older ones go unused.
_DSET_MAGIC = b"PCLDSET3"

# The dataset CSV is formatted this many rows at a time (see _csv_rows).
# Larger blocks format a little faster, but at 128 or 256 rows of 64
# features what they left on the heap raised a later run's peak RSS by up
# to 0.8 MB
_CSV_BLOCK_ROWS = 64


class FormatError(ValueError):
    """Malformed dataset file or corrupt checkpoint."""


class SealedLabels:
    """Ground-truth labels guarded by an access counter."""

    def __init__(self, labels: np.ndarray):
        self._labels = np.asarray(labels, dtype=int)
        self.access_count = 0

    def reveal(self, index) -> np.ndarray:
        self.access_count += 1
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
        if features.shape[1] == 0:
            raise FormatError(f"features of shape {features.shape} have no "
                              "column; a dataset needs at least one")
        if len(labels) != len(ids):
            raise FormatError(f"{len(labels)} labels for {len(ids)} samples")
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            raise FormatError(
                f"sample {ids[~finite][0]} has a non-finite feature")
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        # the rows after the first of each id, in row order by the stable sort
        repeats = order[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if repeats.size:
            raise FormatError(f"duplicate sample ids: sample "
                              f"{ids[repeats.min()]} appears more than once")
        self.ids = ids
        self.features = features
        self.sealed = SealedLabels(labels)
        try:  # an integer, numpy's too, is stored as an int
            self.seed = None if seed is None else operator.index(seed)
        except TypeError:
            raise FormatError(f"seed must be an integer or None, "
                              f"not {seed!r}") from None
        self._order = order
        self._sorted_ids = sorted_ids
        self.is_eval, self._classes = _stratified_eval_mask(
            labels, EVAL_FRACTION, SPLIT_SEED)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def classes(self) -> np.ndarray:
        """The sorted distinct labels, read-only."""
        return self._classes

    def positions(self, ids) -> np.ndarray:
        """Row index of each sample id; KeyError names the first unknown id."""
        ids = np.asarray(ids, dtype=int)
        slot = np.minimum(np.searchsorted(self._sorted_ids, ids), len(self) - 1)
        unknown = self._sorted_ids[slot] != ids
        if unknown.any():
            raise KeyError(int(ids[unknown][0]))
        return self._order[slot]

    def rows_for_classes(self, classes, eval_split: bool) -> np.ndarray:
        """The ascending rows of ``classes``' held-out or training samples."""
        labels = self.sealed._peek()
        mask = np.isin(labels, classes) & (self.is_eval == eval_split)
        return np.flatnonzero(mask)


def _stratified_eval_mask(labels: np.ndarray, fraction: float,
                          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mark round(fraction * size), at least one, of each class's rows as
    held out, class by class in label order; return the mask and the
    sorted classes, read-only. Every class keeps an eval sample;
    FormatError names the first class that keeps no training sample."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(labels), dtype=bool)
    # one stable argsort groups the rows: each class's block lists its rows
    # in index order, as np.flatnonzero(labels == c) does
    order = np.argsort(labels, kind="stable")
    classes, starts, sizes = np.unique(labels[order], return_index=True,
                                       return_counts=True)
    for c, start, size in zip(classes, starts.tolist(), sizes.tolist()):
        n_eval = max(1, int(round(fraction * size)))
        if n_eval == size:
            raise FormatError(f"class {c} has no training sample")
        chosen = rng.choice(order[start:start + size], size=n_eval,
                            replace=False)
        mask[chosen] = True
    classes.flags.writeable = False
    return mask, classes


def generate_gaussian_stream(spec: BlobSpec) -> Dataset:
    """Seeded Gaussian blobs, one cluster per class. A centre is random in
    its first ``signal_dims`` coordinates (all if unset) and 0 after; noise
    has std ``std`` there and ``noise_std`` (default ``std``) after. One
    draw holds every class's noise, in the order of one draw per class."""
    rng = np.random.default_rng(spec.seed)
    sdims = spec.signal_dims if spec.signal_dims is not None else spec.dim
    nstd = spec.noise_std if spec.noise_std is not None else spec.std
    centers = np.zeros((spec.num_classes, spec.dim))
    centers[:, :sdims] = spec.separation * rng.standard_normal(
        (spec.num_classes, sdims))
    features = rng.standard_normal(
        (spec.num_classes, spec.samples_per_class, spec.dim))
    features[..., :sdims] *= spec.std
    features[..., sdims:] *= nstd
    features += centers[:, None]  # centers[labels] is one more (n, d) array
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    return Dataset(np.arange(labels.size), features.reshape(labels.size, -1),
                   labels, seed=spec.seed)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write the dataset CSV, then its sidecar ``<path>.parsed`` (see
    ``load_dataset``)."""
    head = "" if dataset.seed is None else f"# seed={dataset.seed}\n"
    head += "id,label," + ",".join(f"f{i}" for i in range(dataset.dim)) + "\n"
    ids, labels = dataset.ids, dataset.sealed._peek()
    # formatted, hashed and written one block of rows at a time, so little
    # is in flight whatever the dataset's size
    chunks = (_csv_rows(ids[s], labels[s], dataset.features[s])
              for s in _row_blocks(len(dataset), _CSV_BLOCK_ROWS))
    digest = hashlib.sha256()
    _write_atomic(path, _hashed(itertools.chain([head.encode()], chunks),
                                digest), "wb")
    _write_sidecar(path, digest.digest(), dataset)


def load_dataset(path: str) -> Dataset:
    """Read a dataset CSV; errors name ``path:lineno``, the file's own line.

    A CSV is parsed at most once: the parse goes to the sidecar
    ``<path>.parsed``, keyed by the sha256 of the CSV's bytes, and a load
    whose CSV has that digest reads the arrays from there instead. A sidecar
    that is missing, stale or damaged is ignored and rewritten. Either way
    the arrays pass the same ``Dataset`` checks and split."""
    with open(path) as fh:
        # hash and parse through one open file, so that both see the same
        # bytes even when an atomic writer replaces ``path`` meanwhile
        digest = _sha256(fh.buffer)
        cached = _read_sidecar(path, digest)
        if cached is None:
            fh.seek(0)
            try:
                ids, labels, features, seed = _parse_csv(fh, path)
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: not {exc.encoding} text: "
                                  f"{exc.reason}") from None
        else:
            ids, labels, features, seed = cached
    try:
        dataset = Dataset(ids, features, labels, seed=seed)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if cached is None:
        _write_sidecar(path, digest, dataset)
    return dataset


def write_checkpoint(model: Model, path: str, meta: dict | None = None) -> None:
    """A sealed file (see ``_write_sealed``) of the float64 params."""
    header = {
        "hidden_shapes": [list(w.shape) for w, _ in model.layers[:-1]],
        "feature_dim": model.feature_dim,
        "out_dim": model.out_dim,
        "seeds": model.seeds,
        "meta": meta or {},
    }
    _write_sealed(path, _CKPT_MAGIC, header, [model.params])


def read_checkpoint(path: str) -> tuple[Model, dict]:
    dims = []

    def layout(h):
        shapes = h["hidden_shapes"]
        dims[:] = [s[0] for s in shapes] + [h["feature_dim"], h["out_dim"]]
        if (shapes != [[a, b] for a, b in zip(dims, dims[1:-1])]
                or not all(type(d) is int and d >= 1 for d in dims)
                or (type(h["seeds"]), type(h["meta"])) != (list, dict)):
            raise ValueError(f"bad widths {dims}, seeds or meta")
        # Model.params: per layer, the weights, then the bias
        return [("<f8", (sum(a * b + b for a, b in zip(dims, dims[1:])),))]

    header, (params,) = _read_sealed(path, _CKPT_MAGIC, "checkpoint", layout)
    return Model(dims, params, seeds=header["seeds"]), header["meta"]


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
    of one. A write that raises removes the temporary file; a failed open
    raises its OSError under ``path``, the file the caller asked for."""
    tmp = path + ".tmp"
    try:
        fh = open(tmp, mode)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _hashed(chunks, digest):
    """Feed each bytes chunk to ``digest`` and pass it on."""
    for chunk in chunks:
        digest.update(chunk)
        yield chunk


def _sha256(fh) -> bytes:
    """sha256 of the rest of a binary file, read 1 MiB at a time."""
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        digest.update(chunk)
    return digest.digest()


# The digit table is built on the first write, not at import: the numpy
# calls that build it page in code that a run writing no CSV would never
# touch, which raised the peak RSS of such a run by about 0.4 MB

@functools.cache
def _digit_groups() -> np.ndarray:
    """The ASCII digits of 0000..9999, each group packed in one uint32; at
    10000 + c, those of c with its trailing zeros NUL."""
    group = np.arange(10000)[:, None]
    digits = group // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trailing_zero = group % np.array([10000, 1000, 100, 10]) == 0
    text = np.concatenate([digits, np.where(trailing_zero, 0, digits)])
    return text.astype(np.uint8).view(np.uint32).ravel()


# 10**j for j = 0..20, each exact in float64, converted from Python ints so
# that no numpy ufunc runs at import
_POWERS_OF_10 = np.array([float(10 ** j) for j in range(21)])

# the float nearest 10**j for j = -4..17: 10**j itself from j = 0 on, and
# just above it below 1, so |v| >= _DECADES[j + 4] exactly when
# |v| >= 10**j. No float lies within half a unit of the 17th digit below a
# power of ten, so a significand never rounds up into the next decade
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 18)])


# the longest fixed-notation text of a float64 is 23 bytes,
# "-0.00012345678901234567", then the comma or newline after it
_FIELD = 24


def _csv_rows(ids: np.ndarray, labels: np.ndarray,
              features: np.ndarray) -> bytes:
    """The CSV rows of these samples: ``b"%d,%d," % (id, label)``, then
    ``b"%.17g" % v`` of each feature, comma-separated, and a newline.

    A row whose features %.17g all prints in fixed notation, by far the
    commonest, is built from exact integer digits (``_fixed_digits``):
    each value's text goes in a NUL-padded field, the values are grouped
    by decimal exponent so that each group is laid out with static slices,
    and deleting the NULs joins the fields. Any other row is %-formatted
    whole and spliced in."""
    n, d = features.shape
    values = np.ravel(features)
    key, significands = _fixed_digits(values)
    slow = np.flatnonzero((key.reshape(n, d) == 21).any(axis=1))
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=22)
    fields = np.zeros((len(values), _FIELD), np.uint8)
    fields[:, 0] = np.signbit(values[order]) * ord("-")
    digits = _digit_text(significands[order[:len(values) - counts[21]]])
    start = 0
    for k in (np.flatnonzero(counts[:21]) - 4).tolist():  # exponents present
        stop = start + counts[k + 4]
        text, digit = fields[start:stop, 1:], digits[start:stop]
        if k < 0:  # "0.", -k - 1 zeros, then the digits
            text[:, :1 - k] = np.frombuffer(b"0.000"[:1 - k], np.uint8)
            text[:, 1 - k:18 - k] = digit
        else:  # k + 1 integer digits, whose NULs stand for zeros, then the
            # point unless every fraction digit is a trailing zero
            text[:, :k + 1] = digit[:, :k + 1] | ord("0")
            if k < 16:
                text[:, k + 1] = (digit[:, k + 1] != 0) * ord(".")
                text[:, k + 2:18] = digit[:, k + 1:]
        start = stop
    row, column = np.divmod(order, d)
    fields[:, -1] = np.where(column == d - 1, ord("\n"), ord(","))
    rows = np.empty((n, d + 2, _FIELD), np.uint8)
    # the id and label fill two fields: an int64 is at most 20 bytes
    rows[:, :2] = np.array([b"%d,%d," % p for p in zip(ids.tolist(),
                                                        labels.tolist())],
                           f"S{2 * _FIELD}").view(np.uint8).reshape(n, 2, -1)
    # each value's field follows the id and label fields of its row
    rows.reshape(-1, _FIELD)[order + 2 * row + 2] = fields
    # a byte 1 marks where each %-formatted row goes
    rows[slow] = 0
    rows[slow, 0, 0] = 1
    pieces = [b""] * (2 * len(slow) + 1)
    pieces[::2] = rows.tobytes().translate(None, b"\0").split(b"\1")
    template = b"%d,%d," + b",".join([b"%.17g"] * d) + b"\n"
    pieces[1::2] = [template % (i, y, *f) for i, y, f in zip(
        ids[slow].tolist(), labels[slow].tolist(), features[slow].tolist())]
    return b"".join(pieces)


def _fixed_digits(values: np.ndarray):
    """(key, significand) of each float64 in ``values``. For a value that
    %.17g prints in fixed notation, key is its decimal exponent k + 4
    (-4 <= k <= 16) and significand its 17 significant digits, the integer
    round-half-even(|v| * 10**(16 - k)) in [10**16, 10**17); ±0 has key 4
    and significand 0. Any other value has key 21."""
    magnitude = np.abs(values)
    # k = i - 5 for the i thresholds at or below |v|, when 1 <= i <= 21
    i = np.searchsorted(_DECADES, magnitude, side="right")
    i[values == 0] = 5  # ±0: key 4, and _scaled gives it significand 0
    fixed = np.flatnonzero((i >= 1) & (i <= 21))
    k = i[fixed] - 5
    key = np.full(len(values), 21, np.uint8)
    key[fixed] = k + 4
    significands = np.zeros(len(values), np.int64)
    significands[fixed] = _scaled(magnitude[fixed], k)
    return key, significands


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(x) as int64 for x = a * 10**(16 - k), exact when
    10**16 <= x < 10**17, and 0 for a = 0. Dekker's two-product gives
    x = p + e exactly, p = fl(x). From 10**16 > 2**53 on, p is an even
    integer and |e| <= ulp(p) / 2, so adding e rounded half to even to p
    is exact."""
    b = _POWERS_OF_10[16 - k]
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _split(v: np.ndarray):
    """Veltkamp's split: (hi, lo) with hi + lo == v exactly, each of at
    most 26 significant bits."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _digit_text(significands: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each significand, as an (n, 17) uint8 array,
    with its trailing zeros NUL (all 17 for 0)."""
    hi, lo = np.divmod(significands, 10 ** 8)  # < 10**9: uint32 from here
    first, hi = np.divmod(hi.astype(np.uint32), 10 ** 8)
    groups = [first, *np.divmod(hi, 10 ** 4),
              *np.divmod(lo.astype(np.uint32), 10 ** 4)]
    text = np.empty((len(significands), 5), np.uint32)
    # a group followed by zero groups only loses its trailing zeros
    later_zero = np.ones(len(significands), bool)
    for i in range(4, -1, -1):
        text[:, i] = _digit_groups()[groups[i] + later_zero * 10000]
        later_zero &= groups[i] == 0
    # the first group is a single digit, "000d"
    return text.view(np.uint8)[:, 3:]


def _parse_csv(fh, path: str):
    """Parse an open dataset CSV into (ids, labels, features, seed)."""
    seed = None
    line, lineno = fh.readline(), 1
    while line.startswith("#"):
        text = line[1:].lstrip(" \t")
        if text.startswith("seed="):
            try:
                seed = int(text[len("seed="):])
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
    return rows["id"].copy(), rows["label"].copy(), rows["f"].copy(), seed


def _write_sealed(path: str, magic: bytes, header: dict, arrays) -> None:
    """``magic``, the header's length (uint64 LE), the sorted-key JSON
    header, each array's raw bytes, then sha256(header + arrays)."""
    header_bytes = json.dumps(header, sort_keys=True).encode()
    trailer = hashlib.sha256(header_bytes)
    for array in arrays:
        trailer.update(array)
    _write_atomic(path, [magic, len(header_bytes).to_bytes(8, "little"),
                         header_bytes, *arrays, trailer.digest()], "wb")


def _read_sealed(path: str, magic: bytes, kind: str, layout):
    """(header, arrays) of a ``_write_sealed`` file, or a FormatError naming
    ``path``. ``layout(header)`` lists each array's (dtype, shape); it
    raises KeyError, IndexError, TypeError or ValueError to reject."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        hlen = int.from_bytes(head[8:], "little")
        if head[:8] != magic or 16 + hlen + 32 > size:
            raise FormatError(f"{path}: not a {kind} file")
        header_bytes = fh.read(hlen)
        try:
            header = json.loads(header_bytes)
            specs = [(np.dtype(t), shape) for t, shape in layout(header)]
        except (KeyError, IndexError, TypeError, ValueError,
                RecursionError) as exc:  # RecursionError: deeply nested JSON
            raise FormatError(f"{path}: bad header: {exc!r}") from exc
        # checked before allocating: no header gets more than the file holds
        expected = 16 + hlen + 32 + sum(t.itemsize * math.prod(shape)
                                        for t, shape in specs)
        if size != expected:
            raise FormatError(f"{path}: {size} bytes, header describes "
                              f"{expected}")
        arrays = [np.empty(shape, t) for t, shape in specs]
        trailer = hashlib.sha256(header_bytes)
        for array in arrays:  # straight into the arrays, no bytes copy
            fh.readinto(array)
            trailer.update(array)
        if fh.read() != trailer.digest():
            raise FormatError(f"{path}: checksum mismatch")
    return header, arrays


def _write_sidecar(path: str, csv_digest: bytes, dataset: Dataset) -> None:
    """Write ``<path>.parsed`` for the CSV whose sha256 is ``csv_digest``.
    The sidecar only saves a parse, so an OSError (a read-only directory, a
    directory in the way) leaves the load or save as it is."""
    header = {"csv_sha256": csv_digest.hex(), "n": len(dataset),
              "d": dataset.dim, "seed": dataset.seed}
    try:
        _write_sealed(path + ".parsed", _DSET_MAGIC, header, [
            np.ascontiguousarray(dataset.ids, dtype="<i8"),
            np.ascontiguousarray(dataset.sealed._peek(), dtype="<i8"),
            np.ascontiguousarray(dataset.features, dtype="<f8")])
    except OSError:
        pass


def _read_sidecar(path: str, csv_digest: bytes):
    """(ids, labels, features, seed) from ``<path>.parsed``, or None unless
    it is an intact sidecar keyed by ``csv_digest``."""
    def layout(header):
        n, d, seed = header["n"], header["d"], header["seed"]
        if not (header["csv_sha256"] == csv_digest.hex() and type(n) is int
                and type(d) is int and n >= 1 and d >= 1
                and (seed is None or type(seed) is int)):
            raise ValueError("stale or damaged sidecar")
        return [("<i8", (n,)), ("<i8", (n,)), ("<f8", (n, d))]

    try:
        header, arrays = _read_sealed(path + ".parsed", _DSET_MAGIC,
                                      "dataset sidecar", layout)
    except (OSError, FormatError):
        return None
    return (*arrays, header["seed"])


def _write_table(path: str, header, rows) -> None:
    """A CSV table: None is an empty cell, a float its str (equal to repr)."""
    _write_atomic(path, (",".join("" if v is None else str(v) for v in row)
                         + "\n" for row in itertools.chain([header], rows)))


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV table. A file that is empty or not
    text, or a row whose width is not the header's, is a FormatError naming
    ``path``, and for a row its line."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not lines:
        raise FormatError(f"{path}: empty table")
    header, *rows = (line.split(",") for line in lines)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise FormatError(f"{path}:{lineno}: {len(row)} fields, header "
                              f"has {len(header)}")
    return header, rows
