import hashlib
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudocl import config, data, metrics, nn

from conftest import CONFIGS


def tiny_spec(**kw):
    base = dict(num_classes=4, dim=3, samples_per_class=25,
                separation=2.0, std=0.2, seed=0)
    base.update(kw)
    return config.BlobSpec(**base)


class TestBlobSpec:
    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(num_classes=0)
        with pytest.raises(ValueError):
            tiny_spec(samples_per_class=0)

    def test_bad_scales_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(std=0.0)
        with pytest.raises(ValueError):
            tiny_spec(separation=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("std", float("nan")), ("std", float("inf")),
        ("separation", float("nan")), ("separation", float("inf")),
        ("noise_std", -2.0), ("noise_std", float("nan")),
        ("noise_std", float("inf")), ("seed", -1)])
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            tiny_spec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("num_classes", 0), ("dim", 0), ("samples_per_class", 1)])
    def test_bad_count_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            tiny_spec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("num_classes", 4.0), ("seed", True), ("std", "0.2"),
        ("signal_dims", 2.0)])
    def test_value_of_wrong_kind_rejected_naming_field(self, field, value):
        # a float count would fail later, inside range()
        with pytest.raises(ValueError, match=f"^{field} must be "):
            tiny_spec(**{field: value})

    def test_noise_std_needs_signal_dims(self):
        with pytest.raises(ValueError, match="^noise_std must come with "
                                             "signal_dims"):
            tiny_spec(noise_std=5.0)
        tiny_spec(noise_std=5.0, signal_dims=2)

    def test_signal_dims_bounds(self):
        with pytest.raises(ValueError):
            tiny_spec(signal_dims=4)
        with pytest.raises(ValueError):
            tiny_spec(signal_dims=0)
        tiny_spec(signal_dims=3)  # full-width is allowed


class TestGenerateStream:
    def test_shapes_and_balance(self):
        ds = data.generate_gaussian_stream(tiny_spec())
        assert len(ds) == 100
        assert ds.dim == 3
        labels = ds.sealed.reveal(slice(None))
        assert np.array_equal(np.unique(labels), [0, 1, 2, 3])
        assert all(np.sum(labels == c) == 25 for c in range(4))

    def test_deterministic_given_seed(self):
        a = data.generate_gaussian_stream(tiny_spec(seed=9))
        b = data.generate_gaussian_stream(tiny_spec(seed=9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.sealed.reveal(slice(None)),
                              b.sealed.reveal(slice(None)))

    def test_different_seeds_differ(self):
        a = data.generate_gaussian_stream(tiny_spec(seed=1))
        b = data.generate_gaussian_stream(tiny_spec(seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_classes_are_separable_when_well_spread(self):
        spec = tiny_spec(separation=5.0, std=0.1, samples_per_class=40)
        ds = data.generate_gaussian_stream(spec)
        labels = ds.sealed.reveal(slice(None))
        # nearest-class-mean classification should be essentially perfect
        means = np.array([ds.features[labels == c].mean(axis=0)
                          for c in range(4)])
        d2 = np.sum((ds.features[:, None] - means[None]) ** 2, axis=2)
        assert np.mean(np.argmin(d2, axis=1) == labels) > 0.99

    def test_signal_dims_confines_centers(self):
        spec = tiny_spec(dim=6, signal_dims=2, noise_std=1.0,
                         samples_per_class=400)
        ds = data.generate_gaussian_stream(spec)
        labels = ds.sealed.reveal(slice(None))
        means = np.array([ds.features[labels == c].mean(axis=0)
                          for c in range(4)])
        # class means beyond the signal dims are near zero
        assert np.all(np.abs(means[:, 2:]) < 0.25)
        assert np.std(means[:, :2]) > 0.5

    def test_noise_std_scales_trailing_dims(self):
        spec = tiny_spec(dim=4, signal_dims=2, std=0.1, noise_std=3.0,
                         samples_per_class=500)
        ds = data.generate_gaussian_stream(spec)
        stds = ds.features.std(axis=0)
        assert np.all(stds[2:] > 2.0)

    def test_one_draw_equals_per_class_draws(self):
        def per_class(spec):
            # the generator as a loop that draws one class's noise at a time
            rng = np.random.default_rng(spec.seed)
            sdims = spec.signal_dims or spec.dim
            nstd = spec.std if spec.noise_std is None else spec.noise_std
            centers = np.zeros((spec.num_classes, spec.dim))
            centers[:, :sdims] = spec.separation * rng.standard_normal(
                (spec.num_classes, sdims))
            features, labels = [], []
            for c in range(spec.num_classes):
                noise = rng.standard_normal((spec.samples_per_class, spec.dim))
                noise[:, :sdims] *= spec.std
                noise[:, sdims:] *= nstd
                features.append(centers[c] + noise)
                labels += [c] * spec.samples_per_class
            return np.concatenate(features), np.array(labels)

        specs = [
            config.load_spec(str(CONFIGS / "blobs.cfg")),
            # the cli workload of perfbench at seed 7
            config.BlobSpec(num_classes=20, dim=64, samples_per_class=1000,
                            separation=1.0, std=0.15, seed=7,
                            signal_dims=32, noise_std=2.0),
            tiny_spec(),
            tiny_spec(dim=6, signal_dims=2),
            tiny_spec(num_classes=1),
            tiny_spec(dim=1),
        ]
        for spec in specs:
            ds = data.generate_gaussian_stream(spec)
            features, labels = per_class(spec)
            assert ds.features.tobytes() == features.tobytes(), spec
            assert np.array_equal(ds.sealed._peek(), labels)
            assert np.array_equal(ds.ids, np.arange(len(labels)))
            assert ds.seed == spec.seed


class TestDataset:
    def test_eval_split_fraction_and_stratification(self):
        ds = data.generate_gaussian_stream(tiny_spec(samples_per_class=50))
        labels = ds.sealed.reveal(slice(None))
        for c in range(4):
            n_eval = np.sum(ds.is_eval & (labels == c))
            assert n_eval == 10  # 20% of 50

    def test_split_is_reproducible_across_loads(self, tmp_path):
        ds = data.generate_gaussian_stream(tiny_spec())
        path = str(tmp_path / "d.csv")
        data.save_dataset(ds, path)
        reloaded = data.load_dataset(path)
        assert np.array_equal(ds.is_eval, reloaded.is_eval)

    def test_rows_for_classes_partitions_train_eval(self):
        ds = data.generate_gaussian_stream(tiny_spec())
        train = ds.rows_for_classes([0, 1], eval_split=False)
        evl = ds.rows_for_classes([0, 1], eval_split=True)
        assert len(set(train) & set(evl)) == 0
        assert len(train) + len(evl) == 50
        # ascending rows of those classes, whatever the samples' ids
        rows = np.sort(np.concatenate([train, evl]))
        assert np.array_equal(rows, np.flatnonzero(ds.sealed._peek() < 2))
        assert not ds.is_eval[train].any() and ds.is_eval[evl].all()

    def test_duplicate_ids_rejected(self):
        with pytest.raises(data.FormatError):
            data.Dataset(np.array([0, 0, 1]), np.zeros((3, 2)),
                         np.array([0, 0, 1]))

    def test_label_count_mismatch_names_both_counts(self):
        with pytest.raises(data.FormatError,
                           match="^3 labels for 4 samples$"):
            data.Dataset(np.arange(4), np.zeros((4, 2)), np.array([0, 1, 1]))

    @pytest.mark.parametrize("ids, labels, name", [
        (np.arange(6), np.array([[0], [0], [0], [1], [1], [1]]), "labels"),
        (np.arange(6)[:, None], np.arange(6) % 2, "ids"),
        (np.arange(6), np.arange(6) % 2 + 0.5, "labels"),
        (np.arange(6.0), np.arange(6) % 2, "ids"),
        (np.array([2**63, 1, 2, 3, 4, 5], dtype=np.uint64), np.arange(6) % 2,
         "ids"),
        (np.arange(6), np.array([0, 0, 0, 1, 1, 2**64 - 1], dtype=np.uint64),
         "labels")],
        ids=["label-column", "id-column", "fractional-labels", "float-ids",
             "uint64-ids", "uint64-labels"])
    def test_ids_and_labels_must_be_integer_vectors(self, ids, labels, name):
        # a label column read as one class, an id column failed to index,
        # fractional labels were cut to integers, and uint64 values of
        # 2**63 or more wrapped to negatives
        with pytest.raises(data.FormatError,
                           match=f"^{name} must be a 1-D integer array"):
            data.Dataset(ids, np.zeros((6, 2)), labels)

    def test_integer_ids_and_labels_kept_as_int64(self):
        ids, labels = np.arange(6), np.arange(6) % 2
        ds = data.Dataset(ids, np.zeros((6, 2)), labels)
        assert ds.ids is ids and ds.sealed._peek() is labels  # no copy
        ds = data.Dataset(ids.astype(np.int32), np.zeros((6, 2)),
                          labels.astype(np.uint8))
        assert ds.ids.dtype == ds.sealed._peek().dtype == np.int64
        assert np.array_equal(ds.ids, ids)

    def test_empty_rejected(self):
        with pytest.raises(data.FormatError):
            data.Dataset(np.array([]), np.zeros((0, 2)), np.array([]))

    def test_class_without_training_sample_rejected(self):
        # a one-sample class goes wholly to the eval split
        labels = np.array([0] * 5 + [1] + [2] * 5)
        with pytest.raises(data.FormatError,
                           match="^class 1 has no training sample"):
            data.Dataset(np.arange(11), np.zeros((11, 2)), labels)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_feature_rejected_naming_sample(self, bad):
        features = np.zeros((6, 2))
        features[[2, 4], 1] = bad
        with pytest.raises(data.FormatError,
                           match="^sample 12 has a non-finite feature"):
            data.Dataset(np.arange(10, 16), features, np.arange(6) % 2)

    def test_no_feature_column_rejected_naming_shape(self):
        with pytest.raises(data.FormatError, match=r"^features of shape "
                                                   r"\(10, 0\) have no column"):
            data.Dataset(np.arange(10), np.zeros((10, 0)), np.arange(10) % 2)

    @pytest.mark.parametrize("seed", [3.5, "7", True],
                             ids=["float", "str", "bool"])
    def test_seed_that_is_no_integer_rejected_naming_it(self, seed):
        with pytest.raises(data.FormatError, match="^seed must be an integer "
                           f"or None, not {re.escape(repr(seed))}$"):
            data.Dataset(np.arange(10), np.zeros((10, 2)), np.arange(10) % 2,
                         seed=seed)

    def test_numpy_integer_seed_stored_as_int(self, tmp_path, monkeypatch):
        ds = data.Dataset(np.arange(10), np.zeros((10, 2)), np.arange(10) % 2,
                          seed=np.int64(3))
        assert type(ds.seed) is int and ds.seed == 3
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, str(path))
        monkeypatch.setattr(data, "_parse_csv", _no_parse)
        assert data.load_dataset(str(path)).seed == 3


class TestSealedLabels:
    def test_access_counter(self):
        sealed = data.SealedLabels(np.array([0, 1, 2]))
        assert sealed.access_count == 0
        sealed.reveal(slice(None))
        sealed.reveal([0, 1])
        assert sealed.access_count == 2

    def test_reveal_returns_copy(self):
        sealed = data.SealedLabels(np.array([0, 1, 2]))
        out = sealed.reveal(slice(None))
        out[0] = 99
        assert sealed.reveal(slice(None))[0] == 0

    def test_indexed_reveal(self):
        sealed = data.SealedLabels(np.array([5, 6, 7]))
        assert sealed.reveal([2, 0]).tolist() == [7, 5]


# float64 values whose text is hardest to read back: the subnormal and
# finite extremes, signed zeros, values needing 17 significant digits
# and integer-valued floats
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.30000000000000004,
               -0.13603749051420111, 1 / 3, 1.0, -7.0, 2.0 ** 53, 1e22]
finite_floats = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from(EDGE_FLOATS))
int64s = st.integers(-2 ** 63, 2 ** 63 - 1)
# a seed is any Python int, negative, zero or beyond int64, or none
seeds = st.none() | st.integers() | st.sampled_from([0, -1, 2 ** 64])


@st.composite
def csv_datasets(draw):
    """A Dataset of int64 ids and labels, two rows per class so that the
    eval split leaves each class a training row, any finite features and
    any seed."""
    dim = draw(st.integers(1, 5))
    classes = draw(st.lists(int64s, min_size=1, max_size=4, unique=True))
    n = 2 * len(classes)
    ids = draw(st.lists(int64s, min_size=n, max_size=n, unique=True))
    rows = draw(st.lists(st.lists(finite_floats, min_size=dim, max_size=dim),
                         min_size=n, max_size=n))
    return data.Dataset(np.array(ids), np.array(rows), np.repeat(classes, 2),
                        seed=draw(seeds))


def _no_parse(fh, path):
    raise AssertionError("parsed a CSV whose sidecar is intact")


def _assert_parse_gives(path, ds):
    """load_dataset parses the CSV, no sidecar read, into ``ds``'s bytes and
    seed; the next load reads the sidecar that parse wrote and gives the
    same."""
    _sidecar(path).unlink(missing_ok=True)
    parsed = data.load_dataset(str(path))
    with mock.patch.object(data, "_parse_csv", _no_parse):
        cached = data.load_dataset(str(path))
    for back in (parsed, cached):
        for got, want in [(back.ids, ds.ids), (back.features, ds.features),
                          (back.sealed._peek(), ds.sealed._peek())]:
            assert got.tobytes() == want.tobytes()
        assert back.seed == ds.seed and type(back.seed) is type(ds.seed)


class TestCsvRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(ds=csv_datasets())
    def test_parse_reads_back_every_byte(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("csv") / "ds.csv"
        data.save_dataset(ds, str(path))
        _assert_parse_gives(path, ds)
        rows = path.read_bytes().splitlines()[-len(ds):]
        assert [row.split(b",")[2:] for row in rows] == [
            [b"%.17g" % v for v in f] for f in ds.features.tolist()]

    @settings(max_examples=20, deadline=None)
    @given(pool=st.lists(finite_floats, min_size=1, max_size=30),
           dim=st.integers(1, 3), extra=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_past_one_block_read_back(self, tmp_path_factory, pool, dim,
                                           extra, seed):
        n = data._CSV_BLOCK_ROWS + extra
        features = np.random.default_rng(seed).choice(pool, (n, dim))
        ds = data.Dataset(np.arange(n), features, np.arange(n) % 2)
        path = tmp_path_factory.mktemp("csv") / "ds.csv"
        data.save_dataset(ds, str(path))
        _assert_parse_gives(path, ds)
        rows = path.read_bytes().splitlines()[1:]
        assert [row.split(b",")[2:] for row in rows] == [
            [b"%.17g" % v for v in f] for f in ds.features.tolist()]

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_one_row_past_whole_blocks_gives_template_bytes(self, tmp_path,
                                                            blocks):
        # the 1-row tail takes a row from the block before it; the file is
        # still the %.17g template's, in fixed and in scientific notation
        n = blocks * data._CSV_BLOCK_ROWS + 1
        rng = np.random.default_rng(blocks)
        features = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 18,
                                                                  (n, 3))
        ds = data.Dataset(rng.permutation(n) + 3, features,
                          rng.integers(0, 4, n), seed=blocks)
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, str(path))
        template = b"%d,%d," + b",".join([b"%.17g"] * 3) + b"\n"
        assert path.read_bytes() == b"# seed=%d\nid,label,f0,f1,f2\n" % (
            blocks) + b"".join(template % (i, y, *f) for i, y, f in zip(
                ds.ids.tolist(), ds.sealed._peek().tolist(),
                features.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(ds=csv_datasets())
    def test_csv_written_with_repr_loads_the_same(self, tmp_path_factory,
                                                  ds):
        path = tmp_path_factory.mktemp("csv") / "ds.csv"
        path.write_text(("" if ds.seed is None else f"# seed={ds.seed}\n")
                        + "id,label," + ",".join(
            f"f{i}" for i in range(ds.dim)) + "\n" + "".join(
            f"{i},{y},{','.join(map(repr, f))}\n" for i, y, f in zip(
                ds.ids.tolist(), ds.sealed._peek().tolist(),
                ds.features.tolist())))
        _assert_parse_gives(path, ds)

    def test_bitwise_feature_round_trip(self, tmp_path):
        ds = data.generate_gaussian_stream(tiny_spec(seed=13))
        path = str(tmp_path / "ds.csv")
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.ids, back.ids)
        assert np.array_equal(ds.sealed._peek(), back.sealed._peek())
        assert back.seed == 13

    def test_header_layout(self, tmp_path):
        ds = data.generate_gaussian_stream(tiny_spec())
        path = str(tmp_path / "ds.csv")
        data.save_dataset(ds, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "id,label,f0,f1,f2"
        assert len(lines) == 2 + len(ds)

    def test_bad_header_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,cls,f0\n0,0,1.0\n")
        with pytest.raises(data.FormatError, match="bad.csv"):
            data.load_dataset(str(path))

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f0,f1\n0,0,1.0,2.0\n1,1,3.0\n2,1,3.0,1.0\n")
        with pytest.raises(data.FormatError, match=r"bad\.csv:3"):
            data.load_dataset(str(path))

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f0\n0,0,1.0\n1,0,oops\n2,1,1.0\n")
        with pytest.raises(data.FormatError, match=r"bad\.csv:3"):
            data.load_dataset(str(path))

    @pytest.mark.parametrize("bad_row", ["1,0,oops", "1,0,1.0,2.0"],
                             ids=["bad-value", "field-count"])
    def test_error_line_counts_comment_lines(self, tmp_path, bad_row):
        path = tmp_path / "bad.csv"
        path.write_text(f"# seed=3\nid,label,f0\n0,0,1.0\n{bad_row}\n"
                        "2,1,1.0\n")
        with pytest.raises(data.FormatError, match=r"bad\.csv:4: "):
            data.load_dataset(str(path))

    def test_whole_file_error_names_file_when_every_line_parses(
            self, tmp_path, monkeypatch):
        # when the whole-file parse fails but no line alone does, the error
        # names the file with numpy's own message
        path = tmp_path / "ds.csv"
        path.write_text("id,label,f0\n0,0,1.0\n1,1,2.0\n")
        loadtxt = np.loadtxt

        def whole_file_fails(source, *args, **kwargs):
            if not isinstance(source, list):
                raise ValueError("whole-file message")
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", whole_file_fails)
        with pytest.raises(data.FormatError, match=f"^{re.escape(str(path))}"
                                                   f": whole-file message$"):
            data.load_dataset(str(path))

    def test_bad_seed_comment_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# generated\n# seed=abc\nid,label,f0\n0,0,1.0\n")
        with pytest.raises(data.FormatError, match=r"bad\.csv:2: .*seed=abc"):
            data.load_dataset(str(path))

    @pytest.mark.parametrize("comment, seed", [
        ("# seed=7", 7), ("#seed=7", 7), ("# \t seed=7", 7),
        ("# generated with seed=7 by a script", None), ("# reseed=5", None),
    ], ids=["spaced", "bare", "blanks", "inside-text", "inside-word"])
    def test_only_a_comment_starting_seed_sets_the_seed(self, tmp_path,
                                                         comment, seed):
        # only a comment whose text starts with 'seed=' is the seed;
        # every other comment is ignored
        path = tmp_path / "ds.csv"
        path.write_text(f"# made here\n{comment}\nid,label,f0\n0,0,1.0\n"
                        "1,0,2.0\n")
        assert data.load_dataset(str(path)).seed == seed

    @pytest.mark.parametrize("rows, message", [
        ("0,0,1.0\n1,0,nan\n2,1,1.0\n", "sample 1 has a non-finite feature"),
        ("0,0,1.0\n0,1,2.0\n", "duplicate sample ids"),
        # ids 4 and 2 both repeat; the third row repeats an id first
        ("4,0,1.0\n9,0,1.0\n4,1,1.0\n2,1,1.0\n2,0,1.0\n",
         "duplicate sample ids: sample 4 appears more than once$"),
        ("", "no records")],
        ids=["non-finite", "duplicate-id", "first-duplicate-named",
             "header-only"])
    def test_dataset_errors_name_file(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f0\n" + rows)
        with pytest.raises(data.FormatError, match=rf"bad\.csv: {message}"):
            data.load_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(data.FormatError):
            data.load_dataset(str(path))


def _sidecar(path):
    return path.with_name(path.name + ".parsed")


def _split_sealed(blob):
    """(header, payload) of a sealed file: a checkpoint or a sidecar."""
    hlen = int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16:16 + hlen]), blob[16 + hlen:-32]


def _seal(header, payload, magic=b"PCLCKPT1"):
    """A sealed file with a valid checksum around any header and payload."""
    header_bytes = json.dumps(header, sort_keys=True).encode()
    return (magic + len(header_bytes).to_bytes(8, "little")
            + header_bytes + payload
            + hashlib.sha256(header_bytes + payload).digest())


def _reheader(blob, **edits):
    """A resealed sidecar whose JSON header has ``edits`` applied (a None
    value drops the key), with its header length to match."""
    header, payload = _split_sealed(blob)
    header.update(edits)
    return _seal({k: v for k, v in header.items() if v is not None},
                 payload, magic=blob[:8])


def _nested_header(magic):
    """A sealed file whose header nests too deeply for ``json.loads``."""
    header = b"[" * 100_000 + b"]" * 100_000
    return (magic + len(header).to_bytes(8, "little") + header
            + hashlib.sha256(header).digest())


def _flip(blob, i, bit=1):
    return blob[:i] + bytes([blob[i] ^ bit]) + blob[i + 1:]


def _zero_digest(blob):
    """The sidecar with its CSV digest zeroed in place, trailer kept."""
    digest = _split_sealed(blob)[0]["csv_sha256"].encode()
    return blob.replace(digest, b"0" * len(digest))


def _v1_layout(blob):
    """The same parse in the PCLDSET1 layout: magic, the CSV's sha256,
    header length, JSON header {d, n, seed}, the arrays, then a sha256 over
    everything before it."""
    header, payload = _split_sealed(blob)
    digest = bytes.fromhex(header.pop("csv_sha256"))
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = (b"PCLDSET1" + digest + len(header_bytes).to_bytes(8, "little")
            + header_bytes + payload)
    return body + hashlib.sha256(body).digest()


class TestSidecar:
    """``save_dataset`` writes ``<csv>.parsed``; ``load_dataset`` reads it
    when it is intact and keyed to the CSV's bytes, and parses otherwise."""

    @pytest.fixture
    def saved(self, tmp_path):
        ds = data.generate_gaussian_stream(tiny_spec(seed=13))
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, str(path))
        return path

    @staticmethod
    def parsed(path):
        """The dataset as the CSV's parse gives it, sidecar untouched."""
        blob = _sidecar(path).read_bytes()
        _sidecar(path).unlink()
        try:
            return data.load_dataset(str(path))
        finally:
            _sidecar(path).write_bytes(blob)

    @staticmethod
    def assert_same(a, b):
        assert a.ids.dtype == b.ids.dtype and a.ids.tobytes() == b.ids.tobytes()
        assert a.sealed._peek().tobytes() == b.sealed._peek().tobytes()
        assert a.features.dtype == b.features.dtype
        assert a.features.tobytes() == b.features.tobytes()
        assert a.seed == b.seed
        assert a.is_eval.tobytes() == b.is_eval.tobytes()
        assert a.sealed.access_count == b.sealed.access_count == 0

    def test_hit_matches_parse(self, saved, monkeypatch):
        parsed = self.parsed(saved)
        monkeypatch.setattr(data, "_parse_csv", _no_parse)
        hit = data.load_dataset(str(saved))
        self.assert_same(hit, parsed)
        assert hit.features.flags.c_contiguous and hit.seed == 13

    def test_layout(self, saved):
        blob = _sidecar(saved).read_bytes()
        header, payload = _split_sealed(blob)
        assert header == {
            "csv_sha256": hashlib.sha256(saved.read_bytes()).hexdigest(),
            "n": 100, "d": 3, "seed": 13}
        ds = self.parsed(saved)
        assert payload == (ds.ids.astype("<i8").tobytes()
                           + ds.sealed._peek().astype("<i8").tobytes()
                           + ds.features.astype("<f8").tobytes())
        # the checkpoint's framing, byte for byte
        assert blob == _seal(header, payload, magic=b"PCLDSET3")

    def test_load_writes_the_sidecar_save_writes(self, saved):
        written = _sidecar(saved).read_bytes()
        _sidecar(saved).unlink()
        data.load_dataset(str(saved))
        assert _sidecar(saved).read_bytes() == written

    def test_no_seed_round_trips(self, tmp_path):
        ds = data.generate_gaussian_stream(tiny_spec())
        ds.seed = None
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, str(path))
        assert _split_sealed(_sidecar(path).read_bytes())[0]["seed"] is None
        self.assert_same(data.load_dataset(str(path)), self.parsed(path))

    def test_edited_csv_makes_sidecar_stale(self, saved):
        lines = saved.read_text().splitlines(keepends=True)
        first = lines[2].split(",")
        first[2] = "0.5"
        lines[2] = ",".join(first)
        saved.write_text("".join(lines))
        ds = data.load_dataset(str(saved))
        assert ds.features[0, 0] == 0.5
        # rewritten for the edited bytes
        header = _split_sealed(_sidecar(saved).read_bytes())[0]
        assert header["csv_sha256"] == hashlib.sha256(
            saved.read_bytes()).hexdigest()
        self.assert_same(data.load_dataset(str(saved)), self.parsed(saved))

    def test_edited_csv_parse_error_names_line(self, saved):
        stale = _sidecar(saved).read_bytes()
        lines = saved.read_text().splitlines(keepends=True)
        lines[4] = "oops\n"
        saved.write_text("".join(lines))
        with pytest.raises(data.FormatError, match=r"ds\.csv:5: "):
            data.load_dataset(str(saved))
        assert _sidecar(saved).read_bytes() == stale

    @pytest.mark.parametrize("damage", [
        lambda b: b[:-1], lambda b: b[:15], lambda b: b[:40], lambda b: b"",
        lambda b: b + b"\0",
        lambda b: b"PCLDSET0" + b[8:],
        _zero_digest,
        lambda b: _reheader(b, csv_sha256="0" * 64),
        lambda b: _flip(b, len(b) - 100),
        lambda b: _flip(b, len(b) - 1, 0x80),
        lambda b: _flip(b, 8, 4),
        lambda b: _reheader(b, n=101),
        lambda b: _reheader(b, n=10**18),
        lambda b: _reheader(b, n="100"),
        lambda b: _reheader(b, n=50, d=6),
        lambda b: _reheader(b, d=-3),
        lambda b: _reheader(b, seed=None),
        lambda b: _reheader(b, seed="13"),
        lambda b: _nested_header(b[:8]),
        _v1_layout,
        # the version before the seed comment rule, whose seed may differ
        lambda b: b"PCLDSET2" + b[8:],
    ], ids=["cut-1", "cut-head", "cut-digest", "empty", "extra-byte",
            "magic", "digest", "digest-resealed", "flip-payload",
            "flip-trailer", "flip-length", "n-resealed", "n-huge-resealed",
            "n-type-resealed", "same-size-resealed", "d-resealed",
            "no-seed-resealed", "seed-type-resealed", "nested-resealed",
            "v1-layout", "v2-magic"])
    def test_damaged_sidecar_ignored(self, saved, damage):
        parsed = self.parsed(saved)
        good = _sidecar(saved).read_bytes()
        _sidecar(saved).write_bytes(damage(good))
        self.assert_same(data.load_dataset(str(saved)), parsed)
        assert _sidecar(saved).read_bytes() == good

    def test_directory_in_the_way(self, tmp_path):
        ds = data.generate_gaussian_stream(tiny_spec(seed=13))
        path = tmp_path / "ds.csv"
        _sidecar(path).mkdir()
        data.save_dataset(ds, str(path))
        for _ in range(2):
            self.assert_same(data.load_dataset(str(path)), ds)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ds.csv", "ds.csv.parsed"]
        assert _sidecar(path).is_dir()

    def test_failed_csv_write_leaves_no_sidecar(self, tmp_path):
        ds = data.generate_gaussian_stream(tiny_spec())
        # the second row is no array, so the write raises after the first
        ds.features = [ds.features[0], None]
        with pytest.raises(AttributeError):
            data.save_dataset(ds, str(tmp_path / "ds.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_failed_csv_write_keeps_matching_pair(self, saved):
        before = saved.read_bytes(), _sidecar(saved).read_bytes()
        ds = data.load_dataset(str(saved))
        ds.features = [ds.features[0], None]
        with pytest.raises(AttributeError):
            data.save_dataset(ds, str(saved))
        assert (saved.read_bytes(), _sidecar(saved).read_bytes()) == before


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = nn.init_model(4, 6, 2, 5, seed=3)
        path = str(tmp_path / "m.ckpt")
        data.write_checkpoint(model, path, meta={"step": 2, "classes_seen": 10})
        back, meta = data.read_checkpoint(path)
        assert meta == {"step": 2, "classes_seen": 10}
        assert np.array_equal(model.params, back.params)
        x = np.random.default_rng(0).standard_normal((5, 4))
        assert np.array_equal(nn.forward(model, x), nn.forward(back, x))

    def test_corruption_detected(self, tmp_path):
        model = nn.init_model(3, 4, 1, 3, seed=1)
        path = tmp_path / "m.ckpt"
        data.write_checkpoint(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(data.FormatError, match="checksum"):
            data.read_checkpoint(str(path))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(data.FormatError, match="not a checkpoint"):
            data.read_checkpoint(str(path))

    def test_payload_is_params_verbatim(self, tmp_path):
        model = nn.init_model(3, 4, 2, 5, seed=2)
        path = tmp_path / "m.ckpt"
        data.write_checkpoint(model, str(path))
        assert path.read_bytes()[-32 - model.params.nbytes:-32] == \
            model.params.tobytes()

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(out_dim=h["out_dim"] + 1),
        lambda h: h.pop("hidden_shapes"),
        lambda h: h.update(hidden_shapes=[[3, 4], [5, 4]]),
        # the payload size is checked before the model is allocated
        lambda h: h.update(out_dim=10**12),
        lambda h: h.update(out_dim=0),
        lambda h: h.update(out_dim=5.0),
        lambda h: h.pop("seeds"),
        lambda h: h.update(meta=[["step", 1]]),
    ], ids=["out_dim_too_large", "no_hidden_shapes", "shapes_do_not_chain",
            "out_dim_huge", "out_dim_zero", "out_dim_float", "no_seeds",
            "meta_not_object"])
    def test_resealed_bad_header_is_format_error(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        data.write_checkpoint(nn.init_model(3, 4, 2, 5, seed=2), str(path))
        header, payload = _split_sealed(path.read_bytes())
        edit(header)
        path.write_bytes(_seal(header, payload))
        with pytest.raises(data.FormatError, match=r"m\.ckpt: "):
            data.read_checkpoint(str(path))

    def test_nested_header_is_format_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(_nested_header(b"PCLCKPT1"))
        with pytest.raises(data.FormatError, match=r"m\.ckpt: bad header"):
            data.read_checkpoint(str(path))


model_shapes = st.tuples(st.integers(1, 6),
                         st.lists(st.integers(1, 6), min_size=0, max_size=3),
                         st.integers(1, 6), st.integers(0, 2**31))


def _model(shape):
    in_dim, hidden, out_dim, seed = shape
    model = nn.Model([in_dim, *hidden, out_dim], seeds=[seed])
    model.params[:] = np.random.default_rng(seed).standard_normal(
        model.params.size) * 1e3
    return model


class TestCheckpointProperties:
    @settings(max_examples=40, deadline=None)
    @given(shape=model_shapes)
    def test_round_trip_bitwise(self, tmp_path_factory, shape):
        model = _model(shape)
        path = str(tmp_path_factory.mktemp("ckpt") / "m.ckpt")
        data.write_checkpoint(model, path, meta={"step": 1})
        back, meta = data.read_checkpoint(path)
        assert back.dims == model.dims and back.seeds == model.seeds
        assert back.params.tobytes() == model.params.tobytes()
        assert meta == {"step": 1}

    @settings(max_examples=40, deadline=None)
    @given(shape=model_shapes, where=st.floats(0.0, 1.0),
           flip=st.integers(1, 255), cut=st.integers(1, 64))
    def test_flipped_byte_or_truncation_is_format_error(
            self, tmp_path_factory, shape, where, flip, cut):
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        data.write_checkpoint(_model(shape), str(path))
        blob = path.read_bytes()
        flipped = bytearray(blob)
        flipped[min(int(where * len(blob)), len(blob) - 1)] ^= flip
        for bad in (bytes(flipped), blob[:-cut]):
            path.write_bytes(bad)
            with pytest.raises(data.FormatError):
                data.read_checkpoint(str(path))

    @settings(max_examples=40, deadline=None)
    @given(shape=model_shapes, extra=st.integers(-3, 3).filter(bool))
    def test_header_disagreeing_with_payload_is_format_error(
            self, tmp_path_factory, shape, extra):
        assume(shape[2] + extra >= 1)
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        data.write_checkpoint(_model(shape), str(path))
        header, payload = _split_sealed(path.read_bytes())
        header["out_dim"] += extra
        path.write_bytes(_seal(header, payload))
        with pytest.raises(data.FormatError):
            data.read_checkpoint(str(path))


class TestReportFiles:
    def test_report_csv_round_trip_via_repr(self, tmp_path):
        reps = [metrics.StepReport(1, 5, 1 / 3, 0.1234567890123456, -0.5),
                metrics.StepReport(2, 10, 0.75, 0.0, 0.25)]
        path = tmp_path / "report.csv"
        data.write_report(reps, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "step,classes_seen,acc,nmi,ari"
        got = lines[1].split(",")
        assert int(got[0]) == 1 and int(got[1]) == 5
        assert float(got[2]) == 1 / 3  # repr round-trips exactly
        assert float(got[3]) == 0.1234567890123456
        assert float(got[4]) == -0.5

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.csv"
        data.write_report([metrics.StepReport(1, 5, 0.5, 0.25, 0.125)],
                          str(path))
        before = path.read_bytes()
        # the second report has no fields, so the write raises after its
        # first row has gone to the temporary file
        with pytest.raises(AttributeError):
            data.write_report([metrics.StepReport(1, 5, 1.0, 1.0, 1.0),
                               object()], str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]

    def test_summary_layout(self, tmp_path):
        path = tmp_path / "summary.csv"
        data.write_summary({"avg_acc": 0.5, "last_acc": 0.4, "avg_nmi": 0.3,
                            "avg_ari": 0.2, "seed": 7, "variant": "ours"},
                           str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "avg_acc,last_acc,avg_nmi,avg_ari,seed,variant"
        fields = lines[1].split(",")
        assert fields[-1] == "ours" and fields[-2] == "7"
