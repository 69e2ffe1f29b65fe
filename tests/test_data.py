import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudocl import data, metrics, nn


def tiny_spec(**kw):
    base = dict(num_classes=4, dim=3, samples_per_class=25,
                separation=2.0, std=0.2, seed=0)
    base.update(kw)
    return data.BlobSpec(**base)


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
        labels = ds.sealed.reveal()
        assert np.array_equal(np.unique(labels), [0, 1, 2, 3])
        assert all(np.sum(labels == c) == 25 for c in range(4))

    def test_deterministic_given_seed(self):
        a = data.generate_gaussian_stream(tiny_spec(seed=9))
        b = data.generate_gaussian_stream(tiny_spec(seed=9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.sealed.reveal(), b.sealed.reveal())

    def test_different_seeds_differ(self):
        a = data.generate_gaussian_stream(tiny_spec(seed=1))
        b = data.generate_gaussian_stream(tiny_spec(seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_classes_are_separable_when_well_spread(self):
        spec = tiny_spec(separation=5.0, std=0.1, samples_per_class=40)
        ds = data.generate_gaussian_stream(spec)
        labels = ds.sealed.reveal()
        # nearest-class-mean classification should be essentially perfect
        means = np.array([ds.features[labels == c].mean(axis=0)
                          for c in range(4)])
        d2 = np.sum((ds.features[:, None] - means[None]) ** 2, axis=2)
        assert np.mean(np.argmin(d2, axis=1) == labels) > 0.99

    def test_signal_dims_confines_centers(self):
        spec = tiny_spec(dim=6, signal_dims=2, noise_std=1.0,
                         samples_per_class=400)
        ds = data.generate_gaussian_stream(spec)
        labels = ds.sealed.reveal()
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


class TestDataset:
    def test_eval_split_fraction_and_stratification(self):
        ds = data.generate_gaussian_stream(tiny_spec(samples_per_class=50))
        labels = ds.sealed.reveal()
        for c in range(4):
            n_eval = np.sum(ds.is_eval & (labels == c))
            assert n_eval == 10  # 20% of 50

    def test_split_is_reproducible_across_loads(self, tmp_path):
        ds = data.generate_gaussian_stream(tiny_spec())
        path = str(tmp_path / "d.csv")
        data.save_dataset(ds, path)
        reloaded = data.load_dataset(path)
        assert np.array_equal(ds.is_eval, reloaded.is_eval)

    def test_ids_for_classes_partitions_train_eval(self):
        ds = data.generate_gaussian_stream(tiny_spec())
        train = ds.ids_for_classes([0, 1], eval_split=False)
        evl = ds.ids_for_classes([0, 1], eval_split=True)
        assert len(set(train) & set(evl)) == 0
        assert len(train) + len(evl) == 50

    def test_features_for_matches_positions(self):
        ds = data.generate_gaussian_stream(tiny_spec())
        some = ds.ids[[3, 17, 42]]
        assert np.array_equal(ds.features_for(some), ds.features[[3, 17, 42]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(data.FormatError):
            data.Dataset(np.array([0, 0, 1]), np.zeros((3, 2)),
                         np.array([0, 0, 1]))

    def test_empty_rejected(self):
        with pytest.raises(data.FormatError):
            data.Dataset(np.array([]), np.zeros((0, 2)), np.array([]))


class TestSealedLabels:
    def test_access_counter(self):
        sealed = data.SealedLabels(np.array([0, 1, 2]))
        assert sealed.access_count == 0
        sealed.reveal()
        sealed.reveal([0, 1])
        assert sealed.access_count == 2

    def test_reveal_returns_copy(self):
        sealed = data.SealedLabels(np.array([0, 1, 2]))
        out = sealed.reveal()
        out[0] = 99
        assert sealed.reveal()[0] == 0

    def test_indexed_reveal(self):
        sealed = data.SealedLabels(np.array([5, 6, 7]))
        assert sealed.reveal([2, 0]).tolist() == [7, 5]


class TestCsvRoundTrip:
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

    def test_bad_seed_comment_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# generated\n# seed=abc\nid,label,f0\n0,0,1.0\n")
        with pytest.raises(data.FormatError, match=r"bad\.csv:2: .*seed=abc"):
            data.load_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(data.FormatError):
            data.load_dataset(str(path))


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
    ], ids=["out_dim_too_large", "no_hidden_shapes", "shapes_do_not_chain"])
    def test_resealed_bad_header_is_format_error(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        data.write_checkpoint(nn.init_model(3, 4, 2, 5, seed=2), str(path))
        header, payload = _split_checkpoint(path.read_bytes())
        edit(header)
        path.write_bytes(_seal(header, payload))
        with pytest.raises(data.FormatError):
            data.read_checkpoint(str(path))


def _split_checkpoint(blob):
    hlen = int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16:16 + hlen]), blob[16 + hlen:-32]


def _seal(header, payload):
    """A checkpoint with a valid checksum around any header and payload."""
    header_bytes = json.dumps(header, sort_keys=True).encode()
    return (b"PCLCKPT1" + len(header_bytes).to_bytes(8, "little")
            + header_bytes + payload
            + hashlib.sha256(header_bytes + payload).digest())


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
        header, payload = _split_checkpoint(path.read_bytes())
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
