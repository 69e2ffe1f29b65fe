import os
import warnings

import numpy as np
import pytest

from pseudocl import cli
from pseudocl.data import load_dataset

BLOB_SPEC = """\
num_classes = 4
dim = 4
samples_per_class = 25
separation = 3.0
std = 0.3
seed = 5
"""

RUN_CFG = """\
run.step_size = 2
run.q = 3
train.epochs = 3
train.batch_size = 16
model.hidden_width = 12
model.n_hidden = 1
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "blobs.cfg"
    spec.write_text(BLOB_SPEC)
    cfg = root / "run.cfg"
    cfg.write_text(RUN_CFG)
    data = root / "data.csv"
    assert cli.main(["gen-data", str(spec), str(data)]) == 0
    return {"root": root, "spec": spec, "cfg": cfg, "data": data}


class TestGenData:
    def test_output_loads_as_dataset(self, workdir):
        ds = load_dataset(str(workdir["data"]))
        assert len(ds) == 100
        assert ds.dim == 4
        assert ds.seed == 5

    def test_blob_prefix_rejected(self, tmp_path, capsys):
        # spec keys are the bare BlobSpec fields of configs/blobs.cfg
        spec = tmp_path / "s.cfg"
        spec.write_text("num_classes = 4\nblob.dim = 4\n")
        out = tmp_path / "d.csv"
        assert cli.main(["gen-data", str(spec), str(out)]) == 2
        assert "s.cfg:2: unknown key 'blob.dim'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_spec_is_usage_error(self, tmp_path):
        spec = tmp_path / "s.cfg"
        spec.write_text("num_classes = 4\nwhatever = 3\n")
        assert cli.main(["gen-data", str(spec),
                         str(tmp_path / "d.csv")]) == 2

    def test_missing_spec_is_usage_error(self, tmp_path):
        assert cli.main(["gen-data", str(tmp_path / "nope.cfg"),
                         str(tmp_path / "d.csv")]) == 2


class TestRun:
    def test_basic_run(self, workdir, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["run", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Avg ACC" in stdout
        names = set(os.listdir(out))
        assert {"report.csv", "summary.csv", "config.txt"} <= names

    def test_flag_overrides_reach_summary(self, workdir, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["run", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(out),
                         "--variant", "upl-2", "--seed", "3"])
        assert code == 0
        with open(out / "summary.csv") as fh:
            header, row = fh.read().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["variant"] == "upl-2"
        assert fields["seed"] == "3"

    def test_default_out_respects_env(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("PSEUDOCL_RUN_ROOT", str(tmp_path / "root"))
        code = cli.main(["run", str(workdir["cfg"]),
                         "--data", str(workdir["data"])])
        assert code == 0
        runs = os.listdir(tmp_path / "root")
        assert runs and runs[0].startswith("run_ours_seed0")

    def test_missing_data_is_usage_error(self, workdir, tmp_path):
        assert cli.main(["run", str(workdir["cfg"]),
                         "--data", str(tmp_path / "missing.csv")]) == 2

    def test_bad_config_is_usage_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run.nonsense = 1\n")
        assert cli.main(["run", str(bad),
                         "--data", str(workdir["data"])]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_config_float_is_usage_error(self, workdir, tmp_path,
                                                    capsys, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"run.q = 3\ntrain.lr = {value}\n")
        assert cli.main(["run", str(bad), "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "run")]) == 2
        assert "bad.cfg:2: key 'train.lr'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_upl_with_other_variant_is_usage_error(self, workdir, tmp_path,
                                                   capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run.variant = pca\nrun.upl_k = 2\n")
        assert cli.main(["run", str(bad), "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "run")]) == 2
        assert "upl_k" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("extra, flags, field", [
        ("", ["--seed", "-1"], "model_seed"),
        ("", ["--variant", "upl-2", "--mode", "online"], "upl_k"),
        ("", ["--variant", "upl-3"], "upl_k"),
        ("run.variant = upl-3\n", [], "upl_k"),
        ("model.n_hidden = -1\n", [], "n_hidden")],
        ids=["seed-flag", "upl-online-flag", "upl-at-epochs-flag",
             "upl-at-epochs-file", "n_hidden-file"])
    def test_out_of_range_setting_is_usage_error(self, tmp_path, workdir,
                                                 capsys, extra, flags, field):
        # RUN_CFG trains 3 epochs, so upl-3 would never refresh
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CFG + extra)
        assert cli.main(["run", str(cfg), "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "run"), *flags]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_diverging_run_names_step_and_epoch(self, workdir, tmp_path,
                                                capsys):
        out = tmp_path / "run"
        with warnings.catch_warnings():
            # overflow on the way to divergence is no numpy warning
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["run", str(workdir["cfg"]),
                             "--data", str(workdir["data"]), "--out", str(out),
                             "--lr", "1e6", "--epochs", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "training diverged at step 2, epoch 1 of 2" in err
        # the row of the finished first step is kept
        lines = (out / "report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["step", "1"]

    def test_protocol_failure_is_runtime_error(self, workdir, tmp_path):
        # 4 classes with step size 3 cannot be split into equal tasks
        code = cli.main(["run", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "run"),
                         "--step-size", "3"])
        assert code == 1


class TestSweep:
    def test_q_axis(self, workdir, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(out),
                         "--axis", "q=1,2"])
        assert code == 0
        with open(out / "sweep.csv") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        assert capsys.readouterr().out.count("seed") >= 1

    def test_float_axis(self, workdir, tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(out),
                         "--axis", "temperature=1.5"]) == 0
        with open(out / "sweep.csv") as fh:
            assert len(fh.read().splitlines()) == 2

    @pytest.mark.parametrize("axis", ["q=2,many", "temperature=0",
                                      "bias_correction=maybe"])
    def test_bad_axis_value_is_usage_error(self, workdir, tmp_path, capsys,
                                           axis):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", axis]) == 2
        assert axis.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_upl_axis_that_never_refreshes_is_usage_error(self, workdir,
                                                          tmp_path, capsys):
        # RUN_CFG trains 3 epochs: upl-2 refreshes once, upl-3 never
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", "variant=upl-2,upl-3"]) == 2
        assert "upl_k" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_unknown_axis_is_usage_error(self, workdir, tmp_path, capsys):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--repeats", "--jobs"])
    def test_count_below_one_is_usage_error(self, workdir, tmp_path, capsys,
                                            flag):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", "q=1", flag, "0"]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_run_keeps_finished_rows(self, workdir, tmp_path, capsys,
                                            jobs):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]), "--out", str(out),
                         "--axis", "lr=0.1,1000000", "--epochs", "2",
                         "--jobs", jobs]) == 1
        header, done, failed = (out / "sweep.csv").read_text().splitlines()
        assert header == "lr,seed,variant,avg_acc,last_acc,avg_nmi,avg_ari"
        assert done.startswith("0.1,0,ours,")
        assert all(done.split(",")[3:])
        assert failed == "1000000,0,ours,,,,"
        err = capsys.readouterr().err
        assert "lr=1000000 seed 0: training diverged at step" in err
        assert "lr=0.1" not in err

    def test_malformed_axis_is_usage_error(self, workdir, tmp_path):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", "q"]) == 2


class TestEval:
    def test_checkpoint_round_trip_matches_report(self, workdir, tmp_path,
                                                  capsys):
        out = tmp_path / "run"
        assert cli.main(["run", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        code = cli.main(["eval", str(out / "step_2.ckpt"),
                         str(workdir["data"]),
                         "--out", str(tmp_path / "eval.csv")])
        assert code == 0
        line = capsys.readouterr().out
        acc = float(line.split("acc=")[1].split()[0])
        with open(out / "report.csv") as fh:
            final = fh.read().splitlines()[-1].split(",")
        assert np.isclose(acc, float(final[2]), atol=1e-12)
        with open(tmp_path / "eval.csv") as fh:
            assert fh.read().splitlines() == ["step,classes_seen,acc,nmi,ari",
                                              ",".join(final)]

    @pytest.mark.parametrize("spec_line, message", [
        ("dim = 5", "dataset dim 5 != model input 4"),
        ("num_classes = 2", "dataset lacks classes_seen ["),
    ], ids=["dim", "classes"])
    def test_mismatched_dataset_is_usage_error(self, workdir, tmp_path, capsys,
                                               spec_line, message):
        out = tmp_path / "run"
        assert cli.main(["run", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(out)]) == 0
        other_spec = tmp_path / "other.cfg"
        key = spec_line.split(" =")[0]
        other_spec.write_text("".join(
            spec_line + "\n" if line.startswith(key + " ") else line + "\n"
            for line in BLOB_SPEC.splitlines()))
        other = tmp_path / "other.csv"
        assert cli.main(["gen-data", str(other_spec), str(other)]) == 0
        capsys.readouterr()
        assert cli.main(["eval", str(out / "step_2.ckpt"), str(other)]) == 2
        assert message in capsys.readouterr().err

    def test_corrupt_checkpoint_is_usage_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert cli.main(["eval", str(bad), str(workdir["data"])]) == 2


class TestReport:
    def test_pretty_print(self, workdir, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "classes_seen" in text
        assert "avg_acc=" in text

    def test_missing_run_dir_is_runtime_error(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "nowhere")]) == 1
