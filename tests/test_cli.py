import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudocl import cli, data
from pseudocl.config import CONFIG_KEYS
from pseudocl.data import load_dataset, write_checkpoint
from pseudocl.nn import init_model

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
        # a directory is an unreadable spec too
        assert cli.main(["gen-data", str(tmp_path),
                         str(tmp_path / "d.csv")]) == 2

    @pytest.mark.parametrize("line", ["std = nan", "separation = inf",
                                      "noise_std = -2.0", "seed = -1",
                                      "num_classes = 0"])
    def test_bad_spec_value_is_usage_error(self, tmp_path, capsys, line):
        key = line.split(" =")[0]
        spec = tmp_path / "s.cfg"
        kept = [kv for kv in BLOB_SPEC.splitlines()
                if not kv.startswith(key + " ")]
        spec.write_text("\n".join(kept + [line]) + "\n")
        out = tmp_path / "d.csv"
        assert cli.main(["gen-data", str(spec), str(out)]) == 2
        # the bad value is the file's last line
        assert (f"error: {spec}:{len(kept) + 1}: key '{key}': {key} must"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_key_names_path(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text(BLOB_SPEC.replace("seed = 5\n", ""))
        out = tmp_path / "d.csv"
        assert cli.main(["gen-data", str(spec), str(out)]) == 2
        assert capsys.readouterr().err == f"error: {spec}: missing key 'seed'\n"
        assert not out.exists()

    @pytest.mark.parametrize("lines, key", [
        (["samples_per_class = 1"], "samples_per_class"),
        (["noise_std = 5.0"], "noise_std")])
    def test_spec_that_cannot_train_is_usage_error(self, tmp_path, capsys,
                                                   lines, key):
        spec = tmp_path / "s.cfg"
        kept = [kv for kv in BLOB_SPEC.splitlines()
                if not kv.startswith(key + " ")]
        spec.write_text("\n".join(kept + lines) + "\n")
        out = tmp_path / "d.csv"
        assert cli.main(["gen-data", str(spec), str(out)]) == 2
        # a bound on one value names its line and key; a rule across keys
        # names the file
        where = {"samples_per_class": f"{spec}:{len(kept) + 1}: key '{key}': ",
                 "noise_std": f"{spec}: "}[key]
        assert f"error: {where}{key} must" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_runtime_error(self, workdir, tmp_path):
        # a directory cannot be replaced by the dataset file
        assert cli.main(["gen-data", str(workdir["spec"]), str(tmp_path)]) == 1

    def test_missing_output_directory_names_the_target(self, workdir,
                                                       tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert cli.main(["gen-data", str(workdir["spec"]), str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: No such file or directory\n")


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
        # a directory is an unreadable dataset or config too
        assert cli.main(["run", str(workdir["cfg"]),
                         "--data", str(tmp_path)]) == 2
        assert cli.main(["run", str(tmp_path),
                         "--data", str(workdir["data"])]) == 2

    def test_non_finite_feature_is_usage_error(self, workdir, tmp_path,
                                               capsys):
        lines = workdir["data"].read_text().splitlines()
        row = lines[5].split(",")
        lines[5] = ",".join(row[:2] + ["nan"] + row[3:])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert cli.main(["run", str(workdir["cfg"]), "--data", str(bad),
                         "--out", str(tmp_path / "run")]) == 2
        assert (f"bad.csv: sample {row[0]} has a non-finite feature"
                in capsys.readouterr().err)

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

    def test_count_below_bound_names_path_line_and_key(self, workdir,
                                                        tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run.step_size = 2\nrun.q = 0\n")
        assert cli.main(["run", str(bad), "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:2: key 'run.q': q must be >= 1, got 0\n")
        assert not (tmp_path / "run").exists()

    def test_bias_correction_and_oracle_flags_reach_config(self, workdir,
                                                           tmp_path):
        out = tmp_path / "run"
        assert cli.main(["run", str(workdir["cfg"]),
                         "--data", str(workdir["data"]), "--out", str(out),
                         "--bias-correction", "off", "--oracle-labels"]) == 0
        lines = (out / "config.txt").read_text().splitlines()
        assert "run.bias_correction = False" in lines
        assert "run.oracle_labels = True" in lines

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

    @pytest.mark.parametrize("extra, flags, where, text", [
        ("", ["--variant", "upl-x"], "--variant: ", "upl-x"),
        ("", ["--variant", "UPL--3"], "--variant: ", "upl--3"),
        ("run.variant = upl3\n", [], "{cfg}:7: key 'run.variant': ", "upl3")],
        ids=["flag", "flag-double-dash", "file"])
    def test_malformed_upl_is_unknown_variant(self, workdir, tmp_path, capsys,
                                              extra, flags, where, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CFG + extra)
        assert cli.main(["run", str(cfg), "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "run"), *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: {where.format(cfg=cfg)}unknown variant {text!r}\n")
        assert not (tmp_path / "run").exists()

    def test_bad_mode_in_file_names_line(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CFG + "run.mode = offlin\n")
        assert cli.main(["run", str(cfg), "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:7: key 'run.mode': unknown mode 'offlin'\n")
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

    def test_alignment_failure_names_step(self, tmp_path, capsys):
        # step 2's new-class head weights end all zero: lr * weight_decay
        # = 1 zeroes the columns that dead ReLUs feed
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_classes = 4\ndim = 1\nsamples_per_class = 6\n"
                        "separation = 0.001\nstd = 0.1\nseed = 90\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.hidden_width = 3\ncluster.n_restarts = 2\n")
        csv = tmp_path / "data.csv"
        assert cli.main(["gen-data", str(spec), str(csv)]) == 0
        out = tmp_path / "run"
        code = cli.main(["run", str(cfg), "--data", str(csv), "--out", str(out),
                         "--mode", "online", "--variant", "ffe", "--q", "50",
                         "--step-size", "2", "--oracle-labels", "--epochs",
                         "1", "--batch", "2", "--temperature", "100",
                         "--weight-decay", "10", "--seed", "4"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: weight alignment failed at step 2: all-zero new-class "
            "weights; cannot align\n")
        assert (out / "step_1.ckpt").exists()
        assert not (out / "step_2.ckpt").exists()

    def test_step_size_not_dividing_classes_is_usage_error(
            self, workdir, tmp_path, capsys):
        # 4 classes with step size 3 cannot be split into equal tasks
        out = tmp_path / "run"
        code = cli.main(["run", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(out), "--step-size", "3"])
        assert code == 2
        assert ("error: step_size 3 does not divide the dataset's 4 classes"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_step_size_leaving_one_eval_sample_is_usage_error(
            self, workdir, small_classes, tmp_path, capsys):
        # step 1 would score task 1's single held-out sample, too few for ARI
        out = tmp_path / "run"
        code = cli.main(["run", str(workdir["cfg"]),
                         "--data", str(small_classes), "--out", str(out),
                         "--step-size", "1"])
        assert code == 2
        assert re.fullmatch(r"error: step_size 1 leaves task 1, class \[\d\], "
                            r"fewer than the two held-out samples ARI needs\n",
                            capsys.readouterr().err)
        assert not out.exists()


@pytest.fixture(scope="module")
def small_classes(tmp_path_factory):
    """A dataset of 4 classes of 7 samples, one of each held out."""
    root = tmp_path_factory.mktemp("small")
    spec = root / "blobs.cfg"
    spec.write_text(BLOB_SPEC.replace("samples_per_class = 25",
                                      "samples_per_class = 7"))
    assert cli.main(["gen-data", str(spec), str(root / "data.csv")]) == 0
    return root / "data.csv"


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
                                      "bias_correction=maybe",
                                      "step_size=2,3", "q=", "q= , "])
    def test_bad_axis_value_is_usage_error(self, workdir, tmp_path, capsys,
                                           axis):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", axis]) == 2
        assert axis.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_step_size_leaving_one_eval_sample_is_usage_error(
            self, workdir, small_classes, tmp_path, capsys):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(small_classes),
                         "--out", str(tmp_path / "s"),
                         "--axis", "step_size=2,1"]) == 2
        assert "error: step_size 1 leaves task 1, class [" in (
            capsys.readouterr().err)
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

    def test_malformed_upl_axis_is_unknown_variant(self, workdir, tmp_path,
                                                   capsys):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", "variant=upl-2,upl3"]) == 2
        assert capsys.readouterr().err == (
            "error: sweep axis 'variant': unknown variant 'upl3'\n")
        assert not (tmp_path / "s").exists()

    def test_unknown_axis_is_usage_error(self, workdir, tmp_path, capsys):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("axis,twins", [("q=2,2", "'2' and '2'"),
                                            ("q=2,02", "'2' and '02'"),
                                            ("lr=0.1,0.10", "'0.1' and '0.10'")])
    def test_duplicate_run_is_usage_error(self, workdir, tmp_path, capsys,
                                          axis, twins):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", axis]) == 2
        assert capsys.readouterr().err == (
            f"error: sweep axis {axis.split('=')[0]!r}: values {twins} give "
            "the same run\n")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag", ["--repeats"])
    def test_count_below_one_is_usage_error(self, workdir, tmp_path, capsys,
                                            flag):
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s"),
                         "--axis", "q=1", flag, "0"]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_jobs_flag_is_gone(self, workdir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", str(workdir["cfg"]),
                      "--data", str(workdir["data"]),
                      "--out", str(tmp_path / "s"),
                      "--axis", "q=1", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_failed_run_keeps_finished_rows(self, workdir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", str(workdir["cfg"]),
                         "--data", str(workdir["data"]), "--out", str(out),
                         "--axis", "lr=0.1,1000000", "--epochs", "2"]) == 1
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


@pytest.fixture(scope="module")
def run_dir(workdir):
    """A finished two-step run of RUN_CFG on the workdir dataset."""
    out = workdir["root"] / "run"
    assert cli.main(["run", str(workdir["cfg"]),
                     "--data", str(workdir["data"]), "--out", str(out)]) == 0
    return out


class TestEval:
    @pytest.mark.parametrize("step", [1, 2])
    def test_checkpoint_round_trip_matches_report(self, workdir, run_dir,
                                                  tmp_path, capsys, step):
        # eval scores a checkpoint by the rule run used at that step
        capsys.readouterr()
        code = cli.main(["eval", str(run_dir / f"step_{step}.ckpt"),
                         str(workdir["data"]),
                         "--out", str(tmp_path / "eval.csv")])
        assert code == 0
        line = capsys.readouterr().out
        acc = float(line.split("acc=")[1].split()[0])
        with open(run_dir / "report.csv") as fh:
            row = fh.read().splitlines()[step].split(",")
        assert np.isclose(acc, float(row[2]), atol=1e-12)
        with open(tmp_path / "eval.csv") as fh:
            assert fh.read().splitlines() == ["step,classes_seen,acc,nmi,ari",
                                              ",".join(row)]

    def test_unreadable_input_is_usage_error(self, workdir, run_dir,
                                             tmp_path):
        ckpt = str(run_dir / "step_2.ckpt")
        assert cli.main(["eval", str(tmp_path), str(workdir["data"])]) == 2
        assert cli.main(["eval", ckpt, str(tmp_path)]) == 2
        assert cli.main(["eval", ckpt, str(tmp_path / "missing.csv")]) == 2

    def test_missing_out_directory_names_the_target(self, workdir, run_dir,
                                                    tmp_path, capsys):
        out = tmp_path / "missing" / "e.csv"
        assert cli.main(["eval", str(run_dir / "step_2.ckpt"),
                         str(workdir["data"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: No such file or directory\n")

    @pytest.mark.parametrize("spec_line, message", [
        ("dim = 5", "dataset dim 5 != model input 4"),
        ("num_classes = 2", "dataset lacks classes_seen ["),
    ], ids=["dim", "classes"])
    def test_mismatched_dataset_is_usage_error(self, run_dir, tmp_path, capsys,
                                               spec_line, message):
        other_spec = tmp_path / "other.cfg"
        key = spec_line.split(" =")[0]
        other_spec.write_text("".join(
            spec_line + "\n" if line.startswith(key + " ") else line + "\n"
            for line in BLOB_SPEC.splitlines()))
        other = tmp_path / "other.csv"
        assert cli.main(["gen-data", str(other_spec), str(other)]) == 0
        capsys.readouterr()
        assert cli.main(["eval", str(run_dir / "step_2.ckpt"),
                         str(other)]) == 2
        assert f"{other}: {message}" in capsys.readouterr().err

    def test_checkpoint_without_classes_seen_names_file(self, workdir,
                                                       tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        write_checkpoint(init_model(4, 6, 1, 4, seed=0), str(ckpt),
                         meta={"step": 1})
        assert cli.main(["eval", str(ckpt), str(workdir["data"])]) == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: checkpoint carries no classes_seen metadata\n")

    def test_corrupt_checkpoint_is_usage_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert cli.main(["eval", str(bad), str(workdir["data"])]) == 2

    def test_checkpoint_describing_huge_model_is_usage_error(
            self, workdir, tmp_path, capsys):
        # a valid checksum around a header whose model would need terabytes:
        # the reader compares sizes before it allocates anything
        ckpt = tmp_path / "huge.ckpt"
        write_checkpoint(init_model(4, 6, 1, 4, seed=0), str(ckpt),
                         meta={"step": 1, "classes_seen": [0, 1, 2, 3]})
        _reseal_header(ckpt, out_dim=10**12)
        assert cli.main(["eval", str(ckpt), str(workdir["data"])]) == 2
        assert re.fullmatch(rf"error: {re.escape(str(ckpt))}: \d+ bytes, "
                            r"header describes \d+\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("meta, shown", [
        ({"step": 2, "classes_seen": []}, "got [] and 2"),
        ({"step": 2, "classes_seen": "0123"}, "got '0123' and 2"),
        ({"step": "x", "classes_seen": [0, 1, 2, 3]}, "and 'x'")],
        ids=["no-classes", "classes-text", "step-text"])
    def test_bad_checkpoint_meta_names_file(self, workdir, run_dir, tmp_path,
                                            capsys, meta, shown):
        # a run's checkpoint whose header says what no run writes, under a
        # valid checksum; eval must blame the checkpoint, not the dataset
        ckpt = tmp_path / "step_2.ckpt"
        ckpt.write_bytes((run_dir / "step_2.ckpt").read_bytes())
        _reseal_header(ckpt, meta=meta)
        assert cli.main(["eval", str(ckpt), str(workdir["data"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: checkpoint's classes_seen "
                              "must be a nonempty list of ints and its step "
                              "an int, ")
        assert err.endswith(shown + "\n")

    @pytest.mark.parametrize("classes, shown", [
        ([0, 1], "got 2 of 2"),
        ([0, 1, 1, 2], "got 3 of 4")],
        ids=["fewer-than-head", "repeated-class"])
    def test_classes_seen_not_one_per_head_output(self, workdir, run_dir,
                                                  tmp_path, capsys, classes,
                                                  shown):
        # step 2's head has 4 outputs; scoring it against other classes
        # would print a result for classes the run never trained together
        ckpt = tmp_path / "step_2.ckpt"
        ckpt.write_bytes((run_dir / "step_2.ckpt").read_bytes())
        _reseal_header(ckpt, meta={"step": 2, "classes_seen": classes})
        assert cli.main(["eval", str(ckpt), str(workdir["data"])]) == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: checkpoint's classes_seen must be 4 distinct "
            f"classes, one per head output, {shown}\n")

    def test_too_few_held_out_samples_is_usage_error(self, tmp_path, capsys):
        # a class of two samples holds one out, and ARI needs two: eval
        # refuses a checkpoint of that class alone, as run refuses the task
        spec = tmp_path / "tiny.cfg"
        spec.write_text("num_classes = 2\ndim = 2\nsamples_per_class = 2\n"
                        "separation = 1.0\nstd = 0.1\nseed = 1\n")
        csv, ckpt = tmp_path / "tiny.csv", tmp_path / "m.ckpt"
        assert cli.main(["gen-data", str(spec), str(csv)]) == 0
        write_checkpoint(init_model(2, 3, 1, 1, seed=0), str(ckpt),
                         meta={"step": 1, "classes_seen": [0]})
        capsys.readouterr()
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", str(ckpt), str(csv), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {csv}: classes_seen have fewer than the two held-out "
            "samples ARI needs\n"))
        assert not out.exists()


# name -> (argv, stderr): a bad input to each writing command. {tmp} is
# the test's own directory, which starts with bad.cfg (an unknown key) and
# meta.ckpt (a run's checkpoint whose meta no run writes); {out} is the
# output path, inside {tmp}
_CHECK_FAILURES = {
    "gen-data-missing-spec": (
        ["gen-data", "{tmp}/nope.cfg", "{out}"],
        "{tmp}/nope.cfg: No such file or directory"),
    "gen-data-spec-is-dir": (["gen-data", "{tmp}", "{out}"],
                             "{tmp}: Is a directory"),
    "gen-data-bad-key": (["gen-data", "{tmp}/bad.cfg", "{out}"],
                         "{tmp}/bad.cfg:1: unknown key 'run.nonsense'"),
    "run-missing-data": (
        ["run", "{cfg}", "--data", "{tmp}/missing.csv", "--out", "{out}"],
        "{tmp}/missing.csv: No such file or directory"),
    "run-data-is-dir": (["run", "{cfg}", "--data", "{tmp}", "--out", "{out}"],
                        "{tmp}: Is a directory"),
    "run-bad-key": (["run", "{tmp}/bad.cfg", "--data", "{data}",
                     "--out", "{out}"],
                    "{tmp}/bad.cfg:1: unknown key 'run.nonsense'"),
    "run-bad-split": (["run", "{cfg}", "--data", "{data}", "--out", "{out}",
                       "--step-size", "3"],
                      "step_size 3 does not divide the dataset's 4 classes"),
    "sweep-missing-data": (
        ["sweep", "{cfg}", "--axis", "q=1", "--data", "{tmp}/missing.csv",
         "--out", "{out}"],
        "{tmp}/missing.csv: No such file or directory"),
    "sweep-bad-key": (["sweep", "{tmp}/bad.cfg", "--axis", "q=1",
                       "--data", "{data}", "--out", "{out}"],
                      "{tmp}/bad.cfg:1: unknown key 'run.nonsense'"),
    "sweep-bad-split": (["sweep", "{cfg}", "--axis", "step_size=2,3",
                         "--data", "{data}", "--out", "{out}"],
                        "step_size 3 does not divide the dataset's 4 classes"),
    "sweep-repeats-text": (["sweep", "{cfg}", "--axis", "q=1", "--repeats",
                            "abc", "--data", "{data}", "--out", "{out}"],
                           "--repeats: want an integer >= 1, got 'abc'"),
    "eval-missing-checkpoint": (
        ["eval", "{tmp}/nope.ckpt", "{data}", "--out", "{out}"],
        "{tmp}/nope.ckpt: No such file or directory"),
    "eval-data-is-dir": (["eval", "{ckpt}", "{tmp}", "--out", "{out}"],
                         "{tmp}: Is a directory"),
    "eval-bad-meta": (
        ["eval", "{tmp}/meta.ckpt", "{data}", "--out", "{out}"],
        "{tmp}/meta.ckpt: checkpoint's classes_seen must be a nonempty list "
        "of ints and its step an int, got [] and 2"),
}


@pytest.mark.parametrize("argv, message", _CHECK_FAILURES.values(),
                         ids=_CHECK_FAILURES.keys())
def test_check_failure_exits_2_and_writes_nothing(workdir, run_dir, tmp_path,
                                                  capsys, argv, message):
    (tmp_path / "bad.cfg").write_text("run.nonsense = 1\n")
    ckpt = tmp_path / "meta.ckpt"
    ckpt.write_bytes((run_dir / "step_2.ckpt").read_bytes())
    _reseal_header(ckpt, meta={"step": 2, "classes_seen": []})
    before = sorted(os.listdir(tmp_path))
    paths = {"tmp": tmp_path, "out": tmp_path / "out", "cfg": workdir["cfg"],
             "data": workdir["data"], "ckpt": run_dir / "step_2.ckpt"}
    capsys.readouterr()
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message.format(**paths)}\n"
    assert out == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("after_check, code", [(False, 2), (True, 1)],
                         ids=["before-checked", "after-checked"])
def test_input_error_exits_2_only_before_checked(monkeypatch, capsys,
                                                 after_check, code):
    # a command's checks end where it calls checked(); a ValueError from
    # its work is a failed run, not a bad input
    def command(args, checked):
        if after_check:
            checked()
        raise ValueError("bad value")
    monkeypatch.setattr(cli, "cmd_report", command)
    assert cli.main(["report", "run-dir"]) == code
    assert capsys.readouterr().err == "error: bad value\n"


# field, bad text, the reason each place gives for it
_BAD_SETTINGS = [
    ("q", "abc", "invalid literal for int() with base 10: 'abc'"),
    ("q", "0", "q must be >= 1, got 0"),
    ("mode", "x", "unknown mode 'x'"),
    ("bias_correction", "maybe", "bad boolean 'maybe' for bias_correction"),
    ("variant", "upl-x", "unknown variant 'upl-x'"),
    ("lr", "nan", "lr must be finite, got nan")]


@pytest.mark.parametrize("way", ["file", "flag", "axis"])
@pytest.mark.parametrize("field, raw, reason", _BAD_SETTINGS,
                         ids=[f"{f}={raw}" for f, raw, _ in _BAD_SETTINGS])
def test_bad_setting_reads_alike_as_line_flag_and_axis(
        workdir, tmp_path, capsys, way, field, raw, reason):
    # a setting's text is read by one decoder wherever it is given; only
    # the place named before the reason differs
    key = next(k for k, f in CONFIG_KEYS.items() if f == field)
    flag = "--" + field.replace("_", "-")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG + (f"{key} = {raw}\n" if way == "file" else ""))
    command, extra, where = {
        "file": ("run", [], f"{cfg}:7: key '{key}': "),
        "flag": ("run", [flag, raw], f"{flag}: "),
        "axis": ("sweep", ["--axis", f"{field}={raw}"],
                 f"sweep axis '{field}': ")}[way]
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main([command, str(cfg), "--data", str(workdir["data"]),
                     "--out", str(out), *extra]) == 2
    assert capsys.readouterr() == ("", f"error: {where}{reason}\n")
    assert not out.exists()


@pytest.mark.parametrize("word, want", [
    ("on", True), ("yes", True), ("TRUE", True), ("1", True),
    ("off", False), ("no", False), ("false", False), ("0", False)])
def test_bias_correction_flag_takes_config_booleans(word, want):
    args = cli.build_parser().parse_args(
        ["run", "run.cfg", "--data", "d.csv", "--bias-correction", word])
    assert cli._config_overrides(args) == {"bias_correction": want}


def test_failed_check_writes_only_the_parse_cache(workdir, tmp_path,
                                                  monkeypatch):
    # the one file a check may write is its input CSV's parse cache, keyed
    # by the CSV's sha256; a CSV copied alone has none yet
    csv = tmp_path / "data.csv"
    csv.write_bytes(workdir["data"].read_bytes())
    assert cli.main(["run", str(workdir["cfg"]), "--data", str(csv),
                     "--out", str(tmp_path / "out"), "--step-size", "3"]) == 2
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "data.csv.parsed"]

    def no_parse(fh, path):
        raise AssertionError("parsed a CSV whose sidecar is intact")
    monkeypatch.setattr(data, "_parse_csv", no_parse)
    assert len(load_dataset(str(csv))) == 100


def _reseal_header(path, **changes):
    """Update a sealed file's JSON header with ``changes`` and write it back
    with its length and sha256 trailer made to match."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    header = {**json.loads(blob[16:16 + hlen]), **changes}
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = blob[16 + hlen:-32]
    path.write_bytes(blob[:8] + len(header_bytes).to_bytes(8, "little")
                     + header_bytes + payload
                     + hashlib.sha256(header_bytes + payload).digest())


def _edit_bytes(draw, blob, kind):
    """One edit of ``blob``: cut it, flip a byte, or drop or repeat an
    8-byte run."""
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob)))]
    if not blob:
        return blob
    i = draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        return (blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))])
                + blob[i + 1:])
    return blob[:i] + (b"" if kind == "drop" else blob[i:i + 8]) + blob[i + 8:]


@st.composite
def mutated_bytes(draw, blob):
    """A binary file after one to three edits."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("truncate", "flip", "drop", "repeat")))
        blob = _edit_bytes(draw, blob, kind)
    return blob


_CSV_EDITS = ("truncate", "flip", "drop-line", "repeat-line", "drop-column",
              "repeat-column", "inject")


@st.composite
def mutated_csv(draw, text):
    """A dataset CSV after one to three edits: a truncation, a flipped byte,
    a dropped or repeated line or column, or a field set to nan/inf/blank."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_CSV_EDITS))
        lines = text.splitlines(keepends=True)
        if kind in ("truncate", "flip") or not lines:
            text = _edit_bytes(draw, text, kind)
            continue
        if kind.endswith("-column"):
            j = draw(st.integers(0, 5))
            for k, line in enumerate(lines):
                fields = line.rstrip(b"\n").split(b",")
                if j < len(fields):
                    fields[j:j + 1] = [] if kind == "drop-column" else [
                        fields[j]] * 2
                lines[k] = b",".join(fields) + b"\n"
        else:
            i = draw(st.integers(0, len(lines) - 1))
            if kind == "drop-line":
                del lines[i]
            elif kind == "repeat-line":
                lines.insert(i, lines[i])
            else:
                fields = lines[i].rstrip(b"\n").split(b",")
                fields[draw(st.integers(0, len(fields) - 1))] = draw(
                    st.sampled_from([b"nan", b"inf", b"-inf", b""]))
                lines[i] = b",".join(fields) + b"\n"
        text = b"".join(lines)
    return text


@pytest.fixture(scope="module")
def eval_inputs(workdir, run_dir, tmp_path_factory):
    """Paths, original bytes and printed result of an `eval` of step 2's
    checkpoint on the workdir dataset, in a directory of their own."""
    root = tmp_path_factory.mktemp("eval-fuzz")
    sources = {"csv": workdir["data"], "ckpt": run_dir / "step_2.ckpt",
               "sidecar": workdir["root"] / "data.csv.parsed"}
    paths = {"csv": root / "data.csv", "ckpt": root / "step_2.ckpt",
             "sidecar": root / "data.csv.parsed"}
    blobs = {name: path.read_bytes() for name, path in sources.items()}
    inputs = {"paths": paths, "blobs": blobs}
    code, out, err = _fuzz_eval(inputs, "csv", blobs["csv"])
    assert code == 0, err
    return {**inputs, "out": out}


def _fuzz_eval(inputs, name, blob):
    """Restore the three files, put ``blob`` in file ``name``, run eval."""
    for key, path in inputs["paths"].items():
        path.write_bytes(blob if key == name else inputs["blobs"][key])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", str(inputs["paths"]["ckpt"]),
                         str(inputs["paths"]["csv"])])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert str(inputs["paths"][name]) in err.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


class TestEvalFuzz:
    """A mutated dataset CSV, sidecar or checkpoint makes `eval` print a
    result (exit 0) or an error naming that file (exit 2), never anything
    else."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_dataset_csv(self, eval_inputs, data):
        blob = data.draw(mutated_csv(eval_inputs["blobs"]["csv"]))
        code, out, _ = _fuzz_eval(eval_inputs, "csv", blob)
        assert code == 2 or out.startswith("step=")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sidecar_never_changes_result(self, eval_inputs, data):
        blob = data.draw(mutated_bytes(eval_inputs["blobs"]["sidecar"]))
        code, out, _ = _fuzz_eval(eval_inputs, "sidecar", blob)
        assert (code, out) == (0, eval_inputs["out"])
        # the load parsed the CSV and wrote the sidecar back as it was
        assert (eval_inputs["paths"]["sidecar"].read_bytes()
                == eval_inputs["blobs"]["sidecar"])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_checkpoint(self, eval_inputs, data):
        blob = data.draw(mutated_bytes(eval_inputs["blobs"]["ckpt"]))
        code, out, _ = _fuzz_eval(eval_inputs, "ckpt", blob)
        assert code == 2 or out == eval_inputs["out"]


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

    def test_missing_run_dir_is_usage_error(self, tmp_path, capsys):
        run = tmp_path / "nowhere"
        assert cli.main(["report", str(run)]) == 2
        assert capsys.readouterr().err == (
            f"error: {run / 'report.csv'}: No such file or directory\n")

    @pytest.mark.parametrize("name, text", [
        ("report.csv", None), ("report.csv", ""),
        ("report.csv", "step,acc\n1,x.5\n"),
        ("report.csv", "step,acc\n1,abc\n"),
        ("report.csv", "step,acc\n1e-05,0.5\n"), ("summary.csv", ""),
        ("summary.csv", "avg_acc,seed\n"),
        ("summary.csv", "avg_acc,seed\n0.5\n")],
        ids=["no-report", "empty-report", "bad-float", "no-dot-text",
             "float-step", "empty-summary", "no-summary-row",
             "short-summary-row"])
    def test_unreadable_table_is_usage_error(self, tmp_path, capsys, name,
                                             text):
        (tmp_path / "report.csv").write_text("step,acc\n1,0.5\n")
        if text is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_text(text)
        assert cli.main(["report", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        # the path, then the line for an error in one row
        assert re.match(rf"error: {re.escape(str(tmp_path / name))}(:\d+)?: ",
                        err), err
        assert out == ""

    def test_counts_print_as_ints_and_metrics_as_floats(self, tmp_path,
                                                        capsys):
        # _write_table writes the float 1/100000 as "1e-05", with no "."
        (tmp_path / "report.csv").write_text(
            "step,classes_seen,acc,nmi,ari\n2,10,1e-05,1,0.5\n")
        assert cli.main(["report", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["2", "10", "0.0000", "1.0000", "0.5000"]

    @pytest.mark.parametrize("name", ["report.csv", "summary.csv"])
    def test_non_utf8_table_names_path(self, tmp_path, capsys, name):
        (tmp_path / "report.csv").write_text("step,acc\n1,0.5\n")
        (tmp_path / name).write_bytes(b"step,acc\n1,0.\xff5\n")
        assert cli.main(["report", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {tmp_path / name}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("name, text, reason", [
        ("report.csv", "", "empty table"), ("summary.csv", "", "empty table"),
        ("summary.csv", "avg_acc,seed\n", "no data row"),
        ("summary.csv", "avg_acc\n0.5\n0.6\n", "2 data rows, expected 1")],
        ids=["empty-report", "empty-summary", "no-summary-row",
             "two-summary-rows"])
    def test_empty_table_reason(self, tmp_path, capsys, name, text, reason):
        (tmp_path / "report.csv").write_text("step,acc\n1,0.5\n")
        (tmp_path / name).write_text(text)
        assert cli.main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / name}: {reason}\n")

    @pytest.mark.parametrize("name, text, message", [
        ("summary.csv", "avg_acc,seed\n0.5\n", "2: 1 fields, header has 2"),
        ("report.csv", "step,classes_seen,acc,nmi,ari\n1,5\n",
         "2: 2 fields, header has 5"),
        ("report.csv", "step,acc\n1,0.5\n2,0.5,0.1\n",
         "3: 3 fields, header has 2")],
        ids=["short-summary-row", "short-report-row", "long-report-row"])
    def test_row_width_names_line(self, tmp_path, capsys, name, text,
                                  message):
        (tmp_path / "report.csv").write_text("step,acc\n1,0.5\n")
        (tmp_path / name).write_text(text)
        assert cli.main(["report", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: {tmp_path / name}:{message}\n"
        assert out == ""


# Run in a fresh interpreter: numpy loads numpy.ma lazily, on the first
# call that needs it, so its absence shows only where nothing else ran
NO_MASKED_ARRAYS = """\
import json, os, sys
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    sys.exit()
from pseudocl import cli
from pseudocl.config import BlobSpec, RunConfig
from pseudocl.data import generate_gaussian_stream, save_dataset
from pseudocl.protocol import run_experiment
root = sys.argv[1]
dataset = generate_gaussian_stream(BlobSpec(
    num_classes=4, dim=4, samples_per_class=25, separation=3.0, std=0.3,
    seed=5))
save_dataset(dataset, os.path.join(root, "data.csv"))
base = dict(step_size=2, q=3, epochs=2, batch_size=16, hidden_width=8,
            n_hidden=1)
loaded = {}
run_experiment(RunConfig(**base), dataset, os.path.join(root, "herding"))
loaded["herding"] = "numpy.ma" in sys.modules
run_experiment(RunConfig(**base, mode="online", exemplar_policy="random"),
               dataset)
loaded["random"] = "numpy.ma" in sys.modules
assert cli.main(["eval", os.path.join(root, "herding", "step_2.ckpt"),
                 os.path.join(root, "data.csv")]) == 0
loaded["eval"] = "numpy.ma" in sys.modules
print(json.dumps(loaded))
"""


def test_no_run_loads_numpy_ma(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()[-1]
    if out == "preloaded":
        pytest.skip("import numpy loads numpy.ma here")
    assert json.loads(out) == {"herding": False, "random": False,
                               "eval": False}
