import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudocl import cli, nn, protocol
from pseudocl.config import BlobSpec, RunConfig, dump_config
from pseudocl.data import Dataset, generate_gaussian_stream, save_dataset
from pseudocl.labeling import ExemplarStore
from pseudocl.metrics import StepReport, step_report

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def dataset():
    spec = BlobSpec(num_classes=6, dim=6, samples_per_class=30,
                    separation=3.0, std=0.3, seed=5)
    return generate_gaussian_stream(spec)


def load_perfbench(name, monkeypatch):
    """Import perfbench/<name>.py. perfbench is only read: child prepends to
    sys.path, and no bytecode is written beside the benchmark's files."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fast_cfg(**kw):
    base = dict(step_size=2, epochs=4, batch_size=16, hidden_width=16,
                n_hidden=1, q=3, lr=0.1, arrangement_seed=1993)
    base.update(kw)
    return RunConfig(**base)


def initial(cfg):
    """The state a run starts from."""
    return protocol.RunState(0, None, None, ExemplarStore(cfg.q), ())


def first_task(dataset, tasks, cfg):
    """The state after step 1, the supervised first task."""
    return protocol.continual_step(initial(cfg), tasks, dataset, cfg)


def state_bytes(state):
    """Everything a state carries, as bytes."""
    return (state.step, repr([astuple(r) for r in state.reports]),
            state.model.params.tobytes(), state.h1.params.tobytes(),
            state.store.q, state.store.ids.tobytes(),
            state.store.labels.tobytes())


class TestSplitTasks:
    def test_chunking_and_coverage(self, dataset):
        tasks = protocol.split_tasks(dataset, 2, arrangement_seed=1993)
        assert tasks.shape == (3, 2)
        assert np.issubdtype(tasks.dtype, np.integer)
        assert sorted(tasks.ravel().tolist()) == [0, 1, 2, 3, 4, 5]

    def test_arrangement_seed_controls_order(self, dataset):
        a = protocol.split_tasks(dataset, 2, arrangement_seed=1)
        b = protocol.split_tasks(dataset, 2, arrangement_seed=1)
        c = protocol.split_tasks(dataset, 2, arrangement_seed=2)
        # row t-1 holds task t's classes, in the seed's permutation order
        perm = np.random.default_rng(1).permutation(dataset.classes())
        assert a.ravel().tolist() == perm.tolist()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_indivisible_rejected(self, dataset):
        with pytest.raises(protocol.ProtocolError):
            protocol.split_tasks(dataset, 4, arrangement_seed=0)

    def test_first_task_needs_two_eval_samples(self, tmp_path):
        # 7 samples a class hold one out: one class a task leaves step 1
        # a single sample to score, two classes leave it two
        small = generate_gaussian_stream(BlobSpec(
            num_classes=4, dim=3, samples_per_class=7, separation=3.0,
            std=0.3, seed=5))
        with pytest.raises(protocol.ProtocolError, match=(
                r"step_size 1 leaves task 1, class \[\d\], fewer than")):
            protocol.split_tasks(small, 1, arrangement_seed=0)
        tasks = protocol.split_tasks(small, 2, arrangement_seed=0)
        assert tasks.shape == (2, 2)
        # the split comes before run_experiment writes anything
        out = tmp_path / "run"
        with pytest.raises(protocol.ProtocolError):
            protocol.run_experiment(fast_cfg(step_size=1), small, str(out))
        assert not out.exists()


class TestFirstTask:
    def test_supervised_first_task_learns(self, dataset):
        cfg = fast_cfg(epochs=10)
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, tasks, cfg).model
        rep = protocol.evaluate(model, dataset, tasks[:1], 1)
        assert model.out_dim == 2
        assert rep.acc > 0.9

    def test_deterministic(self, dataset):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        a = first_task(dataset, tasks, cfg)
        b = first_task(dataset, tasks, cfg)
        assert np.array_equal(a.model.params, b.model.params)

    def test_online_mode_still_trains_every_epoch(self, dataset, monkeypatch):
        cfg = fast_cfg(mode="online", exemplar_policy="none")
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        calls = []
        real_step = nn.sgd_step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(nn, "sgd_step", counting_step)
        first_task(dataset, tasks, cfg)
        n_train = len(dataset.rows_for_classes(tasks[0], eval_split=False))
        assert len(calls) == cfg.epochs * math.ceil(n_train / cfg.batch_size)


class TestContinualStep:
    def test_head_growth_and_report(self, dataset):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = protocol.continual_step(first_task(dataset, tasks, cfg),
                                        tasks, dataset, cfg)
        rep = state.reports[-1]
        assert state.step == 2 and state.model.out_dim == 4
        assert rep.step == 2 and rep.classes_seen == 4
        assert 0.0 <= rep.acc <= 1.0

    @pytest.mark.parametrize("oracle", [False, True])
    def test_step_leaves_passed_model_unchanged(self, dataset, oracle):
        # no step copies the model it is given: expand_head builds the
        # step's new model, and training and weight_align update that one;
        # the step's reports are a new tuple
        cfg = fast_cfg(oracle_labels=oracle)
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = first_task(dataset, tasks, cfg)
        before = state.model.params.tobytes()
        reports = state.reports
        protocol.continual_step(state, tasks, dataset, cfg)
        assert state.model.params.tobytes() == before
        assert state.reports == reports and len(state.reports) == 1

    def test_step_leaves_passed_store_unchanged(self, dataset):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = replace(first_task(dataset, tasks, cfg), store=ExemplarStore(
            cfg.q, np.array([3, 1]), np.array([0, 1])))
        grown = protocol.continual_step(state, tasks, dataset, cfg).store
        assert state.store.ids.tolist() == [3, 1]
        assert state.store.labels.tolist() == [0, 1]
        assert grown.ids[:2].tolist() == [3, 1]
        assert len(grown.ids) == 2 + 2 * cfg.q

    def test_exemplar_store_grows_per_step(self, dataset):
        cfg = fast_cfg()
        result = protocol.run_experiment(cfg, dataset)
        # 3 tasks x 2 classes x q exemplars
        assert len(result.store.ids) == 6 * cfg.q
        labels, counts = np.unique(result.store.labels, return_counts=True)
        assert labels.tolist() == list(range(6))
        assert counts.tolist() == [cfg.q] * 6

    def test_unsupervised_path_never_reads_labels(self, dataset):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = first_task(dataset, tasks, cfg)
        before = dataset.sealed.access_count
        protocol.continual_step(state, tasks, dataset, cfg)
        # exactly one read: the evaluator's
        assert dataset.sealed.access_count == before + 1

    @pytest.mark.parametrize("kw, reads", [
        ({}, [2, 1, 1, 1]), ({"variant": "ffe"}, [2, 1, 1, 1]),
        ({"variant": "pca"}, [2, 1, 1, 1]),
        ({"variant": "scratch"}, [2, 1, 1, 1]),
        ({"upl_k": 2}, [2, 1, 1, 1]),
        ({"mode": "online", "exemplar_policy": "random"}, [2, 1, 1, 1]),
        ({"oracle_labels": True}, [2, 2, 2, 2])],
        ids=["ours", "ffe", "pca", "scratch", "upl-2", "online-random",
             "oracle"])
    def test_label_reads_per_step(self, monkeypatch, kw, reads):
        # the label audit's gate: step 1 reads the true labels to train and
        # to evaluate, an unsupervised step reads them once, to evaluate,
        # and an oracle step reads them twice
        ds = generate_gaussian_stream(BlobSpec(
            num_classes=8, dim=6, samples_per_class=30, separation=3.0,
            std=0.3, seed=5))
        counts = []
        real = protocol.continual_step

        def counting(*args, **kwargs):
            before = ds.sealed.access_count
            out = real(*args, **kwargs)
            counts.append(ds.sealed.access_count - before)
            return out

        monkeypatch.setattr(protocol, "continual_step", counting)
        protocol.run_experiment(fast_cfg(epochs=5, **kw), ds)
        assert counts == reads

    def test_label_read_during_training_raises(self, dataset, monkeypatch):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = first_task(dataset, tasks, cfg)
        real_kmeans = protocol.kmeans

        def leaky_kmeans(*args, **kwargs):
            dataset.sealed.reveal(slice(None))  # an illegal peek at ground truth
            return real_kmeans(*args, **kwargs)

        monkeypatch.setattr(protocol, "kmeans", leaky_kmeans)
        with pytest.raises(protocol.ProtocolError, match="unsupervised"):
            protocol.continual_step(state, tasks, dataset, cfg)

    def test_oracle_path_may_read_labels(self, dataset):
        cfg = fast_cfg(oracle_labels=True)
        summary = protocol.summarize(
            protocol.run_experiment(cfg, dataset).reports, cfg)
        assert summary["variant"] == "oracle"
        assert summary["avg_acc"] > 0.5

    def test_online_mode_single_pass_update_count(self, dataset, monkeypatch):
        cfg = fast_cfg(mode="online", exemplar_policy="none")
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = first_task(dataset, tasks, cfg)
        calls = []
        real_step = nn.sgd_step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(nn, "sgd_step", counting_step)
        protocol.continual_step(state, tasks, dataset, cfg)
        n_train = len(dataset.rows_for_classes(tasks[1], eval_split=False))
        assert len(calls) == math.ceil(n_train / cfg.batch_size)

    def test_offline_mode_epoch_passes(self, dataset, monkeypatch):
        cfg = fast_cfg(exemplar_policy="none")
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = first_task(dataset, tasks, cfg)
        calls = []
        real_step = nn.sgd_step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(nn, "sgd_step", counting_step)
        protocol.continual_step(state, tasks, dataset, cfg)
        n_train = len(dataset.rows_for_classes(tasks[1], eval_split=False))
        assert len(calls) == cfg.epochs * math.ceil(n_train / cfg.batch_size)

    def test_ours_and_ffe_identical_at_step_two(self, dataset):
        # before any incremental update the current extractor is the
        # first-task extractor, so both variants see the same features
        a = protocol.run_experiment(fast_cfg(variant="ours"), dataset)
        b = protocol.run_experiment(fast_cfg(variant="ffe"), dataset)
        assert a.reports[1] == b.reports[1]

    def test_upl_refresh_reclusters(self, dataset, monkeypatch):
        calls = []
        real_kmeans = protocol.kmeans

        def counting_kmeans(*args, **kwargs):
            calls.append(1)
            return real_kmeans(*args, **kwargs)

        monkeypatch.setattr(protocol, "kmeans", counting_kmeans)
        cfg = fast_cfg(epochs=5, upl_k=2)
        protocol.run_experiment(cfg, dataset)
        # per incremental step: one initial clustering plus refreshes at
        # epochs 2 and 4; two incremental steps
        assert len(calls) == 2 * 3

    def test_upl_exemplars_follow_last_clustering(self, dataset,
                                                  monkeypatch):
        # k-means may number its clusters differently at each refresh, so a
        # step's exemplars must be labelled by the clustering training ended
        # on; here the refreshes number them in reverse
        clusterings = []
        real_kmeans = protocol.kmeans

        def renumbering_kmeans(points, k, **kwargs):
            result = real_kmeans(points, k, **kwargs)
            if clusterings:
                result = replace(result, assignments=k - 1 - result.assignments)
            clusterings.append(result.assignments)
            return result

        monkeypatch.setattr(protocol, "kmeans", renumbering_kmeans)
        cfg = fast_cfg(epochs=5, upl_k=2)
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = first_task(dataset, tasks, cfg)
        for step in (2, 3):
            clusterings.clear()
            old = len(state.store.ids)
            state = protocol.continual_step(state, tasks, dataset, cfg)
            assert len(clusterings) == 3  # the first and two refreshes
            train_rows = dataset.rows_for_classes(tasks[step - 1],
                                                  eval_split=False).tolist()
            rows = [train_rows.index(r)
                    for r in dataset.positions(state.store.ids[old:])]
            m = (step - 1) * 2
            assert state.store.labels[old:].tolist() == \
                (m + clusterings[-1][rows]).tolist()

    @pytest.mark.parametrize("width", [16, 1], ids=["table", "features"])
    def test_upl_step_makes_one_teacher_pass(self, dataset, monkeypatch,
                                             width):
        # the teacher and the merged rows are fixed for a step, so its
        # three upl-2 segments (epochs 0-1, 2-3 and 4) share one pass; a
        # width of 1 keeps the teacher's features, not its probabilities
        passes, segments = [], []
        real_probs, real_train = protocol._teacher_probs, protocol._train

        def counting_probs(teacher, features, pos, cfg):
            passes.append(teacher.out_dim)
            return real_probs(teacher, features, pos, cfg)

        def counting_train(model, features, pos, y, teacher_probs, m, *rest):
            segments.append((m, teacher_probs))
            return real_train(model, features, pos, y, teacher_probs, m,
                              *rest)

        monkeypatch.setattr(protocol, "_teacher_probs", counting_probs)
        monkeypatch.setattr(protocol, "_train", counting_train)
        protocol.run_experiment(fast_cfg(epochs=5, upl_k=2,
                                         hidden_width=width), dataset)
        assert passes == [2, 4]  # one a step, with 2 and 4 old classes
        assert [m for m, _ in segments] == [0, 2, 2, 2, 4, 4, 4]
        assert segments[0][1] is None
        for step in (slice(1, 4), slice(4, 7)):
            fns = {id(fn) for _, fn in segments[step]}
            assert len(fns) == 1

    def test_upl_zero_matches_fixed_labels(self, dataset):
        a = protocol.run_experiment(fast_cfg(upl_k=0), dataset)
        b = protocol.run_experiment(fast_cfg(upl_k=0), dataset)
        assert a.reports == b.reports


class TestTrain:
    def test_out_of_range_label_rejected(self):
        # the last label is out of range, so a check per minibatch would
        # have updated the model on the batches before it
        rng = np.random.default_rng(0)
        features = rng.normal(size=(40, 4))
        cfg = fast_cfg(batch_size=8)
        for bad in (-1, 3):
            model = nn.init_model(4, 5, 1, 3, seed=0)
            before = model.params.tobytes()
            y = np.append(rng.integers(0, 3, 39), bad)
            with pytest.raises(ValueError, match="^label out of range$"):
                protocol._train(model, features, np.arange(40), y, None, 0, 3,
                                cfg, 1, range(cfg.epochs), cfg.epochs)
            assert model.params.tobytes() == before


class TestRunExperiment:
    def test_alpha_is_old_class_share(self, dataset, monkeypatch):
        # step s trains with m = (s - 1) * n old classes of m + n = s * n,
        # so alpha = (s - 1) / s; the supervised first task gets 0
        seen = {}
        real = nn.backward

        def recording(model, x, teacher, y, alpha, temperature, m):
            step = model.out_dim // 2
            seen.setdefault(step, set()).add((alpha, temperature, m))
            return real(model, x, teacher, y, alpha, temperature, m)

        monkeypatch.setattr(nn, "backward", recording)
        protocol.run_experiment(fast_cfg(temperature=1.5), dataset)
        assert seen == {1: {(0.0, 1.5, 0)}, 2: {(1 / 2, 1.5, 2)},
                        3: {(2 / 3, 1.5, 4)}}

    def test_traced_run_records_every_benchmark_span(self, dataset, tmp_path,
                                                     monkeypatch):
        # the benchmark's tracer finds the spans its standard workload must
        # record, and counts backward's rows as the rows trained
        tracer_mod = load_perfbench("tracer", monkeypatch)
        monkeypatch.setitem(sys.modules, "tracer", tracer_mod)
        child = load_perfbench("child", monkeypatch)
        trained = []
        real = protocol._train

        def counting(model, features, pos, y, probs, m, n, cfg, step, epochs,
                     n_epochs):
            trained.append(len(pos) * len(epochs))
            return real(model, features, pos, y, probs, m, n, cfg, step,
                        epochs, n_epochs)

        monkeypatch.setattr(protocol, "_train", counting)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            protocol.run_experiment(fast_cfg(step_size=3), dataset,
                                    out_dir=str(tmp_path / "run"))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        assert [name for name in child.MUST_RUN["standard"]
                if name not in summary] == []
        assert len(trained) == 2
        rows = tracer_mod.layer_metrics(summary)["nn.backward.rows"]
        assert rows == sum(trained)

    def test_traced_cli_run_records_the_run_in_its_command(
            self, dataset, tmp_path, monkeypatch):
        # `pseudocl run` runs its experiment inside its own traced span
        tracer_mod = load_perfbench("tracer", monkeypatch)
        csv, cfg = str(tmp_path / "data.csv"), str(tmp_path / "run.cfg")
        save_dataset(dataset, csv)
        dump_config(fast_cfg(step_size=3, epochs=1), cfg)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            code = cli.main(["run", cfg, "--data", csv,
                             "--out", str(tmp_path / "run")])
        finally:
            tracer.uninstall()
        assert code == 0
        names = [span[0] for span in tracer.spans]
        (parent,) = [parent for name, _, _, parent, _ in tracer.spans
                     if name == "protocol.run_experiment"]
        assert names[parent] == "cli.cmd_run"

    @pytest.mark.parametrize("kw", [
        {}, {"mode": "online", "exemplar_policy": "random"}, {"upl_k": 2}],
        ids=["herding", "online-random", "upl-2"])
    def test_run_does_not_depend_on_sample_ids(self, dataset, tmp_path, kw):
        # a run addresses its samples by row: the same rows under ids that
        # are not row numbers give the same files, and exemplars whose ids
        # map row for row
        n = len(dataset)
        assert np.array_equal(dataset.ids, np.arange(n))
        ids = 10_000 - 3 * np.random.default_rng(0).permutation(n)
        renamed = Dataset(ids, dataset.features, dataset.sealed._peek(),
                          seed=dataset.seed)
        by_row, by_id = tmp_path / "row", tmp_path / "id"
        protocol.run_experiment(fast_cfg(**kw), dataset, out_dir=str(by_row))
        protocol.run_experiment(fast_cfg(**kw), renamed, out_dir=str(by_id))
        names = sorted(os.listdir(by_row))
        assert names == sorted(os.listdir(by_id))
        for name in names:
            if not name.startswith("exemplars_"):
                assert (by_row / name).read_bytes() == \
                    (by_id / name).read_bytes(), name
                continue
            want = json.loads((by_row / name).read_text())
            got = json.loads((by_id / name).read_text())
            assert want["ids"] and got["labels"] == want["labels"]
            assert got["ids"] == ids[want["ids"]].tolist()
            assert got["q"] == want["q"]

    def test_report_sequence(self, dataset):
        result = protocol.run_experiment(fast_cfg(), dataset)
        assert [r.step for r in result.reports] == [1, 2, 3]
        assert [r.classes_seen for r in result.reports] == [2, 4, 6]
        assert result.model.out_dim == 6

    def test_deterministic_end_to_end(self, dataset):
        a = protocol.run_experiment(fast_cfg(), dataset)
        b = protocol.run_experiment(fast_cfg(), dataset)
        assert a.reports == b.reports
        assert np.array_equal(a.model.params, b.model.params)

    def test_seed_changes_results(self, dataset):
        a = protocol.run_experiment(fast_cfg(model_seed=0, shuffle_seed=0),
                                    dataset)
        b = protocol.run_experiment(fast_cfg(model_seed=1, shuffle_seed=1),
                                    dataset)
        assert a.reports != b.reports

    def test_single_task_stream(self, dataset):
        cfg = fast_cfg(step_size=6, epochs=6)
        result = protocol.run_experiment(cfg, dataset)
        summary = protocol.summarize(result.reports, cfg)
        assert len(result.reports) == 1
        assert summary["avg_acc"] == result.reports[0].acc
        assert summary["last_acc"] == result.reports[0].acc

    def test_summary_averages_incremental_steps_only(self, dataset):
        result = protocol.run_experiment(fast_cfg(), dataset)
        summary = protocol.summarize(result.reports, fast_cfg())
        inc = result.reports[1:]
        assert np.isclose(summary["avg_acc"], np.mean([r.acc for r in inc]))
        assert summary["last_acc"] == result.reports[-1].acc
        assert summary["variant"] == "ours"

    def test_artifacts_written(self, dataset, tmp_path):
        out = str(tmp_path / "run")
        protocol.run_experiment(fast_cfg(), dataset, out_dir=out)
        names = set(os.listdir(out))
        assert {"config.txt", "report.csv", "summary.csv"} <= names
        for step in (1, 2, 3):
            assert f"step_{step}.ckpt" in names
            assert f"exemplars_step_{step}.json" in names
        with open(os.path.join(out, "report.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "step,classes_seen,acc,nmi,ari"
        assert len(lines) == 4

    def test_finished_run_leaves_no_temporary_file(self, dataset, tmp_path):
        out = tmp_path / "run"
        protocol.run_experiment(fast_cfg(), dataset, out_dir=str(out))
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_checkpoint_reloads_to_same_predictions(self, dataset, tmp_path):
        from pseudocl.data import read_checkpoint
        out = str(tmp_path / "run")
        result = protocol.run_experiment(fast_cfg(), dataset, out_dir=out)
        model, meta = read_checkpoint(os.path.join(out, "step_3.ckpt"))
        assert meta["step"] == 3
        assert sorted(meta["classes_seen"]) == [0, 1, 2, 3, 4, 5]
        x = dataset.features[:20]
        assert np.array_equal(nn.forward(model, x),
                              nn.forward(result.model, x))

    def test_partial_report_survives_failure(self, dataset, tmp_path,
                                             monkeypatch):
        out = str(tmp_path / "run")
        real = protocol.continual_step

        def failing(state, *args, **kwargs):
            if state.step + 1 == 3:
                raise RuntimeError("boom")
            return real(state, *args, **kwargs)

        monkeypatch.setattr(protocol, "continual_step", failing)
        with pytest.raises(RuntimeError):
            protocol.run_experiment(fast_cfg(), dataset, out_dir=out)
        with open(os.path.join(out, "report.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3  # header + steps 1 and 2
        assert not os.path.exists(os.path.join(out, "summary.csv"))

    @pytest.mark.parametrize("stop", [1, 3])
    def test_interrupted_run_keeps_finished_rows(self, dataset, tmp_path,
                                                 monkeypatch, stop):
        # KeyboardInterrupt is no Exception, so the rows of the finished
        # steps must be on disk before it, not written on the way out
        full = str(tmp_path / "full")
        protocol.run_experiment(fast_cfg(), dataset, out_dir=full)
        out = str(tmp_path / "run")
        real = protocol.continual_step

        def interrupted(state, *args, **kwargs):
            if state.step + 1 == stop:
                raise KeyboardInterrupt
            return real(state, *args, **kwargs)

        monkeypatch.setattr(protocol, "continual_step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            protocol.run_experiment(fast_cfg(), dataset, out_dir=out)
        with open(os.path.join(out, "report.csv")) as fh:
            lines = fh.read().splitlines()
        with open(os.path.join(full, "report.csv")) as fh:
            assert lines == fh.read().splitlines()[:stop]  # header + rows
        assert os.path.exists(os.path.join(out, "config.txt"))
        assert not os.path.exists(os.path.join(out, "summary.csv"))

    def test_divergence_names_step_and_keeps_finished_rows(self, dataset,
                                                           tmp_path,
                                                           monkeypatch):
        out = str(tmp_path / "run")
        real = nn.backward

        def diverging(model, x, teacher, y, alpha, temperature, m):
            loss, grads = real(model, x, teacher, y, alpha, temperature, m)
            return (float("nan") if m else loss), grads

        monkeypatch.setattr(nn, "backward", diverging)
        with pytest.raises(protocol.ProtocolError,
                           match="diverged at step 2, epoch 1 of 4"):
            protocol.run_experiment(fast_cfg(), dataset, out_dir=out)
        with open(os.path.join(out, "report.csv")) as fh:
            lines = fh.read().splitlines()
        assert [line.split(",")[0] for line in lines] == ["step", "1"]

    def test_non_finite_last_update_is_caught(self, dataset, monkeypatch):
        # one batch, one epoch: no later loss sees the broken update
        def blow_up(model, grads, lr, weight_decay=0.0):
            model.params[0] = np.inf

        monkeypatch.setattr(nn, "sgd_step", blow_up)
        with pytest.raises(protocol.ProtocolError,
                           match="step 1, epoch 1 of 1: non-finite parameters"):
            protocol.run_experiment(fast_cfg(epochs=1, batch_size=1000),
                                    dataset)

    def test_non_finite_update_before_refresh_is_caught(self, dataset,
                                                         monkeypatch):
        # one batch an epoch: step 2's second update ends its first UPL
        # segment, and the refresh after it must not cluster broken features
        real = nn.sgd_step
        updates = []

        def blow_up(model, grads, lr, weight_decay=0.0):
            real(model, grads, lr, weight_decay)
            updates.append(model.out_dim)
            if updates.count(4) == 2:  # step 2 trains a 4-class head
                model.params[...] = np.inf

        monkeypatch.setattr(nn, "sgd_step", blow_up)
        with pytest.raises(protocol.ProtocolError,
                           match="step 2, epoch 2 of 5: non-finite parameters"):
            protocol.run_experiment(fast_cfg(epochs=5, upl_k=2,
                                             batch_size=1000), dataset)

    def test_alignment_failure_names_step_and_keeps_finished_files(
            self, tmp_path):
        # lr * weight_decay = 1 sets the parameters to -lr * grad at each
        # update, so head columns behind dead ReLUs become zero: step 2's
        # new-class weights end all zero and cannot be aligned
        small = generate_gaussian_stream(BlobSpec(
            num_classes=4, dim=1, samples_per_class=6, separation=0.001,
            std=0.1, seed=90))
        cfg = RunConfig(mode="online", variant="ffe", q=50, step_size=2,
                        oracle_labels=True, epochs=1, batch_size=2,
                        temperature=100.0, weight_decay=10.0, hidden_width=3,
                        n_restarts=2, model_seed=4, shuffle_seed=4)
        out = tmp_path / "run"
        with pytest.raises(protocol.ProtocolError, match=(
                r"^weight alignment failed at step 2: all-zero new-class "
                r"weights; cannot align$")):
            protocol.run_experiment(cfg, small, str(out))
        assert sorted(os.listdir(out)) == [
            "config.txt", "exemplars_step_1.json", "report.csv",
            "step_1.ckpt"]


    # pytest's configuration turns RuntimeWarnings into errors already; the
    # mark keeps this test strict wherever it runs
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kw", [
        {}, {"variant": "ffe"}, {"normalize_features": True}],
        ids=["ours", "ffe", "normalized"])
    def test_clustering_failure_names_step(self, dataset, kw):
        # finite parameters scaled by 1e200 give features whose squares
        # overflow, which k-means refuses before its seeding draws from
        # them, and which normalizing would divide to zeros
        cfg = fast_cfg(**kw)
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = first_task(dataset, tasks, cfg)
        state.model.params *= 1e200
        assert np.isfinite(state.model.params).all()
        with pytest.raises(protocol.ProtocolError, match=(
                r"^clustering failed at step 2: \w+' squared norms "
                r"overflow$")):
            protocol.continual_step(state, tasks, dataset, cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("step, kw, message", [
        (1, {}, "exemplar selection failed at step 1: features' squared "
         "norms overflow"),
        (1, {"exemplar_policy": "none"},
         "evaluation failed at step 1: the model's logits overflow"),
        (2, {"oracle_labels": True}, "weight alignment failed at step 2: "
         "head weight norms overflow; cannot align")],
        ids=["herding", "evaluation", "alignment"])
    def test_overflowing_model_names_step(self, dataset, monkeypatch, step,
                                          kw, message):
        # training that ends in finite parameters of 1e160 passes its
        # checks, but the features and logits of such a model overflow
        cfg = fast_cfg(**kw)
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        state = initial(cfg) if step == 1 else first_task(dataset, tasks, cfg)
        real = protocol._train

        def scaled(model, *args):
            real(model, *args)
            model.params *= 1e160

        monkeypatch.setattr(protocol, "_train", scaled)
        with pytest.raises(protocol.ProtocolError, match=f"^{message}$"):
            protocol.continual_step(state, tasks, dataset, cfg)


class TestRunState:
    @pytest.mark.parametrize("kw", [{}, {"variant": "ffe"},
                                    {"oracle_labels": True}],
                             ids=["ours", "ffe", "oracle"])
    def test_run_is_its_steps_folded(self, dataset, kw):
        # run_experiment is continual_step folded over the tasks from the
        # initial state; h1 is the first step's model
        cfg = fast_cfg(**kw)
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        states = [initial(cfg)]
        for _ in tasks:
            states.append(protocol.continual_step(states[-1], tasks, dataset,
                                                  cfg))
        run = protocol.run_experiment(cfg, dataset)
        assert state_bytes(states[-1]) == state_bytes(run)
        assert [s.step for s in states] == [0, 1, 2, 3]
        assert states[-1].h1 is states[1].model
        assert [len(s.store.ids) for s in states] == [0, 6, 12, 18]

    @pytest.mark.parametrize("k", [1, 2])
    def test_continuing_a_kept_state_gives_the_same_bytes(self, dataset, k):
        # a state kept after step k and continued after the run went past it
        # ends where the uninterrupted run ended: no step changes the state
        # it is given, and ffe's steps read h1 from it
        cfg = fast_cfg(variant="ffe")
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        states = [initial(cfg)]
        for _ in tasks:
            states.append(protocol.continual_step(states[-1], tasks, dataset,
                                                  cfg))
        state = states[k]
        while state.step < len(tasks):
            state = protocol.continual_step(state, tasks, dataset, cfg)
        assert state_bytes(state) == state_bytes(states[-1])

    def test_state_is_frozen(self):
        state = initial(fast_cfg())
        with pytest.raises(AttributeError):
            state.step = 1


class TestStepMemory:
    @pytest.fixture(scope="class")
    def big(self):
        """A stream whose task 2 has 2,080 training rows, more than four
        blocks, of 64 features each."""
        return generate_gaussian_stream(BlobSpec(
            num_classes=4, dim=64, samples_per_class=1300, separation=3.0,
            std=0.3, seed=5))

    @pytest.mark.parametrize("upl_k", [0, 1], ids=["ours", "upl-1"])
    def test_step_holds_no_copy_of_its_rows(self, big, upl_k):
        # a step gathers its rows a block at a time: training indexes the
        # dataset by position, and the feature passes write into one
        # (rows x width) array. Above its start, step 2 holds the teacher
        # probabilities, its int vectors and a few blocks of rows; a copy
        # of the task's 2,080 rows of 64 features alone is over four blocks
        cfg = fast_cfg(epochs=2, batch_size=64, q=5, upl_k=upl_k)
        tasks = protocol.split_tasks(big, 2, cfg.arrangement_seed)
        state = first_task(big, tasks, cfg)
        merged = (len(big.rows_for_classes(tasks[1], eval_split=False))
                  + len(state.store.ids))
        p_hat = merged * 2 * 8  # two old classes
        ints = 8 * merged * 8
        block = nn._ROW_BLOCK * max(big.dim, cfg.hidden_width) * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            protocol.continual_step(state, tasks, big, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= p_hat + ints + 4 * block

    def test_wide_head_step_holds_no_probability_table(self):
        # step 2 of two tasks of 100 classes trains 3,700 merged rows with
        # a teacher of 100 classes on 8 features: the teacher's (rows x 100)
        # probabilities would be 2.96 MB, its features are 0.24 MB
        ds = generate_gaussian_stream(BlobSpec(
            num_classes=200, dim=8, samples_per_class=40, separation=3.0,
            std=0.3, seed=5))
        cfg = fast_cfg(step_size=100, epochs=1, batch_size=64, hidden_width=8,
                       q=5)
        tasks = protocol.split_tasks(ds, 100, cfg.arrangement_seed)
        state = first_task(ds, tasks, cfg)
        merged = (len(ds.rows_for_classes(tasks[1], eval_split=False))
                  + len(state.store.ids))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            protocol.continual_step(state, tasks, ds, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < merged * 100 * 8

    @pytest.mark.parametrize("kw", [
        {}, {"variant": "ffe"}, {"variant": "scratch"}, {"upl_k": 1},
        {"normalize_features": True}, {"oracle_labels": True},
        {"mode": "online", "exemplar_policy": "random"}],
        ids=["ours", "ffe", "scratch", "upl-1", "normalized", "oracle",
             "online-random"])
    def test_rows_are_gathered_in_blocks(self, dataset, monkeypatch, kw):
        # every reader but pca's gathers at most _ROW_BLOCK rows at a time
        sizes = self.gathered(dataset, monkeypatch, fast_cfg(**kw))
        assert sizes and max(sizes) <= nn._ROW_BLOCK

    def test_pca_gathers_the_task_whole(self, dataset, monkeypatch):
        sizes = self.gathered(dataset, monkeypatch,
                              fast_cfg(variant="pca", pca_dim=4))
        assert max(sizes) > nn._ROW_BLOCK

    @staticmethod
    def gathered(dataset, monkeypatch, cfg):
        """The row counts of a run's calls of nn.extract_features,
        nn.forward and pca_coordinates, with blocks of 7 rows so the
        6-class stream spans several. The teacher pass, whose blocks take
        a minibatch's shape, is not counted."""
        sizes, teacher = [], []

        def recording(real, rows_at):
            def call(*args):
                if not teacher:
                    sizes.append(len(args[rows_at]))
                return real(*args)
            return call

        def teacher_probs(*args):
            teacher.append(True)
            try:
                return real_probs(*args)
            finally:
                teacher.pop()

        real_probs = protocol._teacher_probs
        monkeypatch.setattr(nn, "_ROW_BLOCK", 7)
        monkeypatch.setattr(nn, "extract_features",
                            recording(nn.extract_features, 1))
        monkeypatch.setattr(nn, "forward", recording(nn.forward, 1))
        monkeypatch.setattr(protocol, "pca_coordinates",
                            recording(protocol.pca_coordinates, 0))
        monkeypatch.setattr(protocol, "_teacher_probs", teacher_probs)
        protocol.run_experiment(cfg, dataset)
        return sizes

    def test_evaluate_forwards_row_blocks(self, monkeypatch):
        # 600 held-out rows: a block and a part of one
        big = generate_gaussian_stream(BlobSpec(
            num_classes=3, dim=4, samples_per_class=1000, separation=3.0,
            std=0.3, seed=5))
        classes = big.classes()
        eval_rows = big.rows_for_classes(classes, eval_split=True)
        assert nn._ROW_BLOCK < len(eval_rows) < 2 * nn._ROW_BLOCK
        model = nn.init_model(4, 16, 1, 3, seed=0)
        preds = np.argmax(nn.forward(model, big.features[eval_rows]), axis=1)
        assert len(set(preds.tolist())) == 3
        one_shot = step_report(1, 3, preds, big.sealed.reveal(eval_rows))
        rows = []
        real = nn.forward

        def forward(model, x):
            rows.append(len(x))
            return real(model, x)

        monkeypatch.setattr(nn, "forward", forward)
        assert protocol.evaluate(model, big, classes, 1) == one_shot
        assert max(rows) == nn._ROW_BLOCK
        assert sum(rows) == len(eval_rows)


class TestPassBlocks:
    """The model's feature and evaluation passes take blocks in which no
    hidden layer's product takes more than nn._BLAS_SPLIT multiply-adds,
    the most OpenBLAS computes on the calling thread alone, and at most
    nn._ROW_BLOCK rows. Blocks of two or more rows keep the bytes of one
    pass over every row."""

    @staticmethod
    def pass_sizes(monkeypatch):
        """The row counts of the nn.extract_features and nn.forward calls
        made inside protocol._row_features and protocol.evaluate, as they
        are made."""
        sizes, inside = [], []

        def recording(real):
            def call(model, x):
                if inside:
                    sizes.append(len(x))
                return real(model, x)
            return call

        def within(real):
            def call(*args):
                inside.append(True)
                try:
                    return real(*args)
                finally:
                    inside.pop()
            return call

        monkeypatch.setattr(nn, "extract_features",
                            recording(nn.extract_features))
        monkeypatch.setattr(nn, "forward", recording(nn.forward))
        monkeypatch.setattr(protocol, "_row_features",
                            within(protocol._row_features))
        monkeypatch.setattr(protocol, "evaluate", within(protocol.evaluate))
        return sizes

    def test_standard_step_passes_take_64_rows(self, monkeypatch):
        # standard's shapes, 16 -> 64 -> 64, and 600 training rows a task:
        # 512-row blocks would put 512 x 64 x 64 multiply-adds in one
        # product, twice the threading cutoff
        ds = generate_gaussian_stream(BlobSpec(
            num_classes=10, dim=16, samples_per_class=150, separation=1.0,
            std=0.15, seed=7))
        cfg = fast_cfg(step_size=5, epochs=1, batch_size=32,
                       hidden_width=64, n_hidden=2, q=5)
        tasks = protocol.split_tasks(ds, cfg.step_size, cfg.arrangement_seed)
        assert len(ds.rows_for_classes(tasks[0], eval_split=False)) > 512
        sizes = self.pass_sizes(monkeypatch)
        protocol.run_experiment(cfg, ds)
        assert max(sizes) == 64

    @pytest.mark.parametrize("dims, block", [
        ((16, 64, 2), 64), ((16, 128, 2), 16), ((256, 32, 1), 32),
        ((16, 64, 0), 512)], ids=["standard", "128-wide", "wide-input",
                                  "head-only"])
    @pytest.mark.parametrize("cap", [None, 7])
    def test_blocks_follow_the_widest_hidden_layer(self, monkeypatch, dims,
                                                   block, cap):
        # the head does not count; a patched _ROW_BLOCK caps every block
        d, width, n_hidden = dims
        if cap:
            monkeypatch.setattr(nn, "_ROW_BLOCK", cap)
            block = cap
        rng = np.random.default_rng(d + width)
        n = 3000  # 600 held out
        ds = Dataset(np.arange(n), rng.normal(size=(n, d)),
                     np.repeat(np.arange(5), n // 5))
        model = nn.init_model(d, width, n_hidden, 5, seed=1)
        rows = rng.permutation(n)[:1025]
        want = nn.extract_features(model, ds.features[rows])
        sizes = self.pass_sizes(monkeypatch)
        got = protocol._row_features(model, ds, rows)
        assert got.tobytes() == want.tobytes()
        assert max(sizes) == block and min(sizes) >= 2
        sizes.clear()
        protocol.evaluate(model, ds, ds.classes(), 1)
        assert max(sizes) == block and min(sizes) >= 2


# Run in a fresh interpreter, so that its threads' CPU times count these
# runs alone: the stream of the benchmark's standard runs, at 5 epochs
BLAS_WORKER_CPU = """\
import json, os
from pseudocl.config import BlobSpec, RunConfig
from pseudocl.data import generate_gaussian_stream
from pseudocl.protocol import run_experiment


def cpu_ticks():
    # (main thread, other threads) CPU ticks of this process
    main = other = 0
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime, stime
        if int(task) == os.getpid():
            main += ticks
        else:
            other += ticks
    return main, other


dataset = generate_gaussian_stream(BlobSpec(
    num_classes=20, dim=16, samples_per_class=150, separation=1.0, std=0.15,
    seed=7, signal_dims=10, noise_std=2.0))
before = cpu_ticks()
for seed in range(3):
    run_experiment(RunConfig(epochs=5, model_seed=seed), dataset)
after = cpu_ticks()
print(json.dumps({"main": after[0] - before[0],
                  "other": after[1] - before[1]}))
"""


def _blas_is_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy reports no build as a dict
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _usable_cpus():
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/task")
@pytest.mark.skipif(not _blas_is_openblas(), reason="numpy's BLAS is not "
                    "OpenBLAS")
@pytest.mark.skipif(_usable_cpus() < 2, reason="fewer than 2 usable CPUs")
@pytest.mark.skipif(any(os.environ.get(v) == "1" for v in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")), reason="one BLAS thread")
def test_run_leaves_blas_worker_idle():
    # OpenBLAS's worker thread computes only products above its threading
    # cutoff, and spins for a while after each; a run whose passes stay
    # under it spends next to no CPU time off its main thread
    src = os.path.dirname(os.path.dirname(os.path.abspath(nn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", BLAS_WORKER_CPU], env=env,
                         capture_output=True, text=True, check=True)
    ticks = json.loads(out.stdout.splitlines()[-1])
    assert ticks["main"] > 0
    assert ticks["other"] < 0.25 * ticks["main"], ticks


class TestProtocolFuzz:
    """Every tiny stream and config ends in one of three ways: the run
    finishes and a rerun gives the same bytes, it raises a ProtocolError
    naming its step, or the spec or config is rejected when it is built.
    Blocks of 3 to 6 rows give the feature, evaluation and herding-key
    passes tails of every length."""

    @staticmethod
    def draw(data):
        """(spec, config, block) of one draw; ValueError if rejected."""
        num_classes = data.draw(st.integers(2, 6), "num_classes")
        spec = BlobSpec(
            num_classes=num_classes, dim=data.draw(st.integers(1, 5), "dim"),
            samples_per_class=data.draw(st.integers(2, 10), "samples"),
            separation=data.draw(st.sampled_from([1e-3, 1.0, 3.0, 1e3]),
                                 "separation"),
            std=data.draw(st.sampled_from([0.1, 1.0]), "std"),
            seed=data.draw(st.integers(0, 99), "spec_seed"))
        step_sizes = [s for s in range(1, num_classes + 1)
                      if num_classes % s == 0]
        variant = data.draw(st.sampled_from(["ours", "ffe", "scratch",
                                             "pca"]), "variant")
        cfg = RunConfig(
            mode=data.draw(st.sampled_from(["offline", "online"]), "mode"),
            variant=variant,
            # only ours refreshes; online mode or upl_k >= epochs is rejected
            upl_k=data.draw(st.integers(0, 2), "upl_k") if variant == "ours"
            else 0,
            exemplar_policy=data.draw(st.sampled_from(
                ["herding", "random", "none"]), "policy"),
            q=data.draw(st.integers(1, 5), "q"),
            step_size=data.draw(st.sampled_from(step_sizes), "step_size"),
            bias_correction=data.draw(st.booleans(), "bias_correction"),
            oracle_labels=data.draw(st.booleans(), "oracle"),
            epochs=data.draw(st.integers(1, 3), "epochs"),
            lr=10.0 ** data.draw(st.integers(-3, 3), "log_lr"),
            lr_decay_period=data.draw(st.integers(1, 3), "decay_period"),
            batch_size=data.draw(st.integers(1, 8), "batch"),
            weight_decay=data.draw(st.sampled_from([0.0, 1e-5, 0.1, 10.0]),
                                   "weight_decay"),
            temperature=data.draw(st.sampled_from([0.5, 2.0, 100.0]),
                                  "temperature"),
            hidden_width=data.draw(st.integers(1, 6), "width"),
            n_hidden=data.draw(st.integers(0, 2), "n_hidden"),
            pca_dim=data.draw(st.integers(1, 6), "pca_dim"),
            n_restarts=data.draw(st.integers(1, 2), "restarts"),
            normalize_features=data.draw(st.booleans(), "normalize"),
            arrangement_seed=data.draw(st.integers(0, 9), "arrangement"),
            model_seed=data.draw(st.integers(0, 9), "model_seed"),
            shuffle_seed=data.draw(st.integers(0, 9), "shuffle_seed"))
        return spec, cfg, data.draw(st.integers(3, 6), "block")

    @staticmethod
    def outcome(spec, cfg):
        """The run's reports and its bytes, or the message of its
        ProtocolError."""
        try:
            result = protocol.run_experiment(
                cfg, generate_gaussian_stream(spec))
        except protocol.ProtocolError as exc:
            return str(exc)
        return result.reports, (
            repr([astuple(r) for r in result.reports]),
            repr(protocol.summarize(result.reports, cfg)),
            result.model.params.tobytes(),
            result.store.ids.tobytes(), result.store.labels.tobytes())

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finishes_or_fails_naming_its_step(self, data):
        try:
            spec, cfg, block = self.draw(data)
        except ValueError:
            return  # rejected when built
        with mock.patch.object(nn, "_ROW_BLOCK", block):
            first = self.outcome(spec, cfg)
            if isinstance(first, str):
                # a split too small names task 1; any other failure, the
                # step it happened in
                assert re.search(r"\b(at step|leaves task) \d+\b", first), first
                return
            reports, run_bytes = first
            assert self.outcome(spec, cfg)[1] == run_bytes
        assert len(reports) == spec.num_classes // cfg.step_size
        for r in reports:
            assert 0.0 <= r.acc <= 1.0 and 0.0 <= r.nmi <= 1.0
            assert -1.0 <= r.ari <= 1.0


class TestVariants:
    @pytest.mark.parametrize("variant", ["ours", "pca"])
    def test_normalize_features_clusters_unit_rows(self, dataset, monkeypatch,
                                                   variant):
        seen = []
        real = protocol.kmeans

        def recording(points, k, **kwargs):
            seen.append(np.linalg.norm(points, axis=1))
            return real(points, k, **kwargs)

        monkeypatch.setattr(protocol, "kmeans", recording)
        protocol.run_experiment(fast_cfg(variant=variant,
                                         normalize_features=True), dataset)
        assert len(seen) == 2  # steps 2 and 3 cluster
        for norms in seen:
            assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_upl_refresh_clusters_unit_rows(self, dataset, monkeypatch):
        seen = []
        real = protocol.kmeans

        def recording(points, k, **kwargs):
            seen.append(np.linalg.norm(points, axis=1))
            return real(points, k, **kwargs)

        monkeypatch.setattr(protocol, "kmeans", recording)
        protocol.run_experiment(fast_cfg(upl_k=2, normalize_features=True),
                                dataset)
        assert len(seen) == 4  # steps 2 and 3 cluster, then refresh once
        for norms in seen:
            assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_each_variant_runs(self, dataset):
        for variant in ("ours", "ffe", "scratch", "pca"):
            cfg = fast_cfg(variant=variant, pca_dim=4)
            summary = protocol.summarize(
                protocol.run_experiment(cfg, dataset).reports, cfg)
            assert summary["variant"] == variant
            assert 0.0 <= summary["avg_acc"] <= 1.0

    def test_variant_name(self):
        assert protocol.variant_name(fast_cfg()) == "ours"
        assert protocol.variant_name(fast_cfg(upl_k=3)) == "upl-3"
        assert protocol.variant_name(fast_cfg(oracle_labels=True)) == "oracle"


class TestSweep:
    def test_axis_sweep_artifacts(self, dataset, tmp_path):
        out = str(tmp_path / "sweep")
        rows = protocol.run_sweep(fast_cfg(), dataset, "q", [1, 2], out)
        assert len(rows) == 2
        assert {r["value"] for r in rows} == {1, 2}
        with open(os.path.join(out, "sweep.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "q,seed,variant,avg_acc,last_acc,avg_nmi,avg_ari"
        assert len(lines) == 3
        assert os.path.isdir(os.path.join(out, "q=1_seed=0"))

    def test_repeats_shift_seeds(self, dataset, tmp_path):
        out = str(tmp_path / "sweep")
        rows = protocol.run_sweep(fast_cfg(), dataset, "q", [2], out,
                                  repeats=2)
        assert [r["seed"] for r in rows] == [0, 1]

    def test_variant_axis(self, dataset, tmp_path):
        out = str(tmp_path / "sweep")
        rows = protocol.run_sweep(fast_cfg(), dataset, "variant",
                                  ["ours", "upl-2"], out)
        assert rows[0]["variant"] == "ours"
        assert rows[1]["variant"] == "upl-2"

    def test_unknown_axis_rejected(self, dataset, tmp_path):
        with pytest.raises(protocol.ProtocolError):
            protocol.run_sweep(fast_cfg(), dataset, "bogus", [1],
                               str(tmp_path / "s"))

    def test_seed_axis_sets_the_seeds(self, dataset, tmp_path):
        out = tmp_path / "sweep"
        rows = protocol.run_sweep(fast_cfg(), dataset, "model_seed", [1, 2],
                                  str(out))
        assert [r["seed"] for r in rows] == [1, 2]
        for seed in (1, 2):
            alone = tmp_path / f"alone{seed}"
            protocol.run_experiment(fast_cfg(model_seed=seed), dataset,
                                    out_dir=str(alone))
            swept = out / f"model_seed={seed}_seed={seed}"
            names = sorted(os.listdir(alone))
            assert sorted(os.listdir(swept)) == names
            for name in names:
                assert (swept / name).read_bytes() == (alone / name).read_bytes()

    def test_repeats_count_up_from_swept_seeds(self, tmp_path):
        runs = protocol.sweep_runs(fast_cfg(shuffle_seed=7), "model_seed",
                                   ["3"], str(tmp_path), repeats=2)
        assert [(c.model_seed, c.shuffle_seed) for c, _, _ in runs] == [
            (3, 7), (4, 8)]
        assert [d for _, _, d in runs] == [
            str(tmp_path / "model_seed=3_seed=3"),
            str(tmp_path / "model_seed=3_seed=4")]


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = protocol._seed(0, "task", 2)
        assert a == protocol._seed(0, "task", 2)
        assert a != protocol._seed(0, "task", 3)
        assert a != protocol._seed(1, "task", 2)


class TestSummarize:
    def test_single_report(self):
        rep = StepReport(1, 5, 0.8, 0.6, 0.4)
        summary = protocol.summarize([rep], fast_cfg())
        assert summary["avg_acc"] == summary["last_acc"] == 0.8
        assert summary["avg_nmi"] == 0.6 and summary["avg_ari"] == 0.4

    def test_mean_and_last(self):
        reps = [StepReport(1, 5, 0.9, 0.9, 0.9),
                StepReport(2, 10, 0.2, 0.1, 0.0),
                StepReport(3, 15, 0.4, 0.3, 0.2),
                StepReport(4, 20, 0.6, 0.5, 0.4)]
        summary = protocol.summarize(reps, fast_cfg(model_seed=3))
        assert np.isclose(summary["avg_acc"], 0.4)
        assert summary["last_acc"] == 0.6
        assert np.isclose(summary["avg_nmi"], 0.3)
        assert np.isclose(summary["avg_ari"], 0.2)
        assert summary["seed"] == 3 and summary["variant"] == "ours"
