import importlib.util
import math
import os
import re
import sys
import tracemalloc
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudocl import nn, protocol
from pseudocl.config import BlobSpec, RunConfig
from pseudocl.data import Dataset, generate_gaussian_stream
from pseudocl.labeling import ExemplarStore
from pseudocl.metrics import StepReport, step_report

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def dataset():
    spec = BlobSpec(num_classes=6, dim=6, samples_per_class=30,
                    separation=3.0, std=0.3, seed=5)
    return generate_gaussian_stream(spec)


def fast_cfg(**kw):
    base = dict(step_size=2, epochs=4, batch_size=16, hidden_width=16,
                n_hidden=1, q=3, lr=0.1, arrangement_seed=1993)
    base.update(kw)
    return RunConfig(**base)


def first_task(dataset, tasks, cfg):
    """The model after step 1, the supervised first task."""
    model, _, _ = protocol.continual_step(None, tasks, 1, ExemplarStore(cfg.q),
                                          dataset, cfg, None)
    return model


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
        model = first_task(dataset, tasks, cfg)
        rep = protocol.evaluate(model, dataset, tasks[:1], 1)
        assert model.out_dim == 2
        assert rep.acc > 0.9

    def test_deterministic(self, dataset):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        a = first_task(dataset, tasks, cfg)
        b = first_task(dataset, tasks, cfg)
        assert np.array_equal(a.params, b.params)

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
        n_train = len(dataset.ids_for_classes(tasks[0], eval_split=False))
        assert len(calls) == cfg.epochs * math.ceil(n_train / cfg.batch_size)


class TestContinualStep:
    def test_head_growth_and_report(self, dataset):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, tasks, cfg)
        h1 = model
        store = ExemplarStore(cfg.q)
        model, store, rep = protocol.continual_step(
            model, tasks, 2, store, dataset, cfg, h1)
        assert model.out_dim == 4
        assert rep.step == 2 and rep.classes_seen == 4
        assert 0.0 <= rep.acc <= 1.0

    @pytest.mark.parametrize("oracle", [False, True])
    def test_step_leaves_passed_model_unchanged(self, dataset, oracle):
        # no step copies the model it is given: expand_head builds the
        # step's new model, and training and weight_align update that one
        cfg = fast_cfg(oracle_labels=oracle)
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, tasks, cfg)
        before = model.params.tobytes()
        protocol.continual_step(model, tasks, 2, ExemplarStore(cfg.q),
                                dataset, cfg, model)
        assert model.params.tobytes() == before

    def test_exemplar_store_grows_per_step(self, dataset):
        cfg = fast_cfg()
        result = protocol.run_experiment(cfg, dataset)
        # 3 tasks x 2 classes x q exemplars
        assert len(result.store.ids) == 6 * cfg.q
        labels, counts = np.unique(result.store.labels, return_counts=True)
        assert labels.tolist() == list(range(6))
        assert counts.tolist() == [cfg.q] * 6

    def test_step_leaves_passed_store_unchanged(self, dataset):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, tasks, cfg)
        store = ExemplarStore(cfg.q, np.array([3, 1]), np.array([0, 1]))
        _, grown, _ = protocol.continual_step(model, tasks, 2, store,
                                              dataset, cfg, model)
        assert store.ids.tolist() == [3, 1] and store.labels.tolist() == [0, 1]
        assert grown.ids[:2].tolist() == [3, 1]
        assert len(grown.ids) == 2 + 2 * cfg.q

    def test_unsupervised_path_never_reads_labels(self, dataset):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, tasks, cfg)
        h1 = model
        before = dataset.sealed.access_count
        model, _, _ = protocol.continual_step(
            model, tasks, 2, ExemplarStore(cfg.q), dataset, cfg, h1)
        # exactly one read: the evaluator's
        assert dataset.sealed.access_count == before + 1

    def test_label_read_during_training_raises(self, dataset, monkeypatch):
        cfg = fast_cfg()
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, tasks, cfg)
        h1 = model
        real_kmeans = protocol.kmeans

        def leaky_kmeans(*args, **kwargs):
            dataset.sealed.reveal(slice(None))  # an illegal peek at ground truth
            return real_kmeans(*args, **kwargs)

        monkeypatch.setattr(protocol, "kmeans", leaky_kmeans)
        with pytest.raises(protocol.ProtocolError, match="unsupervised"):
            protocol.continual_step(model, tasks, 2, ExemplarStore(cfg.q),
                                    dataset, cfg, h1)

    def test_oracle_path_may_read_labels(self, dataset):
        cfg = fast_cfg(oracle_labels=True)
        result = protocol.run_experiment(cfg, dataset)
        assert result.summary["variant"] == "oracle"
        assert result.summary["avg_acc"] > 0.5

    def test_online_mode_single_pass_update_count(self, dataset, monkeypatch):
        cfg = fast_cfg(mode="online", exemplar_policy="none")
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, tasks, cfg)
        h1 = model
        calls = []
        real_step = nn.sgd_step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(nn, "sgd_step", counting_step)
        protocol.continual_step(model, tasks, 2, ExemplarStore(cfg.q),
                                dataset, cfg, h1)
        n_train = len(dataset.ids_for_classes(tasks[1], eval_split=False))
        assert len(calls) == math.ceil(n_train / cfg.batch_size)

    def test_offline_mode_epoch_passes(self, dataset, monkeypatch):
        cfg = fast_cfg(exemplar_policy="none")
        tasks = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, tasks, cfg)
        h1 = model
        calls = []
        real_step = nn.sgd_step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(nn, "sgd_step", counting_step)
        protocol.continual_step(model, tasks, 2, ExemplarStore(cfg.q),
                                dataset, cfg, h1)
        n_train = len(dataset.ids_for_classes(tasks[1], eval_split=False))
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
        model = first_task(dataset, tasks, cfg)
        h1 = model
        store = ExemplarStore(cfg.q)
        for step in (2, 3):
            clusterings.clear()
            model, grown, _ = protocol.continual_step(model, tasks, step,
                                                      store, dataset, cfg, h1)
            assert len(clusterings) == 3  # the first and two refreshes
            train_ids = dataset.ids_for_classes(tasks[step - 1],
                                                eval_split=False).tolist()
            rows = [train_ids.index(i) for i in grown.ids[len(store.ids):]]
            m = (step - 1) * 2
            assert grown.labels[len(store.ids):].tolist() == \
                (m + clusterings[-1][rows]).tolist()
            store = grown

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
        def load(name):
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(PERFBENCH, f"{name}.py"))
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module

        # perfbench is only read: child prepends to sys.path, and no
        # bytecode is written beside the benchmark's files
        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        tracer_mod = load("tracer")
        monkeypatch.setitem(sys.modules, "tracer", tracer_mod)
        child = load("child")
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
        assert len(result.reports) == 1
        assert result.summary["avg_acc"] == result.reports[0].acc
        assert result.summary["last_acc"] == result.reports[0].acc

    def test_summary_averages_incremental_steps_only(self, dataset):
        result = protocol.run_experiment(fast_cfg(), dataset)
        inc = result.reports[1:]
        assert np.isclose(result.summary["avg_acc"],
                          np.mean([r.acc for r in inc]))
        assert result.summary["last_acc"] == result.reports[-1].acc
        assert result.summary["variant"] == "ours"

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

        def failing(model, tasks, step, *args, **kwargs):
            if step == 3:
                raise RuntimeError("boom")
            return real(model, tasks, step, *args, **kwargs)

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

        def interrupted(model, tasks, step, *args, **kwargs):
            if step == stop:
                raise KeyboardInterrupt
            return real(model, tasks, step, *args, **kwargs)

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
        model = first_task(dataset, tasks, cfg)
        model.params *= 1e200
        assert np.isfinite(model.params).all()
        with pytest.raises(protocol.ProtocolError, match=(
                r"^clustering failed at step 2: \w+' squared norms "
                r"overflow$")):
            protocol.continual_step(model, tasks, 2, ExemplarStore(cfg.q),
                                    dataset, cfg, model)

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
        model = None if step == 1 else first_task(dataset, tasks, cfg)
        real = protocol._train

        def scaled(model, *args):
            real(model, *args)
            model.params *= 1e160

        monkeypatch.setattr(protocol, "_train", scaled)
        with pytest.raises(protocol.ProtocolError, match=f"^{message}$"):
            protocol.continual_step(model, tasks, step, ExemplarStore(cfg.q),
                                    dataset, cfg, model)


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
        model, store, _ = protocol.continual_step(
            None, tasks, 1, ExemplarStore(cfg.q), big, cfg, None)
        merged = (len(big.ids_for_classes(tasks[1], eval_split=False))
                  + len(store.ids))
        p_hat = merged * 2 * 8  # two old classes
        ints = 8 * merged * 8
        block = protocol.EVAL_BLOCK * max(big.dim, cfg.hidden_width) * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            protocol.continual_step(model, tasks, 2, store, big, cfg, model)
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
        model, store, _ = protocol.continual_step(
            None, tasks, 1, ExemplarStore(cfg.q), ds, cfg, None)
        merged = (len(ds.ids_for_classes(tasks[1], eval_split=False))
                  + len(store.ids))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            protocol.continual_step(model, tasks, 2, store, ds, cfg, model)
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
        # every reader but pca's gathers at most EVAL_BLOCK rows at a time
        sizes = self.gathered(dataset, monkeypatch, fast_cfg(**kw))
        assert sizes and max(sizes) <= protocol.EVAL_BLOCK

    def test_pca_gathers_the_task_whole(self, dataset, monkeypatch):
        sizes = self.gathered(dataset, monkeypatch,
                              fast_cfg(variant="pca", pca_dim=4))
        assert max(sizes) > protocol.EVAL_BLOCK

    @staticmethod
    def gathered(dataset, monkeypatch, cfg):
        """The id counts a run asks Dataset.features_for for, with blocks
        of 7 rows so the 6-class stream spans several."""
        sizes = []
        real = Dataset.features_for

        def features_for(self, ids):
            sizes.append(len(ids))
            return real(self, ids)

        monkeypatch.setattr(protocol, "EVAL_BLOCK", 7)
        monkeypatch.setattr(Dataset, "features_for", features_for)
        protocol.run_experiment(cfg, dataset)
        return sizes

    def test_evaluate_forwards_row_blocks(self, monkeypatch):
        # 600 held-out rows: a block and a part of one
        big = generate_gaussian_stream(BlobSpec(
            num_classes=3, dim=4, samples_per_class=1000, separation=3.0,
            std=0.3, seed=5))
        classes = big.classes()
        eval_ids = big.ids_for_classes(classes, eval_split=True)
        assert protocol.EVAL_BLOCK < len(eval_ids) < 2 * protocol.EVAL_BLOCK
        model = nn.init_model(4, 16, 1, 3, seed=0)
        preds = np.argmax(nn.forward(model, big.features_for(eval_ids)),
                          axis=1)
        assert len(set(preds.tolist())) == 3
        one_shot = step_report(1, 3, preds,
                               big.sealed.reveal(big.positions(eval_ids)))
        rows = []
        real = nn.forward

        def forward(model, x):
            rows.append(len(x))
            return real(model, x)

        monkeypatch.setattr(nn, "forward", forward)
        assert protocol.evaluate(model, big, classes, 1) == one_shot
        assert max(rows) == protocol.EVAL_BLOCK
        assert sum(rows) == len(eval_ids)


class TestProtocolFuzz:
    """Every tiny stream and config ends in one of three ways: the run
    finishes and a rerun gives the same bytes, it raises a ProtocolError
    naming its step, or the spec or config is rejected when it is built.
    Blocks of 3 to 6 rows give the row passes tails of every length."""

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
            repr(result.summary), result.model.params.tobytes(),
            result.store.ids.tobytes(), result.store.labels.tobytes())

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finishes_or_fails_naming_its_step(self, data):
        try:
            spec, cfg, block = self.draw(data)
        except ValueError:
            return  # rejected when built
        with mock.patch.object(protocol, "EVAL_BLOCK", block):
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
            result = protocol.run_experiment(cfg, dataset)
            assert result.summary["variant"] == variant
            assert 0.0 <= result.summary["avg_acc"] <= 1.0

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
