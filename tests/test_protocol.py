import math
import os
from dataclasses import replace

import numpy as np
import pytest

from pseudocl import nn, protocol
from pseudocl.config import RunConfig
from pseudocl.data import BlobSpec, generate_gaussian_stream
from pseudocl.labeling import ExemplarStore
from pseudocl.metrics import StepReport


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


def first_task(dataset, stream, cfg):
    """The model after step 1, the supervised first task."""
    model, _, _ = protocol.continual_step(None, stream, 1, ExemplarStore(cfg.q),
                                          dataset, cfg, None)
    return model


class TestSplitTasks:
    def test_chunking_and_coverage(self, dataset):
        stream = protocol.split_tasks(dataset, 2, arrangement_seed=1993)
        assert len(stream.tasks) == 3
        seen = np.concatenate([t.classes for t in stream.tasks])
        assert sorted(seen.tolist()) == [0, 1, 2, 3, 4, 5]
        for t, task in enumerate(stream.tasks, start=1):
            assert task.index == t
            assert len(task.classes) == 2

    def test_arrangement_seed_controls_order(self, dataset):
        a = protocol.split_tasks(dataset, 2, arrangement_seed=1)
        b = protocol.split_tasks(dataset, 2, arrangement_seed=1)
        c = protocol.split_tasks(dataset, 2, arrangement_seed=2)
        assert all(np.array_equal(x.classes, y.classes)
                   for x, y in zip(a.tasks, b.tasks))
        assert any(not np.array_equal(x.classes, y.classes)
                   for x, y in zip(a.tasks, c.tasks))

    def test_train_eval_ids_disjoint(self, dataset):
        stream = protocol.split_tasks(dataset, 3, arrangement_seed=0)
        for task in stream.tasks:
            assert len(set(task.train_ids) & set(task.eval_ids)) == 0

    def test_indivisible_rejected(self, dataset):
        with pytest.raises(protocol.ProtocolError):
            protocol.split_tasks(dataset, 4, arrangement_seed=0)


class TestFirstTask:
    def test_supervised_first_task_learns(self, dataset):
        cfg = fast_cfg(epochs=10)
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, stream, cfg)
        rep = protocol.evaluate(model, dataset, stream.eval_ids(1), 1)
        assert model.out_dim == 2
        assert rep.acc > 0.9

    def test_deterministic(self, dataset):
        cfg = fast_cfg()
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        a = first_task(dataset, stream, cfg)
        b = first_task(dataset, stream, cfg)
        assert np.array_equal(a.params, b.params)

    def test_online_mode_still_trains_every_epoch(self, dataset, monkeypatch):
        cfg = fast_cfg(mode="online", exemplar_policy="none")
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        calls = []
        real_step = nn.sgd_step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(nn, "sgd_step", counting_step)
        first_task(dataset, stream, cfg)
        n_train = len(stream.tasks[0].train_ids)
        assert len(calls) == cfg.epochs * math.ceil(n_train / cfg.batch_size)


class TestContinualStep:
    def test_head_growth_and_report(self, dataset):
        cfg = fast_cfg()
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, stream, cfg)
        h1 = model.copy()
        store = ExemplarStore(cfg.q)
        model, store, rep = protocol.continual_step(
            model, stream, 2, store, dataset, cfg, h1)
        assert model.out_dim == 4
        assert rep.step == 2 and rep.classes_seen == 4
        assert 0.0 <= rep.acc <= 1.0

    @pytest.mark.parametrize("oracle", [False, True])
    def test_step_leaves_passed_model_unchanged(self, dataset, oracle):
        # no step copies the model it is given: expand_head and
        # weight_align each build a new one, and training updates that
        cfg = fast_cfg(oracle_labels=oracle)
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, stream, cfg)
        before = model.params.tobytes()
        protocol.continual_step(model, stream, 2, ExemplarStore(cfg.q),
                                dataset, cfg, model)
        assert model.params.tobytes() == before

    def test_exemplar_store_grows_per_step(self, dataset):
        cfg = fast_cfg()
        result = protocol.run_experiment(cfg, dataset)
        # 3 tasks x 2 classes x q exemplars
        assert len(result.store) == 6 * cfg.q
        labels, counts = np.unique(result.store.labels, return_counts=True)
        assert labels.tolist() == list(range(6))
        assert counts.tolist() == [cfg.q] * 6

    def test_step_leaves_passed_store_unchanged(self, dataset):
        cfg = fast_cfg()
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, stream, cfg)
        store = ExemplarStore(cfg.q, np.array([3, 1]), np.array([0, 1]))
        _, grown, _ = protocol.continual_step(model, stream, 2, store,
                                              dataset, cfg, model.copy())
        assert store.ids.tolist() == [3, 1] and store.labels.tolist() == [0, 1]
        assert grown.ids[:2].tolist() == [3, 1]
        assert len(grown) == 2 + 2 * cfg.q

    def test_unsupervised_path_never_reads_labels(self, dataset):
        cfg = fast_cfg()
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, stream, cfg)
        h1 = model.copy()
        before = dataset.sealed.access_count
        model, _, _ = protocol.continual_step(
            model, stream, 2, ExemplarStore(cfg.q), dataset, cfg, h1)
        # exactly one read: the evaluator's
        assert dataset.sealed.access_count == before + 1

    def test_label_read_during_training_raises(self, dataset, monkeypatch):
        cfg = fast_cfg()
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, stream, cfg)
        h1 = model.copy()
        real_kmeans = protocol.kmeans

        def leaky_kmeans(*args, **kwargs):
            dataset.sealed.reveal()  # an illegal peek at ground truth
            return real_kmeans(*args, **kwargs)

        monkeypatch.setattr(protocol, "kmeans", leaky_kmeans)
        with pytest.raises(protocol.ProtocolError, match="unsupervised"):
            protocol.continual_step(model, stream, 2, ExemplarStore(cfg.q),
                                    dataset, cfg, h1)

    def test_oracle_path_may_read_labels(self, dataset):
        cfg = fast_cfg(oracle_labels=True)
        result = protocol.run_experiment(cfg, dataset)
        assert result.summary["variant"] == "oracle"
        assert result.summary["avg_acc"] > 0.5

    def test_online_mode_single_pass_update_count(self, dataset, monkeypatch):
        cfg = fast_cfg(mode="online", exemplar_policy="none")
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, stream, cfg)
        h1 = model.copy()
        calls = []
        real_step = nn.sgd_step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(nn, "sgd_step", counting_step)
        protocol.continual_step(model, stream, 2, ExemplarStore(cfg.q),
                                dataset, cfg, h1)
        n_train = len(stream.tasks[1].train_ids)
        assert len(calls) == math.ceil(n_train / cfg.batch_size)

    def test_offline_mode_epoch_passes(self, dataset, monkeypatch):
        cfg = fast_cfg(exemplar_policy="none")
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, stream, cfg)
        h1 = model.copy()
        calls = []
        real_step = nn.sgd_step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(nn, "sgd_step", counting_step)
        protocol.continual_step(model, stream, 2, ExemplarStore(cfg.q),
                                dataset, cfg, h1)
        n_train = len(stream.tasks[1].train_ids)
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
        stream = protocol.split_tasks(dataset, 2, cfg.arrangement_seed)
        model = first_task(dataset, stream, cfg)
        h1 = model.copy()
        store = ExemplarStore(cfg.q)
        for step in (2, 3):
            clusterings.clear()
            model, grown, _ = protocol.continual_step(model, stream, step,
                                                      store, dataset, cfg, h1)
            assert len(clusterings) == 3  # the first and two refreshes
            train_ids = stream.tasks[step - 1].train_ids.tolist()
            rows = [train_ids.index(i) for i in grown.ids[len(store):]]
            m = (step - 1) * 2
            assert grown.labels[len(store):].tolist() == \
                (m + clusterings[-1][rows]).tolist()
            store = grown

    def test_upl_zero_matches_fixed_labels(self, dataset):
        a = protocol.run_experiment(fast_cfg(upl_k=0), dataset)
        b = protocol.run_experiment(fast_cfg(upl_k=0), dataset)
        assert a.reports == b.reports


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

        def failing(model, stream, step, *args, **kwargs):
            if step == 3:
                raise RuntimeError("boom")
            return real(model, stream, step, *args, **kwargs)

        monkeypatch.setattr(protocol, "continual_step", failing)
        with pytest.raises(RuntimeError):
            protocol.run_experiment(fast_cfg(), dataset, out_dir=out)
        with open(os.path.join(out, "report.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3  # header + steps 1 and 2
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


class TestVariants:
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

    def test_parallel_matches_serial(self, dataset, tmp_path):
        serial = protocol.run_sweep(fast_cfg(), dataset, "q", [1, 2],
                                    str(tmp_path / "a"), jobs=1)
        parallel = protocol.run_sweep(fast_cfg(), dataset, "q", [1, 2],
                                      str(tmp_path / "b"), jobs=2)
        for s, p in zip(serial, parallel):
            assert s == p


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
