"""The class-incremental loop: task splitting, one step function for every
task (supervised first, pseudo-labelled after), variants and sweeps."""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .clustering import kmeans, pca_fit, pca_project
from .config import RunConfig, coerce_field, dump_config, parse_variant
from .data import (Dataset, _write_atomic, _write_table, write_checkpoint,
                   write_report, write_summary)
from .labeling import (ExemplarStore, assign_pseudo_labels, merge_replay,
                       select_exemplars_herding, select_exemplars_random)
from .metrics import StepReport, step_report


class ProtocolError(ValueError):
    pass


@dataclass
class Task:
    index: int                # 1-based task number
    classes: np.ndarray       # original class ids, arrangement order
    train_ids: np.ndarray
    eval_ids: np.ndarray


@dataclass
class TaskStream:
    tasks: list[Task]
    step_size: int

    def eval_ids(self, step: int) -> np.ndarray:
        """Held-out sample ids of tasks 1..step."""
        return np.concatenate([t.eval_ids for t in self.tasks[:step]])


@dataclass
class ExperimentResult:
    reports: list[StepReport]
    summary: dict
    model: nn.Model
    store: ExemplarStore


def _seed(*parts) -> int:
    return zlib.crc32(":".join(str(p) for p in parts).encode())


def split_tasks(dataset: Dataset, step_size: int,
                arrangement_seed: int) -> TaskStream:
    """Shuffle classes with the arrangement seed, chunk into fixed-size tasks."""
    classes = dataset.classes()
    if len(classes) % step_size != 0:
        raise ProtocolError(
            f"{len(classes)} classes not divisible by step size {step_size}")
    perm = np.random.default_rng(arrangement_seed).permutation(classes)
    tasks = []
    for t, start in enumerate(range(0, len(perm), step_size), start=1):
        group = perm[start:start + step_size]
        tasks.append(Task(index=t, classes=group,
                          train_ids=dataset.ids_for_classes(group, False),
                          eval_ids=dataset.ids_for_classes(group, True)))
    return TaskStream(tasks, step_size)


def _true_slots(dataset: Dataset, task: Task) -> np.ndarray:
    """Reveal the true labels of ``task``'s training samples as slots
    0..len(task.classes)-1, in the order of ``task.classes``."""
    true = dataset.sealed.reveal(dataset.positions(task.train_ids))
    order = np.argsort(task.classes)
    return order[np.searchsorted(task.classes, true, sorter=order)]


def _lr_at(cfg: RunConfig, epoch: int) -> float:
    return cfg.lr * cfg.lr_decay ** (epoch // cfg.lr_decay_period)


# a diverging run overflows, and its softmax underflows to log(0), before
# its loss turns non-finite; the finiteness checks report that as a
# ProtocolError, not as numpy warnings
@np.errstate(all="ignore")
def _train(model: nn.Model, x: np.ndarray, y: np.ndarray,
           teacher: nn.Model | None, m: int, n: int, cfg: RunConfig,
           step: int, refresh=None) -> nn.Model:
    """SGD on the cross-distillation loss over the merged set, in place;
    cfg.epochs passes, or one pass on an online incremental step (the
    supervised first task always trains cfg.epochs). A non-finite loss or
    parameter raises ProtocolError.

    The distillation weight is alpha = m / (m + n): 0 on the supervised
    first task (m == 0, no teacher). refresh, when given, is called every
    cfg.upl_k epochs and returns a replacement label array (UPL pseudo-label
    updates).
    """
    alpha = m / (m + n)
    one_pass = cfg.mode == "online" and m > 0
    epochs = 1 if one_pass else cfg.epochs
    base_seed = _seed(cfg.shuffle_seed, "task", step)
    y = y.copy()
    p_hat = None
    if teacher is not None:
        # the teacher is frozen for the step, so its softened old-class
        # probabilities are computed once. Row blocks of batch_size keep the
        # matrix shapes of a training batch: one product over all rows can
        # take another BLAS kernel that rounds differently.
        p_hat = np.empty((len(x), m))
        for start in range(0, len(x), cfg.batch_size):
            block = nn.forward(teacher, x[start:start + cfg.batch_size])
            p_hat[start:start + cfg.batch_size] = nn.softened_probs(
                block[:, :m], cfg.temperature)
    for epoch in range(epochs):
        if refresh is not None and epoch > 0 and epoch % cfg.upl_k == 0:
            y = refresh(model, y, epoch)
        lr = _lr_at(cfg, epoch)
        if one_pass:
            order = np.arange(len(x))  # merged order already shuffled
        else:
            order = np.random.default_rng(
                _seed(base_seed, "epoch", epoch)).permutation(len(x))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = nn.backward(model, x[idx],
                                      None if p_hat is None else p_hat[idx],
                                      y[idx], alpha, cfg.temperature, m)
            if not math.isfinite(loss):
                raise ProtocolError(
                    f"training diverged at step {step}, epoch {epoch + 1} "
                    f"of {epochs}: loss {loss}")
            nn.sgd_step(model, grads, lr, cfg.weight_decay)
    # the last update is not followed by a loss that would show it
    if not np.isfinite(model.params).all():
        raise ProtocolError(f"training diverged at step {step}, epoch "
                            f"{epochs} of {epochs}: non-finite parameters")
    return model


def _variant_features(model: nn.Model, h1: nn.Model, x: np.ndarray,
                      cfg: RunConfig, step: int) -> np.ndarray:
    if cfg.variant == "ours":
        feats = nn.extract_features(model, x)
    elif cfg.variant == "ffe":
        feats = nn.extract_features(h1, x)
    elif cfg.variant == "scratch":
        fresh = nn.init_model(x.shape[1], cfg.hidden_width, cfg.n_hidden,
                              cfg.step_size,
                              _seed(cfg.model_seed, "scratch", step))
        feats = nn.extract_features(fresh, x)
    elif cfg.variant == "pca":
        basis = pca_fit(x, min(cfg.pca_dim, x.shape[1]))
        feats = pca_project(basis, x)
    else:
        raise ProtocolError(f"unknown variant {cfg.variant!r}")
    if cfg.normalize_features:
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        feats = feats / np.maximum(norms, 1e-12)
    return feats


def _update_store(store: ExemplarStore, model: nn.Model, x: np.ndarray,
                  assignments: np.ndarray, labels: np.ndarray,
                  sample_ids: np.ndarray, cfg: RunConfig,
                  step: int) -> ExemplarStore:
    if cfg.exemplar_policy == "none":
        return store
    if cfg.exemplar_policy == "herding":
        picked = select_exemplars_herding(nn.extract_features(model, x),
                                          assignments, labels, cfg.q,
                                          sample_ids)
    else:
        picked = select_exemplars_random(assignments, labels, cfg.q,
                                         _seed(cfg.shuffle_seed, "random-ex",
                                               step), sample_ids)
    return ExemplarStore(store.q, np.concatenate([store.ids, picked.ids]),
                         np.concatenate([store.labels, picked.labels]))


def evaluate(model: nn.Model, dataset: Dataset, eval_ids: np.ndarray,
             step: int) -> StepReport:
    """Cluster-quality metrics of the model's predictions on ``eval_ids``."""
    x = dataset.features_for(eval_ids)
    preds = np.argmax(nn.forward(model, x), axis=1)
    truth = dataset.sealed.reveal(dataset.positions(eval_ids))
    return step_report(step, model.out_dim, preds, truth)


def continual_step(model: nn.Model | None, stream: TaskStream, step: int,
                   store: ExemplarStore, dataset: Dataset, cfg: RunConfig,
                   h1: nn.Model | None
                   ) -> tuple[nn.Model, ExemplarStore, StepReport]:
    """One step of the protocol: label the task, train, pick exemplars and
    evaluate. Step 1 (model None) builds the model and, like every step of
    an oracle run, trains on the true labels; any other step clusters the
    task with a feature extractor and must read no label until evaluation.

    The passed model is left as it is: expand_head and weight_align each
    build a new model, so it can serve as the teacher (and as h1) uncopied.
    """
    task = stream.tasks[step - 1]
    n = stream.step_size
    m = (step - 1) * n
    x_train = dataset.features_for(task.train_ids)
    supervised = model is None or cfg.oracle_labels

    def cluster(feats: np.ndarray, *tag) -> np.ndarray:
        seed = _seed(cfg.shuffle_seed, "cluster", step, *tag)
        return kmeans(feats, n, seed=seed, n_restarts=cfg.n_restarts).assignments

    reads_before = dataset.sealed.access_count
    if supervised:
        assignments = _true_slots(dataset, task)
    else:
        assignments = cluster(_variant_features(model, h1, x_train, cfg, step))
    labels = assign_pseudo_labels(assignments, m)

    teacher = model
    if model is None:
        model = nn.init_model(dataset.dim, cfg.hidden_width, cfg.n_hidden, n,
                              cfg.model_seed)
        x, y = x_train, labels
    else:
        model = nn.expand_head(model, n, _seed(cfg.model_seed, "expand", step))
        x, y, origin = merge_replay(x_train, labels,
                                    dataset.features_for(store.ids),
                                    store.labels,
                                    _seed(cfg.shuffle_seed, "merge", step))

    def refresh(current: nn.Model, y_now: np.ndarray, epoch: int) -> np.ndarray:
        # re-cluster current-task data with the in-training extractor;
        # replayed labels stay fixed, and this step's exemplars are picked
        # from and labelled by the last clustering
        nonlocal assignments, labels
        assignments = cluster(nn.extract_features(current, x_train), epoch)
        labels = assign_pseudo_labels(assignments, m)
        out = y_now.copy()
        new_rows = origin >= 0
        out[new_rows] = labels[origin[new_rows]]
        return out

    model = _train(model, x, y, teacher, m, n, cfg, step,
                   refresh=None if supervised or cfg.upl_k == 0 else refresh)

    if cfg.bias_correction and m > 0:
        model = nn.weight_align(model, m, n)

    store = _update_store(store, model, x_train, assignments, labels,
                          task.train_ids, cfg, step)
    if not supervised:
        training_reads = dataset.sealed.access_count - reads_before
        if training_reads != 0:
            raise ProtocolError(
                "ground-truth labels were read on the unsupervised path")
    report = evaluate(model, dataset, stream.eval_ids(step), step)
    return model, store, report


def run_experiment(cfg: RunConfig, dataset: Dataset,
                   out_dir: str | None = None) -> ExperimentResult:
    """Full protocol: split, then one continual_step per task."""
    cfg.validate()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        dump_config(cfg, os.path.join(out_dir, "config.txt"))
    stream = split_tasks(dataset, cfg.step_size, cfg.arrangement_seed)

    reports: list[StepReport] = []
    model = h1 = None
    store = ExemplarStore(cfg.q)
    try:
        for step in range(1, len(stream.tasks) + 1):
            model, store, rep = continual_step(model, stream, step, store,
                                               dataset, cfg, h1)
            if step == 1:
                h1 = model  # the first-task extractor, which ffe keeps
            reports.append(rep)
            _persist_step(out_dir, model, store, stream, step)
    except Exception:
        _persist_reports(out_dir, reports)  # partial report survives
        raise
    summary = summarize(reports, cfg)
    _persist_reports(out_dir, reports, summary)
    return ExperimentResult(reports, summary, model, store)


def summarize(reports: list[StepReport], cfg: RunConfig) -> dict:
    """Avg over incremental steps (all steps when only task 1 exists)."""
    scored = [r for r in reports if r.step >= 2] or reports
    return {
        "avg_acc": float(np.mean([r.acc for r in scored])),
        "last_acc": reports[-1].acc,
        "avg_nmi": float(np.mean([r.nmi for r in scored])),
        "avg_ari": float(np.mean([r.ari for r in scored])),
        "seed": cfg.model_seed,
        "variant": variant_name(cfg),
    }


def variant_name(cfg: RunConfig) -> str:
    if cfg.oracle_labels:
        return "oracle"
    if cfg.upl_k > 0:
        return f"upl-{cfg.upl_k}"
    return cfg.variant


def _persist_step(out_dir, model, store, stream, step) -> None:
    if not out_dir:
        return
    seen = [int(c) for t in stream.tasks[:step] for c in t.classes]
    write_checkpoint(model, os.path.join(out_dir, f"step_{step}.ckpt"),
                     meta={"step": step, "classes_seen": seen})
    _write_atomic(os.path.join(out_dir, f"exemplars_step_{step}.json"),
                  [json.dumps({"q": store.q, "ids": store.ids.tolist(),
                               "labels": store.labels.tolist()})])


def _persist_reports(out_dir, reports, summary=None) -> None:
    if not out_dir:
        return
    write_report(reports, os.path.join(out_dir, "report.csv"))
    if summary is not None:
        write_summary(summary, os.path.join(out_dir, "summary.csv"))


def run_sweep(base_cfg: RunConfig, dataset: Dataset, axis: str, values: list,
              out_dir: str, repeats: int = 1, jobs: int = 1) -> list[dict]:
    """One experiment per (axis value, repetition); aggregated CSV on disk.

    A failed run does not stop the others: its row carries the value, seed
    and variant, None for every metric and the error message under "error",
    which is None on the rows of finished runs. sweep.csv leaves a failed
    row's metric fields empty.
    """
    if not values:
        raise ProtocolError("empty sweep axis")
    os.makedirs(out_dir, exist_ok=True)
    jobs_list = []
    for value in values:
        for rep in range(repeats):
            cfg = sweep_config(base_cfg, axis, value)
            cfg = replace(cfg, model_seed=base_cfg.model_seed + rep,
                          shuffle_seed=base_cfg.shuffle_seed + rep)
            run_name = f"{axis}={value}_seed={cfg.model_seed}"
            jobs_list.append((cfg, value, os.path.join(out_dir, run_name)))

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_child, cfg, dataset, value, run_dir)
                       for cfg, value, run_dir in jobs_list]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_child(cfg, dataset, value, run_dir)
                   for cfg, value, run_dir in jobs_list]

    _write_table(os.path.join(out_dir, "sweep.csv"),
                 [axis, "seed", "variant", *_SWEEP_METRICS],
                 ([row["value"], row["seed"], row["variant"],
                   *(row[key] for key in _SWEEP_METRICS)] for row in results))
    return results


_SWEEP_METRICS = ("avg_acc", "last_acc", "avg_nmi", "avg_ari")


def sweep_config(cfg: RunConfig, axis: str, value) -> RunConfig:
    """``cfg`` with field ``axis`` set to ``value``, converted by field type.

    An unknown axis or a value the field rejects raises ProtocolError.
    """
    try:
        if axis == "variant":
            variant, upl_k = parse_variant(str(value))
            return replace(cfg, variant=variant, upl_k=upl_k)
        return replace(cfg, **{axis: coerce_field(axis, str(value))})
    except ValueError as exc:
        raise ProtocolError(f"sweep axis {axis!r}: {exc}") from exc


def _sweep_child(cfg: RunConfig, dataset: Dataset, value, run_dir: str) -> dict:
    try:
        result = run_experiment(cfg, dataset, out_dir=run_dir)
    except Exception as exc:  # noqa: BLE001 - the other runs' rows must survive
        return {"value": value, "seed": cfg.model_seed,
                "variant": variant_name(cfg), "error": str(exc),
                **dict.fromkeys(_SWEEP_METRICS)}
    return {**result.summary, "value": value, "error": None}
