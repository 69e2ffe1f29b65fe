"""The class-incremental loop: task splitting, supervised first task,
pseudo-label continual steps, feature-extractor variants and sweeps."""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .clustering import kmeans, pca_fit, pca_project
from .config import RunConfig, coerce_field, dump_config, parse_variant
from .data import (Dataset, ensure_dir, write_checkpoint, write_report,
                   write_summary)
from .labeling import (ExemplarStore, assign_pseudo_labels, merge_replay,
                       select_exemplars_herding, select_exemplars_random)
from .metrics import StepReport, aggregate, step_report


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


@dataclass
class ExperimentResult:
    reports: list[StepReport]
    summary: dict
    model: nn.Model
    store: ExemplarStore
    training_label_reads: int = 0
    run_dir: str | None = None


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


def _slot_labels(true_labels: np.ndarray, classes: np.ndarray,
                 offset: int) -> np.ndarray:
    """Map original class ids onto head slots offset..offset+len(classes)-1."""
    slot_of = {int(c): offset + i for i, c in enumerate(classes)}
    return np.array([slot_of[int(y)] for y in true_labels])


def _lr_at(cfg: RunConfig, epoch: int) -> float:
    return cfg.lr * cfg.lr_decay ** (epoch // cfg.lr_decay_period)


def _train(model: nn.Model, x: np.ndarray, y: np.ndarray,
           teacher: nn.Model | None, m: int, n: int, cfg: RunConfig,
           base_seed: int, refresh=None) -> nn.Model:
    """SGD over the merged set; offline runs cfg.epochs, online one pass.

    refresh, when given, is called at epoch boundaries and may return a
    replacement label array (UPL pseudo-label updates).
    """
    # the supervised first task has no teacher; any alpha override applies
    # only to incremental steps
    loss_cfg = nn.LossConfig(
        temperature=cfg.temperature,
        alpha_override=cfg.alpha_override if teacher is not None else None)
    epochs = 1 if cfg.mode == "online" else cfg.epochs
    y = y.copy()
    for epoch in range(epochs):
        if refresh is not None and epoch > 0 and cfg.upl_k > 0 \
                and epoch % cfg.upl_k == 0:
            y = refresh(model, y, epoch)
        lr = _lr_at(cfg, epoch)
        if cfg.mode == "online":
            order = np.arange(len(x))  # merged order already shuffled
        else:
            order = np.random.default_rng(
                _seed(base_seed, "epoch", epoch)).permutation(len(x))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            tb = nn.forward(teacher, xb) if teacher is not None else None
            _, grads = nn.backward(model, xb, tb, yb, loss_cfg, m, n)
            model = nn.sgd_step(model, grads, lr, cfg.weight_decay)
    return model


def train_first_task(dataset: Dataset, stream: TaskStream,
                     cfg: RunConfig) -> nn.Model:
    """Supervised softmax training on task 1 (labels permitted here)."""
    task = stream.tasks[0]
    x = dataset.features_for(task.train_ids)
    true = dataset.sealed.reveal(dataset.positions(task.train_ids))
    y = _slot_labels(true, task.classes, 0)
    model = nn.init_model(dataset.dim, cfg.hidden_width, cfg.n_hidden,
                          stream.step_size, cfg.model_seed)
    # pre-training is supervised and always multi-epoch, even in online mode
    first_cfg = cfg if cfg.mode == "offline" else replace(cfg, mode="offline")
    return _train(model, x, y, None, 0, stream.step_size, first_cfg,
                  _seed(cfg.shuffle_seed, "task", 1))


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
    feats = nn.extract_features(model, x)
    if cfg.exemplar_policy == "herding":
        picked = select_exemplars_herding(feats, assignments, labels, cfg.q,
                                          sample_ids)
    else:
        picked = select_exemplars_random(feats, assignments, labels, cfg.q,
                                         _seed(cfg.shuffle_seed, "random-ex",
                                               step), sample_ids)
    out = store.copy()
    out.ids.extend(picked.ids)
    out.labels.extend(picked.labels)
    return out


def evaluate(model: nn.Model, dataset: Dataset, tasks: list[Task],
             step: int) -> StepReport:
    """Cluster-quality metrics on held-out data of all classes seen so far."""
    eval_ids = np.concatenate([t.eval_ids for t in tasks])
    x = dataset.features_for(eval_ids)
    preds = np.argmax(nn.forward(model, x), axis=1)
    truth = dataset.sealed.reveal(dataset.positions(eval_ids))
    return step_report(step, model.out_dim, preds, truth)


def continual_step(model: nn.Model, stream: TaskStream, step: int,
                   store: ExemplarStore, dataset: Dataset, cfg: RunConfig,
                   h1: nn.Model) -> tuple[nn.Model, ExemplarStore, StepReport]:
    """One unsupervised incremental step: cluster, pseudo-label, train."""
    task = stream.tasks[step - 1]
    n = stream.step_size
    m = (step - 1) * n
    x_train = dataset.features_for(task.train_ids)

    reads_before = dataset.sealed.access_count
    if cfg.oracle_labels:
        true = dataset.sealed.reveal(dataset.positions(task.train_ids))
        labels = _slot_labels(true, task.classes, m)
        assignments = labels - m
    else:
        feats = _variant_features(model, h1, x_train, cfg, step)
        km = kmeans(feats, n, seed=_seed(cfg.shuffle_seed, "cluster", step),
                    n_restarts=cfg.n_restarts)
        assignments = km.assignments
        labels = assign_pseudo_labels(assignments, m, step=step).labels

    teacher = model.copy()
    model = nn.expand_head(model, n, _seed(cfg.model_seed, "expand", step))

    x_old = dataset.features_for(store.ids) if len(store) else np.empty((0, dataset.dim))
    y_old = np.asarray(store.labels, dtype=int)
    merge_seed = _seed(cfg.shuffle_seed, "merge", step)
    x, y, origin = merge_replay(x_train, labels, x_old, y_old, merge_seed)

    def refresh(current: nn.Model, y_now: np.ndarray, epoch: int) -> np.ndarray:
        # re-cluster current-task data with the in-training extractor;
        # exemplar labels stay fixed
        f = nn.extract_features(current, x_train)
        km2 = kmeans(f, n, seed=_seed(cfg.shuffle_seed, "cluster", step, epoch),
                     n_restarts=cfg.n_restarts)
        fresh = assign_pseudo_labels(km2.assignments, m).labels
        out = y_now.copy()
        new_rows = origin >= 0
        out[new_rows] = fresh[origin[new_rows]]
        return out

    model = _train(model, x, y, teacher, m, n, cfg,
                   _seed(cfg.shuffle_seed, "task", step),
                   refresh=refresh if (cfg.upl_k > 0 and not cfg.oracle_labels)
                   else None)

    if cfg.bias_correction:
        model = nn.weight_align(model, m, n)

    store = _update_store(store, model, x_train, assignments, labels,
                          task.train_ids, cfg, step)
    if not cfg.oracle_labels:
        training_reads = dataset.sealed.access_count - reads_before
        if training_reads != 0:
            raise ProtocolError(
                "ground-truth labels were read on the unsupervised path")
    report = evaluate(model, dataset, stream.tasks[:step], step)
    return model, store, report


def run_experiment(cfg: RunConfig, dataset: Dataset,
                   out_dir: str | None = None) -> ExperimentResult:
    """Full protocol: split, supervised first task, N-1 incremental steps."""
    cfg.validate()
    if out_dir:
        ensure_dir(out_dir)
        dump_config(cfg, os.path.join(out_dir, "config.txt"))
    stream = split_tasks(dataset, cfg.step_size, cfg.arrangement_seed)

    model = train_first_task(dataset, stream, cfg)
    h1 = model.copy()
    reports = [evaluate(model, dataset, stream.tasks[:1], 1)]

    # exemplars for the supervised first task come from true classes
    store = ExemplarStore(cfg.q)
    task1 = stream.tasks[0]
    true1 = dataset.sealed.reveal(dataset.positions(task1.train_ids))
    slots1 = _slot_labels(true1, task1.classes, 0)
    store = _update_store(store, model, dataset.features_for(task1.train_ids),
                          slots1, slots1, task1.train_ids, cfg, 1)
    _persist_step(out_dir, model, store, stream, 1)

    # continual_step itself audits the sealed-label counter on the
    # unsupervised training path and raises on any read
    for step in range(2, len(stream.tasks) + 1):
        try:
            model, store, rep = continual_step(model, stream, step, store,
                                               dataset, cfg, h1)
        except Exception:
            _persist_reports(out_dir, reports, cfg)  # partial report survives
            raise
        reports.append(rep)
        _persist_step(out_dir, model, store, stream, step)
    summary = summarize(reports, cfg)
    _persist_reports(out_dir, reports, cfg, summary)
    return ExperimentResult(reports, summary, model, store, 0, out_dir)


def summarize(reports: list[StepReport], cfg: RunConfig) -> dict:
    """Avg over incremental steps (all steps when only task 1 exists)."""
    scored = [r for r in reports if r.step >= 2] or reports
    agg = aggregate(scored)
    return {
        "avg_acc": agg["avg_acc"],
        "last_acc": reports[-1].acc,
        "avg_nmi": agg["avg_nmi"],
        "avg_ari": agg["avg_ari"],
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
    with open(os.path.join(out_dir, f"exemplars_step_{step}.json"), "w") as fh:
        json.dump({"q": store.q, "ids": store.ids, "labels": store.labels}, fh)


def _persist_reports(out_dir, reports, cfg, summary=None) -> None:
    if not out_dir:
        return
    write_report(reports, os.path.join(out_dir, "report.csv"))
    if summary is not None:
        write_summary(summary, os.path.join(out_dir, "summary.csv"))


def run_sweep(base_cfg: RunConfig, dataset: Dataset, axis: str, values: list,
              out_dir: str, repeats: int = 1, jobs: int = 1) -> list[dict]:
    """One experiment per (axis value, repetition); aggregated CSV on disk."""
    if not values:
        raise ProtocolError("empty sweep axis")
    ensure_dir(out_dir)
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

    with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
        fh.write(f"{axis},seed,variant,avg_acc,last_acc,avg_nmi,avg_ari\n")
        for row in results:
            fh.write(f"{row['value']},{row['seed']},{row['variant']},"
                     f"{row['avg_acc']!r},{row['last_acc']!r},"
                     f"{row['avg_nmi']!r},{row['avg_ari']!r}\n")
    return results


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
    result = run_experiment(cfg, dataset, out_dir=run_dir)
    row = dict(result.summary)
    row["value"] = value
    return row
