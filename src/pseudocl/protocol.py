"""The class-incremental loop: task splitting, one step function for every
task (supervised first, pseudo-labelled after), variants and sweeps."""

from __future__ import annotations

import json
import math
import os
import zlib
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .clustering import kmeans, pca_coordinates
from .config import RunConfig, dump_config, parse_setting
from .data import (Dataset, _write_atomic, _write_table, write_checkpoint,
                   write_report, write_summary)
from .labeling import (merge_replay, select_exemplars_herding,
                       select_exemplars_random)
from .metrics import StepReport, step_report


class ProtocolError(ValueError):
    pass


@contextmanager
def _failing(what: str, step: int):
    """Raise a ValueError of the block as ProtocolError naming the step."""
    try:
        yield
    except ValueError as exc:
        raise ProtocolError(f"{what} failed at step {step}: {exc}") from exc


# the teacher's probabilities of a minibatch, by its indices into the
# merged rows
TeacherProbs = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RunState:
    """A run after ``step`` steps: the last step's model (the next step's
    teacher), step 1's model h1 (ffe's extractor), the sample ids of the
    exemplars kept so far with their labels, and the steps' reports. Step
    0 has no model and no exemplars."""
    step: int
    model: nn.Model | None
    h1: nn.Model | None
    exemplar_ids: np.ndarray
    exemplar_labels: np.ndarray
    reports: tuple[StepReport, ...]


def _seed(*parts) -> int:
    return zlib.crc32(":".join(str(p) for p in parts).encode())


def split_tasks(dataset: Dataset, step_size: int,
                arrangement_seed: int) -> np.ndarray:
    """The class arrangement: classes shuffled with the arrangement seed, as
    a (T, step_size) array whose row t-1 holds task t's classes. Step 1
    evaluates on task 1's held-out samples alone, and ARI needs two."""
    classes = dataset.classes()
    if len(classes) % step_size != 0:
        raise ProtocolError(f"step_size {step_size} does not divide the "
                            f"dataset's {len(classes)} classes")
    perm = np.random.default_rng(arrangement_seed).permutation(classes)
    tasks = perm.reshape(-1, step_size)
    if len(dataset.rows_for_classes(tasks[0], eval_split=True)) < 2:
        raise ProtocolError(f"step_size {step_size} leaves task 1, class "
                            f"{tasks[0].tolist()}, fewer than the two "
                            "held-out samples ARI needs")
    return tasks


def _true_slots(dataset: Dataset, classes: np.ndarray,
                rows: np.ndarray) -> np.ndarray:
    """Reveal the true labels of the samples at ``rows`` as slots
    0..len(classes)-1, in the order of ``classes``."""
    true = dataset.sealed.reveal(rows)
    order = np.argsort(classes)
    return order[np.searchsorted(classes, true, sorter=order)]


def _lr_at(cfg: RunConfig, epoch: int) -> float:
    return cfg.lr * cfg.lr_decay ** (epoch // cfg.lr_decay_period)


def _teacher_probs(teacher: nn.Model, features: np.ndarray, pos: np.ndarray,
                   cfg: RunConfig) -> TeacherProbs:
    """The frozen teacher's temperature-softened probabilities of the
    merged rows ``features[pos]``, from one teacher pass.

    The pass keeps the narrower of two per-row arrays. For a teacher of m
    classes and m at most its feature width, it keeps the (rows x m)
    probabilities, and a minibatch's are a lookup. Else it keeps the
    teacher's (rows x width) features, and each minibatch's probabilities
    take one head product over its rows, as a forward of it would. Each
    path wins where it is taken: the table of a 1,000-class teacher took
    139.5 MB, and with m = 5-15 and width 64 the product took 15-20 us a
    minibatch against the lookup's 1.4-2.2 us (one BLAS thread, 2-vCPU
    Xeon): about 0.2 s over the 11,400 minibatches of perfbench's
    `standard`.

    The pass takes the rows in ``nn._row_blocks`` of batch_size, at least
    3, so the head's products keep the shape of a training batch: one
    product over all rows can take another BLAS kernel that rounds
    differently. A 1-row minibatch's head product is taken over the row
    twice, as BLAS's matrix-vector kernel can round a single row
    differently from the same row among others.
    """
    width = teacher.feature_dim
    by_features = teacher.out_dim > width
    table = np.empty((len(pos), width if by_features else teacher.out_dim))
    for s in nn._row_blocks(len(pos), max(cfg.batch_size, 3)):
        rows = features[pos[s]]
        table[s] = (
            nn.extract_features(teacher, rows) if by_features
            else nn.softened_probs(nn.forward(teacher, rows), cfg.temperature))
    if not by_features:
        return lambda idx: table[idx]
    w, b = teacher.layers[-1]

    def probs(idx: np.ndarray) -> np.ndarray:
        feats = table[idx] if len(idx) > 1 else table[np.repeat(idx, 2)]
        logits = feats @ w
        logits += b
        return nn.softened_probs(logits[:len(idx)], cfg.temperature)
    return probs


def _train(model: nn.Model, features: np.ndarray, pos: np.ndarray,
           y: np.ndarray, teacher_probs: TeacherProbs | None, m: int,
           n: int, cfg: RunConfig, step: int, epochs: range,
           n_epochs: int) -> None:
    """SGD on the cross-distillation loss over the merged set, the rows
    ``features[pos]`` with labels ``y``, in place, for ``epochs``, a run of
    the step's ``n_epochs`` epochs. Each minibatch gathers its own rows, so
    no copy of the merged set is made, and takes the teacher's
    probabilities of its rows from ``teacher_probs``, the function
    ``_teacher_probs`` returns. A label outside the model's classes raises
    ValueError before any update, as ``nn.backward`` checks none; a
    non-finite loss, or non-finite parameters after the last update, raise
    ProtocolError.

    The distillation weight is alpha = m / (m + n): 0 on the supervised
    first task (m == 0, no teacher, ``teacher_probs`` None).
    """
    if not ((0 <= y) & (y < model.out_dim)).all():
        raise ValueError("label out of range")
    alpha = m / (m + n)
    base_seed = _seed(cfg.shuffle_seed, "task", step)
    for epoch in epochs:
        lr = _lr_at(cfg, epoch)
        if cfg.mode == "online" and m > 0:
            order = np.arange(len(pos))  # merged order already shuffled
        else:
            order = np.random.default_rng(
                _seed(base_seed, "epoch", epoch)).permutation(len(pos))
        rows = pos[order]
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = nn.backward(
                model, features[rows[start:start + cfg.batch_size]],
                None if teacher_probs is None else teacher_probs(idx), y[idx],
                alpha, cfg.temperature, m)
            if not math.isfinite(loss):
                raise ProtocolError(
                    f"training diverged at step {step}, epoch {epoch + 1} "
                    f"of {n_epochs}: loss {loss}")
            nn.sgd_step(model, grads, lr, cfg.weight_decay)
    # the last update is not followed by a loss that would show it
    if not np.isfinite(model.params).all():
        raise ProtocolError(f"training diverged at step {step}, epoch "
                            f"{epochs.stop} of {n_epochs}: non-finite "
                            "parameters")


def _row_features(model: nn.Model, dataset: Dataset,
                  rows: np.ndarray) -> np.ndarray:
    """The model's features of ``rows``, in order, gathered and extracted
    a block of rows at a time (``nn._model_blocks``) into one
    (len(rows), width) array."""
    feats = np.empty((len(rows), model.feature_dim))
    for s in nn._model_blocks(model, len(rows)):
        feats[s] = nn.extract_features(model, dataset.features[rows[s]])
    return feats


def _unit_rows(feats: np.ndarray) -> np.ndarray:
    """``feats`` with every row scaled to unit norm, in place, a block of
    rows at a time. The norms are ``np.linalg.norm``'s, by its own formula,
    without its (rows x width) array of squares."""
    for s in nn._row_blocks(len(feats), nn._ROW_BLOCK):
        rows = feats[s]
        norms = np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))
        if not np.isfinite(norms).all():  # it would divide rows to zeros
            raise ValueError("features' squared norms overflow")
        rows /= np.maximum(norms, 1e-12)
    return feats


def _update_store(state: RunState, model: nn.Model, dataset: Dataset,
                  assignments: np.ndarray, labels: np.ndarray,
                  rows: np.ndarray, cfg: RunConfig,
                  step: int) -> tuple[np.ndarray, np.ndarray]:
    """The exemplar ids and labels of ``state`` followed by those picked
    from ``rows``: the one place a run names samples by id."""
    if cfg.exemplar_policy == "none":
        return state.exemplar_ids, state.exemplar_labels
    if cfg.exemplar_policy == "herding":
        with _failing("exemplar selection", step):
            # q by keyword: perfbench's tracer reads it by name or at
            # positional index 3, but it is herding's third parameter, so
            # a positional q raises KeyError: 'q' under the tracer
            picked = select_exemplars_herding(
                _row_features(model, dataset, rows), assignments, q=cfg.q)
    else:
        picked = select_exemplars_random(
            assignments, cfg.q, _seed(cfg.shuffle_seed, "random-ex", step))
    return (np.concatenate([state.exemplar_ids, dataset.ids[rows[picked]]]),
            np.concatenate([state.exemplar_labels, labels[picked]]))


def evaluate(model: nn.Model, dataset: Dataset, classes,
             step: int) -> StepReport:
    """Cluster-quality metrics of the model's predictions on the held-out
    samples of ``classes``, the classes seen so far.

    The rows are gathered and forwarded in ``nn._model_blocks``, so
    neither they nor the logits are held whole, however many are held out.
    A model with finite parameters can still overflow, as a diverging one
    does; its non-finite logits raise ProtocolError.
    """
    rows = dataset.rows_for_classes(classes, eval_split=True)
    preds = np.empty(len(rows), dtype=int)
    for s in nn._model_blocks(model, len(rows)):
        with np.errstate(all="ignore"):
            logits = nn.forward(model, dataset.features[rows[s]])
        if not np.isfinite(logits).all():
            raise ProtocolError(f"evaluation failed at step {step}: the "
                                "model's logits overflow")
        preds[s] = np.argmax(logits, axis=1)
    truth = dataset.sealed.reveal(rows)
    return step_report(step, model.out_dim, preds, truth)


def _cluster(model: nn.Model, h1: nn.Model, dataset: Dataset,
             rows: np.ndarray, n: int, cfg: RunConfig, step: int,
             *tag) -> np.ndarray:
    """k-means slots 0..n-1 of the task's ``rows`` by the variant's
    features: those ``model`` (ours), step 1's ``h1`` (ffe) or a fresh model
    (scratch) extracts, or the rows' PCA coordinates, scaled to unit norm if
    the config asks; a ValueError of any of them names the step."""
    with _failing("clustering", step):
        if cfg.variant == "ffe":
            model = h1
        elif cfg.variant == "scratch":
            model = nn.init_model(dataset.dim, cfg.hidden_width, cfg.n_hidden,
                                  cfg.step_size,
                                  _seed(cfg.model_seed, "scratch", step))
        feats = (pca_coordinates(dataset.features[rows],
                                 min(cfg.pca_dim, dataset.dim))
                 if cfg.variant == "pca"  # PCA needs every row at once
                 else _row_features(model, dataset, rows))
        if cfg.normalize_features:
            feats = _unit_rows(feats)
        seed = _seed(cfg.shuffle_seed, "cluster", step, *tag)
        return kmeans(feats, n, seed=seed,
                      n_restarts=cfg.n_restarts).assignments


# a diverging step overflows before its loss, features or norms turn
# non-finite; the finiteness checks of training, k-means, herding,
# _unit_rows and evaluate report that as a ProtocolError, not numpy warnings
@np.errstate(all="ignore")
def continual_step(state: RunState, tasks: np.ndarray, dataset: Dataset,
                   cfg: RunConfig) -> RunState:
    """The step after ``state``: label the task, train, pick exemplars and
    evaluate. Step 1 (no model yet) builds the model and, like every step of
    an oracle run, trains on the true labels; any other step clusters the
    task with a feature extractor and must read no label until evaluation.

    The passed state is left as it is: its model serves as the teacher, and
    training and weight_align update the new model that expand_head builds.
    """
    step, teacher = state.step + 1, state.model
    classes = tasks[step - 1]
    n = len(classes)
    m = (step - 1) * n
    train_rows = dataset.rows_for_classes(classes, eval_split=False)
    supervised = teacher is None or cfg.oracle_labels

    # the step copies no rows whole: training indexes the dataset's rows by
    # position, and every other reader gathers its rows in blocks
    reads_before = dataset.sealed.access_count
    if supervised:
        assignments = _true_slots(dataset, classes, train_rows)
    else:
        assignments = _cluster(teacher, state.h1, dataset, train_rows, n,
                               cfg, step)
    labels = assignments + m  # slots m..m+n-1 follow the m learned classes

    if teacher is None:
        model = nn.init_model(dataset.dim, cfg.hidden_width, cfg.n_hidden, n,
                              cfg.model_seed)
        pos, y = train_rows, labels
    else:
        model = nn.expand_head(teacher, n,
                               _seed(cfg.model_seed, "expand", step))
        pos, y, origin = merge_replay(train_rows, labels,
                                      dataset.positions(state.exemplar_ids),
                                      state.exemplar_labels,
                                      _seed(cfg.shuffle_seed, "merge", step))

    # UPL trains in segments of upl_k epochs and re-clusters the task with
    # the model in training before each but the first; replayed labels stay
    # fixed, and this step's exemplars follow the last clustering. The
    # teacher and the merged rows stay fixed, so the segments share one
    # teacher pass, freed before herding and evaluation
    n_epochs = 1 if cfg.mode == "online" and m > 0 else cfg.epochs
    seg = n_epochs if supervised or cfg.upl_k == 0 else cfg.upl_k
    teacher_probs = (None if teacher is None else
                     _teacher_probs(teacher, dataset.features, pos, cfg))
    for start in range(0, n_epochs, seg):
        if start:
            assignments = _cluster(model, state.h1, dataset, train_rows,
                                   n, cfg, step, start)
            labels = assignments + m
            y[origin >= 0] = labels[origin[origin >= 0]]
        _train(model, dataset.features, pos, y, teacher_probs, m, n, cfg,
               step, range(start, min(start + seg, n_epochs)), n_epochs)
    del teacher_probs

    if cfg.bias_correction and m > 0:
        with _failing("weight alignment", step):
            nn.weight_align(model, m, n)

    ids, exemplar_labels = _update_store(state, model, dataset, assignments,
                                         labels, train_rows, cfg, step)
    if not supervised:
        training_reads = dataset.sealed.access_count - reads_before
        if training_reads != 0:
            raise ProtocolError(
                "ground-truth labels were read on the unsupervised path")
    report = evaluate(model, dataset, tasks[:step], step)
    return RunState(step, model, state.h1 or model, ids, exemplar_labels,
                    (*state.reports, report))


def run_experiment(cfg: RunConfig, dataset: Dataset,
                   out_dir: str | None = None) -> RunState:
    """Full protocol: split, then one continual_step per task."""
    tasks = split_tasks(dataset, cfg.step_size, cfg.arrangement_seed)
    none = np.empty(0, dtype=int)
    state = RunState(0, None, None, none, none, ())
    if out_dir:
        # report.csv holds the finished steps' rows, whatever ends the run
        os.makedirs(out_dir, exist_ok=True)
        dump_config(cfg, os.path.join(out_dir, "config.txt"))
        write_report(state.reports, os.path.join(out_dir, "report.csv"))
    for _ in tasks:
        state = continual_step(state, tasks, dataset, cfg)
        _persist_step(out_dir, state, tasks, cfg.q)
    if out_dir:
        write_summary(summarize(state.reports, cfg),
                      os.path.join(out_dir, "summary.csv"))
    return state


def summarize(reports: Sequence[StepReport], cfg: RunConfig) -> dict:
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


def _persist_step(out_dir, state: RunState, tasks, q: int) -> None:
    if not out_dir:
        return
    step = state.step
    write_checkpoint(state.model, os.path.join(out_dir, f"step_{step}.ckpt"),
                     meta={"step": step,
                           "classes_seen": tasks[:step].ravel().tolist()})
    _write_atomic(os.path.join(out_dir, f"exemplars_step_{step}.json"),
                  [json.dumps({"q": q, "ids": state.exemplar_ids.tolist(),
                               "labels": state.exemplar_labels.tolist()})])
    write_report(state.reports, os.path.join(out_dir, "report.csv"))


def sweep_runs(base_cfg: RunConfig, axis: str, values: list, out_dir: str,
               repeats: int = 1) -> list[tuple[RunConfig, object, str]]:
    """The ordered (cfg, value, run_dir) runs of a sweep: ``base_cfg`` with
    field ``axis`` set to each value as ``parse_setting`` reads it, repeated
    with both seeds counting up from the swept config's.

    An empty or unknown axis, a value the field rejects, or two values that
    give the same run raise ProtocolError naming the axis.
    """
    runs = []
    try:
        if not values:
            raise ValueError("no values")
        for value in values:
            cfg = replace(base_cfg,
                          **parse_setting(RunConfig, axis, str(value)))
            for rep in range(repeats):
                run = replace(cfg, model_seed=cfg.model_seed + rep,
                              shuffle_seed=cfg.shuffle_seed + rep)
                twins = [v for c, v, _ in runs if c == run]
                if twins:
                    raise ValueError(f"values {twins[0]!r} and {value!r} "
                                     "give the same run")
                run_name = f"{axis}={value}_seed={run.model_seed}"
                runs.append((run, value, os.path.join(out_dir, run_name)))
    except ValueError as exc:
        raise ProtocolError(f"sweep axis {axis!r}: {exc}") from exc
    return runs


def run_sweep(base_cfg: RunConfig, dataset: Dataset, axis: str, values: list,
              out_dir: str, repeats: int = 1) -> list[dict]:
    """One experiment per run of ``sweep_runs``, in order; aggregated CSV
    on disk.

    A failed run does not stop the others: its row carries the value, seed
    and variant, None for every metric and the error message under "error",
    which is None on the rows of finished runs. sweep.csv leaves a failed
    row's metric fields empty.
    """
    runs = sweep_runs(base_cfg, axis, values, out_dir, repeats)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for cfg, value, run_dir in runs:
        try:
            summary = summarize(
                run_experiment(cfg, dataset, out_dir=run_dir).reports, cfg)
            error = None
        except Exception as exc:  # noqa: BLE001 - the other runs' rows must survive
            summary = {"seed": cfg.model_seed, "variant": variant_name(cfg),
                       **dict.fromkeys(_SWEEP_METRICS)}
            error = str(exc)
        rows.append({**summary, "value": value, "error": error})
    _write_table(os.path.join(out_dir, "sweep.csv"),
                 [axis, "seed", "variant", *_SWEEP_METRICS],
                 ([row["value"], row["seed"], row["variant"],
                   *(row[key] for key in _SWEEP_METRICS)] for row in rows))
    return rows


_SWEEP_METRICS = ("avg_acc", "last_acc", "avg_nmi", "avg_ari")
