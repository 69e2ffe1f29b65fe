"""One run of one benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED WORK_DIR RESULT_JSON TRACE

Set-up (imports and input generation) happens before the timed part; the
seed changes only the generated inputs: the samples of standard and wide,
and the spec seed that cli's gen-data reads. After the timed part the outputs are
validated, fingerprinted and summarised into RESULT_JSON. With TRACE=1 the
timed part runs under the span tracer, whose spans go to WORK_DIR/spans.jsonl.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pseudocl  # noqa: E402
from pseudocl import cli, data, protocol  # noqa: E402
from pseudocl.config import load_config  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

# The run settings of configs/default.cfg, fixed here so that the workloads
# stay the same when that file changes.
DEFAULT_CFG = """\
run.mode = offline
run.variant = ours
run.upl_k = 0
run.exemplar_policy = herding
run.q = 20
run.step_size = 5
run.bias_correction = true
run.oracle_labels = false
train.epochs = 30
train.lr = 0.1
train.lr_decay = 0.1
train.lr_decay_period = 10
train.batch_size = 32
train.weight_decay = 0.00001
train.temperature = 2.0
model.hidden_width = 64
model.n_hidden = 2
cluster.pca_dim = 12
cluster.n_restarts = 1
cluster.normalize_features = false
seeds.arrangement = 1993
seeds.model = 0
seeds.shuffle = 0
"""

# Blob specs; configs/blobs.cfg is STANDARD_SPEC with seed 7.
STANDARD_SPEC = dict(num_classes=20, dim=16, samples_per_class=150,
                     separation=1.0, std=0.15, signal_dims=10, noise_std=2.0)
WIDE_SPEC = dict(num_classes=200, dim=64, samples_per_class=120,
                 separation=1.0, std=0.15, signal_dims=32, noise_std=2.0)
CLI_SPEC = dict(num_classes=20, dim=64, samples_per_class=1000,
                separation=1.0, std=0.15, signal_dims=32, noise_std=2.0)

STANDARD_RUN_SEEDS = (0, 1, 2, 3, 4)   # as in the acceptance tests
LAYOUT_SEED = 7    # class centers of standard and wide, as in configs/blobs.cfg
N_STEPS = 4

_EXPERIMENT_LAYERS = (
    "nn.backward", "nn.forward", "nn.sgd_step", "nn.extract_features",
    "protocol.run_experiment", "protocol.continual_step", "protocol.evaluate",
    "clustering.kmeans", "labeling.merge_replay", "metrics.hungarian",
    "metrics.nmi", "metrics.ari", "metrics.step_report", "data.positions",
    "data.write_checkpoint", "data.write_report")
# spans each workload must record at least once; protocol reaches kmeans,
# merge_replay, the exemplar selectors, step_report, write_checkpoint and
# write_report only through `from ... import` bindings, so these also check
# that the tracer rebound them
MUST_RUN = {
    "standard": _EXPERIMENT_LAYERS + ("labeling.select_exemplars_herding",),
    "wide": _EXPERIMENT_LAYERS + ("labeling.select_exemplars_herding",),
    "cli": _EXPERIMENT_LAYERS + (
        "labeling.select_exemplars_random", "cli.cmd_gen_data", "cli.cmd_run",
        "cli.cmd_eval", "cli.cmd_report", "data.save_dataset",
        "data.load_dataset", "data.read_checkpoint"),
}
# random exemplars bypass herding on cli
MUST_NOT_RUN = {"standard": (), "wide": (),
                "cli": ("labeling.select_exemplars_herding",)}


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _spec_text(spec: dict, seed: int) -> str:
    return "".join(f"{k} = {v}\n" for k, v in {**spec, "seed": seed}.items())


def blob_stream(spec: dict, seed: int) -> data.Dataset:
    """Gaussian class blobs as generate_gaussian_stream draws them, except
    that the class centers come from LAYOUT_SEED and only the samples from
    ``seed``: every seed then poses a task of the same difficulty, and the
    run time and result quality vary less from seed to seed."""
    c, d, s = spec["num_classes"], spec["dim"], spec["samples_per_class"]
    sdims = spec["signal_dims"]
    centers = np.zeros((c, d))
    centers[:, :sdims] = spec["separation"] * np.random.default_rng(
        LAYOUT_SEED).standard_normal((c, sdims))
    noise = np.random.default_rng(seed).standard_normal((c, s, d))
    noise[:, :, :sdims] *= spec["std"]
    noise[:, :, sdims:] *= spec["noise_std"]
    features = (centers[:, None, :] + noise).reshape(c * s, d)
    return data.Dataset(np.arange(c * s), features,
                        np.repeat(np.arange(c), s), seed=seed)


def prepare(workload: str, seed: int, work: str):
    """Generate the inputs; returns (timed callable, run dirs, step size)."""
    cfg_path = _write(os.path.join(work, "default.cfg"), DEFAULT_CFG)
    if workload == "cli":
        spec_path = _write(os.path.join(work, "spec.cfg"),
                           _spec_text(CLI_SPEC, seed))
        csv_path = os.path.join(work, "data.csv")
        run_dir = os.path.join(work, "run")
        commands = [
            ["gen-data", spec_path, csv_path],
            ["run", cfg_path, "--data", csv_path, "--out", run_dir,
             "--mode", "online", "--epochs", "5",
             "--exemplar-policy", "random"],
            ["eval", os.path.join(run_dir, f"step_{N_STEPS}.ckpt"), csv_path,
             "--out", os.path.join(work, "eval.csv")],
            ["report", run_dir],
        ]

        def timed():
            for argv in commands:
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"pseudocl {argv[0]} exited {code}")
        return timed, [run_dir], CLI_SPEC["num_classes"] // N_STEPS

    if workload == "standard":
        spec, runs = STANDARD_SPEC, [
            ({"model_seed": s, "shuffle_seed": s}, f"run_seed{s}")
            for s in STANDARD_RUN_SEEDS]
    elif workload == "wide":
        spec, runs = WIDE_SPEC, [({"step_size": 50, "epochs": 2}, "run")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    dataset = blob_stream(spec, seed)
    jobs = [(load_config(cfg_path, overrides=over), os.path.join(work, name))
            for over, name in runs]

    def timed():
        for cfg, out_dir in jobs:
            protocol.run_experiment(cfg, dataset, out_dir=out_dir)
    return timed, [d for _, d in jobs], jobs[0][0].step_size


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def validate(run_dir: str, step_size: int) -> list[str]:
    """report.csv rows, metric ranges and the final checkpoint's head size."""
    errors = []
    header, rows = _read_csv(os.path.join(run_dir, "report.csv"))
    if header != ["step", "classes_seen", "acc", "nmi", "ari"]:
        return [f"{run_dir}: report.csv header {header}"]
    if len(rows) != N_STEPS:
        errors.append(f"{run_dir}: {len(rows)} report rows, want {N_STEPS}")
    for i, row in enumerate(rows, start=1):
        step, seen = int(row[0]), int(row[1])
        acc, nmi, ari = (float(v) for v in row[2:5])
        if step != i or seen != i * step_size:
            errors.append(f"{run_dir}: row {i} has step {step}, "
                          f"classes_seen {seen}")
        if not (0.0 <= acc <= 1.0 and 0.0 <= nmi <= 1.0 and -1.0 <= ari <= 1.0):
            errors.append(f"{run_dir}: row {i} metrics out of range: {row}")
    model, meta = data.read_checkpoint(
        os.path.join(run_dir, f"step_{N_STEPS}.ckpt"))
    seen = N_STEPS * step_size
    if model.out_dim != seen or len(meta.get("classes_seen", [])) != seen:
        errors.append(f"{run_dir}: final checkpoint out_dim {model.out_dim}, "
                      f"want {seen}")
    return errors


def validate_cli_eval(work: str, run_dir: str) -> list[str]:
    with open(os.path.join(work, "eval.csv"), "rb") as fh:
        eval_lines = fh.read().splitlines()
    with open(os.path.join(run_dir, "report.csv"), "rb") as fh:
        last = fh.read().splitlines()[-1]
    if eval_lines[1:] != [last]:
        return [f"eval output {eval_lines[1:]} differs from last report "
                f"row {last}"]
    return []


def fingerprint(run_dirs: list[str]) -> str:
    """sha256 over each run's report.csv and final checkpoint, in order."""
    h = hashlib.sha256()
    for run_dir in run_dirs:
        for name in ("report.csv", f"step_{N_STEPS}.ckpt"):
            with open(os.path.join(run_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def quality(run_dirs: list[str]) -> dict[str, float]:
    """avg_acc, last_acc and avg_nmi from summary.csv, averaged over runs."""
    sums = {"avg_acc": 0.0, "last_acc": 0.0, "avg_nmi": 0.0}
    for run_dir in run_dirs:
        header, rows = _read_csv(os.path.join(run_dir, "summary.csv"))
        for key in sums:
            sums[key] += float(rows[0][header.index(key)])
    return {k: v / len(run_dirs) for k, v in sums.items()}


def coverage(workload: str, summary: dict) -> list[str]:
    errors = [f"traced layer {name} recorded 0 calls"
              for name in MUST_RUN[workload] if name not in summary]
    errors += [f"traced layer {name} recorded {summary[name]['calls']} calls"
               for name in MUST_NOT_RUN[workload] if name in summary]
    return errors


def main(argv: list[str]) -> int:
    workload, seed, work, result_path, trace = argv
    seed, trace = int(seed), trace == "1"
    result: dict = {"workload": workload, "seed": seed, "trace": trace,
                    "errors": []}
    expected = os.path.join(ROOT, "src", "pseudocl")
    if os.path.dirname(os.path.abspath(pseudocl.__file__)) != expected:
        raise RuntimeError(f"imported pseudocl from {pseudocl.__file__}")
    timed, run_dirs, step_size = prepare(workload, seed, work)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    result["t_start"] = time.perf_counter()
    try:
        timed()
    except Exception:  # noqa: BLE001 - a failed run is reported, not fatal
        result["errors"].append(traceback.format_exc())
    result["t_end"] = time.perf_counter()
    if tracer:
        tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not result["errors"]:
        for run_dir in run_dirs:
            result["errors"] += validate(run_dir, step_size)
        if workload == "cli":
            result["errors"] += validate_cli_eval(work, run_dirs[0])
        result["fingerprint"] = fingerprint(run_dirs)
        result["quality"] = quality(run_dirs)
        if any(not math.isfinite(v) for v in result["quality"].values()):
            result["errors"].append(f"non-finite quality {result['quality']}")
    if tracer:
        summary = tracer.summary()
        result["errors"] += coverage(workload, summary)
        result["spans"] = summary
        result["layers"] = layer_metrics(summary)
        tracer.write(os.path.join(work, "spans.jsonl"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
