"""Command-line interface: gen-data, run, sweep, eval, report."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .config import RunConfig, load_config, load_spec, parse_setting
from .data import (_read_table, generate_gaussian_stream, load_dataset,
                   read_checkpoint, save_dataset, write_report)
from .protocol import (evaluate, run_experiment, run_sweep, split_tasks,
                       summarize, sweep_runs, variant_name)

USAGE_ERROR = 2
RUNTIME_ERROR = 1
# what checking a bad input raises: ValueError includes FormatError,
# ProtocolError and UnicodeDecodeError
INPUT_ERRORS = (ValueError, OSError, TypeError)


# run flag -> the RunConfig field whose text it gives, read as a config
# file value is; --seed sets shuffle_seed to the same value
_FLAG_FIELDS = {"--mode": "mode", "--variant": "variant", "--q": "q",
                "--epochs": "epochs", "--batch": "batch_size", "--lr": "lr",
                "--temperature": "temperature",
                "--weight-decay": "weight_decay", "--step-size": "step_size",
                "--exemplar-policy": "exemplar_policy",
                "--bias-correction": "bias_correction", "--seed": "model_seed"}


def _config_overrides(args: argparse.Namespace) -> dict:
    over = {"oracle_labels": True} if args.oracle_labels else {}
    for flag, field in _FLAG_FIELDS.items():
        raw = getattr(args, field)
        if raw is None:
            continue
        try:
            over.update(parse_setting(RunConfig, field, raw))
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from exc
    if "model_seed" in over:
        over["shuffle_seed"] = over["model_seed"]
    return over


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", default=None, help="output directory")
    choices = {f.name: f.metadata["choices"] or () for f in fields(RunConfig)}
    choices["variant"] += ("upl-K",)
    for flag, field in _FLAG_FIELDS.items():
        p.add_argument(flag, dest=field, help="|".join(choices[field]) or None)
    p.add_argument("--oracle-labels", action="store_true")


def _default_out(cfg: RunConfig, tag: str) -> str:
    root = os.environ.get("PSEUDOCL_RUN_ROOT", "runs")
    return os.path.join(root, f"{tag}_{variant_name(cfg)}_seed{cfg.model_seed}")


def cmd_gen_data(args, checked):
    spec = load_spec(args.specfile)
    checked()
    save_dataset(generate_gaussian_stream(spec), args.out)
    print(f"wrote {args.out}")


def cmd_run(args, checked):
    cfg = load_config(args.config, overrides=_config_overrides(args))
    dataset = load_dataset(args.data)
    split_tasks(dataset, cfg.step_size, cfg.arrangement_seed)
    out_dir = args.out or _default_out(cfg, "run")
    checked()
    state = run_experiment(cfg, dataset, out_dir=out_dir)
    print(f"{'step':>4} {'classes':>8} {'acc':>8} {'nmi':>8} {'ari':>8}")
    for r in state.reports:
        print(f"{r.step:>4} {r.classes_seen:>8} {r.acc:>8.4f} "
              f"{r.nmi:>8.4f} {r.ari:>8.4f}")
    summary = summarize(state.reports, cfg)
    print(f"Avg ACC {summary['avg_acc']:.4f}  "
          f"Last ACC {summary['last_acc']:.4f}  "
          f"Avg NMI {summary['avg_nmi']:.4f}  "
          f"Avg ARI {summary['avg_ari']:.4f}")
    print(f"run directory: {out_dir}")


def cmd_sweep(args, checked):
    repeats = int(args.repeats) if args.repeats.isdecimal() else 0
    if repeats < 1:
        raise ValueError(f"--repeats: want an integer >= 1, got "
                         f"{args.repeats!r}")
    cfg = load_config(args.config, overrides=_config_overrides(args))
    dataset = load_dataset(args.data)
    if "=" not in args.axis:
        raise ValueError("axis must look like 'q=2,5,10,20'")
    axis, raw = (part.strip() for part in args.axis.split("=", 1))
    values = [v.strip() for v in raw.split(",") if v.strip()]
    out_dir = args.out or _default_out(cfg, f"sweep_{axis}")
    for run_cfg, _, _ in sweep_runs(cfg, axis, values, out_dir, repeats):
        split_tasks(dataset, run_cfg.step_size, run_cfg.arrangement_seed)
    checked()
    rows = run_sweep(cfg, dataset, axis, values, out_dir, repeats)
    print(f"{axis:>12} {'seed':>6} {'avg_acc':>8} {'last_acc':>9}")
    for row in rows:
        if row["error"] is None:
            print(f"{str(row['value']):>12} {row['seed']:>6} "
                  f"{row['avg_acc']:>8.4f} {row['last_acc']:>9.4f}")
        else:
            print(f"error: {axis}={row['value']} seed {row['seed']}: "
                  f"{row['error']}", file=sys.stderr)
    print(f"sweep directory: {out_dir}")
    return any(row["error"] is not None for row in rows)


def cmd_eval(args, checked):
    model, meta = read_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    classes, step = meta.get("classes_seen"), meta.get("step", 0)
    if classes is None:
        raise ValueError(f"{args.checkpoint}: checkpoint carries no "
                         "classes_seen metadata")
    if not (isinstance(classes, list) and classes
            and all(type(v) is int for v in [*classes, step])):
        raise ValueError(f"{args.checkpoint}: checkpoint's classes_seen must "
                         "be a nonempty list of ints and its step an int, "
                         f"got {classes!r} and {step!r}")
    if len(classes) != model.out_dim or len(set(classes)) != len(classes):
        raise ValueError(f"{args.checkpoint}: checkpoint's classes_seen must "
                         f"be {model.out_dim} distinct classes, one per head "
                         f"output, got {len(set(classes))} of {len(classes)}")
    if dataset.dim != model.in_dim:
        raise ValueError(f"{args.data}: dataset dim {dataset.dim} != model "
                         f"input {model.in_dim}")
    missing = sorted(set(classes) - set(dataset.classes().tolist()))
    if missing:
        raise ValueError(f"{args.data}: dataset lacks classes_seen {missing}")
    if len(dataset.rows_for_classes(classes, eval_split=True)) < 2:
        raise ValueError(f"{args.data}: classes_seen have fewer than the two "
                         "held-out samples ARI needs")
    checked()
    rep = evaluate(model, dataset, classes, step)
    print(f"step={rep.step} classes={rep.classes_seen} acc={rep.acc!r} "
          f"nmi={rep.nmi!r} ari={rep.ari!r}")
    if args.out:
        write_report([rep], args.out)


def cmd_report(args, checked):
    path = os.path.join(args.run_dir, "report.csv")
    header, rows = _read_table(path)
    counts = [key in ("step", "classes_seen") for key in header]
    try:
        lines = [" ".join(f"{c:>12}" for c in header)] + [
            " ".join(f"{int(c):>12}" if count else f"{float(c):>12.4f}"
                     for c, count in zip(row, counts)) for row in rows]
    except ValueError as exc:  # a cell that is no number
        raise ValueError(f"{path}: {exc}") from exc
    path = os.path.join(args.run_dir, "summary.csv")
    if os.path.exists(path):
        keys, rows = _read_table(path)
        if len(rows) != 1:
            raise ValueError(f"{path}: no data row" if not rows
                             else f"{path}: {len(rows)} data rows, expected 1")
        lines.append("; ".join(f"{k}={v}" for k, v in zip(keys, rows[0])))
    checked()
    print(*lines, sep="\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudocl",
        description="Unsupervised class-incremental continual learning "
                    "with cluster-derived pseudo labels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic feature dataset")
    p.add_argument("specfile", help="blob spec (key = value)")
    p.add_argument("out", help="output dataset CSV")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("config", help="run config file (key = value)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    p.add_argument("config")
    p.add_argument("--axis", required=True, help="e.g. q=2,5,10,20")
    p.add_argument("--repeats", default="1")
    _add_run_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="re-evaluate a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="pretty-print a run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. A command reads and checks all of its inputs,
    writing nothing, then calls ``checked()`` and does its work, returning
    true if some of that work failed, having printed why. One of
    INPUT_ERRORS raised before ``checked()`` exits 2, any other failure
    exits 1, and an OSError reads '<file>: <reason>'."""
    args = build_parser().parse_args(argv)
    passed = []
    try:
        failed = args.func(args, lambda: passed.append(True))
        return RUNTIME_ERROR if failed else 0
    except Exception as exc:  # noqa: BLE001 - every failure gets one line
        reason = exc
        if isinstance(exc, OSError) and exc.filename is not None:
            # os.replace names its target second
            reason = f"{exc.filename2 or exc.filename}: {exc.strerror}"
        print(f"error: {reason}", file=sys.stderr)
        bad_input = not passed and isinstance(exc, INPUT_ERRORS)
        return USAGE_ERROR if bad_input else RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
