"""Command-line interface: gen-data, run, sweep, eval, report."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import RunConfig, load_config, parse_variant, read_key_values
from .data import (BlobSpec, _read_table, generate_gaussian_stream,
                   load_dataset, read_checkpoint, save_dataset, write_report)
from .protocol import (ProtocolError, evaluate, run_experiment, run_sweep,
                       sweep_config, variant_name)

USAGE_ERROR = 2
RUNTIME_ERROR = 1


class UsageError(Exception):
    pass


def _load_inputs(args):
    """Config and dataset problems are usage errors (exit 2)."""
    try:
        cfg = load_config(args.config, overrides=_config_overrides(args))
        dataset = load_dataset(args.data)
    except (ValueError, FileNotFoundError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    return cfg, dataset

_BLOB_FIELDS = {f.name: f.type for f in dataclasses.fields(BlobSpec)}


def _load_blob_spec(path: str) -> BlobSpec:
    def coerce(field: str, raw: str):
        return int(raw) if _BLOB_FIELDS[field].startswith("int") else float(raw)

    return BlobSpec(**read_key_values(path, {f: f for f in _BLOB_FIELDS},
                                      coerce))


# argparse dest -> RunConfig field, for flags that set one field as given
_FLAG_FIELDS = {"mode": "mode", "q": "q", "epochs": "epochs",
                "batch": "batch_size", "lr": "lr",
                "temperature": "temperature", "weight_decay": "weight_decay",
                "step_size": "step_size", "exemplar_policy": "exemplar_policy"}


def _config_overrides(args: argparse.Namespace) -> dict:
    over = {field: getattr(args, dest) for dest, field in _FLAG_FIELDS.items()
            if getattr(args, dest) is not None}
    if args.variant is not None:
        over["variant"], over["upl_k"] = parse_variant(args.variant)
    if args.bias_correction is not None:
        over["bias_correction"] = args.bias_correction == "on"
    if args.oracle_labels:
        over["oracle_labels"] = True
    if args.seed is not None:
        over["model_seed"] = over["shuffle_seed"] = args.seed
    return over


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--mode", choices=("offline", "online"))
    p.add_argument("--variant", help="ours|ffe|scratch|pca|upl-K")
    p.add_argument("--q", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--step-size", type=int, dest="step_size")
    p.add_argument("--exemplar-policy", choices=("herding", "random", "none"),
                   dest="exemplar_policy")
    p.add_argument("--bias-correction", choices=("on", "off"),
                   dest="bias_correction")
    p.add_argument("--oracle-labels", action="store_true", dest="oracle_labels")
    p.add_argument("--seed", type=int, help="model and shuffle seed")


def _default_out(cfg: RunConfig, tag: str) -> str:
    root = os.environ.get("PSEUDOCL_RUN_ROOT", "runs")
    return os.path.join(root, f"{tag}_{variant_name(cfg)}_seed{cfg.model_seed}")


def _print_report(reports, summary) -> None:
    print(f"{'step':>4} {'classes':>8} {'acc':>8} {'nmi':>8} {'ari':>8}")
    for r in reports:
        print(f"{r.step:>4} {r.classes_seen:>8} {r.acc:>8.4f} "
              f"{r.nmi:>8.4f} {r.ari:>8.4f}")
    print(f"Avg ACC {summary['avg_acc']:.4f}  Last ACC {summary['last_acc']:.4f}  "
          f"Avg NMI {summary['avg_nmi']:.4f}  Avg ARI {summary['avg_ari']:.4f}")


def cmd_gen_data(args) -> int:
    try:
        spec = _load_blob_spec(args.specfile)
    except (ValueError, FileNotFoundError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    save_dataset(generate_gaussian_stream(spec), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg, dataset = _load_inputs(args)
    out_dir = args.out or _default_out(cfg, "run")
    result = run_experiment(cfg, dataset, out_dir=out_dir)
    _print_report(result.reports, result.summary)
    print(f"run directory: {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    for flag, value in (("--repeats", args.repeats), ("--jobs", args.jobs)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    cfg, dataset = _load_inputs(args)
    if "=" not in args.axis:
        raise UsageError("axis must look like 'q=2,5,10,20'")
    axis, raw = (part.strip() for part in args.axis.split("=", 1))
    values = [v.strip() for v in raw.split(",") if v.strip()]
    try:
        for value in values:
            sweep_config(cfg, axis, value)
    except ProtocolError as exc:  # unknown axis, or a value its field rejects
        raise UsageError(str(exc)) from exc
    out_dir = args.out or _default_out(cfg, f"sweep_{axis}")
    rows = run_sweep(cfg, dataset, axis, values, out_dir,
                     repeats=args.repeats, jobs=args.jobs)
    print(f"{axis:>12} {'seed':>6} {'avg_acc':>8} {'last_acc':>9}")
    for row in rows:
        if row["error"] is None:
            print(f"{str(row['value']):>12} {row['seed']:>6} "
                  f"{row['avg_acc']:>8.4f} {row['last_acc']:>9.4f}")
        else:
            print(f"error: {axis}={row['value']} seed {row['seed']}: "
                  f"{row['error']}", file=sys.stderr)
    print(f"sweep directory: {out_dir}")
    failed = any(row["error"] is not None for row in rows)
    return RUNTIME_ERROR if failed else 0


def cmd_eval(args) -> int:
    try:
        model, meta = read_checkpoint(args.checkpoint)
        dataset = load_dataset(args.data)
    except (ValueError, FileNotFoundError) as exc:
        raise UsageError(str(exc)) from exc
    classes = meta.get("classes_seen")
    if classes is None:
        raise UsageError("checkpoint carries no classes_seen metadata")
    if dataset.dim != model.in_dim:
        raise UsageError(f"dataset dim {dataset.dim} != model input {model.in_dim}")
    missing = np.setdiff1d(classes, dataset.classes()).tolist()
    if missing:
        raise UsageError(f"dataset lacks classes_seen {missing}")
    eval_ids = dataset.ids_for_classes(np.array(classes), eval_split=True)
    rep = evaluate(model, dataset, eval_ids, meta.get("step", 0))
    print(f"step={rep.step} classes={rep.classes_seen} acc={rep.acc!r} "
          f"nmi={rep.nmi!r} ari={rep.ari!r}")
    if args.out:
        write_report([rep], args.out)
    return 0


def cmd_report(args) -> int:
    header, rows = _read_table(os.path.join(args.run_dir, "report.csv"))
    for row in [header, *rows]:
        print(" ".join(f"{float(c):>12.4f}" if "." in c else f"{c:>12}"
                       for c in row))
    summary_path = os.path.join(args.run_dir, "summary.csv")
    if os.path.exists(summary_path):
        keys, (vals,) = _read_table(summary_path)
        print("; ".join(f"{k}={v}" for k, v in zip(keys, vals)))
    return 0


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
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - runtime failure path
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
