"""Benchmark entry point: runs one workload in fresh child processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload standard|wide|cli [--seed N]
                             [--seconds S] [--trace 0|1]

With --trace 0, children run until --seconds have passed (at least two, so
that their result fingerprints can be compared) and the end-to-end metrics
of BENCHMARK.json are medians over them. With --trace 1, untraced children
run for half of --seconds (at least one), then one child runs under the
span tracer, and the per-layer metrics of BENCHMARK.json come from it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything else goes to
.perfbench_runs/<workload>-seed<N>-trace<T>/results.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("standard", "wide", "cli")
DEFAULT_SEED = 7          # the seed of configs/blobs.cfg
MIN_RUNS = 2              # fingerprints of two runs must agree
TIME_LIMIT_S = 150.0      # no child starts that would end after this
# Every end-to-end figure a run prints. BENCHMARK.json carries only those
# whose spread over seeds fits a bound: result quality varies too much with
# the cli workload's generated data, and failed_frac reads 0 (ok_frac stands
# in for it).
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "avg_acc": "frac", "last_acc": "frac", "avg_nmi": "frac",
             "ok_frac": "frac", "failed_frac": "frac"}


def _git_commit() -> str | None:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def run_child(workload: str, seed: int, out: str, index: int, trace: bool,
              timeout: float) -> dict:
    """Run one child; returns its result dict with setup_s and errors set."""
    work = os.path.join(out, f"child{index}")
    os.makedirs(work)
    result_path = os.path.join(out, f"child{index}.json")
    log_path = os.path.join(out, f"child{index}.log")
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload,
            str(seed), work, result_path, "1" if trace else "0"]
    with open(log_path, "w") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = {"errors": []}
    if code != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        result["errors"].append(f"child exited {code}: {tail}")
    else:
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_start"] - t_spawn
        result["wall_s"] = result["t_end"] - result["t_start"]
    if trace and os.path.exists(os.path.join(work, "spans.jsonl")):
        os.replace(os.path.join(work, "spans.jsonl"),
                   os.path.join(out, "spans.jsonl"))
    shutil.rmtree(work)
    result["trace"] = trace
    return result


def run_children(workload: str, seed: int, seconds: float, trace: bool,
                 out: str) -> list[dict]:
    untraced_for = seconds / 2 if trace else seconds
    min_untraced = 1 if trace else MIN_RUNS
    runs: list[dict] = []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - t0
        enough = len(runs) >= min_untraced and elapsed >= untraced_for
        if enough or (runs and elapsed + 1.5 * longest > TIME_LIMIT_S):
            break
        start = time.perf_counter()
        runs.append(run_child(workload, seed, out, len(runs), False,
                              TIME_LIMIT_S + 20 - elapsed))
        longest = max(longest, time.perf_counter() - start)
    if trace:
        elapsed = time.perf_counter() - t0
        runs.append(run_child(workload, seed, out, len(runs), True,
                              max(30.0, TIME_LIMIT_S + 20 - elapsed)))
    return runs


def check_fingerprints(runs: list[dict], reference: str | None) -> dict:
    """Runs whose fingerprint differs from the first good run's fail."""
    good = [r for r in runs if not r["errors"]]
    first = good[0]["fingerprint"] if good else None
    for r in good:
        if r["fingerprint"] != first:
            r["errors"].append(f"fingerprint {r['fingerprint']} differs from "
                               f"the first run's {first}")
    return {"fingerprint": first, "reference": reference,
            "fingerprint_match": None if reference is None or first is None
            else first == reference}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    src = os.path.join(ROOT, "src", "pseudocl", "__init__.py")
    if not (os.path.exists(bench_path) and os.path.exists(src)):
        print(f"error: {ROOT} lacks BENCHMARK.json or src/pseudocl",
              file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        references = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    trace = args.trace == 1

    # compile once so that no child pays for bytecode compilation in setup_s
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    out = os.path.join(ROOT, ".perfbench_runs",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    runs = run_children(args.workload, args.seed, seconds, trace, out)
    prints = check_fingerprints(
        runs, references.get(args.workload, {}).get(str(args.seed)))
    ok = [r for r in runs if not r["errors"]]
    untraced = [r for r in ok if not r["trace"]]
    failed = len(runs) - len(ok)

    end_to_end = {}
    if untraced:
        end_to_end = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            **untraced[0]["quality"],
            "ok_frac": len(ok) / len(runs),
            "failed_frac": failed / len(runs),
        }
    layers = {}
    # a traced run that failed its checks still reports its layers
    traced = [r for r in runs if r["trace"] and "layers" in r]
    if traced and untraced:
        layers = dict(traced[0]["layers"])
        layers["trace.overhead_s"] = traced[0]["wall_s"] - end_to_end["wall_s"]

    results = {
        "provenance": provenance(args.workload, args.seed),
        "seconds": seconds,
        "attempted": len(runs),
        "failed": failed,
        **prints,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "spans": traced[0]["spans"] if traced else None,
        "runs": [{k: r.get(k) for k in ("trace", "setup_s", "wall_s",
                                        "peak_rss_mb", "fingerprint",
                                        "quality", "errors")} for r in runs],
    }
    with open(os.path.join(out, "results.json"), "w") as fh:
        json.dump(results, fh, indent=1)

    for r in runs:
        for err in r["errors"]:
            print(f"run failed: {err}", file=sys.stderr)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    values = layers if trace else end_to_end
    if any(m["name"] not in values for m in wanted):
        print("error: no successful run to take metrics from", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  runs {len(runs)}")
    print(f"fingerprint {prints['fingerprint']}  "
          f"fingerprint_match {json.dumps(prints['fingerprint_match'])}")
    for name, value in end_to_end.items():
        print(f"{name} = {value} {E2E_UNITS[name]}")
    if trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
