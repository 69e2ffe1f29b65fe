"""In-memory span tracer for the modules of ``pseudocl``.

The tracer wraps every public function of each module in ``src/pseudocl``
(plus ``Dataset.positions``) from the outside and leaves the source alone.
``protocol`` and ``cli`` bind many of those functions with ``from ... import``,
so wrapping a module attribute alone would miss those calls; ``install``
therefore rebinds every name, in every ``pseudocl`` module, that refers to a
wrapped function, and ``uninstall`` puts every original binding back.

A span is ``[name, start, end, parent, attrs]``. Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("data", "config", "nn", "clustering", "labeling", "metrics",
          "protocol", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


def _herding_dist_evals(assignments, q: int) -> int:
    """Distance evaluations of greedy herding: pick j of a size-s cluster
    scans the s - j + 1 candidates still available."""
    sizes = np.unique(np.asarray(assignments), return_counts=True)[1]
    t = np.minimum(q, sizes)
    return int(np.sum(t * sizes - t * (t - 1) // 2))


# span name -> attrs computed from (args, kwargs, result) after the span ends
MEASURES = {
    "nn.backward": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))},
    "nn.forward": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))},
    "nn.extract_features": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))},
    "clustering.kmeans": lambda a, k, r: {
        "n": int(np.shape(_arg(a, k, 0, "points"))[0]),
        "d": int(np.shape(_arg(a, k, 0, "points"))[1]),
        "k": int(_arg(a, k, 1, "k")),
        "iters": int(r.iterations), "converged": bool(r.converged)},
    "labeling.select_exemplars_herding": lambda a, k, r: {
        "dist_evals": _herding_dist_evals(_arg(a, k, 1, "assignments"),
                                          int(_arg(a, k, 3, "q")))},
    "metrics.hungarian": lambda a, k, r: {
        "k": int(np.shape(_arg(a, k, 0, "cost"))[0])},
    "data.save_dataset": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "data.load_dataset": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "data.write_checkpoint": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "data.read_checkpoint": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, kwargs, out)
            return out
        return traced

    def install(self, package: str = "pseudocl") -> None:
        modules = [importlib.import_module(package)]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            modules.append(mod)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        dataset_cls = importlib.import_module(f"{package}.data").Dataset
        original = dataset_cls.positions
        self._bindings.append((dataset_cls, "positions", original))
        dataset_cls.positions = self._wrap("data.positions", original)

    def uninstall(self) -> None:
        """Restore every original binding and check that it is back."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        for owner, attr, original in self._bindings:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"binding {attr} was not restored")
        self._bindings.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed attrs, max k/n/d."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
            for key, value in (attrs or {}).items():
                if key in ("k", "n", "d"):
                    agg[f"max_{key}"] = max(agg.get(f"max_{key}", 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _get(summary, span, field):
    return summary.get(span, {}).get(field, 0)


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from a span summary.

    Every ``.s`` metric is self time; a layer that did not run reads 0.
    """
    m: dict[str, float] = {}
    for metric, span in (
            ("nn.backward", "nn.backward"), ("nn.forward", "nn.forward"),
            ("nn.sgd_step", "nn.sgd_step"),
            ("nn.extract_features", "nn.extract_features"),
            ("protocol.continual_step", "protocol.continual_step"),
            ("protocol.evaluate", "protocol.evaluate"),
            ("clustering.kmeans", "clustering.kmeans"),
            ("labeling.herding", "labeling.select_exemplars_herding"),
            ("labeling.random", "labeling.select_exemplars_random"),
            ("labeling.merge_replay", "labeling.merge_replay"),
            ("metrics.hungarian", "metrics.hungarian"),
            ("metrics.nmi", "metrics.nmi"), ("metrics.ari", "metrics.ari"),
            ("data.save_dataset", "data.save_dataset"),
            ("data.load_dataset", "data.load_dataset"),
            ("data.write_checkpoint", "data.write_checkpoint"),
            ("data.read_checkpoint", "data.read_checkpoint"),
            ("data.positions", "data.positions"),
            ("cli.gen-data", "cli.cmd_gen_data"), ("cli.run", "cli.cmd_run"),
            ("cli.eval", "cli.cmd_eval")):
        m[f"{metric}.s"] = _get(summary, span, "self_s")
    m["protocol.self_s"] = sum(v["self_s"] for k, v in summary.items()
                               if k.startswith("protocol."))
    m["nn.backward.calls"] = _get(summary, "nn.backward", "calls")
    m["nn.backward.rows"] = _get(summary, "nn.backward", "rows")
    m["nn.forward.rows"] = _get(summary, "nn.forward", "rows")
    calls = _get(summary, "clustering.kmeans", "calls")
    m["clustering.kmeans.calls"] = calls
    m["clustering.kmeans.iters"] = _get(summary, "clustering.kmeans", "iters")
    m["clustering.kmeans.converged_frac"] = (
        _get(summary, "clustering.kmeans", "converged") / calls if calls else 0.0)
    m["labeling.herding.dist_evals"] = _get(
        summary, "labeling.select_exemplars_herding", "dist_evals")
    m["metrics.hungarian.calls"] = _get(summary, "metrics.hungarian", "calls")
    m["metrics.hungarian.max_k"] = _get(summary, "metrics.hungarian", "max_k")
    for metric in ("save_dataset", "load_dataset", "write_checkpoint"):
        m[f"data.{metric}.bytes"] = _get(summary, f"data.{metric}", "bytes")
    return m
