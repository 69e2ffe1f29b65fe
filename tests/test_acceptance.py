"""End-to-end acceptance checks: metric/gradient/clustering oracles plus
qualitative trends on the standard synthetic stream.

Each test prints one PASS/FAIL line (visible with -s or on failure).
"""

import itertools
import os

import numpy as np
import pytest

from pseudocl import clustering, labeling, metrics, nn, protocol
from pseudocl.config import BlobSpec, RunConfig
from pseudocl.data import generate_gaussian_stream

# the standard 20-class stream used by all end-to-end criteria
STREAM_SPEC = BlobSpec(num_classes=20, dim=16, samples_per_class=150,
                       separation=1.0, std=0.15, seed=7,
                       signal_dims=10, noise_std=2.0)
SEEDS = (0, 1, 2, 3, 4)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="session")
def stream():
    return generate_gaussian_stream(STREAM_SPEC)


@pytest.fixture(scope="session")
def mean_avg_acc(stream):
    """Memoized mean Avg-ACC over the 5 standard seeds for a config tweak."""
    cache: dict[tuple, float] = {}

    def compute(**overrides) -> float:
        key = tuple(sorted(overrides.items()))
        if key not in cache:
            accs = []
            for s in SEEDS:
                cfg = RunConfig(step_size=5, epochs=30, model_seed=s,
                                shuffle_seed=s, **overrides)
                result = protocol.run_experiment(cfg, stream)
                accs.append(protocol.summarize(result.reports, cfg)["avg_acc"])
            cache[key] = float(np.mean(accs))
        return cache[key]

    return compute


def test_criterion_01_metric_oracles():
    """cluster_accuracy and hungarian agree with brute-force search."""
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        pred = rng.integers(0, 4, n)
        truth = rng.integers(0, 4, n)
        got = metrics.cluster_accuracy(pred, truth)
        expected = _brute_accuracy(pred, truth)
        worst = max(worst, abs(got - expected))
    cost_worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        cost = rng.uniform(-5, 5, (n, n))
        assignment = metrics.hungarian(cost)
        got = float(sum(cost[np.arange(n), assignment]))
        expected = min(sum(cost[i, p[i]] for i in range(n))
                       for p in itertools.permutations(range(n)))
        cost_worst = max(cost_worst, abs(got - expected))
    ok = worst == 0.0 and cost_worst < 1e-9
    _verdict(1, "metric oracle equivalence", ok,
             f"acc dev {worst}, cost dev {cost_worst:.2e}")


def _brute_accuracy(pred, truth):
    clusters = np.unique(pred)
    classes = np.unique(truth)
    size = max(len(clusters), len(classes))
    best = 0
    for perm in itertools.permutations(range(size), len(clusters)):
        correct = sum(
            int(np.sum((pred == c) & (truth == classes[slot])))
            for c, slot in zip(clusters, perm) if slot < len(classes))
        best = max(best, correct)
    return best / len(pred)


def test_criterion_02_metric_fixed_points():
    rng = np.random.default_rng(200)
    a = rng.integers(0, 4, 40)
    relabel = np.array([9, 2, 7, 5])[a]
    devs = [abs(metrics.cluster_accuracy(relabel, a) - 1.0),
            abs(metrics.nmi(relabel, a) - 1.0),
            abs(metrics.ari(relabel, a) - 1.0),
            abs(metrics.nmi([0, 0, 1, 1], [0, 1, 0, 1]) - 0.0),
            abs(metrics.ari([0, 0, 1, 1], [0, 1, 0, 1]) - (-0.5))]
    ok = max(devs) < 1e-12
    _verdict(2, "metric fixed points", ok, f"max deviation {max(devs):.2e}")


def test_criterion_03_gradient_correctness():
    """Analytic loss gradients vs central finite differences, 50 trials."""
    combos = [(a, t) for a in (0.0, 0.5, 5 / 6, 1.0) for t in (1.0, 2.0)]
    rng = np.random.default_rng(300)
    worst = 0.0
    for trial in range(50):
        alpha, temp = combos[trial % len(combos)]
        model = nn.init_model(4, 8, 1, 6, seed=300 + trial)
        assert model.params.size <= 500
        x = rng.standard_normal((3, 4))
        teacher = nn.softened_probs(rng.standard_normal((3, 4)), temp)
        y = rng.integers(0, 6, 3)
        worst = max(worst, _max_grad_error(model, x, teacher, y, alpha, temp,
                                           4))
    ok = worst < 1e-4
    _verdict(3, "gradient correctness", ok, f"max relative error {worst:.2e}")


def _max_grad_error(model, x, teacher, y, alpha, temperature, m, step=1e-6):
    _, grads = nn.backward(model, x, teacher, y, alpha, temperature, m)
    worst = 0.0
    p = model.params
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + step
        lp, _ = nn.backward(model, x, teacher, y, alpha, temperature, m)
        p[i] = orig - step
        lm, _ = nn.backward(model, x, teacher, y, alpha, temperature, m)
        p[i] = orig
        fd = (lp - lm) / (2 * step)
        worst = max(worst, abs(fd - grads[i]) / max(abs(fd), 1e-6))
    return worst


def test_criterion_04_clustering_invariants():
    rng = np.random.default_rng(400)
    max_increase = -np.inf
    max_centroid_dev = 0.0
    for i in range(100):
        centers = rng.uniform(-4, 4, (3, 3))
        x = np.vstack([c + 0.5 * rng.standard_normal((12, 3)) for c in centers])
        res = clustering.kmeans(x, 3, seed=i, tol=1e-10)
        trace = np.array(res.objective_trace)
        if len(trace) > 1:
            max_increase = max(max_increase, float(np.max(np.diff(trace))))
        if res.converged:
            for j in range(3):
                members = x[res.assignments == j]
                if len(members):
                    dev = np.max(np.abs(res.centroids[j] - members.mean(axis=0)))
                    max_centroid_dev = max(max_centroid_dev, dev)
    ok = max_increase <= 1e-10 and max_centroid_dev < 1e-7
    _verdict(4, "clustering invariants", ok,
             f"objective increase {max_increase:.2e}, centroid dev "
             f"{max_centroid_dev:.2e}")


def test_criterion_05_herding_oracle():
    rng = np.random.default_rng(500)
    mismatches = 0
    nearest_fail = 0
    for _ in range(100):
        size = int(rng.integers(2, 9))
        q = int(rng.integers(1, 4))
        feats = rng.standard_normal((size, 3))
        rows = labeling.select_exemplars_herding(
            feats, np.zeros(size, dtype=int), q)
        if rows.tolist() != _herd_brute(feats, q):
            mismatches += 1
        first = labeling.select_exemplars_herding(
            feats, np.zeros(size, dtype=int), 1)
        mu = feats.mean(axis=0)
        if first[0] != int(np.argmin(np.linalg.norm(feats - mu, axis=1))):
            nearest_fail += 1
    ok = mismatches == 0 and nearest_fail == 0
    _verdict(5, "herding oracle", ok,
             f"{mismatches} sequence mismatches, {nearest_fail} q=1 misses")


def _herd_brute(feats, q):
    mu = feats.mean(axis=0)
    picked = []
    for _ in range(min(q, len(feats))):
        best, best_d = None, np.inf
        for i in range(len(feats)):
            if i in picked:
                continue
            d = np.linalg.norm(mu - feats[picked + [i]].mean(axis=0))
            if d < best_d:
                best_d, best = d, i
        picked.append(best)
    return picked


def test_criterion_06_variant_ordering(mean_avg_acc):
    scratch = mean_avg_acc(variant="scratch")
    pca = mean_avg_acc(variant="pca")
    ffe = mean_avg_acc(variant="ffe")
    ours = mean_avg_acc()
    ok = scratch < pca < ffe < ours and ours - scratch >= 0.15
    _verdict(6, "variant ordering", ok,
             f"scratch {scratch:.4f} < pca {pca:.4f} < ffe {ffe:.4f} < "
             f"ours {ours:.4f}, gap {ours - scratch:.4f}")


def test_criterion_07_upl_degradation(mean_avg_acc):
    upl2 = mean_avg_acc(upl_k=2)
    upl10 = mean_avg_acc(upl_k=10)
    ours = mean_avg_acc()
    ok = upl2 <= upl10 + 0.01 and upl10 <= ours + 0.01
    _verdict(7, "frequent pseudo-label refresh degrades", ok,
             f"upl-2 {upl2:.4f} <= upl-10 {upl10:.4f} <= ours {ours:.4f}")


def test_criterion_08_exemplar_count(mean_avg_acc):
    accs = {q: mean_avg_acc(q=q) if q != 20 else mean_avg_acc()
            for q in (2, 5, 10, 20)}
    monotone = all(accs[a] <= accs[b] + 0.01
                   for a, b in ((2, 5), (5, 10), (10, 20)))
    herd = mean_avg_acc(q=2)
    rand = mean_avg_acc(q=2, exemplar_policy="random")
    herding_ok = herd >= rand - 0.01
    ok = monotone and herding_ok
    _verdict(8, "more exemplars help; herding >= random", ok,
             "q trend " + " <= ".join(f"{accs[q]:.4f}" for q in (2, 5, 10, 20))
             + f"; herding {herd:.4f} vs random {rand:.4f} at q=2")


def test_criterion_09_supervised_gap(mean_avg_acc):
    oracle = mean_avg_acc(oracle_labels=True)
    ours = mean_avg_acc()
    gap = oracle - ours
    ok = 0.0 <= gap <= 0.30
    _verdict(9, "supervised-vs-pseudo gap", ok,
             f"oracle {oracle:.4f} - pseudo {ours:.4f} = {gap:.4f}")


def test_criterion_10_determinism(stream, tmp_path):
    cfg_kw = dict(step_size=5, epochs=30, model_seed=0, shuffle_seed=0)
    dirs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        protocol.run_experiment(RunConfig(**cfg_kw), stream, out_dir=out)
        dirs.append(out)

    def blob(run_dir, fname):
        with open(os.path.join(run_dir, fname), "rb") as fh:
            return fh.read()

    report_same = blob(dirs[0], "report.csv") == blob(dirs[1], "report.csv")
    ckpt_same = blob(dirs[0], "step_4.ckpt") == blob(dirs[1], "step_4.ckpt")
    ok = report_same and ckpt_same
    _verdict(10, "byte-identical reruns", ok,
             f"report identical: {report_same}, checkpoint identical: "
             f"{ckpt_same}")
