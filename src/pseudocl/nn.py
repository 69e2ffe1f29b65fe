"""Minimal dense network with explicit forward/backward passes.

The network is a stack of ReLU hidden layers followed by a linear
classification head. The head grows as new classes arrive; everything
before the head doubles as the feature extractor.
"""

from __future__ import annotations

import numpy as np

# the most rows per block of the passes over rows outside training: the
# model's feature and evaluation passes (see _model_blocks), herding's keys
# and _unit_rows. A constant, since `pseudocl eval` has no run config and
# must print the run's own report row
_ROW_BLOCK = 512

# OpenBLAS splits a matrix product across threads only above 4 x 65,536
# multiply-adds; at or below it the product runs on the calling thread
_BLAS_SPLIT = 1 << 18


def _row_blocks(n: int, size: int) -> list[slice]:
    """Rows 0..n-1 in order, as slices of at most ``size`` rows, at least
    one each, and none for n = 0. With ``size`` at least 3, a 1-row tail
    takes a row from the block before it: BLAS computes a single row with
    its matrix-vector kernel, which can round differently from the same row
    in a block of two or more."""
    stops = [*range(size, n, size), n] if n else []
    if size >= 3 and len(stops) > 1 and stops[-1] - stops[-2] == 1:
        stops[-2] -= 1
    return list(map(slice, [0, *stops], stops))


def _model_blocks(model: Model, n: int) -> list[slice]:
    """``_row_blocks`` of n rows for a pass through ``model``: at most
    _ROW_BLOCK rows, at least 3, and few enough that no hidden layer's
    product exceeds _BLAS_SPLIT multiply-adds (64 rows at width 64). The
    head is not counted: feature passes never reach it."""
    widest = max((w.size for w, _ in model.layers[:-1]), default=1)
    return _row_blocks(n, max(3, min(_ROW_BLOCK, _BLAS_SPLIT // widest)))


def _layer_views(dims: list[int],
                 vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(w, b) views into a vector laid out as Model.params."""
    views, start = [], 0
    for d_in, d_out in zip(dims, dims[1:]):
        w = vec[start:start + d_in * d_out].reshape(d_in, d_out)
        start += d_in * d_out
        views.append((w, vec[start:start + d_out]))
        start += d_out
    return views


class Model:
    """An MLP whose weights and biases are one contiguous float64 vector.

    ``dims`` lists the layer widths, input first and head output last.
    ``params`` holds, layer by layer with the head last, the row-major
    (in_dim, out_dim) weight and then the bias; it is used as given, not
    copied. ``layers`` holds (w, b) views into it, so an in-place update of
    ``params`` reaches every layer.
    """

    def __init__(self, dims: list[int], params: np.ndarray | None = None,
                 seeds: list[int] | None = None):
        self.dims = [int(d) for d in dims]
        if len(self.dims) < 2 or min(self.dims) < 1:
            raise ValueError(f"bad layer widths {self.dims}")
        size = sum(i * o + o for i, o in zip(self.dims, self.dims[1:]))
        self.params = np.zeros(size) if params is None else params
        if self.params.dtype != np.float64 or self.params.shape != (size,) \
                or not self.params.flags.c_contiguous:
            raise ValueError(f"params must be a contiguous float64 vector "
                             f"of {size} values")
        self.layers = _layer_views(self.dims, self.params)
        self.seeds = list(seeds or [])

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def out_dim(self) -> int:
        return self.dims[-1]

    @property
    def feature_dim(self) -> int:
        return self.dims[-2]


def init_model(in_dim: int, hidden_width: int, n_hidden: int, out_dim: int,
               seed: int) -> Model:
    """Create a seeded MLP: in_dim -> hidden_width x n_hidden -> out_dim."""
    rng = np.random.default_rng(seed)
    model = Model([in_dim] + [hidden_width] * n_hidden + [out_dim],
                  seeds=[seed])
    for w, b in model.layers:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return model


def _hidden(model: Model, a: np.ndarray):
    """Yield each hidden layer's activations of rows ``a``, in order."""
    for w, b in model.layers[:-1]:
        a = a @ w
        a += b
        yield np.maximum(a, 0.0, out=a)


def extract_features(model: Model, x: np.ndarray) -> np.ndarray:
    """Activations feeding the head for rows ``x``; the model minus its
    final layer."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != model.in_dim:
        raise ValueError(f"input shape {a.shape} does not match rows of "
                         f"model dim {model.in_dim}")
    for a in _hidden(model, a):  # holds one layer's activations at a time
        pass
    return a


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    w, b = model.layers[-1]
    logits = extract_features(model, x) @ w
    logits += b
    return logits


def softened_probs(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-softened softmax, numerically stabilised."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    p = np.asarray(logits, dtype=float) / temperature
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _forward_cached(model: Model, x: np.ndarray):
    acts = [x, *_hidden(model, x)]  # acts[i] feeds layer i
    w, b = model.layers[-1]
    logits = acts[-1] @ w
    logits += b
    return acts, logits


def backward(model: Model, x: np.ndarray, teacher_probs: np.ndarray | None,
             labels: np.ndarray, alpha: float, temperature: float,
             m: int) -> tuple[float, np.ndarray]:
    """Mean cross-distillation loss over the rows ``x`` and its gradient.

    L_CD = alpha * L_D + (1 - alpha) * L_C per row, where L_C is the
    cross-entropy of ``labels`` over all logits and L_D the cross-entropy of
    the teacher's probabilities over the student's temperature-softened first
    ``m`` logits. ``teacher_probs`` has shape (len(x), m): row i is
    ``softened_probs`` of the teacher's first m logits for row i of x at
    ``temperature``, so a frozen teacher's rows can be computed once and
    sliced per batch. The gradient vector has the layout of ``model.params``.
    With alpha == 0 the distillation term vanishes and teacher_probs may be
    None.

    Nothing is checked: the caller, ``protocol._train``, gives a non-empty
    float64 batch and one label in 0..out_dim-1 per row.
    """
    batch = x.shape[0]
    acts, logits = _forward_cached(model, x)

    # cross-entropy term over all logits at T=1; d_logits starts as its
    # gradient, softmax minus one-hot, scaled to the batch mean
    z = logits - logits.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(batch)
    l_c = -z[rows, labels]
    d_logits = np.exp(z)
    d_logits[rows, labels] -= 1.0
    d_logits *= 1.0 - alpha
    d_logits /= batch

    l_d = 0.0
    if alpha > 0.0:
        p = softened_probs(logits[:, :m], temperature)
        l_d = -(teacher_probs * np.log(p)).sum(axis=1)
        p -= teacher_probs
        p *= alpha
        p /= temperature * batch
        d_logits[:, :m] += p

    loss = float((alpha * l_d + (1.0 - alpha) * l_c).sum() / batch)

    # backprop from the head down; delta is d loss / d pre-activation
    grads = np.empty_like(model.params)
    delta = d_logits
    for i, (g_w, g_b) in reversed(list(enumerate(
            _layer_views(model.dims, grads)))):
        np.add.reduce(delta, axis=0, out=g_b)
        np.matmul(acts[i].T, delta, out=g_w)
        if i:
            delta = delta @ model.layers[i][0].T
            delta *= acts[i] > 0
    return loss, grads


def sgd_step(model: Model, grads: np.ndarray, lr: float,
             weight_decay: float = 0.0) -> None:
    """In place: params <- params - lr * (grads + weight_decay * params).
    ``grads``, shaped as ``model.params``, is used as scratch and left
    holding the step taken."""
    grads += weight_decay * model.params
    grads *= lr
    model.params -= grads


def expand_head(model: Model, n_new: int, seed: int) -> Model:
    """Grow the head by n_new classes; old logits are preserved exactly."""
    if n_new < 1:
        raise ValueError("n_new must be >= 1")
    rng = np.random.default_rng(seed)
    fan_in = model.feature_dim
    bound = 1.0 / np.sqrt(fan_in)
    new_w = rng.uniform(-bound, bound, size=(fan_in, n_new))
    new_b = rng.uniform(-bound, bound, size=n_new)
    out = Model(model.dims[:-1] + [model.out_dim + n_new],
                seeds=model.seeds + [seed])
    hidden = model.params.size - (fan_in + 1) * model.out_dim
    out.params[:hidden] = model.params[:hidden]
    (w, b), (old_w, old_b) = out.layers[-1], model.layers[-1]
    w[...] = np.hstack([old_w, new_w])
    b[...] = np.concatenate([old_b, new_b])
    return out


def weight_align(model: Model, m: int, n: int) -> None:
    """In place: scale the new-class head weights so the mean norms of the
    old and the new classes' weight columns match."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if model.out_dim != m + n:
        raise ValueError("head size does not equal m + n")
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(model.layers[-1][0], axis=0)
        mean_old, mean_new = np.mean(norms[:m]), np.mean(norms[m:])
        gamma = mean_old / mean_new
    if mean_new == 0.0:
        raise ValueError("all-zero new-class weights; cannot align")
    if not np.isfinite([mean_old, mean_new, gamma]).all():
        raise ValueError("head weight norms overflow; cannot align")
    model.layers[-1][0][:, m:] *= gamma
