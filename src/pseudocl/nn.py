"""Minimal dense network with explicit forward/backward passes.

The network is a stack of ReLU hidden layers followed by a linear
classification head. The head grows as new classes arrive; everything
before the head doubles as the feature extractor.
"""

from __future__ import annotations

import numpy as np


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

    def copy(self) -> "Model":
        return Model(self.dims, self.params.copy(), self.seeds)


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


def extract_features(model: Model, x: np.ndarray) -> np.ndarray:
    """Activations feeding the head for rows ``x``; the model minus its
    final layer."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != model.in_dim:
        raise ValueError(f"input shape {a.shape} does not match rows of "
                         f"model dim {model.in_dim}")
    for w, b in model.layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
    return a


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    w, b = model.layers[-1]
    return extract_features(model, x) @ w + b


def softened_probs(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-softened softmax, numerically stabilised."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = np.asarray(logits, dtype=float) / temperature
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _forward_cached(model: Model, x: np.ndarray):
    acts = [x]  # pre-head activations, acts[i] feeds layer i
    for w, b in model.layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    w, b = model.layers[-1]
    return acts, acts[-1] @ w + b


def backward(model: Model, x: np.ndarray, teacher_logits: np.ndarray | None,
             labels: np.ndarray, alpha: float, temperature: float,
             m: int) -> tuple[float, np.ndarray]:
    """Mean cross-distillation loss over the rows ``x`` and its gradient.

    L_CD = alpha * L_D + (1 - alpha) * L_C per row, where L_C is the
    cross-entropy of ``labels`` over all logits and L_D the cross-entropy of
    the temperature-softened teacher over the student's first ``m`` logits.
    The gradient vector has the layout of ``model.params``. With alpha == 0
    the distillation term vanishes and teacher_logits may be None.
    """
    x = np.asarray(x, dtype=float)
    batch = x.shape[0]
    if batch == 0:
        raise ValueError("empty batch")
    y = np.asarray(labels, dtype=int)
    if y.shape != (batch,):
        raise ValueError("label count does not match batch")
    out_dim = model.out_dim
    if np.any(y < 0) or np.any(y >= out_dim):
        raise ValueError("label out of range")

    acts, logits = _forward_cached(model, x)

    # cross-entropy term over all logits at T=1
    z = logits - np.max(logits, axis=1, keepdims=True)
    log_probs = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    probs = np.exp(log_probs)
    l_c = -log_probs[np.arange(batch), y]
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(batch), y] = 1.0
    d_logits = (1.0 - alpha) * (probs - one_hot) / batch

    l_d = np.zeros(batch)
    if alpha > 0.0:
        if teacher_logits is None:
            raise ValueError("teacher logits required when alpha > 0")
        t = np.asarray(teacher_logits, dtype=float)
        if t.ndim != 2 or t.shape[0] != batch \
                or not 1 <= m <= min(t.shape[1], out_dim):
            raise ValueError(f"teacher logits of shape {t.shape} do not give "
                             f"{m} old-class logits for {batch} rows")
        p = softened_probs(logits[:, :m], temperature)
        p_hat = softened_probs(t[:, :m], temperature)
        l_d = -np.sum(p_hat * np.log(p), axis=1)
        d_logits[:, :m] += alpha * (p - p_hat) / (temperature * batch)

    loss = float(np.mean(alpha * l_d + (1.0 - alpha) * l_c))

    # backprop from the head down; delta is d loss / d pre-activation
    grads = np.empty_like(model.params)
    grad_layers = _layer_views(model.dims, grads)
    delta = d_logits
    for i in range(len(model.layers) - 1, -1, -1):
        g_w, g_b = grad_layers[i]
        g_w[...] = acts[i].T @ delta
        g_b[...] = delta.sum(axis=0)
        if i:
            delta = (delta @ model.layers[i][0].T) * (acts[i] > 0)
    return loss, grads


def sgd_step(model: Model, grads: np.ndarray, lr: float,
             weight_decay: float = 0.0) -> None:
    """In place: params <- params - lr * (grads + weight_decay * params)."""
    if grads.shape != model.params.shape:
        raise ValueError("gradient shape does not match model parameters")
    model.params -= lr * (grads + weight_decay * model.params)


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


def weight_align(model: Model, m: int, n: int) -> Model:
    """Scale new-class head weights so mean norms of old and new rows match."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if model.out_dim != m + n:
        raise ValueError("head size does not equal m + n")
    norms = np.linalg.norm(model.layers[-1][0], axis=0)
    mean_new = float(np.mean(norms[m:]))
    if mean_new == 0.0:
        raise ValueError("all-zero new-class weights; cannot align")
    gamma = float(np.mean(norms[:m])) / mean_new
    out = model.copy()
    out.layers[-1][0][:, m:] *= gamma
    return out
