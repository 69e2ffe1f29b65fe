"""Run configuration, the blob spec of a synthetic stream, and the flat
``key = value`` file format both are read from."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .data import _write_atomic

VARIANTS = ("ours", "ffe", "scratch", "pca")
MODES = ("offline", "online")
EXEMPLAR_POLICIES = ("herding", "random", "none")


@dataclass
class RunConfig:
    mode: str = "offline"
    variant: str = "ours"
    upl_k: int = 0                 # 0 = fixed pseudo labels; K = refresh period
    exemplar_policy: str = "herding"
    q: int = 20
    step_size: int = 5
    bias_correction: bool = True
    oracle_labels: bool = False    # supervised engine: true labels every step
    epochs: int = 30
    lr: float = 0.1
    lr_decay: float = 0.1
    lr_decay_period: int = 10
    batch_size: int = 32
    weight_decay: float = 1e-5
    temperature: float = 2.0
    hidden_width: int = 64
    n_hidden: int = 2
    pca_dim: int = 12
    n_restarts: int = 1
    normalize_features: bool = False
    arrangement_seed: int = 1993
    model_seed: int = 0
    shuffle_seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _check_bounds(RunConfig, vars(self))
        if self.upl_k > 0 and self.variant != "ours":
            raise ValueError(f"upl_k needs variant 'ours', not {self.variant!r}")
        # a refresh fires at epochs K, 2K, ... below epochs, and an online
        # step trains one epoch
        if self.upl_k > 0 and (self.mode != "offline"
                               or self.upl_k >= self.epochs):
            raise ValueError(f"upl_k = {self.upl_k} never refreshes: it needs "
                             f"offline mode and upl_k < epochs, got mode "
                             f"{self.mode!r} and epochs {self.epochs}")


@dataclass
class BlobSpec:
    num_classes: int
    dim: int
    samples_per_class: int
    separation: float
    std: float
    seed: int
    # optional structured-noise extension: class centers occupy only the
    # first signal_dims coordinates; remaining dims carry noise_std noise
    signal_dims: int | None = None
    noise_std: float | None = None

    def __post_init__(self):
        _check_bounds(BlobSpec, vars(self))
        if self.noise_std is not None and self.signal_dims is None:
            # without signal_dims every dim carries signal, so no dim
            # would carry noise_std noise
            raise ValueError("noise_std must come with signal_dims")
        if self.signal_dims is not None and self.signal_dims > self.dim:
            raise ValueError(f"signal_dims must be <= dim, got "
                             f"{self.signal_dims} > {self.dim}")


# dotted config key -> RunConfig field
CONFIG_KEYS = {
    "run.mode": "mode",
    "run.variant": "variant",
    "run.upl_k": "upl_k",
    "run.exemplar_policy": "exemplar_policy",
    "run.q": "q",
    "run.step_size": "step_size",
    "run.bias_correction": "bias_correction",
    "run.oracle_labels": "oracle_labels",
    "train.epochs": "epochs",
    "train.lr": "lr",
    "train.lr_decay": "lr_decay",
    "train.lr_decay_period": "lr_decay_period",
    "train.batch_size": "batch_size",
    "train.weight_decay": "weight_decay",
    "train.temperature": "temperature",
    "model.hidden_width": "hidden_width",
    "model.n_hidden": "n_hidden",
    "cluster.pca_dim": "pca_dim",
    "cluster.n_restarts": "n_restarts",
    "cluster.normalize_features": "normalize_features",
    "seeds.arrangement": "arrangement_seed",
    "seeds.model": "model_seed",
    "seeds.shuffle": "shuffle_seed",
}

# per settings class: the least allowed value of each bounded numeric
# field, and the fields that must be above zero
_LOWEST = {
    RunConfig: {"upl_k": 0, "q": 1, "step_size": 1, "epochs": 1,
                "batch_size": 1, "lr_decay_period": 1, "weight_decay": 0,
                "hidden_width": 1, "n_hidden": 0, "pca_dim": 1,
                "n_restarts": 1, "arrangement_seed": 0, "model_seed": 0},
    # the stratified split needs two samples for one training sample
    BlobSpec: {"num_classes": 1, "dim": 1, "samples_per_class": 2,
               "seed": 0, "signal_dims": 1, "noise_std": 0},
}
_POSITIVE = {RunConfig: ("lr", "lr_decay", "temperature"),
             BlobSpec: ("separation", "std")}
# per settings class: the allowed values of each text field
_CHOICES = {RunConfig: {"mode": MODES, "variant": VARIANTS,
                        "exemplar_policy": EXEMPLAR_POLICIES},
            BlobSpec: {}}


def _check_bounds(cls, values: dict) -> None:
    """Reject a non-finite float, out-of-bounds number or unknown choice
    among ``values`` (field -> value) of settings class ``cls``; None
    (unset) passes."""
    for name, value in values.items():
        if value is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        lowest = _LOWEST[cls].get(name)
        if lowest is not None and value < lowest:
            raise ValueError(f"{name} must be >= {lowest}, got {value!r}")
        if name in _POSITIVE[cls] and value <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    for name, known in _CHOICES[cls].items():
        if name in values and values[name] not in known:
            raise ValueError(f"unknown {name.replace('_', ' ')} "
                             f"{values[name]!r}")


def coerce_field(cls, field: str, raw: str):
    """Convert a raw string to the type of field ``field`` of dataclass
    ``cls``; an optional ``int | None`` field reads as ``int``."""
    kinds = {f.name: f.type.split(" |")[0] for f in dataclasses.fields(cls)}
    if field not in kinds:
        raise ValueError(f"unknown config field {field!r}")
    kind = kinds[field]
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "on", "yes", "1"):
            return True
        if low in ("false", "off", "no", "0"):
            return False
        raise ValueError(f"bad boolean {raw!r} for {field}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw.strip()


def parse_variant(text: str) -> tuple[str, int]:
    """'upl-10' -> ('ours', 10); plain variants pass through with upl_k 0."""
    text = text.strip().lower()
    if text.startswith("upl"):
        tail = text[3:].lstrip("-")
        return "ours", int(tail) if tail else 0
    return text, 0


def read_key_values(path: str, cls, keys: dict[str, str]) -> dict:
    """Read a flat ``key = value`` file of ``cls`` settings, ``#`` starting
    a comment. ``keys`` maps each accepted key to the field it sets; each
    value is coerced and bounds-checked, and errors name ``path:lineno``
    and the key."""
    values: dict = {}
    # a byte that is not UTF-8 reads as U+FFFD, which no key or value holds
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                value = coerce_field(cls, keys[key], raw)
                checked = {keys[key]: value}
                if keys[key] == "variant":  # 'upl-K' is variant 'ours'
                    checked["variant"], checked["upl_k"] = parse_variant(value)
                _check_bounds(cls, checked)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
            values[keys[key]] = value
    return values


def load_spec(path: str) -> BlobSpec:
    """Read a blob spec; its keys are the bare BlobSpec fields, and every
    error names ``path``."""
    fields = dataclasses.fields(BlobSpec)
    values = read_key_values(path, BlobSpec, {f.name: f.name for f in fields})
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in values:
            raise ValueError(f"{path}: missing key {f.name!r}")
    try:
        return BlobSpec(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read a run config; only the dotted keys of CONFIG_KEYS are accepted."""
    values = read_key_values(path, RunConfig, CONFIG_KEYS)
    if "variant" in values:
        values["variant"], upl_k = parse_variant(values["variant"])
        if upl_k:
            values["upl_k"] = upl_k
    if overrides:
        values.update(overrides)
    return RunConfig(**values)


def dump_config(cfg: RunConfig, path: str) -> None:
    """Write the fully resolved configuration, one dotted key per line."""
    _write_atomic(path, (f"{key} = {getattr(cfg, CONFIG_KEYS[key])}\n"
                         for key in sorted(CONFIG_KEYS)))
