"""Run configuration and the flat ``key = value`` config file format."""

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
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind == "float" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if name in _LOWEST and value < _LOWEST[name]:
                raise ValueError(
                    f"{name} must be >= {_LOWEST[name]}, got {value!r}")
            if name in _POSITIVE and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.exemplar_policy not in EXEMPLAR_POLICIES:
            raise ValueError(f"unknown exemplar policy {self.exemplar_policy!r}")
        if self.upl_k > 0 and self.variant != "ours":
            raise ValueError(f"upl_k needs variant 'ours', not {self.variant!r}")
        # a refresh fires at epochs K, 2K, ... below epochs, and an online
        # step trains one epoch
        if self.upl_k > 0 and (self.mode != "offline"
                               or self.upl_k >= self.epochs):
            raise ValueError(f"upl_k = {self.upl_k} never refreshes: it needs "
                             f"offline mode and upl_k < epochs, got mode "
                             f"{self.mode!r} and epochs {self.epochs}")


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

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# least allowed value of each bounded numeric field, and the fields that
# must be above zero
_LOWEST = {"upl_k": 0, "q": 1, "step_size": 1, "epochs": 1, "batch_size": 1,
           "lr_decay_period": 1, "weight_decay": 0, "hidden_width": 1,
           "n_hidden": 0, "pca_dim": 1, "n_restarts": 1, "arrangement_seed": 0,
           "model_seed": 0}
_POSITIVE = ("lr", "lr_decay", "temperature")


def coerce_field(field: str, raw: str):
    """Convert a raw string to the type of RunConfig field ``field``."""
    if field not in _FIELD_TYPES:
        raise ValueError(f"unknown config field {field!r}")
    kind = _FIELD_TYPES[field]
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
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{field} must be finite, got {raw.strip()!r}")
        return value
    return raw.strip()


def parse_variant(text: str) -> tuple[str, int]:
    """'upl-10' -> ('ours', 10); plain variants pass through with upl_k 0."""
    text = text.strip().lower()
    if text.startswith("upl"):
        tail = text[3:].lstrip("-")
        k = int(tail) if tail else 0
        if k < 0:
            raise ValueError("UPL period must be >= 0")
        return "ours", k
    return text, 0


def read_key_values(path: str, fields: dict[str, str], coerce) -> dict:
    """Read a flat ``key = value`` file; ``#`` starts a comment.

    ``fields`` maps each accepted key to the field it sets, and
    ``coerce(field, raw)`` converts the value. Errors name ``path:lineno``
    and the key.
    """
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[fields[key]] = coerce(fields[key], raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
    return values


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read a run config; only the dotted keys of CONFIG_KEYS are accepted."""
    values = read_key_values(path, CONFIG_KEYS, coerce_field)
    if "variant" in values:
        variant, upl_k = parse_variant(values["variant"])
        values["variant"] = variant
        if upl_k:
            values["upl_k"] = upl_k
    if overrides:
        values.update(overrides)
    return RunConfig(**values)


def dump_config(cfg: RunConfig, path: str) -> None:
    """Write the fully resolved configuration, one dotted key per line."""
    _write_atomic(path, (f"{key} = {getattr(cfg, CONFIG_KEYS[key])}\n"
                         for key in sorted(CONFIG_KEYS)))
