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


def setting(default=dataclasses.MISSING, *, key: str | None = None,
            lowest=None, positive: bool = False, choices=None):
    """A settings field with its whole definition: its dotted config
    ``key`` (None: read under the bare field name), its least value,
    whether it must be above 0, and its allowed ``choices``."""
    return dataclasses.field(default=default, metadata=dict(
        key=key, lowest=lowest, positive=positive, choices=choices))


@dataclass
class RunConfig:
    mode: str = setting("offline", key="run.mode", choices=MODES)
    variant: str = setting("ours", key="run.variant", choices=VARIANTS)
    # 0 = fixed pseudo labels; K = refresh period
    upl_k: int = setting(0, key="run.upl_k", lowest=0)
    exemplar_policy: str = setting("herding", key="run.exemplar_policy",
                                   choices=EXEMPLAR_POLICIES)
    q: int = setting(20, key="run.q", lowest=1)
    step_size: int = setting(5, key="run.step_size", lowest=1)
    bias_correction: bool = setting(True, key="run.bias_correction")
    # supervised engine: true labels every step
    oracle_labels: bool = setting(False, key="run.oracle_labels")
    epochs: int = setting(30, key="train.epochs", lowest=1)
    lr: float = setting(0.1, key="train.lr", positive=True)
    lr_decay: float = setting(0.1, key="train.lr_decay", positive=True)
    lr_decay_period: int = setting(10, key="train.lr_decay_period", lowest=1)
    batch_size: int = setting(32, key="train.batch_size", lowest=1)
    weight_decay: float = setting(1e-5, key="train.weight_decay", lowest=0)
    temperature: float = setting(2.0, key="train.temperature", positive=True)
    hidden_width: int = setting(64, key="model.hidden_width", lowest=1)
    n_hidden: int = setting(2, key="model.n_hidden", lowest=0)
    pca_dim: int = setting(12, key="cluster.pca_dim", lowest=1)
    n_restarts: int = setting(1, key="cluster.n_restarts", lowest=1)
    normalize_features: bool = setting(False,
                                       key="cluster.normalize_features")
    arrangement_seed: int = setting(1993, key="seeds.arrangement", lowest=0)
    model_seed: int = setting(0, key="seeds.model", lowest=0)
    shuffle_seed: int = setting(0, key="seeds.shuffle")

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
    num_classes: int = setting(lowest=1)
    dim: int = setting(lowest=1)
    # the stratified split needs two samples for one training sample
    samples_per_class: int = setting(lowest=2)
    separation: float = setting(positive=True)
    std: float = setting(positive=True)
    seed: int = setting(lowest=0)
    # optional structured-noise extension: class centers occupy only the
    # first signal_dims coordinates; remaining dims carry noise_std noise
    signal_dims: int | None = setting(None, lowest=1)
    noise_std: float | None = setting(None, lowest=0)

    def __post_init__(self):
        _check_bounds(BlobSpec, vars(self))
        if self.noise_std is not None and self.signal_dims is None:
            # without signal_dims every dim carries signal, so no dim
            # would carry noise_std noise
            raise ValueError("noise_std must come with signal_dims")
        if self.signal_dims is not None and self.signal_dims > self.dim:
            raise ValueError(f"signal_dims must be <= dim, got "
                             f"{self.signal_dims} > {self.dim}")


def _keys(cls) -> dict[str, str]:
    """Each key a file of ``cls`` settings may set -> the field it sets."""
    return {f.metadata["key"] or f.name: f.name
            for f in dataclasses.fields(cls)}


# dotted config key -> RunConfig field
CONFIG_KEYS = _keys(RunConfig)


def _check_bounds(cls, values: dict) -> None:
    """Reject a non-finite float, out-of-bounds number or unknown choice
    among ``values`` (field -> value) of settings class ``cls``; None
    (unset) passes. Every number is checked before any choice."""
    rules = {f.name: f.metadata for f in dataclasses.fields(cls)}
    for name, value in values.items():
        if value is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        lowest = rules[name]["lowest"]
        if lowest is not None and value < lowest:
            raise ValueError(f"{name} must be >= {lowest}, got {value!r}")
        if rules[name]["positive"] and value <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    for name, value in values.items():
        known = rules[name]["choices"]
        if known is not None and value not in known:
            raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}")


def _coerce(cls, field: str, raw: str):
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
    """'upl-10' -> ('ours', 10); plain variants pass through with upl_k 0.
    Case is ignored; other text starting 'upl' is an unknown variant."""
    text = text.strip().lower()
    if not text.startswith("upl"):
        return text, 0
    period = text[len("upl-"):]
    if not (text.startswith("upl-") and period.isascii() and period.isdigit()):
        raise ValueError(f"unknown variant {text!r}")
    return "ours", int(period)


def parse_setting(cls, field: str, raw: str) -> dict:
    """The checked values (field -> value) that the text ``raw`` of a
    config line, run flag or sweep axis gives setting ``field`` of ``cls``.
    Variant text names the whole variant: 'upl-K' sets upl_k to K, any
    other variant to 0."""
    values = {field: _coerce(cls, field, raw)}
    if field == "variant":
        values["variant"], values["upl_k"] = parse_variant(values["variant"])
    _check_bounds(cls, values)
    return values


def read_key_values(path: str, cls) -> dict:
    """Read a flat ``key = value`` file of ``cls`` settings, ``#`` starting
    a comment. A field's key is the one it declares, else its bare name;
    each value is read by ``parse_setting``, lines apply in order, and
    errors name ``path:lineno`` and the key."""
    keys = _keys(cls)
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
                parsed = parse_setting(cls, keys[key], raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
            if keys[key] == "variant" and not parsed["upl_k"]:
                # a plain variant leaves upl_k to its own line, which
                # config.txt writes first
                del parsed["upl_k"]
            values.update(parsed)
    return values


def load_spec(path: str) -> BlobSpec:
    """Read a blob spec; its keys are the bare BlobSpec fields, and every
    error names ``path``."""
    values = read_key_values(path, BlobSpec)
    for f in dataclasses.fields(BlobSpec):
        if f.default is dataclasses.MISSING and f.name not in values:
            raise ValueError(f"{path}: missing key {f.name!r}")
    try:
        return BlobSpec(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read a run config; only the dotted keys of CONFIG_KEYS are accepted."""
    return RunConfig(**{**read_key_values(path, RunConfig),
                        **(overrides or {})})


def dump_config(cfg: RunConfig, path: str) -> None:
    """Write the fully resolved configuration, one dotted key per line."""
    _write_atomic(path, (f"{key} = {getattr(cfg, CONFIG_KEYS[key])}\n"
                         for key in sorted(CONFIG_KEYS)))
