import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudocl import config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FLOAT_FIELDS = ["lr", "lr_decay", "weight_decay", "temperature"]


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = config.RunConfig()
        assert cfg.mode == "offline" and cfg.variant == "ours"
        assert cfg.epochs == 30  # as in configs/default.cfg

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            config.RunConfig(mode="sideways")

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            config.RunConfig(variant="magic")

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            config.RunConfig(q=0)
        with pytest.raises(ValueError):
            config.RunConfig(epochs=0)
        with pytest.raises(ValueError):
            config.RunConfig(temperature=0.0)

    @pytest.mark.parametrize("field, value", [
        ("hidden_width", 0), ("lr", -1.0), ("pca_dim", 0), ("n_restarts", 0),
        ("n_hidden", -1), ("model_seed", -1), ("arrangement_seed", -1),
        ("lr_decay", 0.0), ("lr_decay", -0.1), ("weight_decay", -1e-5)])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            config.RunConfig(**{field: value})

    def test_range_edges_accepted(self):
        cfg = config.RunConfig(n_hidden=0, model_seed=0, arrangement_seed=0,
                               weight_decay=0.0, shuffle_seed=-1, epochs=4,
                               upl_k=3)
        assert cfg.n_hidden == 0 and cfg.upl_k == 3

    def test_numbers_checked_before_choices(self):
        with pytest.raises(ValueError, match="^q must be >= 1, got 0$"):
            config.RunConfig(mode="x", q=0)

    def test_config_keys_follow_the_fields(self):
        # each field declares its dotted key; CONFIG_KEYS lists them in
        # field order
        fields = [f.name for f in dataclasses.fields(config.RunConfig)]
        assert len(fields) == 23
        assert list(config.CONFIG_KEYS.values()) == fields
        assert {key.split(".")[0] for key in config.CONFIG_KEYS} == {
            "run", "train", "model", "cluster", "seeds"}
        assert config.CONFIG_KEYS["seeds.arrangement"] == "arrangement_seed"

    @pytest.mark.parametrize("variant", ["ffe", "scratch", "pca"])
    def test_upl_needs_variant_ours(self, variant):
        with pytest.raises(ValueError, match="upl_k"):
            config.RunConfig(variant=variant, upl_k=2)

    @pytest.mark.parametrize("fields", [
        dict(mode="online", upl_k=2), dict(epochs=4, upl_k=4),
        dict(epochs=4, upl_k=9)], ids=["online", "at-epochs", "above-epochs"])
    def test_upl_that_never_refreshes_rejected(self, fields):
        # a refresh fires only at epochs K, 2K, ... below epochs, offline
        with pytest.raises(ValueError, match="upl_k"):
            config.RunConfig(**fields)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            config.RunConfig(**{field: float(value)})


class TestParseVariant:
    def test_plain_variants(self):
        assert config.parse_variant("ours") == ("ours", 0)
        assert config.parse_variant("ffe") == ("ffe", 0)

    def test_upl_with_period(self):
        assert config.parse_variant("upl-10") == ("ours", 10)
        assert config.parse_variant("UPL-3") == ("ours", 3)

    def test_upl_zero_is_fixed_labels(self):
        assert config.parse_variant("upl-0") == ("ours", 0)

    @pytest.mark.parametrize("text", ["upl-x", "upl--3", "upl3", "upl",
                                      "upl-", "upl-+3", "upl- 3", "upl-\u0663",
                                      "UPL-X"])
    def test_other_upl_text_is_unknown_variant(self, text):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown variant {text.lower()!r}")):
            config.parse_variant(text)


class TestLoadConfig:
    def test_dotted_keys_and_comments(self, tmp_path):
        path = write_cfg(tmp_path, """
# a comment
run.variant = ffe
train.epochs = 7   # trailing comment
cluster.normalize_features = true
seeds.model = 42
""")
        cfg = config.load_config(path)
        assert cfg.variant == "ffe"
        assert cfg.epochs == 7
        assert cfg.normalize_features is True
        assert cfg.model_seed == 42

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write_cfg(tmp_path, "run.mode = offline\nrun.bogus = 1\n")
        with pytest.raises(ValueError, match=":2"):
            config.load_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            config.load_config(path)

    def test_upl_variant_sets_period(self, tmp_path):
        path = write_cfg(tmp_path, "run.variant = upl-5\n")
        cfg = config.load_config(path)
        assert cfg.variant == "ours" and cfg.upl_k == 5

    @pytest.mark.parametrize("text, upl_k", [
        ("run.variant = upl-3\nrun.upl_k = 0\n", 0),
        ("run.upl_k = 0\nrun.variant = upl-3\n", 3),
        ("run.upl_k = 2\nrun.variant = ours\n", 2)],
        ids=["period-reset", "variant-last", "plain-variant-keeps-period"])
    def test_lines_apply_in_order(self, tmp_path, text, upl_k):
        # a plain variant leaves upl_k alone, since config.txt writes
        # run.upl_k before run.variant
        cfg = config.load_config(write_cfg(tmp_path, text))
        assert cfg.variant == "ours" and cfg.upl_k == upl_k

    def test_upl_at_epochs_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "train.epochs = 4\nrun.variant = upl-4\n")
        with pytest.raises(ValueError, match="upl_k"):
            config.load_config(path)

    def test_alpha_override_key_rejected(self, tmp_path):
        # alpha is always m / (m + n): no key sets it
        path = write_cfg(tmp_path, "run.q = 3\ntrain.alpha_override = 0.25\n")
        with pytest.raises(ValueError,
                           match=r"run\.cfg:2: unknown key 'train\.alpha_override'"):
            config.load_config(path)

    def test_bare_field_alias_rejected(self, tmp_path):
        # only the dotted keys that dump_config writes are accepted
        path = write_cfg(tmp_path, "train.epochs = 3\nepochs = 3\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: unknown key 'epochs'"):
            config.load_config(path)

    def test_bool_spellings(self, tmp_path):
        for word, want in (("on", True), ("off", False),
                           ("yes", True), ("0", False)):
            path = write_cfg(tmp_path, f"run.bias_correction = {word}\n")
            assert config.load_config(path).bias_correction is want

    def test_bad_bool_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "run.bias_correction = maybe\n")
        with pytest.raises(ValueError):
            config.load_config(path)

    def test_bad_value_names_line_and_key(self, tmp_path):
        path = write_cfg(tmp_path, "run.q = 3\ntrain.epochs = many\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: key 'train\.epochs'"):
            config.load_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_float_names_line_and_key(self, tmp_path, field,
                                                 value):
        key = next(k for k, f in config.CONFIG_KEYS.items() if f == field)
        path = write_cfg(tmp_path, f"run.q = 3\n{key} = {value}\n")
        with pytest.raises(ValueError,
                           match=rf"run\.cfg:2: key '{key}': .*finite"):
            config.load_config(path)

    @pytest.mark.parametrize("key, raw, reason", [
        ("run.mode", "offlin", "unknown mode 'offlin'"),
        ("run.variant", "bogus", "unknown variant 'bogus'"),
        ("run.variant", "upl-x", "unknown variant 'upl-x'"),
        ("run.exemplar_policy", "herd", "unknown exemplar policy 'herd'")],
        ids=["mode", "variant", "upl-period", "policy"])
    def test_bad_choice_names_line_and_key(self, tmp_path, key, raw, reason):
        path = write_cfg(tmp_path, f"run.q = 3\n{key} = {raw}\n")
        with pytest.raises(ValueError,
                           match=rf"run\.cfg:2: key '{key}': {reason}"):
            config.load_config(path)

    def test_overrides_win(self, tmp_path):
        path = write_cfg(tmp_path, "train.epochs = 7\n")
        cfg = config.load_config(path, overrides={"epochs": 3})
        assert cfg.epochs == 3


class TestDumpConfig:
    def test_round_trip(self, tmp_path):
        cfg = config.RunConfig(variant="pca", epochs=11, q=4,
                               normalize_features=True, model_seed=5)
        path = str(tmp_path / "dumped.cfg")
        config.dump_config(cfg, path)
        back = config.load_config(path)
        assert back == cfg

    def test_every_key_present(self, tmp_path):
        path = str(tmp_path / "dumped.cfg")
        config.dump_config(config.RunConfig(), path)
        with open(path) as fh:
            keys = {line.split("=")[0].strip() for line in fh if line.strip()}
        assert keys == set(config.CONFIG_KEYS)


positive = st.integers(1, 10**6)
any_int = st.integers(-10**9, 10**9)
non_negative = st.integers(0, 10**9)
non_negative_float = st.floats(min_value=0.0, allow_nan=False,
                               allow_infinity=False)
positive_float = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                           allow_infinity=False)

def valid_run_config(**fields):
    # upl_k > 0 is valid with variant "ours", offline, below epochs only
    if fields["variant"] != "ours" or fields["mode"] != "offline":
        fields["upl_k"] = 0
    fields["upl_k"] %= fields["epochs"]
    return config.RunConfig(**fields)


run_configs = st.builds(
    valid_run_config,
    mode=st.sampled_from(config.MODES),
    variant=st.sampled_from(config.VARIANTS),
    upl_k=st.integers(0, 10**6),
    exemplar_policy=st.sampled_from(config.EXEMPLAR_POLICIES),
    q=positive, step_size=positive, bias_correction=st.booleans(),
    oracle_labels=st.booleans(), epochs=positive, lr=positive_float,
    lr_decay=positive_float, lr_decay_period=positive, batch_size=positive,
    weight_decay=non_negative_float, temperature=positive_float,
    hidden_width=positive, n_hidden=non_negative, pca_dim=positive,
    n_restarts=positive, normalize_features=st.booleans(),
    arrangement_seed=non_negative, model_seed=non_negative,
    shuffle_seed=any_int)


class TestDumpConfigProperties:
    @settings(max_examples=100, deadline=None)
    @given(cfg=run_configs)
    def test_any_valid_config_round_trips(self, tmp_path_factory, cfg):
        path = str(tmp_path_factory.mktemp("cfg") / "dumped.cfg")
        config.dump_config(cfg, path)
        assert config.load_config(path) == cfg


class TestShippedFiles:
    def test_default_config_is_the_defaults(self):
        assert config.load_config(str(CONFIGS / "default.cfg")) == \
            config.RunConfig()

    def test_blob_spec_is_the_standard_stream(self):
        assert config.load_spec(str(CONFIGS / "blobs.cfg")) == config.BlobSpec(
            num_classes=20, dim=16, samples_per_class=150, separation=1.0,
            std=0.15, seed=7, signal_dims=10, noise_std=2.0)


class TestLoadSpec:
    def test_optional_keys_may_be_left_out(self, tmp_path):
        path = write_cfg(tmp_path, "num_classes = 3\ndim = 2\n"
                         "samples_per_class = 4\nseparation = 1\nstd = 0.5\n"
                         "seed = 0\n")
        spec = config.load_spec(path)
        assert spec.signal_dims is None and spec.noise_std is None
        assert isinstance(spec.separation, float)

    @pytest.mark.parametrize("line, message", [
        ("signal_dims = 0", ":7: key 'signal_dims': signal_dims must be >= 1"),
        ("signal_dims = 1.5", ":7: key 'signal_dims': invalid literal"),
        ("std = 0", ":7: key 'std': std must be positive"),
        ("signal_dims = 3", ": signal_dims must be <= dim, got 3 > 2")])
    def test_error_names_path(self, tmp_path, line, message):
        path = write_cfg(tmp_path, "num_classes = 3\ndim = 2\n"
                         "samples_per_class = 4\nseparation = 1\nstd = 0.5\n"
                         f"seed = 0\n{line}\n")
        with pytest.raises(ValueError) as info:
            config.load_spec(path)
        assert str(info.value).startswith(path + message)


_KINDS = ("truncate", "flip", "drop", "duplicate", "inject", "swap")


@st.composite
def mutated(draw, name):
    """The bytes of a shipped config after one to three random edits: a
    truncation, a flipped byte, a dropped or duplicated line, a value set
    to nan/inf/blank, or a key taken from another line."""
    text = (CONFIGS / name).read_bytes()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_KINDS))
        if kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
            continue
        if kind == "flip" and text:
            i = draw(st.integers(0, len(text) - 1))
            text = (text[:i] + bytes([text[i] ^ draw(st.integers(1, 255))])
                    + text[i + 1:])
            continue
        lines = text.splitlines(keepends=True)
        keyed = [i for i, line in enumerate(lines) if b"=" in line]
        if not keyed:
            continue
        i = draw(st.sampled_from(keyed))
        key, value = lines[i].split(b"=", 1)
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "inject":
            token = draw(st.sampled_from([b"nan", b"inf", b"-inf", b""]))
            lines[i] = key + b"= " + token + b"\n"
        else:
            other = lines[draw(st.sampled_from(keyed))].split(b"=", 1)[0]
            lines[i] = other + b"=" + value
        text = b"".join(lines)
    return text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestKeyValueFuzz:
    """A mutated file loads or raises ValueError, never anything else."""

    @settings(max_examples=200, deadline=None)
    @given(text=mutated("default.cfg"))
    def test_run_config(self, fuzz_dir, text):
        path = fuzz_dir / "run.cfg"
        path.write_bytes(text)
        try:
            assert isinstance(config.load_config(str(path)), config.RunConfig)
        except ValueError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(text=mutated("blobs.cfg"))
    def test_blob_spec_errors_name_the_path(self, fuzz_dir, text):
        path = fuzz_dir / "spec.cfg"
        path.write_bytes(text)
        try:
            assert isinstance(config.load_spec(str(path)), config.BlobSpec)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
