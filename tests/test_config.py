import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudocl import config


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
