import pytest

from pseudocl import config


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = config.RunConfig()
        assert cfg.mode == "offline" and cfg.variant == "ours"

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
        ("hidden_width", 0), ("lr", -1.0), ("pca_dim", 0), ("n_restarts", 0)])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            config.RunConfig(**{field: value})

    def test_alpha_override_bounds(self):
        config.RunConfig(alpha_override=0.0)
        config.RunConfig(alpha_override=1.0)
        with pytest.raises(ValueError):
            config.RunConfig(alpha_override=1.5)


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

    def test_alpha_override_none_and_value(self, tmp_path):
        path = write_cfg(tmp_path, "train.alpha_override = none\n")
        assert config.load_config(path).alpha_override is None
        path = write_cfg(tmp_path, "train.alpha_override = 0.25\n")
        assert config.load_config(path).alpha_override == 0.25

    def test_bool_spellings(self, tmp_path):
        for word, want in (("on", True), ("off", False),
                           ("yes", True), ("0", False)):
            path = write_cfg(tmp_path, f"run.bias_correction = {word}\n")
            assert config.load_config(path).bias_correction is want

    def test_bad_bool_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "run.bias_correction = maybe\n")
        with pytest.raises(ValueError):
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
