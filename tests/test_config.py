"""Config resolution tests: defaults, file overrides, environment overrides."""

from dataclasses import replace

import pytest

from tmsim.config import ConfigError, _DEFAULTS, config_hash, load_config

# the keys that set a field of SimConfig's own; every other key is a field of the model its section names
OWN_FIELDS = {"switch.g_on": "switch_g_on", "braille.f_press": "f_press", "pipeline.dot_gain": "dot_gain"}


def _off_default(key):
    """A valid value of ``key`` other than its default, of the default's type."""
    default = _DEFAULTS[key]
    return default * 2 if isinstance(default, int) else default * 1.5


def _field(cfg, key):
    if key in OWN_FIELDS:
        return getattr(cfg, OWN_FIELDS[key])
    section, name = key.split(".")
    return getattr(getattr(cfg, section), name)


def _replaced(cfg, key, value):
    if key in OWN_FIELDS:
        return replace(cfg, **{OWN_FIELDS[key]: value})
    section, name = key.split(".")
    return replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})


def _loaded(key, value):
    return load_config(environ={"TMSIM_" + key.upper().replace(".", "__"): repr(value)})


class TestDefaults:
    def test_physical_defaults(self, cfg):
        assert cfg.sensor.sensitivity_k == 1.5e-6
        assert cfg.sensor.bias_c == 1.0e-6
        assert cfg.sensor.v_supply == 0.5
        assert cfg.memristor.r_on == 1.0e3
        assert cfg.memristor.r_off == 1.0e5
        assert cfg.switch_g_on == 1.0e-2
        assert cfg.f_press == 20.0
        assert cfg.dot_gain == 6.0

    def test_parasitic_defaults(self, cfg):
        assert cfg.parasitics.wire_resistance == 2.0
        assert cfg.parasitics.switch_g_off == 1.9e-3
        assert cfg.parasitics.termination_conductance == 1.0e6

    def test_training_defaults(self, cfg):
        assert cfg.train.lr == 0.05
        assert cfg.train.epochs == 500
        assert cfg.train.batch_size == 32
        assert isinstance(cfg.train.epochs, int)

    def test_raw_view_covers_every_key(self, cfg):
        assert dict(cfg.raw) == _DEFAULTS


class TestFileOverrides:
    def test_values_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text(
            "# tuning for a stiffer sensor\n"
            "sensor.bias_c = 2e-6\n"
            "\n"
            "train.epochs = 100  # shorter run\n"
        )
        cfg = load_config(path, environ={})
        assert cfg.sensor.bias_c == 2e-6
        assert cfg.train.epochs == 100
        # untouched keys keep their defaults
        assert cfg.sensor.sensitivity_k == 1.5e-6

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sensor.bias_c = 2e-6\nsensor.wrong = 1\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            load_config(path, environ={})

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sensor.bias_c = tiny\n")
        with pytest.raises(ConfigError, match="tiny"):
            load_config(path, environ={})

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sensor.bias_c 2e-6\n")
        with pytest.raises(ConfigError):
            load_config(path, environ={})

    def test_integer_keys_reject_fractions(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("train.epochs = 2.5\n")
        with pytest.raises(ConfigError, match="integer"):
            load_config(path, environ={})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg", environ={})


class TestEnvOverrides:
    def test_prefixed_variable_maps_to_dotted_key(self):
        cfg = load_config(environ={"TMSIM_SENSOR__BIAS_C": "3e-6"})
        assert cfg.sensor.bias_c == 3e-6

    def test_environment_beats_file(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("sensor.bias_c = 2e-6\n")
        cfg = load_config(path, environ={"TMSIM_SENSOR__BIAS_C": "4e-6"})
        assert cfg.sensor.bias_c == 4e-6

    def test_unknown_variable_rejected(self):
        with pytest.raises(ConfigError, match="TMSIM_SENSOR__WRONG"):
            load_config(environ={"TMSIM_SENSOR__WRONG": "1"})

    def test_unprefixed_variables_ignored(self):
        cfg = load_config(environ={"PATH": "/usr/bin", "SENSOR__BIAS_C": "9e-6"})
        assert cfg.sensor.bias_c == 1e-6

    def test_integer_key_via_environment(self):
        cfg = load_config(environ={"TMSIM_TRAIN__EPOCHS": "50"})
        assert cfg.train.epochs == 50

    def test_invalid_training_values_rejected(self):
        with pytest.raises(ConfigError):
            load_config(environ={"TMSIM_TRAIN__LR": "-0.1"})
        with pytest.raises(ConfigError):
            load_config(environ={"TMSIM_TRAIN__BATCH_SIZE": "0"})


class TestValueChecks:
    @pytest.mark.parametrize("key", ["sensor.bias_c", "pipeline.dot_gain", "braille.f_press", "train.epochs"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected_from_file(self, tmp_path, key, value):
        path = tmp_path / "params.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path, environ={})

    @pytest.mark.parametrize("key", ["sensor.bias_c", "pipeline.dot_gain", "braille.f_press", "train.epochs"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected_from_environment(self, key, value):
        name = "TMSIM_" + key.upper().replace(".", "__")
        with pytest.raises(ConfigError, match=name):
            load_config(environ={name: value})

    @pytest.mark.parametrize("key", ["pipeline.dot_gain", "braille.f_press", "sensor.v_supply",
                                     "switch.g_on", "parasitics.termination_conductance"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_rejected(self, key, value):
        name = "TMSIM_" + key.upper().replace(".", "__")
        with pytest.raises(ConfigError, match=key):
            load_config(environ={name: value})

    @pytest.mark.parametrize("key, value", [
        ("parasitics.switch_g_off", "-1e-3"),
        ("parasitics.switch_g_off", "1e-2"),  # equal to switch.g_on
        ("parasitics.wire_resistance", "-2"),
    ])
    def test_out_of_range_rejected(self, tmp_path, key, value):
        path = tmp_path / "params.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path, environ={})

    def test_switch_off_states_must_stay_below_a_lowered_on_state(self):
        with pytest.raises(ConfigError, match=r"parasitics\.switch_g_off"):
            load_config(environ={"TMSIM_SWITCH__G_ON": "1e-3"})

    @pytest.mark.parametrize("key, value", [
        ("parasitics.switch_g_off", "0"),
        ("parasitics.wire_resistance", "0"),
    ])
    def test_range_boundaries_accepted(self, key, value):
        name = "TMSIM_" + key.upper().replace(".", "__")
        load_config(environ={name: value})

    # below about 1e-149 ohm, training's state step would overflow, and the config is rejected (test_cli)
    @pytest.mark.parametrize("r_on", ["1e-30", "1e-140", "1e-145", "1000"])
    def test_a_small_on_resistance_still_loads(self, r_on):
        assert load_config(environ={"TMSIM_MEMRISTOR__R_ON": r_on}).memristor.r_on == float(r_on)


class TestConfigHash:
    def test_default_digest_is_pinned(self):
        # run manifests record this digest; a change breaks their comparability
        assert config_hash(load_config(environ={})) == "1c4d2f6d7d4c8ba6"

    def test_stable_across_loads(self):
        a = load_config(environ={})
        b = load_config(environ={})
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 16
        int(config_hash(a), 16)  # hex digest

    def test_sensitive_to_any_value_change(self):
        base = config_hash(load_config(environ={}))
        changed = config_hash(load_config(environ={"TMSIM_SENSOR__BIAS_C": "1.1e-6"}))
        assert base != changed

    def test_equivalent_override_is_hash_identical(self, tmp_path):
        # explicitly restating a default must not change the digest
        path = tmp_path / "params.cfg"
        path.write_text("sensor.bias_c = 1e-6\n")
        assert config_hash(load_config(path, environ={})) == config_hash(load_config(environ={}))


class TestKeyTable:
    @pytest.mark.parametrize("key", sorted(_DEFAULTS))
    def test_each_key_reads_back_from_its_field(self, cfg, key):
        value = _off_default(key)
        loaded = _loaded(key, value)
        assert _field(loaded, key) == value and type(_field(loaded, key)) is type(value)
        assert dict(loaded.raw) == {**_DEFAULTS, key: value}
        assert config_hash(loaded) != config_hash(cfg)

    @pytest.mark.parametrize("key", sorted(_DEFAULTS))
    def test_a_replaced_field_hashes_as_the_key_loaded_with_its_value(self, cfg, key):
        value = _off_default(key)
        replaced, loaded = _replaced(cfg, key, value), _loaded(key, value)
        assert replaced == loaded and replaced.raw == loaded.raw
        assert config_hash(replaced) == config_hash(loaded)

    def test_an_integral_float_hashes_as_a_float(self, cfg):
        # an int in a float field equals the float, so it hashes as the float does
        assert replace(cfg, f_press=30) == replace(cfg, f_press=30.0)
        assert config_hash(replace(cfg, f_press=30)) == config_hash(replace(cfg, f_press=30.0)) == "b47782ded55e93b9"
        assert config_hash(cfg) == "1c4d2f6d7d4c8ba6"

    def test_a_replaced_press_force_is_hashed(self, cfg):
        assert config_hash(replace(cfg, f_press=30.0)) == "b47782ded55e93b9"
        assert config_hash(load_config(environ={"TMSIM_BRAILLE__F_PRESS": "30"})) == "b47782ded55e93b9"
