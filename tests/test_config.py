import math

import pytest

from cfmimo.config import (
    DataConfig,
    SystemConfig,
    TrainConfig,
    config_digest,
    load_config,
    save_config,
    scenario_digest,
)
from cfmimo.errors import ValidationError


def test_noise_power_default_scenario():
    cfg = SystemConfig()
    # -174 dBm/Hz + 10 log10(20 MHz) + 9 dB noise figure
    assert cfg.noise_power_dbm() == pytest.approx(-91.98970004336019, abs=1e-9)


def test_normalized_snr_default_scenario():
    cfg = SystemConfig()
    rho, rho_p = cfg.rho, cfg.rho_p
    # 100 mW = 20 dBm over the noise floor above
    assert rho == pytest.approx(10 ** 11.198970004336019, rel=1e-12)
    assert rho == pytest.approx(1.581e11, rel=1e-3)
    assert rho_p == pytest.approx(rho, rel=1e-15)


def test_pilot_length_defaults_to_user_count():
    assert SystemConfig(n_users=5).tau == 5
    assert SystemConfig(n_users=10).tau == 10
    assert SystemConfig(pilot_length=7).tau == 7


def test_rejects_bad_breakpoints():
    with pytest.raises(ValidationError):
        SystemConfig(d0_m=60.0, d1_m=50.0)
    with pytest.raises(ValidationError):
        SystemConfig(d0_m=0.0)


def test_rejects_pilot_longer_than_coherence():
    with pytest.raises(ValidationError):
        SystemConfig(pilot_length=200, coherence_samples=200)


def test_rejects_pilot_shorter_than_user_count():
    # orthogonal pilots need one sequence per user; caught here, not by the
    # first rate computation
    with pytest.raises(ValidationError):
        SystemConfig(n_users=5, pilot_length=3)
    with pytest.raises(ValidationError):
        SystemConfig(n_users=5, pilot_length=0)
    assert SystemConfig(n_users=5, pilot_length=5).tau == 5


def test_rejects_bad_grid():
    with pytest.raises(ValidationError):
        SystemConfig(n_aps=30, grid_shape=(4, 5))
    SystemConfig(n_aps=30, grid_shape=(6, 5))  # fine


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(input_transform="sqrt")
    with pytest.raises(ValidationError):
        TrainConfig(adam_beta1=1.0)


@pytest.mark.parametrize("field,value", [
    ("adam_eps", 0.0), ("adam_eps", -1e-8), ("adam_eps", math.nan),
    ("adam_eps", math.inf), ("learning_rate", math.nan),
    ("learning_rate", math.inf), ("learning_rate", -0.01),
])
def test_train_config_rejects_bad_step_constants(field, value):
    with pytest.raises(ValidationError):
        TrainConfig(**{field: value})


SYSTEM_FLOAT_FIELDS = (
    "carrier_freq_hz", "area_side_m", "ap_height_m", "user_height_m", "d0_m",
    "d1_m", "bandwidth_hz", "noise_figure_db", "shadow_std_db",
    "pilot_power_mw", "data_power_mw",
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", SYSTEM_FLOAT_FIELDS)
def test_system_config_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match=field):
        SystemConfig(**{field: value})


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_config_file_rejects_non_finite_physics(tmp_path, literal):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"system": {{"shadow_std_db": {literal}}}}}')
    with pytest.raises(ValidationError, match="shadow_std_db"):
        load_config(path)


def test_config_file_rejects_nan_epsilon(tmp_path):
    # json.load accepts the NaN literal, so validation has to catch it
    path = tmp_path / "cfg.json"
    path.write_text('{"train": {"adam_eps": NaN}}')
    with pytest.raises(ValidationError):
        load_config(path)


def test_config_roundtrip_and_digest(tmp_path):
    sys_cfg = SystemConfig(n_aps=12, n_users=3, grid_shape=(4, 3))
    tr_cfg = TrainConfig(iterations=123, seed=9)
    path = tmp_path / "cfg.json"
    save_config(path, sys_cfg, tr_cfg)
    loaded_sys, loaded_tr, loaded_data = load_config(path)
    assert loaded_sys == sys_cfg
    assert loaded_tr == tr_cfg
    assert loaded_data == DataConfig()
    assert config_digest(loaded_sys, loaded_tr) == config_digest(sys_cfg, tr_cfg)
    assert config_digest(sys_cfg, tr_cfg) != config_digest(SystemConfig(), tr_cfg)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"system": {"n_aps": 10, "n_apps": 2}}')
    with pytest.raises(ValidationError, match="n_apps"):
        load_config(path)
    path.write_text('{"sytsem": {}}')
    with pytest.raises(ValidationError, match="sytsem"):
        load_config(path)
    path.write_text("not json")
    with pytest.raises(ValidationError):
        load_config(path)


def test_config_sections_optional(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"system": {"n_aps": 50, "n_users": 10}}')
    sys_cfg, tr_cfg, data_cfg = load_config(path)
    assert sys_cfg.n_aps == 50
    assert tr_cfg == TrainConfig()
    assert data_cfg == DataConfig()


def test_data_config_validation():
    with pytest.raises(ValidationError):
        DataConfig(scenario="walk")
    with pytest.raises(ValidationError):
        DataConfig(val_samples=0)


def test_scenario_digest_ignores_training():
    sys_cfg = SystemConfig(n_aps=12, n_users=3, grid_shape=(4, 3))
    assert scenario_digest(sys_cfg) == scenario_digest(sys_cfg)
    assert scenario_digest(sys_cfg) != scenario_digest(SystemConfig())
    assert len(scenario_digest(sys_cfg)) == 32
