"""Scenario and training configuration.

All physical quantities carry their unit in the field name.  The defaults
describe a 1 km x 1 km wrapped-around service area with 30 single-antenna
access points, 5 single-antenna users, 20 MHz of bandwidth at 1.9 GHz and
100 mW uplink transmit power.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ValidationError

# Online fine-tuning defaults: Adam steps per snapshot and their step size.
# Kept here, free of numpy, so the command line can show them before
# --threads reaches the numeric libraries.
FINETUNE_STEPS = 100
FINETUNE_LR = 0.01


@dataclass(frozen=True)
class SystemConfig:
    n_aps: int = 30                  # M, access points
    n_users: int = 5                 # K, simultaneously served users
    carrier_freq_hz: float = 1.9e9
    area_side_m: float = 1000.0      # D, square side; distances wrap around
    ap_height_m: float = 15.0
    user_height_m: float = 1.65
    d0_m: float = 10.0               # inner breakpoint of the three-slope model
    d1_m: float = 50.0               # outer breakpoint of the three-slope model
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 9.0
    shadow_std_db: float = 8.0       # sigma_sh, log-normal shadowing
    pilot_power_mw: float = 100.0
    data_power_mw: float = 100.0
    coherence_samples: int = 200     # tau_c, samples per coherence interval
    pilot_length: int | None = None  # tau, defaults to n_users (orthogonal pilots)
    grid_shape: tuple[int, int] | None = None  # (nx, ny) AP grid, mobility scenario

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if self.n_aps < 1 or self.n_users < 1:
            raise ValidationError("need at least one AP and one user")
        if not 0 < self.d0_m < self.d1_m < self.area_side_m:
            raise ValidationError("breakpoints must satisfy 0 < d0 < d1 < area side")
        if self.pilot_power_mw <= 0 or self.data_power_mw <= 0:
            raise ValidationError("transmit powers must be positive")
        if self.ap_height_m <= 0 or self.user_height_m <= 0:
            raise ValidationError("antenna heights must be positive")
        if self.shadow_std_db < 0:
            raise ValidationError("shadowing std must be non-negative")
        if self.bandwidth_hz <= 0 or self.carrier_freq_hz <= 0:
            raise ValidationError("bandwidth and carrier frequency must be positive")
        tau = self.tau
        if tau < self.n_users:
            raise ValidationError(
                f"pilot length {tau} is shorter than the {self.n_users} users; "
                "orthogonal pilots need length >= number of users"
            )
        if tau >= self.coherence_samples:
            raise ValidationError("pilot length must be shorter than the coherence interval")
        if self.grid_shape is not None:
            nx, ny = self.grid_shape
            if nx * ny != self.n_aps:
                raise ValidationError(
                    f"grid shape {nx}x{ny} does not place {self.n_aps} APs"
                )

    @property
    def tau(self) -> int:
        """Pilot sequence length; n_users unless configured otherwise."""
        return self.n_users if self.pilot_length is None else self.pilot_length

    def noise_power_dbm(self) -> float:
        """Thermal noise power over the full bandwidth, incl. noise figure."""
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db

    @property
    def rho(self) -> float:
        """Data transmit power normalized by the noise power (linear)."""
        p_dbm = 10.0 * math.log10(self.data_power_mw)
        return 10.0 ** ((p_dbm - self.noise_power_dbm()) / 10.0)

    @property
    def rho_p(self) -> float:
        """Pilot transmit power normalized by the noise power (linear)."""
        p_dbm = 10.0 * math.log10(self.pilot_power_mw)
        return 10.0 ** ((p_dbm - self.noise_power_dbm()) / 10.0)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 10000
    batch_size: int = 100
    learning_rate: float = 0.01
    validation_every: int = 50
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    input_transform: str = "linear"  # standardize raw gains; "log" for dB-domain

    def __post_init__(self):
        if self.iterations < 0 or self.batch_size < 1 or self.validation_every < 1:
            raise ValidationError("bad training loop sizes")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning rate must be finite and positive")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ValidationError("Adam epsilon must be finite and positive")
        if not 0 <= self.adam_beta1 < 1 or not 0 <= self.adam_beta2 < 1:
            raise ValidationError("Adam decay rates must lie in [0, 1)")
        if self.input_transform not in ("log", "linear"):
            raise ValidationError("input_transform must be 'log' or 'linear'")


@dataclass(frozen=True)
class DataConfig:
    scenario: str = "static"       # "static" iid drops or "mobility" trajectory
    train_samples: int = 20000
    val_samples: int = 1000
    test_samples: int = 1000

    def __post_init__(self):
        if self.scenario not in ("static", "mobility"):
            raise ValidationError("scenario must be 'static' or 'mobility'")
        if min(self.train_samples, self.val_samples, self.test_samples) < 1:
            raise ValidationError("every dataset split needs at least one sample")


_SECTIONS = {"system": SystemConfig, "train": TrainConfig, "data": DataConfig}


def _as_plain(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def config_to_dict(system: SystemConfig, train: TrainConfig,
                   data: DataConfig | None = None) -> dict:
    out = {
        "system": {k: _as_plain(v) for k, v in dataclasses.asdict(system).items()},
        "train": dataclasses.asdict(train),
    }
    if data is not None:
        out["data"] = dataclasses.asdict(data)
    return out


def _digest(payload: dict) -> bytes:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).digest()


def config_digest(system: SystemConfig, train: TrainConfig) -> bytes:
    """SHA-256 over the canonical JSON of the system and train sections."""
    return _digest(config_to_dict(system, train))


def scenario_digest(system: SystemConfig) -> bytes:
    """SHA-256 over the system section alone; identifies a data distribution."""
    return _digest({"system": config_to_dict(system, TrainConfig())["system"]})


def load_config(path) -> tuple[SystemConfig, TrainConfig, DataConfig]:
    """Read a JSON config file with 'system', 'train' and 'data' sections.

    Unknown sections or keys are rejected; every section is optional and
    falls back to defaults.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ValidationError(f"unknown config sections: {sorted(unknown)}")
    built = {}
    for name, cls in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ValidationError(f"config section '{name}' must be an object")
        fields = {f.name for f in dataclasses.fields(cls)}
        bad = set(section) - fields
        if bad:
            raise ValidationError(f"unknown keys in '{name}': {sorted(bad)}")
        if "grid_shape" in section and section["grid_shape"] is not None:
            section = dict(section)
            section["grid_shape"] = tuple(section["grid_shape"])
        try:
            built[name] = cls(**section)
        except TypeError as exc:
            raise ValidationError(f"bad '{name}' section: {exc}") from exc
    return built["system"], built["train"], built["data"]


def save_config(path, system: SystemConfig, train: TrainConfig,
                data: DataConfig | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(system, train, data or DataConfig()),
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
