"""Simulation parameter bundle, flat config files and environment overrides.

Every tunable has its one default here, under a dotted key.  A config file
overrides defaults one assignment per line (``key = value``, ``#``
comments); environment variables override both, spelled with the ``TMSIM_``
prefix and ``__`` in place of dots (``TMSIM_sensor__bias_c=2e-6``).
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection

import numpy as np

from .analog_blocks import SoftmaxParams
from .devices import MemristorModel, SensorModel, _fsr_affine, _reciprocal_sum, memristor_conductance

__all__ = [
    "SimConfig",
    "TrainParams",
    "Parasitics",
    "ConfigError",
    "load_config",
    "config_hash",
    "read_assignments",
]

_ENV_PREFIX = "TMSIM_"

# Defaults, one dotted key per physical or training parameter.
#
# parasitics.switch_g_off and parasitics.wire_resistance are calibrated as a
# pair: with them, the dual readout of the reference 4x2 sensor array (all
# dots pressed, all states at 1) loses about 16% of its ideal current, which
# matches the droop observed on the fabricated arrays this model follows.
# pipeline.dot_gain is calibrated with them: it sets the normalized feature
# increment contributed by one pressed dot, fixing how large the dimensionless
# noise variances are relative to the signal.
_DEFAULTS: dict[str, float | int] = {
    "sensor.sensitivity_k": 1.5e-6,
    "sensor.bias_c": 1.0e-6,
    "sensor.v_supply": 0.5,
    "memristor.r_on": 1.0e3,
    "memristor.r_off": 1.0e5,
    "switch.g_on": 1.0e-2,
    "parasitics.wire_resistance": 2.0,
    "parasitics.switch_g_off": 1.9e-3,
    "parasitics.termination_conductance": 1.0e6,
    "softmax.r_f": 1.0e5,
    "softmax.v_t": 0.026,
    "softmax.r_sum": 1.0e5,
    "braille.f_press": 20.0,
    "pipeline.dot_gain": 6.0,
    "train.lr": 0.05,
    "train.epochs": 500,
    "train.batch_size": 32,
}

# the keys that the derived quantities of ``SimConfig`` are computed from
_INCREMENT_KEYS = ("sensor.sensitivity_k", "sensor.bias_c", "braille.f_press", "memristor.r_on", "memristor.r_off",
                   "switch.g_on")
_NORM_KEYS = ("sensor.v_supply",) + _INCREMENT_KEYS + ("pipeline.dot_gain",)
# the smallest positive float whose reciprocal is finite: features and ladders divide by the derived quantities
_SMALLEST_NORMAL = float(np.finfo(float).tiny)

_INT_KEYS = {key for key, value in _DEFAULTS.items() if isinstance(value, int)}
# the integer keys count and index arrays, so they must stay below numpy's index limit
_INDEX_LIMIT = int(np.iinfo(np.intp).max) + 1


class ConfigError(ValueError):
    """Malformed config file, unknown key, or unparseable value."""


@dataclass(frozen=True)
class Parasitics:
    wire_resistance: float
    switch_g_off: float
    termination_conductance: float


@dataclass(frozen=True)
class TrainParams:
    lr: float
    epochs: int
    batch_size: int

    def __post_init__(self) -> None:
        if self.lr <= 0.0:
            raise ConfigError(f"train.lr must be positive, got {self.lr}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("train.epochs and train.batch_size must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    """Resolved simulation parameters."""

    sensor: SensorModel
    memristor: MemristorModel
    switch_g_on: float
    parasitics: Parasitics
    softmax: SoftmaxParams
    f_press: float
    dot_gain: float
    train: TrainParams
    # current of one normalized feature unit: one pressed dot at full memristor
    # conductance raises its column and row readout by dot_gain feature units
    feature_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.f_press <= 0.0:
            raise ConfigError(f"braille.f_press must be positive, got {self.f_press}")
        if self.dot_gain <= 0.0:
            raise ConfigError(f"pipeline.dot_gain must be positive, got {self.dot_gain}")
        if self.sensor.v_supply <= 0.0:
            raise ConfigError(f"sensor.v_supply must be positive, got {self.sensor.v_supply}")
        if self.switch_g_on <= 0.0:
            raise ConfigError(f"switch.g_on must be positive, got {self.switch_g_on}")
        g_off = self.parasitics.switch_g_off
        if not 0.0 <= g_off < self.switch_g_on:
            raise ConfigError("parasitics.switch_g_off must be >= 0 and below switch.g_on "
                              f"({self.switch_g_on}), got {g_off}")
        if self.parasitics.wire_resistance < 0.0:
            raise ConfigError("parasitics.wire_resistance must be non-negative, "
                              f"got {self.parasitics.wire_resistance}")
        if self.parasitics.termination_conductance <= 0.0:
            raise ConfigError("parasitics.termination_conductance must be positive, "
                              f"got {self.parasitics.termination_conductance}")
        increment = _dot_increment(memristor_conductance(self.memristor, 1.0), self)
        object.__setattr__(self, "feature_norm", self.sensor.v_supply * increment / self.dot_gain)
        for name, keys, value in (("pressed-dot increment", _INCREMENT_KEYS, increment),
                                  ("feature normalization current", _NORM_KEYS, self.feature_norm)):
            if not _SMALLEST_NORMAL <= value < math.inf:
                raise ConfigError(f"the {name} (from {', '.join(keys)}) must be finite and at least "
                                  f"{_SMALLEST_NORMAL:.4g}, got {float(value)!r}")
        # training's state step (pipeline._train_stack) divides by the square of its conditioning term, the
        # pressed cell's state sensitivity less the unpressed one's in feature units, which grows as 1 / r_on
        # at state 0
        with np.errstate(over="ignore", invalid="ignore"):
            g_m = memristor_conductance(self.memristor, np.array([0.0, 1.0]))
            u_pressed, u_unpressed = (_reciprocal_sum((_fsr_affine(self.sensor, force), g_m, self.switch_g_on))
                                      for force in (self.f_press, 0.0))
            term = np.max((_state_sensitivity(u_pressed, g_m, self) - _state_sensitivity(u_unpressed, g_m, self))
                          * (self.sensor.v_supply / (self.feature_norm * self.dot_gain)))
            if not term * term < math.inf:
                raise ConfigError(f"memristor.r_on = {self.memristor.r_on!r} and memristor.r_off = "
                                  f"{self.memristor.r_off!r} give the training state step a conditioning term "
                                  f"of {float(term):.4g} at states 0 and 1, whose square overflows")

    @classmethod
    def from_values(cls, values: dict[str, float | int]) -> "SimConfig":
        """The config whose every field holds its key's value in ``values``, which names every key."""
        models: dict[str, dict] = {section: {} for section in _MODELS}
        own = {}
        for key, path in _FIELDS.items():
            section, _, name = path.rpartition(".")
            (models[section] if section else own)[name] = values[key]
        return cls(**{section: _model(section, fields) for section, fields in models.items()}, **own)

    @property
    def raw(self) -> tuple[tuple[str, float | int], ...]:
        """Every key and its field's value, in key order: the resolved view that ``config_hash`` digests."""
        return tuple((key, functools.reduce(getattr, _FIELDS[key].split("."), self)) for key in sorted(_FIELDS))


# Each key's field, by its path in SimConfig: each of the five sections names a model, which SimConfig keeps
# under the section's name, and its keys are that model's fields; the other three keys set fields of their own.
_MODELS = {"sensor": SensorModel, "memristor": MemristorModel, "parasitics": Parasitics, "softmax": SoftmaxParams,
           "train": TrainParams}
_OWN_FIELDS = {"switch.g_on": "switch_g_on", "braille.f_press": "f_press", "pipeline.dot_gain": "dot_gain"}
_FIELDS = {key: _OWN_FIELDS.get(key, key) for key in _DEFAULTS}


def _model(section: str, fields: dict):
    """The section's model of ``fields``; a range error that names only the field gains the section's name."""
    try:
        return _MODELS[section](**fields)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _dot_increment(g_m, cfg: SimConfig):
    """Rise of the cell conductance when its dot is pressed, at memristor conductance ``g_m``.

    The config has checked every part positive (the sensor's slope and bias,
    the press force, the memristor range and the switch), so the device
    formulas run without ``fsr_conductance``'s and ``series_conductance``'s
    checks; ``g_m`` comes from ``memristor_conductance`` at states in [0, 1].
    """
    u_on = _reciprocal_sum((_fsr_affine(cfg.sensor, cfg.f_press), g_m, cfg.switch_g_on))
    return u_on - _reciprocal_sum((_fsr_affine(cfg.sensor, 0.0), g_m, cfg.switch_g_on))


def _state_sensitivity(u: np.ndarray, g_m: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Exact d(cell conductance)/d(state): u^2 / g_m^2 * the memristor span.

    ``u`` is the series cell conductance and ``g_m`` the memristor
    conductance (``memristor_conductance``) at the same states.
    """
    return (u / g_m) ** 2 * cfg.memristor.span


def _parse_value(key: str, text: str, source: str) -> float | int:
    try:
        number = float(text)
    except ValueError as exc:
        raise ConfigError(f"{source}: cannot parse value {text!r} for {key}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{source}: {key} must be a finite number, got {text!r}")
    if key in _INT_KEYS:
        if number != int(number):
            raise ConfigError(f"{source}: {key} must be an integer, got {text!r}")
        if not number < _INDEX_LIMIT:
            raise ConfigError(f"{source}: {key} must be below {_INDEX_LIMIT:.4g} to index an array, got {text!r}")
        return int(number)
    return number


def read_assignments(path: str | Path, known: Collection[str]) -> dict[str, float | int]:
    """Numbers from a flat ``key = value`` file with ``#`` comments.

    Raises:
        ConfigError: if the file does not exist; on a line without ``=``, a
            key not in ``known``, or a value that is not a finite number (an
            integer for integer config keys).
        OSError: if the file exists but cannot be read.
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    overrides: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        overrides[key] = _parse_value(key, value.strip(), f"{path}:{lineno}")
    return overrides


def _env_overrides(environ: dict[str, str]) -> dict[str, float | int]:
    overrides: dict[str, float | int] = {}
    for name, value in environ.items():
        if not name.startswith(_ENV_PREFIX):
            continue
        key = name[len(_ENV_PREFIX):].lower().replace("__", ".")
        if key not in _DEFAULTS:
            raise ConfigError(f"{name}: unknown key {key!r}")
        overrides[key] = _parse_value(key, value, name)
    return overrides


def load_config(path: str | Path | None = None, environ: dict[str, str] | None = None) -> SimConfig:
    """Defaults, overridden by an optional config file, then by environment."""
    values = dict(_DEFAULTS)
    if path is not None:
        values.update(read_assignments(path, _DEFAULTS))
    env = os.environ if environ is None else environ
    values.update(_env_overrides(dict(env)))
    return SimConfig.from_values(values)


def config_hash(config: SimConfig) -> str:
    """Stable digest of every resolved parameter, for run manifests."""
    # a float key hashes as a float, so that 30 and 30.0 hash alike
    payload = "\n".join(f"{key}={value if key in _INT_KEYS else float(value)!r}" for key, value in config.raw)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
