"""Simulation parameter bundle, flat config files and environment overrides.

Every tunable has its one default here, under a dotted key.  A config file
overrides defaults one assignment per line (``key = value``, ``#``
comments); environment variables override both, spelled with the ``TMSIM_``
prefix and ``__`` in place of dots (``TMSIM_sensor__bias_c=2e-6``).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Collection

import numpy as np

from .analog_blocks import SoftmaxParams
from .devices import MemristorModel, SensorModel

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

_INT_KEYS = {"train.epochs", "train.batch_size"}
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
    raw: tuple[tuple[str, float | int], ...]  # resolved key/value view, for hashing

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

    @classmethod
    def from_values(cls, values: dict[str, float | int]) -> "SimConfig":
        v = values
        return cls(
            sensor=SensorModel(
                sensitivity_k=v["sensor.sensitivity_k"],
                bias_c=v["sensor.bias_c"],
                v_supply=v["sensor.v_supply"],
            ),
            memristor=MemristorModel(r_on=v["memristor.r_on"], r_off=v["memristor.r_off"]),
            switch_g_on=v["switch.g_on"],
            parasitics=Parasitics(
                wire_resistance=v["parasitics.wire_resistance"],
                switch_g_off=v["parasitics.switch_g_off"],
                termination_conductance=v["parasitics.termination_conductance"],
            ),
            softmax=SoftmaxParams(
                r_f=v["softmax.r_f"],
                v_t=v["softmax.v_t"],
                r_sum=v["softmax.r_sum"],
            ),
            f_press=v["braille.f_press"],
            dot_gain=v["pipeline.dot_gain"],
            train=TrainParams(
                lr=v["train.lr"],
                epochs=int(v["train.epochs"]),
                batch_size=int(v["train.batch_size"]),
            ),
            raw=tuple(sorted(v.items())),
        )


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
    payload = "\n".join(f"{key}={value!r}" for key, value in config.raw)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
