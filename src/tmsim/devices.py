"""Device models for the tactile crossbar cell primitives.

A cell stacks a force-sensing resistor (FSR), a memristor and one or two
transistor select switches electrically in series between its supply and
readout rails.  Conductances therefore compose harmonically, and an open
in-path switch with zero off-conductance forces the whole cell to zero.

All conductances are in siemens, resistances in ohms, forces in lbf.
The conductance functions take floats or arrays; a cell's reciprocals
add in the order sensor, memristor, switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "CellConfig",
    "SensorModel",
    "MemristorModel",
    "SwitchModel",
    "CellState",
    "fsr_conductance",
    "memristor_conductance",
    "switch_conductance",
    "series_conductance",
    "cell_conductance",
]


class CellConfig(str, Enum):
    """Supported cell wirings.

    ONE_T1M1S   one switch, memristor and sensor; single readout line.
    TWO_T1M1S   two switches so the cell can be attributed to both its
                vertical and horizontal line (dual readout).
    ONE_T1M     switch plus memristor only; used for the weight layers.
    """

    ONE_T1M1S = "1T1M1S"
    TWO_T1M1S = "2T1M1S"
    ONE_T1M = "1T1M"


@dataclass(frozen=True)
class SensorModel:
    """Piezoresistive force sensor with affine conductance response.

    The sensor conductance is ``sensitivity_k * f + bias_c``; resistance is
    its reciprocal, so it falls hyperbolically with applied force.  The
    defaults give 1 MOhm at rest and about 32.3 kOhm at a 20 lbf press.
    """

    sensitivity_k: float = 1.5e-6  # S per lbf
    bias_c: float = 1.0e-6  # S, zero-force conductance
    v_supply: float = 0.5  # V

    def __post_init__(self) -> None:
        if self.sensitivity_k <= 0.0:
            raise ValueError(f"sensitivity_k must be positive, got {self.sensitivity_k}")
        if self.bias_c <= 0.0:
            raise ValueError(f"bias_c must be positive, got {self.bias_c}")


@dataclass(frozen=True)
class MemristorModel:
    """Two-terminal programmable resistor with a linear state map.

    ``state_w`` in [0, 1] interpolates conductance linearly between the
    fully-off (1/r_off) and fully-on (1/r_on) endpoints, across ``span``.
    """

    r_on: float = 1.0e3
    r_off: float = 1.0e5
    state_w: float = 1.0
    span: float = field(init=False, repr=False, compare=False)  # programmable range 1/r_on - 1/r_off

    def __post_init__(self) -> None:
        if not 0.0 < self.r_on < self.r_off:
            raise ValueError(f"need 0 < r_on < r_off, got r_on={self.r_on}, r_off={self.r_off}")
        if not 0.0 <= self.state_w <= 1.0:
            raise ValueError(f"state_w must be in [0, 1], got {self.state_w}")
        object.__setattr__(self, "span", 1.0 / self.r_on - 1.0 / self.r_off)


@dataclass(frozen=True)
class SwitchModel:
    """Transistor select switch reduced to a two-level conductance."""

    g_on: float = 1.0e-2
    g_off: float = 0.0
    selected: bool = True

    def __post_init__(self) -> None:
        if self.g_off < 0.0:
            raise ValueError(f"g_off must be non-negative, got {self.g_off}")
        if self.g_on <= self.g_off:
            raise ValueError(f"need g_on > g_off, got g_on={self.g_on}, g_off={self.g_off}")


@dataclass(frozen=True)
class CellState:
    """One crossbar cell: wiring choice plus the state of each element.

    ``hl_switch`` exists only for TWO_T1M1S cells; sensing configurations
    carry a sensor and the force applied to it, the plain 1T1M weight cell
    carries neither.
    """

    config: CellConfig
    memristor: MemristorModel
    vl_switch: SwitchModel
    hl_switch: SwitchModel | None = None
    sensor: SensorModel | None = None
    force_f: float | None = None

    def __post_init__(self) -> None:
        if self.config is CellConfig.ONE_T1M:
            if self.sensor is not None or self.force_f is not None:
                raise ValueError("1T1M cells carry no sensor or force")
        else:
            if self.sensor is None or self.force_f is None:
                raise ValueError(f"{self.config.value} cells need a sensor and a force")
            if not 0.0 <= self.force_f < np.inf:
                raise ValueError(f"force must be finite and non-negative, got {self.force_f}")
        if self.config is CellConfig.TWO_T1M1S:
            if self.hl_switch is None:
                raise ValueError("2T1M1S cells need an hl_switch")
        elif self.hl_switch is not None:
            raise ValueError(f"{self.config.value} cells have no hl_switch")


def fsr_conductance(model: SensorModel, force_f):
    """Sensor conductance in siemens; affine and strictly increasing in force.

    Elementwise over a force array.  A negative or NaN force is rejected.
    """
    low = force_f if isinstance(force_f, float) else np.minimum.reduce(force_f, axis=None)  # NaN propagates
    if not low >= 0.0:
        raise ValueError(f"force must be non-negative, got {low}")
    return _fsr_affine(model, force_f)


def _fsr_affine(model: SensorModel, force_f):
    """``fsr_conductance``'s formula, for forces the caller has checked."""
    return model.sensitivity_k * force_f + model.bias_c


def memristor_conductance(model: MemristorModel, state_w=None):
    """Conductance at ``state_w``, by default the model's programmed state.

    Elementwise over a state array, whose values the caller keeps in [0, 1].
    """
    g_off = 1.0 / model.r_off
    return g_off + (model.state_w if state_w is None else state_w) * model.span


def switch_conductance(model: SwitchModel) -> float:
    """g_on when selected, g_off otherwise."""
    return model.g_on if model.selected else model.g_off


def _reciprocal_sum(parts):
    total = 1.0 / parts[0]
    for g in parts[1:]:
        total = total + 1.0 / g
    return 1.0 / total


def series_conductance(*conductances):
    """Harmonic composition of series conductances, elementwise over numpy arrays.

    The reciprocals add in argument order.  Any zero element opens the
    path and the result is exactly 0.  Negative conductances are rejected.
    """
    if not conductances:
        raise ValueError("series_conductance needs at least one element")
    low = min(np.fmin.reduce(g, axis=None) for g in conductances)
    if low < 0.0:
        raise ValueError(f"conductance must be non-negative, got {low}")
    # 1/0 = inf makes the sum inf and the result 0; a path of shorts sums to 0 and gives inf
    with np.errstate(divide="ignore"):
        return _reciprocal_sum([np.asarray(g, dtype=float) for g in conductances])


def cell_conductance(cell: CellState, line: str = "vl") -> float:
    """Effective conductance of a cell as seen from one readout line.

    The in-path elements are the sensor (when present), the memristor and
    the select switch facing the requested line.  For single-switch
    configurations the one switch gates both lines, so ``line`` does not
    change the result.

    Args:
        cell: cell state.
        line: "vl" or "hl"; which readout line the cell is driving.

    Returns:
        Series conductance in siemens; exactly 0 if any in-path switch is
        off with zero off-conductance.
    """
    if line not in ("vl", "hl"):
        raise ValueError(f"line must be 'vl' or 'hl', got {line!r}")
    switch = cell.hl_switch if cell.config is CellConfig.TWO_T1M1S and line == "hl" else cell.vl_switch
    sensor = np.inf if cell.sensor is None else fsr_conductance(cell.sensor, cell.force_f)
    return series_conductance(sensor, memristor_conductance(cell.memristor), switch_conductance(switch))
