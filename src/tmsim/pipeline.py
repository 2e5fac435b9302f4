"""Recognition pipeline: sensor array, noise model, training and evaluation.

The network is three layers of hardware.  A 4x2 dual-readout sensor
crossbar turns a force pattern into 6 line currents (2 column sums, 4 row
sums); a 6x14 differential-pair crossbar with rectifying line amplifiers
forms the hidden layer; a 14xN differential crossbar feeding the analog
softmax chain forms the output layer.

Training happens on the software twin of this stack with plain mini-batch
gradient descent.  The eight sensor-layer memristor states are free
parameters constrained to [0, 1]; their gradient flows through the series
conductance composition, differentiated in closed form.  Dense
weights map onto conductance pairs afterwards (``map_network``); the dense
biases are realized as line-amplifier output offsets rather than extra
conductances.

Sensor readouts are normalized before entering the hidden layer: dividing
by the current of one feature unit scales the contribution of one pressed
dot (at full memristor conductance) to ``pipeline.dot_gain`` feature units.
Additive Gaussian noise with the dimensionless variances of the noise
grid is applied to these normalized features, during training
(augmentation) and at evaluation, so ``dot_gain`` fixes the signal
amplitude relative to the noise.  The dense layers then see the noisy
features divided by ``dot_gain`` (unit increment per dot), which keeps
their inputs O(1) regardless of the gain setting; the rescaling is
absorbed by the trained weights.  The binary variant thresholds the noisy
normalized features at half of each feature's noiseless maximum and
trains on the resulting bits.
"""

from __future__ import annotations

import functools
import json
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import braille
from .analog_blocks import SoftmaxParams, softmax_circuit
from .braille import BrailleGroup, label_to_group, symbols
from .config import _INDEX_LIMIT, SimConfig, _dot_increment
from .crossbar import CrossbarSpec, Readout, _CellTable, _line_sums, solve_nodal, weights_to_differential
from .devices import (CellConfig, CellState, MemristorModel, SwitchModel, _fsr_affine, _reciprocal_sum,
                      fsr_conductance, memristor_conductance)

__all__ = [
    "NetworkArch",
    "NoiseSpec",
    "TrainHyper",
    "TrainedNetwork",
    "HardwareNetwork",
    "EvalEntry",
    "EvalReport",
    "TrainingError",
    "InvalidNetworkError",
    "build_sensor_crossbar",
    "sensor_layer_forward",
    "train",
    "map_network",
    "forward",
    "evaluate",
    "split_holdout",
    "arch_for",
    "sweep_point",
    "run_sweep",
    "SweepRow",
    "network_to_json",
    "network_from_json",
    "eval_report_to_csv",
]

NETWORK_SCHEMA_VERSION = 1

SENSOR_ROWS = 4
SENSOR_COLS = 2
N_FEATURES = SENSOR_COLS + SENSOR_ROWS  # column readouts then row readouts
N_HIDDEN = 14  # columns of the 6x14 hidden-layer weight crossbar


class TrainingError(RuntimeError):
    """Training diverged or was fed an inconsistent dataset.

    ``trained`` holds the networks of the grid levels before the one that
    failed, so the failed level's index in ``train``'s ``sigma2_grid`` is
    ``len(trained)``: empty without a grid, and for a dataset no level can
    train on.
    """

    trained: Sequence[TrainedNetwork] = ()


class InvalidNetworkError(ValueError):
    """A trained network field the fixed 6-14-N stack cannot run; the message names the field."""


def _check_sigma2(sigma2: float) -> None:
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2}")


def _check_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class NetworkArch:
    """Output labels of the fixed 6-14-N stack (inputs are the 6 sensor readouts)."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise InvalidNetworkError(f"labels must name at least two outputs, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidNetworkError("labels must be unique")

    @property
    def n_out(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise on the normalized signal: variance + stream seed."""

    sigma2: float
    seed: int = 0

    def __post_init__(self) -> None:
        _check_sigma2(self.sigma2)
        _check_seed(self.seed)


@dataclass(frozen=True)
class TrainHyper:
    lr: float = 0.05
    epochs: int = 500
    batch_size: int = 32
    seed: int = 0
    sigma2: float = 0.0  # noise augmentation variance during training
    mode: str = "analog"

    def __post_init__(self) -> None:
        if self.mode not in ("analog", "binary"):
            raise ValueError(f"mode must be 'analog' or 'binary', got {self.mode!r}")
        _check_sigma2(self.sigma2)
        _check_seed(self.seed)
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            if not value < _INDEX_LIMIT:
                raise ValueError(f"{name} must be below {_INDEX_LIMIT:.4g} to index an array, got {value!r}")

    @classmethod
    def from_config(cls, cfg: SimConfig, seed: int = 0, sigma2: float = 0.0, mode: str = "analog") -> "TrainHyper":
        return cls(lr=cfg.train.lr, epochs=cfg.train.epochs, batch_size=cfg.train.batch_size,
                   seed=seed, sigma2=sigma2, mode=mode)


@dataclass(frozen=True)
class TrainedNetwork:
    arch: NetworkArch
    mode: str
    w_hidden: np.ndarray  # (N_FEATURES, N_HIDDEN)
    b_hidden: np.ndarray  # (N_HIDDEN,)
    w_out: np.ndarray  # (N_HIDDEN, n_out)
    b_out: np.ndarray  # (n_out,)
    sensor_states: np.ndarray  # (4, 2) memristor states in [0, 1]
    binary_threshold: np.ndarray | None = None  # (6,), binary mode only

    def __post_init__(self) -> None:
        if self.mode not in ("analog", "binary"):
            raise InvalidNetworkError(f"mode must be 'analog' or 'binary', got {self.mode!r}")
        if (self.binary_threshold is None) == (self.mode == "binary"):
            raise InvalidNetworkError(f"binary_threshold must be given exactly when mode is 'binary', "
                                      f"got {'none' if self.binary_threshold is None else 'one'} "
                                      f"in {self.mode!r} mode")
        shapes = {"w_hidden": (N_FEATURES, N_HIDDEN), "b_hidden": (N_HIDDEN,),
                  "w_out": (N_HIDDEN, self.arch.n_out), "b_out": (self.arch.n_out,),
                  "sensor_states": (SENSOR_ROWS, SENSOR_COLS), "binary_threshold": (N_FEATURES,)}
        for name, shape in shapes.items():
            value = getattr(self, name)
            if value is None:
                continue
            if np.shape(value) != shape:
                raise InvalidNetworkError(f"{name} must have shape {shape}, got {np.shape(value)}")
            if np.asarray(value).dtype.kind not in "iuf" or not np.isfinite(value).all():
                raise InvalidNetworkError(f"{name} must hold finite numbers")
        if not ((self.sensor_states >= 0.0) & (self.sensor_states <= 1.0)).all():
            raise InvalidNetworkError(f"sensor_states must lie in [0, 1], got {self.sensor_states.min()!r} "
                                      f"to {self.sensor_states.max()!r}")


@dataclass(frozen=True)
class HardwareNetwork:
    """Differential-conductance realization of a trained network.

    ``amp_hidden``/``amp_out`` are the transimpedance gains of the line
    amplifiers: the reciprocal of the programming scale, so the mapped MACs
    reproduce the software activations exactly and argmax decisions are
    unchanged.
    """

    network: TrainedNetwork
    cfg: SimConfig
    gp_hidden: np.ndarray
    gm_hidden: np.ndarray
    scale_hidden: float
    gp_out: np.ndarray
    gm_out: np.ndarray
    scale_out: float

    @property
    def amp_hidden(self) -> float:
        return 1.0 / self.scale_hidden

    @property
    def amp_out(self) -> float:
        return 1.0 / self.scale_out

    @functools.cached_property
    def g_memristor(self) -> np.ndarray:
        """Memristor conductances (4, 2) of the sensor cells at the network's states."""
        return memristor_conductance(self.cfg.memristor, self.network.sensor_states)

    @functools.cached_property
    def g_diff_hidden(self) -> np.ndarray:
        """``gp_hidden - gm_hidden``: what each hidden-layer pair adds to its column current per volt."""
        return self.gp_hidden - self.gm_hidden

    @functools.cached_property
    def g_diff_out(self) -> np.ndarray:
        """``gp_out - gm_out``, as ``g_diff_hidden`` for the output layer."""
        return self.gp_out - self.gm_out


@dataclass(frozen=True)
class EvalEntry:
    group: str  # group name, or "overall" for the whole dataset
    sigma2: float
    accuracy: float  # percent
    n_items: int
    confusions: tuple[tuple[tuple[str, str], int], ...]  # ((true, predicted), count)


@dataclass(frozen=True)
class EvalReport:
    mode: str
    seed: int
    entries: tuple[EvalEntry, ...]

    def accuracy(self, group: str, sigma2: float) -> float:
        for entry in self.entries:
            if entry.group == group and entry.sigma2 == sigma2:
                return entry.accuracy
        raise KeyError(f"no entry for ({group!r}, sigma2={sigma2})")


# ---------------------------------------------------------------------------
# sensor layer


def _check_forces(forces: np.ndarray) -> np.ndarray:
    forces = np.asarray(forces, dtype=float)
    if forces.shape != (SENSOR_ROWS, SENSOR_COLS):
        raise ValueError(f"forces must be {SENSOR_ROWS}x{SENSOR_COLS}, got {forces.shape}")
    # NaN fails every comparison
    if not np.maximum.reduce(forces, axis=None) < np.inf:
        raise ValueError(f"forces must be finite, got {forces.tolist()}")
    low = np.minimum.reduce(forces, axis=None)
    if not low >= 0.0:
        raise ValueError(f"force must be non-negative, got {low}")
    return forces


def _check_sensor_arrays(forces: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    forces = _check_forces(forces)
    states = np.asarray(states, dtype=float)
    if states.shape != (SENSOR_ROWS, SENSOR_COLS):
        raise ValueError(f"states must be {SENSOR_ROWS}x{SENSOR_COLS}, got {states.shape}")
    if not (np.minimum.reduce(states, axis=None) >= 0.0 and np.maximum.reduce(states, axis=None) <= 1.0):
        raise ValueError(f"memristor states must lie in [0, 1], got {states.tolist()}")
    return forces, states


def build_sensor_crossbar(
    forces: np.ndarray, states: np.ndarray, cfg: SimConfig, parasitic: bool = False
) -> CrossbarSpec:
    """4x2 dual-readout 2T1M1S array for one force pattern.

    ``parasitic`` swaps in the calibrated wire resistance and switch
    off-conductance so ``solve_nodal`` exposes the sneak-path droop;
    without it the array is ideal: ideal wires and switches that do not leak.

    The spec's cell table comes straight from the arrays, through the
    formulas ``crossbar._cells`` applies cell by cell, so every readout is
    bit-identical to that of the same grid of ``CellState``s.  That grid
    is built only if the spec's ``cells`` is read.
    """
    forces, states = _check_sensor_arrays(forces, states)
    g_off = cfg.parasitics.switch_g_off if parasitic else 0.0
    wire = cfg.parasitics.wire_resistance if parasitic else 0.0
    switch = SwitchModel(g_on=cfg.switch_g_on, g_off=g_off, selected=True)
    table = np.empty((6, SENSOR_ROWS * SENSOR_COLS))  # sensor, memristor, on (vl, hl), off (vl, hl)
    table[0] = _fsr_affine(cfg.sensor, forces).ravel()
    table[1] = memristor_conductance(cfg.memristor, states).ravel()
    table[2:4], table[4:] = switch.g_on, g_off
    table.flags.writeable = False  # and so every row view of it, which the spec shares with its readers
    return CrossbarSpec._from_table(
        _CellTable(table[0], table[1], table[2:4], table[4:], frozenset({CellConfig.TWO_T1M1S})),
        functools.partial(_sensor_cells, forces.tolist(), states.tolist(), cfg, switch),
        m=SENSOR_ROWS,
        n=SENSOR_COLS,
        wire_resistance_per_segment=wire,
        readout=Readout.VL_AND_HL,
        termination_conductance=cfg.parasitics.termination_conductance,
    )


def _sensor_cells(forces: list, states: list, cfg: SimConfig, switch: SwitchModel) -> tuple:
    """``build_sensor_crossbar``'s grid of ``CellState``s, from checked forces and states (nested lists)."""
    r_on, r_off = cfg.memristor.r_on, cfg.memristor.r_off
    return tuple(
        tuple(
            CellState(
                config=CellConfig.TWO_T1M1S,
                memristor=MemristorModel(r_on, r_off, state),
                vl_switch=switch,
                hl_switch=switch,
                sensor=cfg.sensor,
                force_f=force,
            )
            for force, state in zip(force_row, state_row)
        )
        for force_row, state_row in zip(forces, states)
    )


def sensor_layer_forward(
    forces: np.ndarray, states: np.ndarray, cfg: SimConfig, fidelity: str = "ideal"
) -> np.ndarray:
    """Raw line currents of the sensor array: 2 column readouts then 4 row readouts."""
    if fidelity not in ("ideal", "nodal"):
        raise ValueError(f"fidelity must be 'ideal' or 'nodal', got {fidelity!r}")
    if fidelity == "ideal":
        forces, states = _check_sensor_arrays(forces, states)
        return _line_currents(forces, memristor_conductance(cfg.memristor, states), cfg)
    spec = build_sensor_crossbar(forces, states, cfg, parasitic=True)
    return solve_nodal(spec, cfg.sensor.v_supply).concatenated()


def _line_currents(forces: np.ndarray, g_m: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Ideal readouts of force grids (..., 4, 2): 2 column sums then 4 row sums.

    ``g_m`` holds the cells' memristor conductances (4, 2).  Every cell's
    series conductance sums onto its column line and its row line through
    crossbar's line sums, which ``ideal_dual_readout`` also runs, and the
    sums are then scaled by ``v_supply``.

    The callers have checked the forces (finite, non-negative) and the
    states, so every part of a cell is positive and the device formulas run
    without their checks, as ``series_conductance`` would on such parts.
    """
    cells = _reciprocal_sum((_fsr_affine(cfg.sensor, forces), g_m, cfg.switch_g_on))
    out = _line_sums(cells, cells, np.empty(cells.shape[:-2] + (N_FEATURES,)))
    out *= cfg.sensor.v_supply
    return out


def _add_noise(x: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Additive i.i.d. Gaussian noise of variance sigma2 on a normalized signal."""
    x = np.asarray(x, dtype=float)
    if noise.sigma2 == 0.0:
        return x.copy()
    rng = np.random.default_rng(noise.seed)
    return x + np.sqrt(noise.sigma2) * rng.standard_normal(x.shape)


# ---------------------------------------------------------------------------
# training


def _dataset_arrays(dataset, arch: NetworkArch, f_press: float) -> tuple[np.ndarray, np.ndarray]:
    """Pressed-dot grids (N, 4, 2) as 0/1 floats and output indices (N,) of (force grid, label) items.

    Every pressed dot must carry ``f_press``: the callers rebuild each press at that force.
    """
    if not dataset:
        raise TrainingError("dataset is empty")
    label_index = {label: i for i, label in enumerate(arch.labels)}
    try:
        targets = np.array([label_index[label] for _, label in dataset], dtype=int)
        grids = np.array([grid for grid, _ in dataset], dtype=float)
    except (KeyError, TypeError, ValueError):
        grids = None
    if grids is None or grids.shape[1:] != (SENSOR_ROWS, SENSOR_COLS):
        # name the first bad item
        for i, (grid, label) in enumerate(dataset):
            if label not in label_index:
                raise TrainingError(f"dataset label {label!r} is not in the architecture's outputs")
            grid = np.asarray(grid, dtype=float)
            if grid.shape != (SENSOR_ROWS, SENSOR_COLS):
                raise TrainingError(f"item {i}: force grid must be 4x2, got {grid.shape}")
        raise TrainingError("force grids must be 4x2 arrays of numbers")
    # NaN fails both comparisons, so a NaN force counts as bad, not as unpressed
    if not (np.minimum.reduce(grids, axis=None) >= 0.0 and np.maximum.reduce(grids, axis=None) < np.inf):
        i = int((~((grids >= 0.0) & (grids < np.inf)).all(axis=(1, 2))).argmax())
        raise TrainingError(f"item {i}: forces must be finite and non-negative, got {grids[i].tolist()}")
    dots = (grids > 0.0).astype(float)
    if not np.array_equal(grids, dots * f_press):
        i = int((grids != dots * f_press).any(axis=(1, 2)).argmax())
        raise TrainingError(f"item {i}: a pressed dot must carry braille.f_press = {f_press:g} lbf, "
                            f"got {grids[i].tolist()}")
    return dots, targets


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of ``z`` (..., n), written over ``z`` and returned."""
    np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=z)
    np.exp(z, out=z)
    return np.divide(z, np.add.reduce(z, axis=-1, keepdims=True), out=z)


def _network_input(x: np.ndarray, mode: str, threshold: np.ndarray | None, dot_gain: float) -> np.ndarray:
    """Dense-layer input from noisy normalized features.

    Binary mode thresholds each feature into a bit; analog mode divides by
    ``dot_gain`` so one pressed dot adds one unit.
    """
    if mode != "binary":
        return x / dot_gain
    return (x >= threshold).astype(float)


# The sensor states follow the dense weights with a damped step.  The bulk of
# the loss pushes every state toward full conductance (more signal); the few
# symbol pairs that need state diversity push back much more weakly because
# they are a small fraction of any batch.  Damping keeps the initial
# increment ladder from being flattened before the dense layers have learned
# to exploit it.
_STATE_LR_FACTOR = 0.02


def _state_increment_ladder(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Initial sensor states with mutually distinct pressed-dot increments.

    Cells with equal states make symmetric dot patterns (same per-row and
    per-column pressed counts) indistinguishable, and the gradient toward
    distinct states vanishes near full conductance where the series
    composition saturates.  Starting the eight cells on an even ladder of
    increment values (assignment permuted per seed) breaks that symmetry
    from the first step; gradient descent then refines the rungs.
    """
    w_grid = np.linspace(0.0, 1.0, 2001)
    increments = _dot_increment(memristor_conductance(cfg.memristor, w_grid), cfg)
    targets = np.linspace(increments[0], increments[-1], SENSOR_ROWS * SENSOR_COLS)
    states = np.interp(targets, increments, w_grid)
    return rng.permutation(states).reshape(SENSOR_ROWS, SENSOR_COLS)


def _state_sensitivity(u: np.ndarray, g_m: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Exact d(cell conductance)/d(state): u^2 / g_m^2 * the memristor span.

    ``u`` is the series cell conductance and ``g_m`` the memristor
    conductance (``memristor_conductance``) at the same states.
    """
    return (u / g_m) ** 2 * cfg.memristor.span


def _cell_slots(dots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each item of pressed-dot grids (N, 4, 2) reads its cells in one step's conductances.

    A step flattens its cell conductances (2, 4, 2) -- pressed, then
    unpressed -- into slots 0..15 and holds 0 in slot 16.  An item's cell
    (r, c) reads slot ``2 r + c``, plus 8 when its dot is not pressed.

    Returns ``lines`` (4, N, 6) and ``cells`` (N, 8).  ``lines[:, i, j]``
    lists the slots of item i's line j in ``_line_sums``' order: a column
    line's four cells top to bottom, a row line's two cells left to right
    and then slot 16 twice.  ``cells[i]`` lists the eight cells' slots in
    row-major order.
    """
    n_cells = SENSOR_ROWS * SENSOR_COLS
    cells = np.arange(n_cells) + np.where(dots.reshape(len(dots), n_cells) > 0.0, 0, n_cells)
    grid = cells.reshape(len(dots), SENSOR_ROWS, SENSOR_COLS).transpose(1, 0, 2)  # (4, N, 2)
    lines = np.full((SENSOR_ROWS, len(dots), N_FEATURES), 2 * n_cells)
    lines[:, :, :SENSOR_COLS] = grid
    lines[:SENSOR_COLS, :, SENSOR_COLS:] = grid.transpose(2, 1, 0)
    return lines, cells


def _layer_views(flat: np.ndarray, n_out: int) -> tuple[np.ndarray, ...]:
    """w1 (K, 6, 14), b1 (K, 1, 14), w2 (K, 14, n_out) and b2 (K, 1, n_out) as views of flat vectors (K, P)."""
    k = len(flat)
    w1, b1, w2, b2 = np.split(flat, np.cumsum([N_FEATURES * N_HIDDEN, N_HIDDEN, N_HIDDEN * n_out]), axis=1)
    return (w1.reshape(k, N_FEATURES, N_HIDDEN), b1.reshape(k, 1, N_HIDDEN), w2.reshape(k, N_HIDDEN, n_out),
            b2.reshape(k, 1, n_out))


def train(dataset, arch: NetworkArch, hyper: TrainHyper, cfg: SimConfig,
          sigma2_grid: Sequence[float] | None = None) -> TrainedNetwork | list[TrainedNetwork]:
    """Mini-batch gradient descent on the software twin of the hardware stack.

    Analog mode trains the dense layers and the eight sensor memristor
    states (projected back into [0, 1] after every step).  Binary mode
    fixes the states at full conductance -- the hard threshold passes no
    gradient -- and trains the dense layers on thresholded features.

    With ``sigma2_grid``, ``train`` returns one network per noise level, in
    grid order, each equal to ``train(dataset, arch, replace(hyper,
    sigma2=s), cfg)``; ``hyper.sigma2`` is then unused.  Every level seeds
    its generator from ``hyper.seed``, so the levels draw the same initial
    weights, ladder, permutations and standard normals, and sigma only
    scales the noise: one run whose arrays carry a leading axis over the
    levels trains them all.  A level of 0 draws no noise, so its stream
    differs, and the zero levels train as a stack of their own.

    Raises:
        TrainingError: on divergence (non-finite loss), a dataset/arch
            mismatch or a pressed dot not at ``cfg.f_press``.  With a grid,
            the error of the first level in grid order that fails, as
            training the levels one by one in grid order would raise, with
            ``trained`` set to the networks of the levels before it.
    """
    levels = [hyper.sigma2] if sigma2_grid is None else list(sigma2_grid)
    for sigma2 in levels:
        _check_sigma2(sigma2)
    dots, targets = _dataset_arrays(dataset, arch, cfg.f_press)
    # a stack's outcomes end at its first failure, so its None slots lie after that failure in grid order
    outcomes: list = [None] * len(levels)
    for stack in ([i for i, s in enumerate(levels) if s == 0.0], [i for i, s in enumerate(levels) if s != 0.0]):
        if stack:
            for i, outcome in zip(stack, _train_stack(dots, targets, arch, hyper, cfg, [levels[i] for i in stack])):
                outcomes[i] = outcome
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, TrainingError):
            outcome.trained = outcomes[:i]
            raise outcome
    return outcomes[0] if sigma2_grid is None else outcomes


def _train_stack(dots: np.ndarray, targets: np.ndarray, arch: NetworkArch, hyper: TrainHyper, cfg: SimConfig,
                 sigma2s: Sequence[float]) -> list[TrainedNetwork | TrainingError]:
    """``train`` over K noise levels that all draw noise, or all draw none, in one SGD loop.

    Every array of the step carries a leading axis over the levels: the
    parameters, their gradients, the states and the batch's features and
    probabilities.  Each level's arithmetic is the one-level run's,
    elementwise, per row or per matrix (a stacked ``matmul`` calls the same
    gemm per matrix), so each network is bit-identical to its own run.

    Returns the networks of the levels before the first level whose loss
    diverges, then that level's ``TrainingError``, built at its loss's first
    divergence.  A diverged level trains on in NaNs, which reach no other
    level, so the levels before it still train to the end; the run ends as
    soon as level 0 diverges, since then no network is returned.
    """
    n_items, k = len(dots), len(sigma2s)
    n_out, batch_size = arch.n_out, hyper.batch_size
    rng = np.random.default_rng(hyper.seed)

    # the layers are views of one flat vector per level and their gradients
    # views of another, so that one SGD update is two ufunc calls
    params, grads = np.zeros((2, k, (N_FEATURES + 1 + n_out) * N_HIDDEN + n_out))
    w1, b1, w2, b2 = _layer_views(params, n_out)
    dw1, db1, dw2, db2 = _layer_views(grads, n_out)
    w1[...] = rng.normal(0.0, np.sqrt(2.0 / N_FEATURES), (N_FEATURES, N_HIDDEN))
    w2[...] = rng.normal(0.0, np.sqrt(2.0 / N_HIDDEN), (N_HIDDEN, n_out))
    # views, so they follow the in-place updates; the bias gradients without the broadcast axis
    w1_t, w2_t = w1.transpose(0, 2, 1), w2.transpose(0, 2, 1)
    db1, db2 = db1[:, 0], db2[:, 0]

    norm = cfg.feature_norm
    analog = hyper.mode == "analog"
    if analog:
        # (K, 1, 4, 2): the 1 broadcasts a level's states over its pressed and unpressed cells
        states = np.repeat(_state_increment_ladder(cfg, rng)[None, None], k, axis=0)
        threshold = None
    else:
        # the states never move, so neither do the noiseless features
        states = np.ones((k, 1, SENSOR_ROWS, SENSOR_COLS))
        noiseless = _line_currents(dots * cfg.f_press, memristor_conductance(cfg.memristor, states[0, 0]), cfg) / norm
        threshold = 0.5 * noiseless.max(axis=0)

    # The step runs on values checked once here: the config's devices, the
    # 0/1 dots and the states, which the clip keeps in [0, 1].  So it calls
    # the device formulas without their argument checks.
    level = np.arange(k)
    if analog:
        # Dots are 0/1, so every cell sits at one of two forces: each state
        # update computes both cell conductances u (K, 2, 4, 2) and each
        # item reads one per cell, by the slots that _cell_slots gives it
        # once here, from its level's row of the slotted conductances
        # (K, 17).  The state gradient's bincount flattens the levels, so
        # its bins move by 16 per level.
        line_slots, cell_slots = _cell_slots(dots)
        level_bins = (level * 2 * SENSOR_ROWS * SENSOR_COLS)[:, None, None]
        # each epoch's order, and the cells' slots per level (K, N, 8)
        line_slots_e, cell_slots_e = np.empty_like(line_slots), np.empty((k,) + cell_slots.shape, dtype=np.intp)
        slotted = np.zeros((k, 2 * SENSOR_ROWS * SENSOR_COLS + 1))  # u in slots 0..15, then the pad's 0
        slotted_u = slotted[:, :-1].reshape(k, 2, SENSOR_ROWS, SENSOR_COLS)
        # _reciprocal_sum's terms that do not move: the resistance of a
        # pressed and an unpressed sensor (2, 1, 1) and the switch's
        r_sensor = 1.0 / fsr_conductance(cfg.sensor, np.array([cfg.f_press, 0.0]).reshape(2, 1, 1))
        r_on = 1.0 / cfg.switch_g_on
        memristor = cfg.memristor
    # each item's target in the flattened probabilities (K, B, n_out) of its
    # batch, where B is the size of the item's batch; (N, K), so that a batch
    # slices its rows
    position = np.arange(n_items)[:, None]
    batch_len = np.minimum(batch_size, n_items - position // batch_size * batch_size)
    pick_offsets = position % batch_size * n_out + level * batch_len * n_out
    x_buf = np.empty((k, min(batch_size, n_items), N_FEATURES))  # analog: the batch's network input, built in place
    sigmas = np.sqrt(np.array(sigma2s, dtype=float)).reshape(k, 1, 1)
    noise = np.empty((k, n_items, N_FEATURES)) if sigmas[0, 0, 0] != 0.0 else None
    lr = hyper.lr
    state_lr = lr * _STATE_LR_FACTOR
    v_supply = cfg.sensor.v_supply
    dot_gain = cfg.dot_gain
    # d(network input)/d(cell conductance): every feature is a plain sum of
    # cell conductances (its column for features 0..1, its row for 2..5)
    # scaled by v_supply, the normalization and the O(1) input division
    feat_scale = v_supply / (norm * dot_gain)
    failed, error = k, None  # the first level that has diverged (k while none has) and its error

    for epoch in range(hyper.epochs):
        order = rng.permutation(n_items)
        if noise is not None:
            # nothing else draws from rng within an epoch, so one draw yields
            # the same numbers in the same order as one draw per batch, and
            # each level scales the same draw
            np.multiply(sigmas, rng.standard_normal((n_items, N_FEATURES)), out=noise)
        if analog:
            np.take(line_slots, order, axis=1, out=line_slots_e)
            np.add(cell_slots[order], level_bins, out=cell_slots_e)
        else:
            feats = noiseless[order]
            inputs_e = _network_input(feats[None] if noise is None else np.add(feats, noise, out=noise),
                                      hyper.mode, threshold, dot_gain)
        picks_e = pick_offsets + targets[order, None]

        for start in range(0, n_items, batch_size):
            rows = slice(start, start + batch_size)
            if analog:
                g_m = memristor_conductance(memristor, states)
                # _reciprocal_sum((sensor, g_m, switch)), the formula behind
                # series_conductance, into the slots: (K, 2, 4, 2), pressed, unpressed
                u = np.divide(1.0, r_sensor + 1.0 / g_m + r_on, out=slotted_u)
                # one gather (K, 4, B, 6) and one sum down each line.  The sum
                # adds a line's cells first to last, as _line_sums' reduce
                # over a column does, and a row's a + b then adds the pad's
                # two exact zeros, so every feature is _line_sums' value
                lines = slotted.take(line_slots_e[:, rows], axis=1)
                x = np.add.reduce(lines, axis=1, out=x_buf[:, :lines.shape[2]])
                # in place, in the order of _line_currents, the normalization,
                # the noise and _network_input's analog branch
                x *= v_supply
                x /= norm
                if noise is not None:
                    x += noise[:, rows]
                x /= dot_gain
            else:
                x = inputs_e[:, rows]  # (1, B, 6) without noise: it broadcasts over the levels
            pre1 = x @ w1
            pre1 += b1
            hidden = np.maximum(pre1, 0.0)
            logits = hidden @ w2
            logits += b2
            probs = _softmax_rows(logits)
            picks = picks_e[rows]
            picked = probs.take(picks)  # (B, K)
            # a softmax row is finite throughout or NaN throughout, so the
            # mean cross-entropy is non-finite exactly when a pick is NaN,
            # which the minimum propagates
            if not np.minimum.reduce(picked, axis=None) >= 0.0:
                i = int(np.flatnonzero(~(np.minimum.reduce(picked, axis=0) >= 0.0))[0])
                if i < failed:
                    loss = -np.log(np.maximum(picked[:, i], 1e-300)).mean()
                    failed, error = i, TrainingError(f"loss diverged at epoch {epoch}: {loss}")
                    if failed == 0:
                        return [error]

            dz = probs  # (probs - onehot) / B, in place
            picked -= 1.0
            dz.put(picks, picked)
            dz /= len(picks)
            np.matmul(hidden.transpose(0, 2, 1), dz, out=dw2)
            np.add.reduce(dz, axis=1, out=db2)
            dpre1 = dz @ w2_t  # d(loss)/d(hidden), masked into d(loss)/d(pre1) in place
            dpre1 *= pre1 > 0.0
            np.matmul(x.transpose(0, 2, 1), dpre1, out=dw1)
            np.add.reduce(dpre1, axis=1, out=db1)

            if analog:
                dx = dpre1 @ w1_t  # (K, B, 6)
                dcell = dx[:, :, None, :SENSOR_COLS] + dx[:, :, SENSOR_COLS:, None]
                dcell *= feat_scale
                # (K, 2, 4, 2): pressed, unpressed.  Each slot adds its items'
                # dcell in batch order from 0, which is the 0/1-masked sum
                # over the batch: the masked-out zeros change no value
                du = np.bincount(cell_slots_e[:, rows].ravel(), weights=dcell.ravel(),
                                 minlength=u.size).reshape(u.shape)
                sens = _state_sensitivity(u, g_m, cfg)
                dstates = np.add.reduce(du * sens, axis=1, keepdims=True)
                # descend in increment space: the state-to-increment map is
                # steep near 0 and nearly flat near 1, so raw state steps
                # either overshoot the sensitive region or stall; dividing by
                # the squared sensitivity equals gradient descent on the
                # increment itself
                cond = np.maximum(np.subtract.reduce(sens, axis=1, keepdims=True) * feat_scale, 1e-2)
                # the clip to [0, 1] as two ufuncs: np.clip's wrapper costs more
                states = np.minimum(np.maximum(states - state_lr * dstates / cond**2, 0.0), 1.0)

            grads *= lr
            params -= grads

    return [
        TrainedNetwork(
            arch=arch,
            mode=hyper.mode,
            w_hidden=w1[i].copy(),
            b_hidden=b1[i, 0].copy(),
            w_out=w2[i].copy(),
            b_out=b2[i, 0].copy(),
            sensor_states=states[i, 0].copy(),
            binary_threshold=None if threshold is None else threshold.copy(),
        )
        for i in range(failed)
    ] + ([] if error is None else [error])


# ---------------------------------------------------------------------------
# hardware mapping and inference


def _layer_scale(weights: np.ndarray, span: float) -> float:
    peak = float(np.abs(weights).max())
    return span / peak if peak > 0.0 else span


def map_network(tn: TrainedNetwork, cfg: SimConfig) -> HardwareNetwork:
    """Program dense weights onto differential conductance pairs.

    Each layer uses the largest scale that keeps its extreme weight exactly
    at the memristor span, and an amplifier gain of 1/scale so mapped
    activations equal the software ones.
    """
    scale_hidden = _layer_scale(tn.w_hidden, cfg.memristor.span)
    scale_out = _layer_scale(tn.w_out, cfg.memristor.span)
    gp_hidden, gm_hidden = weights_to_differential(tn.w_hidden, cfg.memristor, scale_hidden)
    gp_out, gm_out = weights_to_differential(tn.w_out, cfg.memristor, scale_out)
    return HardwareNetwork(
        network=tn,
        cfg=cfg,
        gp_hidden=gp_hidden,
        gm_hidden=gm_hidden,
        scale_hidden=scale_hidden,
        gp_out=gp_out,
        gm_out=gm_out,
        scale_out=scale_out,
    )


def _hardware_logits(hw: HardwareNetwork, x: np.ndarray) -> np.ndarray:
    """Differential MACs and amplifier stages up to the softmax input."""
    v_hidden = x @ hw.g_diff_hidden  # column currents, turned into amplifier voltages in place
    v_hidden *= hw.amp_hidden
    v_hidden += hw.network.b_hidden
    np.maximum(v_hidden, 0.0, out=v_hidden)
    logits = v_hidden @ hw.g_diff_out
    logits *= hw.amp_out
    logits += hw.network.b_out
    return logits


# Relative gap below which two logits may come out of the softmax circuit as
# equal outputs.  The circuit is monotone in each logit, so a logit that
# beats every other by more than this wins there too.  Its float rounding acts
# at about 1e-16 of max(|logit|, v_t) (dividing by v_t, then exp near 1), so
# 1e-9 of that leaves a wide guard; trained networks' top two logits lie
# millivolts apart.
_LOGIT_TIE_MARGIN = 1e-9


def _predicted_outputs(logits: np.ndarray, params: SoftmaxParams) -> np.ndarray:
    """Index of the largest softmax-circuit output of each row of logits (N, n_out).

    Equal to ``softmax_circuit(logits, params).argmax(axis=1)``: rows with a
    clear largest logit take it, and rows where another logit lies within
    the margin go through the circuit, whose rounded outputs can tie; a tie
    goes to the first index.
    """
    predicted = logits.argmax(axis=1)
    top = logits[np.arange(len(logits)), predicted]
    # a row is clear when all but its top lie below the floor; a NaN floor
    # (from an inf or NaN top) has nothing below it, so its row goes to the
    # circuit, which rejects it
    with np.errstate(invalid="ignore"):
        floor = top - _LOGIT_TIE_MARGIN * np.maximum(np.abs(top), params.v_t)
    below = logits < floor[:, None]
    if np.count_nonzero(below) < below.size - len(below):  # one count over all rows finds any near row
        near = np.count_nonzero(below, axis=1) < logits.shape[1] - 1
        predicted[near] = softmax_circuit(logits[near], params).argmax(axis=1)
    return predicted


def forward(
    hw: HardwareNetwork,
    forces: np.ndarray,
    noise: NoiseSpec | None = None,
) -> tuple[np.ndarray, str]:
    """Single-pattern inference through the mapped hardware chain.

    Returns the softmax-circuit output normalized by r_f * i_s (so it sums
    to r_sum / r_f, 1 at the default equal resistors) and the predicted label.
    """
    tn = hw.network
    feats = _line_currents(_check_forces(forces)[None], hw.g_memristor, hw.cfg)
    feats /= hw.cfg.feature_norm
    if noise is not None:
        feats = _add_noise(feats, noise)
    x = _network_input(feats, tn.mode, tn.binary_threshold, hw.cfg.dot_gain)
    params = hw.cfg.softmax
    probs = softmax_circuit(_hardware_logits(hw, x), params)[0]
    probs /= params.r_f * params.i_s
    return probs, tn.arch.labels[probs.argmax()]


def _confusion_pairs(true: np.ndarray, predicted: np.ndarray,
                     names: Sequence[str]) -> tuple[tuple[tuple[str, str], int], ...]:
    """((true, predicted), count) of the misclassified items, most frequent first, then by name pair.

    ``true`` and ``predicted`` index ``names``, which is sorted, so that
    index order is name order.
    """
    n = len(names)
    wrong = predicted != true
    counts = np.bincount(true[wrong] * n + predicted[wrong])
    cells = np.flatnonzero(counts)
    cells = cells[np.argsort(-counts[cells], kind="stable")]
    return tuple(((names[t], names[p]), c)
                 for t, p, c in zip((cells // n).tolist(), (cells % n).tolist(), counts[cells].tolist()))


def evaluate(hw: HardwareNetwork, dataset, sigma2_grid: Sequence[float], seed: int = 0) -> EvalReport:
    """Accuracy of the mapped network over a noise grid.

    Per grid point, every item receives one fresh noise draw from a stream
    derived from (seed, grid index); reports are bit-identical across runs
    with equal arguments.  Each item is scored by the largest output of the
    softmax circuit, which ``_predicted_outputs`` reads from the logits.
    Every pressed dot must carry ``hw.cfg.f_press``; ``forward`` takes any force.
    """
    _check_seed(seed)
    tn = hw.network
    dots, targets = _dataset_arrays(dataset, tn.arch, hw.cfg.f_press)
    feats = _line_currents(dots * hw.cfg.f_press, hw.g_memristor, hw.cfg) / hw.cfg.feature_norm
    # outputs renumbered in label order, which orders the confusions
    sorted_labels = sorted(tn.arch.labels)
    position = {label: r for r, label in enumerate(sorted_labels)}
    rank = np.array([position[label] for label in tn.arch.labels])
    true = rank[targets]

    # (name, item indices) of the whole set and, when it spans several
    # groups, of each group; they depend on the dataset alone.
    scopes = [("overall", np.arange(len(targets)))]
    present = np.flatnonzero(np.bincount(targets)).tolist()  # each output the dataset holds, once
    group_of = {t: label_to_group(tn.arch.labels[t]).value for t in present}
    group_names = sorted(set(group_of.values()))
    if len(group_names) > 1:
        groups = np.array([group_of.get(t, "") for t in range(tn.arch.n_out)])[targets]
        scopes += [(g, np.flatnonzero(groups == g)) for g in group_names]

    entries: list[EvalEntry] = []
    for j, sigma2 in enumerate(sigma2_grid):
        _check_sigma2(sigma2)
        rng = np.random.default_rng([seed, j])
        x = feats + np.sqrt(sigma2) * rng.standard_normal(feats.shape) if sigma2 > 0.0 else feats
        x = _network_input(x, tn.mode, tn.binary_threshold, hw.cfg.dot_gain)
        predicted = rank[_predicted_outputs(_hardware_logits(hw, x), hw.cfg.softmax)]
        correct = predicted == true
        for name, idx in scopes:
            entries.append(EvalEntry(group=name, sigma2=float(sigma2),
                                     accuracy=100.0 * float(correct[idx].sum()) / idx.size,
                                     n_items=idx.size,
                                     confusions=_confusion_pairs(true[idx], predicted[idx], sorted_labels)))
    return EvalReport(mode=tn.mode, seed=seed, entries=tuple(entries))


# ---------------------------------------------------------------------------
# sweep protocol


@dataclass(frozen=True)
class SweepRow:
    group_set: str
    sigma2: float
    mode: str
    seed: int
    accuracy: float
    n_test: int


def split_holdout(dataset, copies: int):
    """Split by per-label occurrence: the last of ``copies`` copies becomes the test set."""
    if copies < 2:
        raise ValueError(f"a holdout split needs copies >= 2, got {copies}")
    seen: dict[str, int] = {}
    train_items, test_items = [], []
    for grid, label in dataset:
        seen[label] = seen.get(label, 0) + 1
        (train_items if seen[label] < copies else test_items).append((grid, label))
    return train_items, test_items


def arch_for(group_names: Sequence[str]) -> NetworkArch:
    """Architecture whose outputs are every symbol of the named groups ("fusion": all)."""
    selected = list(BrailleGroup) if "fusion" in group_names else [BrailleGroup(g) for g in group_names]
    labels = tuple(sym.label for g in selected for sym in symbols(g))
    return NetworkArch(labels=labels)


def sweep_point(
    group_names: Sequence[str],
    sigma2_grid: Sequence[float],
    mode: str,
    seed: int,
    cfg: SimConfig,
    copies: int = 5,
) -> list[SweepRow]:
    """``run_sweep`` of one (group set, mode, seed) stack, which runs in this process: one row per level."""
    return run_sweep([group_names], sigma2_grid, [mode], [seed], cfg, copies)


def _stack_rows(group_names: Sequence[str], mode: str, seed: int, sigma2_grid: list[float], cfg: SimConfig,
                copies: int) -> list:
    """One stack's rows in grid order up to its first failing level, then what failed that level.

    One dataset and one stacked ``train`` serve every level, and each level
    is scored on its own, so each row equals that of training and scoring
    its level alone.  A level fails when its training diverges or its
    scoring raises, and its exception, as raised, ends the list.  The
    levels before a diverged one, whose networks its error carries, are
    scored first, as training and scoring the levels one by one would.
    """
    # looked up in braille at each call, not bound here, so that a wrapper
    # put on braille.build_dataset (perfbench's trace) also sees sweep points
    dataset = braille.build_dataset(group_names, copies=copies, seed=seed, f_press=cfg.f_press)
    train_items, test_items = split_holdout(dataset, copies=copies)
    arch = arch_for(group_names)
    hyper = TrainHyper.from_config(cfg, seed=seed, mode=mode)
    group_set = "+".join(group_names)
    try:
        outcomes = train(train_items, arch, hyper, cfg, sigma2_grid)
    except TrainingError as exc:
        outcomes = [*exc.trained, exc]
    rows = []
    for sigma2, outcome in zip(sigma2_grid, outcomes):
        if isinstance(outcome, TrainingError):
            return rows + [outcome]
        try:
            report = evaluate(map_network(outcome, cfg), test_items, [sigma2], seed=seed)
        except Exception as exc:  # whatever scoring raises fails this level
            return rows + [exc]
        rows.append(SweepRow(group_set=group_set, sigma2=sigma2, mode=mode, seed=seed,
                             accuracy=report.accuracy("overall", sigma2), n_test=len(test_items)))
    return rows


def run_sweep(
    group_sets: Sequence[Sequence[str]],
    sigma2_grid: Sequence[float],
    modes: Sequence[str],
    seeds: Sequence[int],
    cfg: SimConfig,
    copies: int = 5,
) -> list[SweepRow]:
    """Cartesian sweep over group sets, noise grid, modes and seeds.

    The unit of work is one (group set, mode, seed) stack, whose noise
    levels one stacked ``train`` trains.  The rows come in stack order --
    group set, mode, seed -- and each stack's rows in grid order; with one
    seed that is the grid order (group set, mode, noise level).  The stacks
    run in a pool of one process per available core, at most one per stack;
    on one core they run in this process.  Either way each row equals its
    point's own run, and a failing sweep raises a ``TrainingError`` that
    names its first failing point in row order, chained from what that
    point raised.  No stack after the first failing one is used: in this
    process it never runs, and in a pool the stacks not yet started are
    cancelled.
    """
    grid = list(sigma2_grid)
    stacks = [(group_names, mode, seed) for group_names in group_sets for mode in modes for seed in seeds]
    stack = functools.partial(_stack_rows, sigma2_grid=grid, cfg=cfg, copies=copies)
    workers = min(len(os.sched_getaffinity(0)), len(stacks))
    if workers <= 1:
        return _joined_rows(stacks, (stack(*args) for args in stacks), grid)
    # imported here: processes that never start a pool do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned workers import tmsim afresh and share nothing with this
    # process but the pickled arguments; they apply its warning filters
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                               initializer=_use_warning_filters, initargs=(list(warnings.filters),))
    try:
        return _joined_rows(stacks, pool.map(stack, *zip(*stacks)), grid)
    finally:
        pool.shutdown(cancel_futures=True)


def _joined_rows(stacks: list[tuple], outcomes, grid: list[float]) -> list[SweepRow]:
    """The ``_stack_rows`` lists that ``outcomes`` yields for ``stacks``, joined in order.

    Raises a ``TrainingError`` naming the point of the first list that ends
    in an exception, chained from it, before the next list is taken.
    """
    rows: list[SweepRow] = []
    for (group_names, mode, seed), outcome in zip(stacks, outcomes):
        if outcome and isinstance(outcome[-1], Exception):
            exc = outcome[-1]
            raise TrainingError(f"{'+'.join(group_names)} {mode} sigma2={grid[len(outcome) - 1]:g} "
                                f"seed {seed}: {exc}") from exc
        rows += outcome
    return rows


def _use_warning_filters(filters: list) -> None:
    """Pool initializer: make a worker treat warnings as the process that started it does."""
    warnings.filters[:] = filters


# ---------------------------------------------------------------------------
# serialization


def network_to_json(tn: TrainedNetwork) -> str:
    payload = {
        "schema_version": NETWORK_SCHEMA_VERSION,
        "mode": tn.mode,
        "labels": list(tn.arch.labels),
        "n_inputs": N_FEATURES,
        "n_hidden": N_HIDDEN,
        "w_hidden": tn.w_hidden.tolist(),
        "b_hidden": tn.b_hidden.tolist(),
        "w_out": tn.w_out.tolist(),
        "b_out": tn.b_out.tolist(),
        "sensor_states": tn.sensor_states.tolist(),
        "binary_threshold": None if tn.binary_threshold is None else tn.binary_threshold.tolist(),
    }
    return json.dumps(payload, indent=2)


def network_from_json(text: str) -> TrainedNetwork:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidNetworkError(f"not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidNetworkError(f"must be a JSON object, got {type(data).__name__}")
    version = data.get("schema_version")
    if version != NETWORK_SCHEMA_VERSION:
        raise InvalidNetworkError(f"unsupported network schema version {version!r}, "
                                  f"expected {NETWORK_SCHEMA_VERSION}")
    missing = [key for key in ("mode", "labels", "n_inputs", "n_hidden", "w_hidden", "b_hidden", "w_out",
                               "b_out", "sensor_states", "binary_threshold") if key not in data]
    if missing:
        raise InvalidNetworkError(f"missing field(s) {', '.join(missing)}")
    for key, size in (("n_inputs", N_FEATURES), ("n_hidden", N_HIDDEN)):
        if data[key] != size:
            raise InvalidNetworkError(f"{key} must be {size}, got {data[key]!r}")
    labels = data["labels"]
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise InvalidNetworkError(f"labels must be a list of strings, got {labels!r}")
    arch = NetworkArch(labels=tuple(labels))

    def array(key: str) -> np.ndarray:
        try:
            return np.array(data[key])
        except ValueError as exc:  # rows of unequal length
            raise InvalidNetworkError(f"{key} must be a rectangular array of numbers") from exc

    threshold = data["binary_threshold"]
    return TrainedNetwork(
        arch=arch,
        mode=data["mode"],
        w_hidden=array("w_hidden"),
        b_hidden=array("b_hidden"),
        w_out=array("w_out"),
        b_out=array("b_out"),
        sensor_states=array("sensor_states"),
        binary_threshold=None if threshold is None else array("binary_threshold"),
    )


def eval_report_to_csv(report: EvalReport) -> str:
    """Accuracy grid as CSV: one row per group, one column per noise level."""
    grid = sorted({e.sigma2 for e in report.entries})
    group_order = [g for g in ["overall", "group1", "group2", "group3", "group4"]
                   if any(e.group == g for e in report.entries)]
    lines = ["group,mode," + ",".join(f"sigma2={s:g}" for s in grid)]
    for group in group_order:
        cells = []
        for s in grid:
            try:
                cells.append(f"{report.accuracy(group, s):.2f}")
            except KeyError:
                cells.append("")
        lines.append(f"{group},{report.mode}," + ",".join(cells))
    return "\n".join(lines) + "\n"
