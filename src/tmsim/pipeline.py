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
by ``feature_norm_current`` scales the contribution of one pressed dot
(at full memristor conductance) to ``pipeline.dot_gain`` feature units.
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

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analog_blocks import SoftmaxParams
from .braille import BrailleGroup, label_to_group, symbols
from .config import SimConfig
from .crossbar import CrossbarSpec, Readout, solve_nodal, weights_to_differential
from .devices import CellConfig, CellState, SwitchModel

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
    "feature_norm_current",
    "add_noise",
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
    """Training diverged or was fed an inconsistent dataset."""


class InvalidNetworkError(ValueError):
    """A trained network field the fixed 6-14-N stack cannot run; the message names the field."""


def _check_sigma2(sigma2: float) -> None:
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2}")


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
        if self.lr <= 0.0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("bad hyperparameters")

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


def _check_sensor_arrays(forces: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    forces = np.asarray(forces, dtype=float)
    states = np.asarray(states, dtype=float)
    if forces.shape != (SENSOR_ROWS, SENSOR_COLS):
        raise ValueError(f"forces must be {SENSOR_ROWS}x{SENSOR_COLS}, got {forces.shape}")
    if states.shape != (SENSOR_ROWS, SENSOR_COLS):
        raise ValueError(f"states must be {SENSOR_ROWS}x{SENSOR_COLS}, got {states.shape}")
    if np.any(forces < 0.0):
        raise ValueError("forces must be non-negative")
    if np.any((states < 0.0) | (states > 1.0)):
        raise ValueError("memristor states must lie in [0, 1]")
    return forces, states


def build_sensor_crossbar(
    forces: np.ndarray, states: np.ndarray, cfg: SimConfig, parasitic: bool = False
) -> CrossbarSpec:
    """4x2 dual-readout 2T1M1S array for one force pattern.

    ``parasitic`` swaps in the calibrated wire resistance and switch
    off-conductance so ``solve_nodal`` exposes the sneak-path droop.
    """
    forces, states = _check_sensor_arrays(forces, states)
    g_off = cfg.parasitics.switch_g_off if parasitic else cfg.switch_g_off
    wire = cfg.parasitics.wire_resistance if parasitic else 0.0
    switch = SwitchModel(g_on=cfg.switch_g_on, g_off=g_off, selected=True)
    cells = tuple(
        tuple(
            CellState(
                config=CellConfig.TWO_T1M1S,
                memristor=replace(cfg.memristor, state_w=float(states[k, l])),
                vl_switch=switch,
                hl_switch=switch,
                sensor=cfg.sensor,
                force_f=float(forces[k, l]),
            )
            for l in range(SENSOR_COLS)
        )
        for k in range(SENSOR_ROWS)
    )
    return CrossbarSpec(
        m=SENSOR_ROWS,
        n=SENSOR_COLS,
        cells=cells,
        wire_resistance_per_segment=wire,
        readout=Readout.VL_AND_HL,
        termination_conductance=cfg.parasitics.termination_conductance,
    )


def sensor_layer_forward(
    forces: np.ndarray, states: np.ndarray, cfg: SimConfig, fidelity: str = "ideal"
) -> np.ndarray:
    """Raw line currents of the sensor array: 2 column readouts then 4 row readouts."""
    if fidelity not in ("ideal", "nodal"):
        raise ValueError(f"fidelity must be 'ideal' or 'nodal', got {fidelity!r}")
    if fidelity == "ideal":
        return _line_currents(*_check_sensor_arrays(forces, states), cfg)
    spec = build_sensor_crossbar(forces, states, cfg, parasitic=True)
    return solve_nodal(spec, cfg.sensor.v_supply).concatenated()


def _memristor_g(states, cfg: SimConfig):
    g_off = 1.0 / cfg.memristor.r_off
    return g_off + states * (1.0 / cfg.memristor.r_on - g_off)


def _cell_u(states, force, cfg: SimConfig):
    """Series cell conductance, vectorized over states/forces arrays."""
    g_s = cfg.sensor.sensitivity_k * force + cfg.sensor.bias_c
    return 1.0 / (1.0 / g_s + 1.0 / _memristor_g(states, cfg) + 1.0 / cfg.switch_g_on)


def _line_sums(conduct: np.ndarray) -> np.ndarray:
    """Cell conductances (..., 4, 2) summed onto their lines: 2 columns then 4 rows."""
    return np.concatenate([conduct.sum(axis=-2), conduct.sum(axis=-1)], axis=-1)


def _line_currents(forces: np.ndarray, states: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Ideal readouts of force grids (..., 4, 2): 2 column sums then 4 row sums.

    The array form of ``ideal_dual_readout`` on ``build_sensor_crossbar``:
    every cell's series conductance sums onto its column line and its row
    line.
    """
    return _line_sums(_cell_u(states, forces, cfg)) * cfg.sensor.v_supply


def feature_norm_current(cfg: SimConfig) -> float:
    """Current of one normalized feature unit.

    One pressed dot at full memristor conductance raises its column and row
    readout by ``dot_gain`` feature units above the unpressed floor.
    """
    u_on = _cell_u(1.0, cfg.f_press, cfg)
    u_off = _cell_u(1.0, 0.0, cfg)
    return cfg.sensor.v_supply * (u_on - u_off) / cfg.dot_gain


def _batch_features(forces: np.ndarray, states: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Normalized sensor features of force grids (N, 4, 2), shape (N, 6)."""
    return _line_currents(forces, states, cfg) / feature_norm_current(cfg)


def add_noise(x: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Additive i.i.d. Gaussian noise of variance sigma2 on a normalized signal."""
    x = np.asarray(x, dtype=float)
    if noise.sigma2 == 0.0:
        return x.copy()
    rng = np.random.default_rng(noise.seed)
    return x + np.sqrt(noise.sigma2) * rng.standard_normal(x.shape)


# ---------------------------------------------------------------------------
# training


def _dataset_arrays(dataset, arch: NetworkArch) -> tuple[np.ndarray, np.ndarray]:
    if not dataset:
        raise TrainingError("dataset is empty")
    label_index = {label: i for i, label in enumerate(arch.labels)}
    dots = np.zeros((len(dataset), SENSOR_ROWS, SENSOR_COLS))
    targets = np.zeros(len(dataset), dtype=int)
    for i, (grid, label) in enumerate(dataset):
        if label not in label_index:
            raise TrainingError(f"dataset label {label!r} is not in the architecture's outputs")
        grid = np.asarray(grid, dtype=float)
        if grid.shape != (SENSOR_ROWS, SENSOR_COLS):
            raise TrainingError(f"item {i}: force grid must be 4x2, got {grid.shape}")
        dots[i] = grid > 0.0
        targets[i] = label_index[label]
    return dots, targets


def _stable_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
    increments = _cell_u(w_grid, cfg.f_press, cfg) - _cell_u(w_grid, 0.0, cfg)
    targets = np.linspace(increments[0], increments[-1], SENSOR_ROWS * SENSOR_COLS)
    states = np.interp(targets, increments, w_grid)
    return rng.permutation(states).reshape(SENSOR_ROWS, SENSOR_COLS)


def _state_sensitivity(u: np.ndarray, g_m: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Exact d(_cell_u)/d(state): u^2 / g_m^2 * (g_on - g_off) of the memristor.

    ``u`` is the cell conductance and ``g_m`` the memristor conductance
    (``_memristor_g``) at the same states.
    """
    span = 1.0 / cfg.memristor.r_on - 1.0 / cfg.memristor.r_off
    return (u / g_m) ** 2 * span


def train(dataset, arch: NetworkArch, hyper: TrainHyper, cfg: SimConfig) -> TrainedNetwork:
    """Mini-batch gradient descent on the software twin of the hardware stack.

    Analog mode trains the dense layers and the eight sensor memristor
    states (projected back into [0, 1] after every step).  Binary mode
    fixes the states at full conductance -- the hard threshold passes no
    gradient -- and trains the dense layers on thresholded features.

    Raises:
        TrainingError: on divergence (non-finite loss) or dataset/arch
            mismatch.
    """
    dots, targets = _dataset_arrays(dataset, arch)
    n_items = len(dataset)
    rng = np.random.default_rng(hyper.seed)

    w1 = rng.normal(0.0, np.sqrt(2.0 / N_FEATURES), (N_FEATURES, N_HIDDEN))
    b1 = np.zeros(N_HIDDEN)
    w2 = rng.normal(0.0, np.sqrt(2.0 / N_HIDDEN), (N_HIDDEN, arch.n_out))
    b2 = np.zeros(arch.n_out)

    analog = hyper.mode == "analog"
    if analog:
        states = _state_increment_ladder(cfg, rng)
        threshold = None
    else:
        # the states never move, so neither do the noiseless features
        states = np.ones((SENSOR_ROWS, SENSOR_COLS))
        noiseless = _batch_features(dots * cfg.f_press, states, cfg)
        threshold = 0.5 * noiseless.max(axis=0)

    # dots are 0/1, so every cell sits at one of two forces: each state
    # update computes both conductances and each batch picks one per cell
    levels = np.array([cfg.f_press, 0.0]).reshape(2, 1, 1)
    pressed = dots > 0.0
    unpressed = 1.0 - dots
    batch_rows = np.arange(hyper.batch_size)
    sigma = np.sqrt(hyper.sigma2)
    state_lr = hyper.lr * _STATE_LR_FACTOR
    v_supply = cfg.sensor.v_supply
    norm = feature_norm_current(cfg)
    # d(network input)/d(cell conductance): every feature is a plain sum of
    # cell conductances (its column for features 0..1, its row for 2..5)
    # scaled by v_supply, the normalization and the O(1) input division
    feat_scale = v_supply / (norm * cfg.dot_gain)

    for epoch in range(hyper.epochs):
        order = rng.permutation(n_items)
        # nothing else draws from rng within an epoch, so one draw yields
        # the same numbers in the same order as one draw per batch
        noise = sigma * rng.standard_normal((n_items, N_FEATURES)) if sigma != 0.0 else None
        if analog:
            pressed_e, dots_e, unpressed_e = pressed[order], dots[order], unpressed[order]
        else:
            feats = noiseless[order]
            inputs_e = _network_input(feats if noise is None else feats + noise,
                                      hyper.mode, threshold, cfg.dot_gain)
        targets_e = targets[order]

        for start in range(0, n_items, hyper.batch_size):
            rows = slice(start, start + hyper.batch_size)
            if analog:
                u = _cell_u(states, levels, cfg)  # (2, 4, 2): pressed, unpressed
                feats = _line_sums(np.where(pressed_e[rows], u[0], u[1])) * v_supply / norm
                x = feats if noise is None else feats + noise[rows]
                x = _network_input(x, hyper.mode, threshold, cfg.dot_gain)
            else:
                x = inputs_e[rows]
            n_batch = len(x)

            pre1 = x @ w1
            pre1 += b1
            hidden = np.maximum(pre1, 0.0)
            logits = hidden @ w2
            logits += b2
            probs = _stable_softmax(logits)
            picked_at = (batch_rows[:n_batch], targets_e[rows])
            picked = probs[picked_at]
            # a softmax row is finite throughout or NaN throughout, so the
            # mean cross-entropy is non-finite exactly when a pick is NaN
            if np.isnan(picked).any():
                loss = -np.log(np.maximum(picked, 1e-300)).mean()
                raise TrainingError(f"loss diverged at epoch {epoch}: {loss}")

            dz = probs  # (probs - onehot) / B, in place
            dz[picked_at] = picked - 1.0
            dz /= n_batch
            dw2 = hidden.T @ dz
            db2 = dz.sum(axis=0)
            dhidden = dz @ w2.T
            dpre1 = dhidden * (pre1 > 0.0)
            dw1 = x.T @ dpre1
            db1 = dpre1.sum(axis=0)

            if analog:
                dx = dpre1 @ w1.T  # (B, 6)
                dcell = (dx[:, None, :SENSOR_COLS] + dx[:, SENSOR_COLS:, None]) * feat_scale
                du_on = (dcell * dots_e[rows]).sum(axis=0)
                du_off = (dcell * unpressed_e[rows]).sum(axis=0)
                sens_on, sens_off = _state_sensitivity(u, _memristor_g(states, cfg), cfg)
                dstates = du_on * sens_on + du_off * sens_off
                # descend in increment space: the state-to-increment map is
                # steep near 0 and nearly flat near 1, so raw state steps
                # either overshoot the sensitive region or stall; dividing by
                # the squared sensitivity equals gradient descent on the
                # increment itself
                cond = np.maximum((sens_on - sens_off) * feat_scale, 1e-2)
                # the clip to [0, 1] as two ufuncs: np.clip's wrapper costs more
                states = np.minimum(np.maximum(states - state_lr * dstates / cond**2, 0.0), 1.0)

            w1 -= hyper.lr * dw1
            b1 -= hyper.lr * db1
            w2 -= hyper.lr * dw2
            b2 -= hyper.lr * db2

    return TrainedNetwork(
        arch=arch,
        mode=hyper.mode,
        w_hidden=w1,
        b_hidden=b1,
        w_out=w2,
        b_out=b2,
        sensor_states=states,
        binary_threshold=threshold,
    )


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
    span = 1.0 / cfg.memristor.r_on - 1.0 / cfg.memristor.r_off
    scale_hidden = _layer_scale(tn.w_hidden, span)
    scale_out = _layer_scale(tn.w_out, span)
    gp_hidden, gm_hidden = weights_to_differential(
        tn.w_hidden, cfg.memristor.r_on, cfg.memristor.r_off, scale_hidden
    )
    gp_out, gm_out = weights_to_differential(
        tn.w_out, cfg.memristor.r_on, cfg.memristor.r_off, scale_out
    )
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
    i_hidden = x @ (hw.gp_hidden - hw.gm_hidden)
    v_hidden = np.maximum(hw.amp_hidden * i_hidden + hw.network.b_hidden, 0.0)
    i_out = v_hidden @ (hw.gp_out - hw.gm_out)
    return hw.amp_out * i_out + hw.network.b_out


def _circuit_probabilities(logits: np.ndarray, params: SoftmaxParams) -> np.ndarray:
    """Batched equivalent of the analog softmax chain, normalized by r_f * i_s."""
    return (params.r_sum / params.r_f) * _stable_softmax(logits / params.v_t)


def _hardware_probabilities(hw: HardwareNetwork, feats: np.ndarray) -> np.ndarray:
    """Softmax-circuit outputs of the mapped network for noisy normalized features (N, 6)."""
    tn = hw.network
    x = _network_input(feats, tn.mode, tn.binary_threshold, hw.cfg.dot_gain)
    return _circuit_probabilities(_hardware_logits(hw, x), hw.cfg.softmax)


def forward(
    hw: HardwareNetwork,
    forces: np.ndarray,
    noise: NoiseSpec | None = None,
) -> tuple[np.ndarray, str]:
    """Single-pattern inference through the mapped hardware chain.

    Returns the softmax-circuit output normalized by r_f * i_s (so it sums
    to 1) and the predicted label.
    """
    tn = hw.network
    forces, states = _check_sensor_arrays(forces, tn.sensor_states)
    x = _batch_features(forces[None], states, hw.cfg)
    if noise is not None:
        x = add_noise(x, noise)
    probs = _hardware_probabilities(hw, x)[0]
    return probs, tn.arch.labels[int(np.argmax(probs))]


def _confusion_pairs(true_labels, predicted_labels) -> tuple[tuple[tuple[str, str], int], ...]:
    counts: dict[tuple[str, str], int] = {}
    for t, p in zip(true_labels, predicted_labels):
        if t != p:
            counts[(t, p)] = counts.get((t, p), 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(ranked)


def evaluate(hw: HardwareNetwork, dataset, sigma2_grid: Sequence[float], seed: int = 0) -> EvalReport:
    """Accuracy of the mapped network over a noise grid.

    Per grid point, every item receives one fresh noise draw from a stream
    derived from (seed, grid index); reports are bit-identical across runs
    with equal arguments.
    """
    tn = hw.network
    dots, targets = _dataset_arrays(dataset, tn.arch)
    labels = [label for _, label in dataset]
    feats = _batch_features(dots * hw.cfg.f_press, tn.sensor_states, hw.cfg)

    # (name, item indices, true labels) of the whole set and, when it spans
    # several groups, of each group; they depend on the dataset alone.
    scopes = [("overall", np.arange(len(labels)), labels)]
    groups = np.array([label_to_group(label).value for label in labels])
    present_groups = sorted(set(groups.tolist()))
    if len(present_groups) > 1:
        for g in present_groups:
            idx = np.flatnonzero(groups == g)
            scopes.append((g, idx, [labels[i] for i in idx]))

    entries: list[EvalEntry] = []
    for j, sigma2 in enumerate(sigma2_grid):
        _check_sigma2(sigma2)
        rng = np.random.default_rng([seed, j])
        x = feats + np.sqrt(sigma2) * rng.standard_normal(feats.shape) if sigma2 > 0.0 else feats
        predicted_idx = _hardware_probabilities(hw, x).argmax(axis=1)
        correct = predicted_idx == targets
        for name, idx, true_labels in scopes:
            predicted = [tn.arch.labels[i] for i in predicted_idx[idx].tolist()]
            entries.append(EvalEntry(group=name, sigma2=float(sigma2),
                                     accuracy=100.0 * float(correct[idx].sum()) / idx.size,
                                     n_items=idx.size,
                                     confusions=_confusion_pairs(true_labels, predicted)))
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
    sigma2: float,
    mode: str,
    seed: int,
    cfg: SimConfig,
    copies: int = 5,
) -> SweepRow:
    """Train at one (group set, noise, mode) grid point and score the held-out copy."""
    from .braille import build_dataset  # local import keeps module load light

    dataset = build_dataset(group_names, copies=copies, seed=seed, f_press=cfg.f_press)
    train_items, test_items = split_holdout(dataset, copies=copies)
    arch = arch_for(group_names)
    hyper = TrainHyper.from_config(cfg, seed=seed, sigma2=sigma2, mode=mode)
    tn = train(train_items, arch, hyper, cfg)
    report = evaluate(map_network(tn, cfg), test_items, [sigma2], seed=seed)
    accuracy = report.accuracy("overall", sigma2)
    return SweepRow(
        group_set="+".join(group_names),
        sigma2=sigma2,
        mode=mode,
        seed=seed,
        accuracy=accuracy,
        n_test=len(test_items),
    )


def run_sweep(
    group_sets: Sequence[Sequence[str]],
    sigma2_grid: Sequence[float],
    modes: Sequence[str],
    seeds: Sequence[int],
    cfg: SimConfig,
    copies: int = 5,
) -> list[SweepRow]:
    """Cartesian sweep over group sets, noise grid, modes and seeds."""
    rows = []
    for group_names in group_sets:
        for mode in modes:
            for sigma2 in sigma2_grid:
                for seed in seeds:
                    rows.append(sweep_point(group_names, sigma2, mode, seed, cfg, copies))
    return rows


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
    data = json.loads(text)
    if not isinstance(data, dict):
        raise InvalidNetworkError(f"must be a JSON object, got {type(data).__name__}")
    version = data.get("schema_version")
    if version != NETWORK_SCHEMA_VERSION:
        raise ValueError(f"unsupported network schema version {version!r}")
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
    threshold = data["binary_threshold"]
    return TrainedNetwork(
        arch=arch,
        mode=data["mode"],
        w_hidden=np.array(data["w_hidden"]),
        b_hidden=np.array(data["b_hidden"]),
        w_out=np.array(data["w_out"]),
        b_out=np.array(data["b_out"]),
        sensor_states=np.array(data["sensor_states"]),
        binary_threshold=None if threshold is None else np.array(threshold),
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
