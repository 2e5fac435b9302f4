"""Crossbar array topology, ideal readouts and full nodal analysis.

Two readout disciplines are modeled.  ``VL_ONLY`` is the classic matrix
multiplier: drive voltages enter on the horizontal lines, every cell
bridges its horizontal line to a vertical line, and per-column currents
are sensed at virtual ground.  ``VL_AND_HL`` is the dual-attribution
tactile readout: each cell is driven by its own sensor supply and hands
its current to the vertical and horizontal line through separate select
switches, operated as two phases (column-select, then row-select) so the
full cell current can be attributed to each line set.

``solve_nodal`` solves the complete resistive network -- finite wire
segments, switch off-state leakage, finite sense-amp termination -- and is
the reference for sneak-path studies; the ``ideal_*`` functions implement
the loss-free algebra the network should approach as parasitics vanish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Sequence

import numpy as np

from .devices import (
    CellConfig,
    CellState,
    MemristorModel,
    SensorModel,
    SwitchModel,
    cell_conductance,
    fsr_conductance,
    memristor_conductance,
    series_conductance,
    switch_conductance,
)

__all__ = [
    "Readout",
    "ReadoutVector",
    "CrossbarSpec",
    "SingularNetworkError",
    "WeightRangeError",
    "ideal_mac_vl",
    "ideal_dual_readout",
    "conductance_matrix",
    "solve_nodal",
    "solve_nodal_detail",
    "NodalDetail",
    "leakage_fraction",
    "weights_to_differential",
    "spec_to_json",
    "spec_from_json",
    "readouts_to_csv",
]

SPEC_SCHEMA_VERSION = 1

# KCL residual bound for the direct solve, in amperes.
RESIDUAL_TOLERANCE = 1.0e-12


class Readout(str, Enum):
    VL_ONLY = "vl_only"
    VL_AND_HL = "vl_and_hl"


class SingularNetworkError(RuntimeError):
    """The nodal system has no unique solution (isolated or floating nodes)."""


class WeightRangeError(ValueError):
    """A weight cannot be programmed inside the memristor conductance span."""

    def __init__(self, message: str, index: tuple[int, ...]):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ReadoutVector:
    """Line currents of one readout: per-vertical-line and per-horizontal-line."""

    vl_currents: np.ndarray
    hl_currents: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vl_currents", np.asarray(self.vl_currents, dtype=float))
        object.__setattr__(self, "hl_currents", np.asarray(self.hl_currents, dtype=float))
        if not (np.all(np.isfinite(self.vl_currents)) and np.all(np.isfinite(self.hl_currents))):
            raise ValueError("readout currents must be finite")

    def concatenated(self) -> np.ndarray:
        return np.concatenate([self.vl_currents, self.hl_currents])


@dataclass(frozen=True)
class CrossbarSpec:
    """An m x n crossbar: m horizontal lines (rows), n vertical lines (columns).

    ``wire_resistance_per_segment`` is the resistance of one line segment
    between adjacent crossings (0 means ideal wires).
    ``termination_conductance`` models the sense-amp input as a large but
    finite conductance to ground; it keeps dual readouts well posed even
    when a miswired array shorts line sets together.
    """

    m: int
    n: int
    cells: tuple[tuple[CellState, ...], ...]
    wire_resistance_per_segment: float = 0.0
    readout: Readout = Readout.VL_ONLY
    termination_conductance: float = 1.0e6

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"crossbar needs m, n >= 1, got {self.m} x {self.n}")
        if len(self.cells) != self.m or any(len(row) != self.n for row in self.cells):
            raise ValueError(f"cell grid must be {self.m} x {self.n}")
        if self.wire_resistance_per_segment < 0.0:
            raise ValueError("wire resistance must be non-negative")
        if self.termination_conductance <= 0.0:
            raise ValueError("termination conductance must be positive")


def ideal_mac_vl(v: Sequence[float], g: np.ndarray) -> np.ndarray:
    """Loss-free multiply-accumulate: i_l = sum_k v_k * g_kl.

    Args:
        v: per-horizontal-line drive voltages, length m.
        g: m x n conductance matrix.

    Returns:
        Per-vertical-line currents, length n.
    """
    v_arr = np.asarray(v, dtype=float)
    g_arr = np.asarray(g, dtype=float)
    if g_arr.ndim != 2 or v_arr.shape != (g_arr.shape[0],):
        raise ValueError(f"shape mismatch: v {v_arr.shape} vs g {g_arr.shape}")
    return v_arr @ g_arr


def conductance_matrix(spec: CrossbarSpec, line: str = "vl") -> np.ndarray:
    """Effective cell conductances as seen from one line set."""
    return np.array([[cell_conductance(cell, line) for cell in row] for row in spec.cells])


def _selected_on_conductance(cell: CellState, line: str) -> float:
    """Series conductance with the line's switch forced on; 0 if deselected."""
    switch = cell.hl_switch if (cell.config is CellConfig.TWO_T1M1S and line == "hl") else cell.vl_switch
    assert switch is not None
    return cell_conductance(cell, line) if switch.selected else 0.0


def ideal_dual_readout(v_supply: float, spec: CrossbarSpec) -> ReadoutVector:
    """Loss-free dual readout of a 2T1M1S array.

    Every selected cell contributes its full series current to the
    vertical line it sits on during the column phase and again to its
    horizontal line during the row phase:

        vl[l] = sum_k v_supply * g_kl * [vl switch selected]
        hl[k] = sum_l v_supply * g_kl * [hl switch selected]

    Raises:
        ValueError: if any cell is not 2T1M1S (single-switch arrays cannot
            attribute their current to both line sets).
    """
    for row in spec.cells:
        for cell in row:
            if cell.config is not CellConfig.TWO_T1M1S:
                raise ValueError("dual readout requires 2T1M1S cells")
    vl = np.zeros(spec.n)
    hl = np.zeros(spec.m)
    for k, row in enumerate(spec.cells):
        for l, cell in enumerate(row):
            vl[l] += v_supply * _selected_on_conductance(cell, "vl")
            hl[k] += v_supply * _selected_on_conductance(cell, "hl")
    return ReadoutVector(vl_currents=vl, hl_currents=hl)


# ---------------------------------------------------------------------------
# nodal analysis


class _Network:
    """Resistive network with union-find node merging and a dense direct solve."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._order: list[Hashable] = []
        self._branches: list[tuple[Hashable, Hashable, float]] = []
        self._fixed: dict[Hashable, float] = {}

    def _find(self, key: Hashable) -> Hashable:
        if key not in self._parent:
            self._parent[key] = key
            self._order.append(key)
            return key
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:
            self._parent[key], key = root, self._parent[key]
        return root

    def fix(self, key: Hashable, volts: float) -> None:
        root = self._find(key)
        existing = self._fixed.get(root)
        if existing is not None and existing != volts:
            raise ValueError(f"node {key!r} already fixed at {existing} V, cannot refix at {volts} V")
        self._fixed[root] = volts

    def short(self, a: Hashable, b: Hashable) -> None:
        """Merge two nodes through an ideal (zero-resistance) connection."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        va, vb = self._fixed.get(ra), self._fixed.get(rb)
        if va is not None and vb is not None and va != vb:
            raise ValueError(f"cannot short nodes fixed at {va} V and {vb} V")
        self._parent[rb] = ra
        if vb is not None:
            self._fixed[ra] = vb
            del self._fixed[rb]

    def branch(self, a: Hashable, b: Hashable, conductance: float) -> None:
        if conductance < 0.0:
            raise ValueError(f"branch conductance must be non-negative, got {conductance}")
        self._find(a)
        self._find(b)
        if conductance > 0.0:
            self._branches.append((a, b, conductance))

    def solve(self) -> dict[Hashable, float]:
        """Node potentials by dense nodal analysis of the unknown nodes."""
        roots: list[Hashable] = []
        seen: set[Hashable] = set()
        for key in self._order:
            root = self._find(key)
            if root not in seen:
                seen.add(root)
                roots.append(root)
        unknowns = [r for r in roots if r not in self._fixed]
        index = {r: i for i, r in enumerate(unknowns)}

        g_mat = np.zeros((len(unknowns), len(unknowns)))
        rhs = np.zeros(len(unknowns))
        for a, b, g in self._branches:
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                continue  # branch closed into a loop by shorts; carries no KCL info
            ia, ib = index.get(ra), index.get(rb)
            if ia is not None:
                g_mat[ia, ia] += g
            if ib is not None:
                g_mat[ib, ib] += g
            if ia is not None and ib is not None:
                g_mat[ia, ib] -= g
                g_mat[ib, ia] -= g
            elif ia is not None:
                rhs[ia] += g * self._fixed[rb]
            elif ib is not None:
                rhs[ib] += g * self._fixed[ra]

        if unknowns:
            isolated = [r for i, r in enumerate(unknowns) if g_mat[i, i] == 0.0]
            if isolated:
                raise SingularNetworkError(f"isolated nodes with no conductive path: {isolated!r}")
            try:
                u = np.linalg.solve(g_mat, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularNetworkError(f"nodal system is singular: {exc}") from exc
            residual = np.abs(g_mat @ u - rhs).max()
            bound = RESIDUAL_TOLERANCE * max(1.0, np.abs(rhs).max())
            if residual > bound:
                raise SingularNetworkError(
                    f"nodal solve residual {residual:.3e} A exceeds tolerance {bound:.3e} A"
                )
        else:
            u = np.zeros(0)

        potentials = dict(self._fixed)
        for root, value in zip(unknowns, u):
            potentials[root] = float(value)
        return potentials

    def potential(self, potentials: dict[Hashable, float], key: Hashable) -> float:
        return potentials[self._find(key)]

    def current_into(self, potentials: dict[Hashable, float], key: Hashable) -> float:
        """Net branch current flowing into a node (positive = absorbed)."""
        root = self._find(key)
        total = 0.0
        for a, b, g in self._branches:
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                continue
            if ra == root:
                total += g * (potentials[rb] - potentials[root])
            elif rb == root:
                total += g * (potentials[ra] - potentials[root])
        return total


@dataclass(frozen=True)
class NodalDetail:
    """Bookkeeping from a nodal solve, for conservation checks."""

    injected: float  # A, net current delivered by the drive sources
    absorbed: float  # A, net current sunk by grounds and terminations
    unknown_nodes: int


def _line_scaffold(net: _Network, spec: CrossbarSpec, prefix: str, count: int, length: int) -> list[Hashable]:
    """Wire one line set: chain of crossing nodes ending in a sense termination.

    Returns the terminal node of each line (where the termination attaches).
    """
    rw = spec.wire_resistance_per_segment
    terminals: list[Hashable] = []
    for i in range(count):
        nodes = [(prefix, i, j) for j in range(length)]
        if rw > 0.0:
            gw = 1.0 / rw
            for a, b in zip(nodes, nodes[1:]):
                net.branch(a, b, gw)
        else:
            for node in nodes[1:]:
                net.short(nodes[0], node)
        terminal = nodes[-1]
        net.branch(terminal, ("gnd",), spec.termination_conductance)
        terminals.append(terminal)
    return terminals


def _solve_vl_only(spec: CrossbarSpec, drive: np.ndarray) -> tuple[ReadoutVector, NodalDetail, _Network, dict]:
    net = _Network()
    rw = spec.wire_resistance_per_segment
    for k in range(spec.m):
        source = ("src", k)
        net.fix(source, float(drive[k]))
        nodes = [("h", k, j) for j in range(spec.n)]
        if rw > 0.0:
            gw = 1.0 / rw
            net.branch(source, nodes[0], gw)
            for a, b in zip(nodes, nodes[1:]):
                net.branch(a, b, gw)
        else:
            for node in nodes:
                net.short(source, node)
    for l in range(spec.n):
        ground = ("gnd_vl", l)
        net.fix(ground, 0.0)
        nodes = [("v", k, l) for k in range(spec.m)]
        if rw > 0.0:
            gw = 1.0 / rw
            for a, b in zip(nodes, nodes[1:]):
                net.branch(a, b, gw)
            net.branch(nodes[-1], ground, gw)
        else:
            for node in nodes:
                net.short(ground, node)
    for k, row in enumerate(spec.cells):
        for l, cell in enumerate(row):
            net.branch(("h", k, l), ("v", k, l), cell_conductance(cell, "vl"))

    potentials = net.solve()
    vl = np.array([net.current_into(potentials, ("gnd_vl", l)) for l in range(spec.n)])
    injected = -sum(net.current_into(potentials, ("src", k)) for k in range(spec.m))
    absorbed = float(vl.sum())
    detail = NodalDetail(injected=injected, absorbed=absorbed, unknown_nodes=len(potentials) - spec.m - spec.n)
    return ReadoutVector(vl_currents=vl, hl_currents=np.zeros(0)), detail, net, potentials


def _solve_dual_phase(spec: CrossbarSpec, drive: np.ndarray, active_line: str) -> tuple[np.ndarray, float, float]:
    """One phase of the 2T1M1S dual readout; returns currents on the active line set.

    During a phase the other line set's switches are driven off, so they
    contribute only their off-state leakage, which drains into that line
    set's terminations and is lost to the measurement.
    """
    net = _Network()
    net.fix(("gnd",), 0.0)
    vl_terminals = _line_scaffold(net, spec, "v", spec.n, spec.m)
    hl_terminals = _line_scaffold(net, spec, "h", spec.m, spec.n)
    for k, row in enumerate(spec.cells):
        for l, cell in enumerate(row):
            assert cell.sensor is not None and cell.force_f is not None and cell.hl_switch is not None
            source = ("cell_src", k, l)
            mid = ("cell_out", k, l)
            net.fix(source, float(drive[k, l]))
            g_body = series_conductance(
                fsr_conductance(cell.sensor, cell.force_f),
                memristor_conductance(cell.memristor),
            )
            net.branch(source, mid, g_body)
            if active_line == "vl":
                net.branch(mid, ("v", l, k), switch_conductance(cell.vl_switch))
                net.branch(mid, ("h", k, l), cell.hl_switch.g_off)
            else:
                net.branch(mid, ("h", k, l), switch_conductance(cell.hl_switch))
                net.branch(mid, ("v", l, k), cell.vl_switch.g_off)

    potentials = net.solve()
    terminals = vl_terminals if active_line == "vl" else hl_terminals
    currents = np.array(
        [spec.termination_conductance * net.potential(potentials, t) for t in terminals]
    )
    injected = -sum(
        net.current_into(potentials, ("cell_src", k, l))
        for k in range(spec.m)
        for l in range(spec.n)
    )
    absorbed = net.current_into(potentials, ("gnd",))
    return currents, injected, absorbed


def _solve_dual_shorted(spec: CrossbarSpec, drive: np.ndarray) -> tuple[ReadoutVector, NodalDetail]:
    """Single-switch cells read on both line sets at once (the miswiring case).

    With only one switch per cell the output node has to be hard-wired to
    both its vertical and horizontal line, so every cell shorts the two
    line sets together and the sensed currents smear across all lines.
    """
    net = _Network()
    net.fix(("gnd",), 0.0)
    vl_terminals = _line_scaffold(net, spec, "v", spec.n, spec.m)
    hl_terminals = _line_scaffold(net, spec, "h", spec.m, spec.n)
    rw = spec.wire_resistance_per_segment
    for k, row in enumerate(spec.cells):
        for l, cell in enumerate(row):
            mid = ("cell_out", k, l)
            g_stack = cell_conductance(cell, "vl")
            if g_stack > 0.0:
                source = ("cell_src", k, l)
                net.fix(source, float(drive[k, l]))
                net.branch(source, mid, g_stack)
            if rw > 0.0:
                gw = 1.0 / rw
                net.branch(mid, ("v", l, k), gw)
                net.branch(mid, ("h", k, l), gw)
            else:
                net.short(mid, ("v", l, k))
                net.short(mid, ("h", k, l))

    potentials = net.solve()
    g_term = spec.termination_conductance
    vl = np.array([g_term * net.potential(potentials, t) for t in vl_terminals])
    hl = np.array([g_term * net.potential(potentials, t) for t in hl_terminals])
    injected = 0.0
    for k in range(spec.m):
        for l in range(spec.n):
            if (("cell_src", k, l)) in net._parent:
                injected -= net.current_into(potentials, ("cell_src", k, l))
    absorbed = net.current_into(potentials, ("gnd",))
    detail = NodalDetail(injected=injected, absorbed=absorbed, unknown_nodes=0)
    return ReadoutVector(vl_currents=vl, hl_currents=hl), detail


def _dual_drive(spec: CrossbarSpec, drive) -> np.ndarray:
    arr = np.asarray(drive, dtype=float)
    if arr.ndim == 0:
        return np.full((spec.m, spec.n), float(arr))
    if arr.shape != (spec.m, spec.n):
        raise ValueError(f"dual-readout drive must be scalar or {spec.m} x {spec.n}, got {arr.shape}")
    return arr


def solve_nodal_detail(spec: CrossbarSpec, drive, readout_mode: Readout | str | None = None) -> tuple[ReadoutVector, NodalDetail]:
    """Full nodal solve returning readouts plus conservation bookkeeping."""
    mode = Readout(readout_mode) if readout_mode is not None else spec.readout
    if mode is Readout.VL_ONLY:
        drive_arr = np.broadcast_to(np.asarray(drive, dtype=float), (spec.m,))
        readouts, detail, _, _ = _solve_vl_only(spec, drive_arr)
        return readouts, detail

    configs = {cell.config for row in spec.cells for cell in row}
    drive_arr = _dual_drive(spec, drive)
    if configs == {CellConfig.TWO_T1M1S}:
        vl, inj_v, abs_v = _solve_dual_phase(spec, drive_arr, "vl")
        hl, inj_h, abs_h = _solve_dual_phase(spec, drive_arr, "hl")
        detail = NodalDetail(injected=inj_v + inj_h, absorbed=abs_v + abs_h, unknown_nodes=0)
        return ReadoutVector(vl_currents=vl, hl_currents=hl), detail
    if configs == {CellConfig.ONE_T1M1S}:
        return _solve_dual_shorted(spec, drive_arr)
    raise ValueError("dual readout supports uniform 1T1M1S or 2T1M1S grids only")


def solve_nodal(spec: CrossbarSpec, drive, readout_mode: Readout | str | None = None) -> ReadoutVector:
    """Line currents from full nodal analysis, including sneak-path leakage.

    Args:
        spec: crossbar description (wire segments, termination, cells).
        drive: VL_ONLY: per-horizontal-line volts (scalar broadcasts);
            VL_AND_HL: per-cell supply volts (scalar broadcasts to m x n).
        readout_mode: override of ``spec.readout``.

    Returns:
        ReadoutVector; with ideal wires, zero off-conductance and proper
        per-line selection it matches the ideal readouts within solver
        tolerance.
    """
    readouts, _ = solve_nodal_detail(spec, drive, readout_mode)
    return readouts


def leakage_fraction(ideal: ReadoutVector, actual: ReadoutVector) -> float:
    """Relative L1 readout error: sum |i_actual - i_ideal| / sum |i_ideal|."""
    ideal_flat = ideal.concatenated()
    actual_flat = actual.concatenated()
    if ideal_flat.shape != actual_flat.shape:
        raise ValueError(f"shape mismatch: {ideal_flat.shape} vs {actual_flat.shape}")
    denom = np.abs(ideal_flat).sum()
    if denom == 0.0:
        raise ValueError("ideal readout is identically zero; leakage fraction undefined")
    return float(np.abs(actual_flat - ideal_flat).sum() / denom)


def weights_to_differential(
    weights: np.ndarray, r_on: float, r_off: float, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Map signed weights onto differential conductance pairs.

    Each weight becomes a column pair programmed at

        g_plus  = g_base + max(w, 0) * scale
        g_minus = g_base - min(w, 0) * scale

    with g_base = 1/r_off, so g_plus - g_minus = w * scale exactly and
    both conductances stay inside [1/r_off, 1/r_on].

    Raises:
        WeightRangeError: naming the first offending index if |w| * scale
            exceeds the available conductance span.
    """
    if not 0.0 < r_on < r_off:
        raise ValueError(f"need 0 < r_on < r_off, got {r_on}, {r_off}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    w = np.asarray(weights, dtype=float)
    span = 1.0 / r_on - 1.0 / r_off
    magnitude = np.abs(w) * scale
    # tolerate float rounding when a caller saturates the span exactly
    over = magnitude > span * (1.0 + 1e-9)
    if np.any(over):
        idx = tuple(int(i) for i in np.argwhere(over)[0])
        raise WeightRangeError(
            f"weight {w[idx]:.6g} at index {idx} needs conductance {magnitude[idx]:.6g} S "
            f"above the available span {span:.6g} S",
            index=idx,
        )
    g_base = 1.0 / r_off
    g_plus = g_base + np.maximum(w, 0.0) * scale
    g_minus = g_base + np.maximum(-w, 0.0) * scale
    return g_plus, g_minus


# ---------------------------------------------------------------------------
# serialization


def _switch_to_dict(switch: SwitchModel | None) -> dict | None:
    if switch is None:
        return None
    return {"g_on": switch.g_on, "g_off": switch.g_off, "selected": switch.selected}


def _switch_from_dict(data: dict | None) -> SwitchModel | None:
    if data is None:
        return None
    return SwitchModel(g_on=data["g_on"], g_off=data["g_off"], selected=data["selected"])


def _cell_to_dict(cell: CellState) -> dict:
    entry: dict = {
        "config": cell.config.value,
        "memristor": {
            "r_on": cell.memristor.r_on,
            "r_off": cell.memristor.r_off,
            "state_w": cell.memristor.state_w,
        },
        "vl_switch": _switch_to_dict(cell.vl_switch),
        "hl_switch": _switch_to_dict(cell.hl_switch),
    }
    if cell.sensor is not None:
        entry["sensor"] = {
            "sensitivity_k": cell.sensor.sensitivity_k,
            "bias_c": cell.sensor.bias_c,
            "v_supply": cell.sensor.v_supply,
            "r_divider": cell.sensor.r_divider,
        }
        entry["force_f"] = cell.force_f
    return entry


def _cell_from_dict(data: dict) -> CellState:
    sensor = None
    if "sensor" in data:
        sensor = SensorModel(**data["sensor"])
    mem = MemristorModel(**data["memristor"])
    vl_switch = _switch_from_dict(data["vl_switch"])
    if vl_switch is None:
        raise ValueError("cell entry is missing its vl_switch")
    return CellState(
        config=CellConfig(data["config"]),
        memristor=mem,
        vl_switch=vl_switch,
        hl_switch=_switch_from_dict(data.get("hl_switch")),
        sensor=sensor,
        force_f=data.get("force_f"),
    )


def spec_to_json(spec: CrossbarSpec) -> str:
    """Versioned JSON description of a crossbar, round-trippable."""
    payload = {
        "schema_version": SPEC_SCHEMA_VERSION,
        "m": spec.m,
        "n": spec.n,
        "wire_resistance_per_segment": spec.wire_resistance_per_segment,
        "readout": spec.readout.value,
        "termination_conductance": spec.termination_conductance,
        "cells": [[_cell_to_dict(cell) for cell in row] for row in spec.cells],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def spec_from_json(text: str) -> CrossbarSpec:
    data = json.loads(text)
    version = data.get("schema_version")
    if version != SPEC_SCHEMA_VERSION:
        raise ValueError(f"unsupported crossbar schema version {version!r}")
    cells = tuple(tuple(_cell_from_dict(c) for c in row) for row in data["cells"])
    return CrossbarSpec(
        m=data["m"],
        n=data["n"],
        cells=cells,
        wire_resistance_per_segment=data["wire_resistance_per_segment"],
        readout=Readout(data["readout"]),
        termination_conductance=data["termination_conductance"],
    )


def readouts_to_csv(readouts: Sequence[ReadoutVector]) -> str:
    """CSV text with one row per readout: vl currents then hl currents."""
    if not readouts:
        raise ValueError("need at least one readout")
    n_vl = readouts[0].vl_currents.size
    n_hl = readouts[0].hl_currents.size
    header = [f"vl_{i}" for i in range(n_vl)] + [f"hl_{i}" for i in range(n_hl)]
    lines = [",".join(header)]
    for rv in readouts:
        flat = rv.concatenated()
        if flat.size != n_vl + n_hl:
            raise ValueError("readout rows must share a common shape")
        lines.append(",".join(f"{x:.12e}" for x in flat))
    return "\n".join(lines) + "\n"
