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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .devices import (
    CellConfig,
    CellState,
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
]

# KCL residual bound for the nodal solve, in amperes.
RESIDUAL_TOLERANCE = 1.0e-12
# Narrowest block of the banded nodal solve, in unknowns.  Wider blocks
# mean fewer numpy calls, narrower ones fewer flops.  Timed on a 2-core
# x86-64 host (numpy 2.4.6) over wired dual arrays of 4x4 to 16x16 cells,
# 8x8 and 24x24 VL_ONLY grids (48 to 1,152 unknowns) and band systems of
# 3,072 unknowns with half-bandwidths 1 to 24, 32 was fastest: 48 took
# 10-40% longer, 64 up to 50% and 96 up to 3x, while 24 cut the 4x4 array
# into two blocks at twice the time.  From 16x16 dual arrays up
# (half-bandwidth 3n = 48) the band sets the width.
MIN_BLOCK = 32


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


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[0], y[0], x[1], y[1], ...: both ends of each branch, in branch order."""
    out = np.empty(2 * x.size, dtype=np.result_type(x, y))
    out[0::2], out[1::2] = x, y
    return out


class _Network:
    """Resistive network on integer nodes with a banded direct solve.

    Nodes are the integers 0, 1, 2, ...; naming a node creates it and every
    node below it.  Shorts merge nodes in a union-find whose root is the
    lowest member, fixed potentials live in one array (NaN where unknown,
    read at the roots) and branches are the arrays ``(a, b, g)``.
    """

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._volts: list[float] = []
        self._branches = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]

    def nodes(self, count: int, volts=np.nan) -> np.ndarray:
        """Create ``count`` nodes fixed at ``volts`` (scalar or per node; NaN leaves them unknown)."""
        start = len(self._parent)
        self._parent.extend(range(start, start + count))
        self._volts.extend(np.ravel(volts).tolist() if np.ndim(volts) else [float(volts)] * count)
        return np.arange(start, start + count)

    def _find(self, node: int) -> int:
        if node >= len(self._parent):
            self.nodes(node + 1 - len(self._parent))
        parent = self._parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def fix(self, node: int, volts: float) -> None:
        root = self._find(node)
        existing = self._volts[root]
        if not math.isnan(existing) and existing != volts:
            raise ValueError(f"node {node!r} already fixed at {existing} V, cannot refix at {volts} V")
        self._volts[root] = float(volts)

    def short(self, a: int, b: int) -> None:
        """Merge two nodes through an ideal (zero-resistance) connection."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        va, vb = self._volts[ra], self._volts[rb]
        if va != vb and not (math.isnan(va) or math.isnan(vb)):
            raise ValueError(f"cannot short nodes fixed at {va} V and {vb} V")
        low, high = min(ra, rb), max(ra, rb)
        self._parent[high] = low
        if math.isnan(self._volts[low]):
            self._volts[low] = self._volts[high]

    def branch(self, a, b, conductance) -> None:
        """Add branches ``a[i]--b[i]`` of ``conductance[i]`` (a scalar applies to all)."""
        a, b = np.ravel(a), np.ravel(b)
        g = np.ravel(conductance) if np.ndim(conductance) else np.full(a.size, float(conductance))
        if (g < 0.0).any():
            raise ValueError(f"branch conductance must be non-negative, got {g.min()}")
        self._branches.append((a, b, g))

    def solve(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Nodal analysis of the unknown nodes by banded block elimination.

        Returns the potential and the net branch current flowing into
        (positive = absorbed by) every node, and the number of unknowns.
        Sums run in branch order, so a rebuilt network reproduces its
        results bit for bit.
        """
        a, b, g = (np.concatenate(parts) for parts in zip(*self._branches))
        if a.size:
            self._find(int(max(a.max(), b.max())))  # creates nodes named only by a branch
        count = len(self._parent)
        root = np.array(self._parent, dtype=np.intp)
        while not np.array_equal(root[root], root):
            root = root[root]
        volts = np.array(self._volts, dtype=float)
        unknowns = np.flatnonzero((root == np.arange(count)) & np.isnan(volts))
        size = unknowns.size
        index = np.full(count, -1)
        index[unknowns] = np.arange(size)

        ra, rb = root[a], root[b]
        live = (g > 0.0) & (ra != rb)  # a branch closed into a loop by shorts carries no KCL info
        ra, rb, g = ra[live], rb[live], g[live]
        ia, ib = index[ra], index[rb]
        ends = _interleave(ia, ib)
        free = ends >= 0
        diagonal = np.bincount(ends[free], weights=np.repeat(g, 2)[free], minlength=size)
        both = (ia >= 0) & (ib >= 0)
        one = (ia >= 0) != (ib >= 0)  # the fixed end drives the unknown one
        rhs = np.bincount(np.where(ia >= 0, ia, ib)[one],
                          weights=(g * np.where(ia >= 0, volts[rb], volts[ra]))[one], minlength=size)

        if size:
            isolated = unknowns[diagonal == 0.0]
            if isolated.size:
                raise SingularNetworkError(f"isolated nodes with no conductive path: {isolated.tolist()!r}")
            try:
                volts[unknowns] = _banded_solve(diagonal, ia[both], ib[both], g[both], rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularNetworkError(f"nodal system is singular: {exc}") from exc

        current = g * (volts[rb] - volts[ra])  # flowing from b into a
        inflow = np.bincount(_interleave(ra, rb), weights=_interleave(current, -current), minlength=count)
        if size:
            residual = np.abs(inflow[unknowns]).max()  # KCL: no net current into an unknown node
            bound = RESIDUAL_TOLERANCE * max(1.0, np.abs(rhs).max())
            if not residual <= bound:
                raise SingularNetworkError(
                    f"nodal solve residual {residual:.3e} A exceeds tolerance {bound:.3e} A"
                )
        return volts[root], inflow[root], size


def _banded_solve(diagonal: np.ndarray, ia: np.ndarray, ib: np.ndarray, g: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve G u = rhs, G = diag(diagonal) minus ``g`` at (ia, ib) and (ib, ia), by blocks.

    The unknowns are cut into equal blocks, as many as fit at least as wide
    as the half-bandwidth of the couplings and ``MIN_BLOCK``, so G is block
    tridiagonal with diagonal blocks D_k and upper blocks U_k.  Forward
    elimination forms the Schur complements
    S_k = D_k - U_{k-1}^T S_{k-1}^-1 U_{k-1}; G is symmetric positive
    definite, so no pivoting across blocks is needed.  The last block is
    padded with identity rows.  A system of one block is a dense solve.
    """
    size = diagonal.size
    # below two narrowest blocks of unknowns the system is one block, whatever its band
    half = int(np.abs(ia - ib).max()) if size >= 2 * MIN_BLOCK and ia.size else 0
    blocks = max(1, size // max(half, MIN_BLOCK))
    width = -(-size // blocks)
    spare = blocks * width - size
    inner = ia // width == ib // width if blocks > 1 else slice(None)
    rows, cols = _interleave(ia[inner], ib[inner]), _interleave(ib[inner], ia[inner])
    # entry (i, j) of a block sits at i * width + j % width of the stacked blocks
    d = np.bincount(rows * width + cols % width, -np.repeat(g[inner], 2), blocks * width * width)
    d = d.astype(float, copy=False).reshape(blocks, width, width)  # no weights gives ints
    if spare:
        diagonal, rhs = np.concatenate((diagonal, np.ones(spare))), np.concatenate((rhs, np.zeros(spare)))
    d.reshape(blocks, width * width)[:, :: width + 1] = diagonal.reshape(blocks, width)
    y = rhs.reshape(blocks, width)
    if blocks == 1:
        return np.linalg.solve(d[0], y[0])

    cross = ~inner
    lo, hi = np.minimum(ia[cross], ib[cross]), np.maximum(ia[cross], ib[cross])
    u = np.bincount(lo * width + hi % width, -g[cross], (blocks - 1) * width * width)
    u = u.reshape(blocks - 1, width, width)
    carried = []  # S_k^-1 [U_k | y'_k]
    s, r = d[0], y[0]
    for k in range(blocks - 1):
        carried.append(np.linalg.solve(s, np.column_stack((u[k], r))))
        update = u[k].T @ carried[-1]
        s, r = d[k + 1] - update[:, :-1], y[k + 1] - update[:, -1]
    x = [np.linalg.solve(s, r)]
    for solved in reversed(carried):
        x.append(solved[:, -1] - solved[:, :-1] @ x[-1])
    return np.concatenate(x[::-1])[:size]


@dataclass(frozen=True)
class NodalDetail:
    """Bookkeeping from a nodal solve, for conservation checks."""

    injected: float  # A, net current delivered by the drive sources
    absorbed: float  # A, net current sunk by grounds and terminations
    unknown_nodes: int  # unknown potentials solved for, summed over readout phases


def _line_sets(net: _Network, spec: CrossbarSpec, ends: dict[str, np.ndarray], hl_at: int,
               g_end: float | None, outs: bool) -> dict[str, np.ndarray]:
    """Lay out both line sets; returns the node of each set at every cell, shape (m, n).

    Vertical line l meets ``ends["vl"][l]`` at its last crossing and
    horizontal line k meets ``ends["hl"][k]`` at crossing ``hl_at``, through
    ``g_end``, or through one more wire segment when ``g_end`` is None,
    which merges an ideal line into its end node.  Neighbouring crossings
    are joined by wire segments; ideal wires (``rw == 0``) make each line a
    single node.  ``outs`` adds a new output node per cell under "out".

    With wire resistance a cell's nodes (vl crossing, hl crossing, output)
    are numbered together, cell by cell in row-major order, so every
    coupling stays within 3n places of the diagonal and the banded solve
    runs on narrow blocks.
    """
    m, n, rw = spec.m, spec.n, spec.wire_resistance_per_segment
    if rw > 0.0:
        names = ("vl", "hl", "out") if outs else ("vl", "hl")
        grid = net.nodes(m * n * len(names)).reshape(m, n, len(names))
        nodes = {name: grid[:, :, i] for i, name in enumerate(names)}
        for name, lines, at in (("vl", nodes["vl"].T, -1), ("hl", nodes["hl"], hl_at)):
            net.branch(lines[:, :-1], lines[:, 1:], 1.0 / rw)
            net.branch(lines[:, at], ends[name], 1.0 / rw if g_end is None else g_end)
        return nodes
    nodes = {}
    for name, shape in (("vl", (1, n)), ("hl", (m, 1))):
        lines = ends[name] if g_end is None else net.nodes(ends[name].size)
        if g_end is not None:
            net.branch(lines, ends[name], g_end)
        nodes[name] = np.broadcast_to(lines.reshape(shape), (m, n))
    if outs:
        nodes["out"] = net.nodes(m * n).reshape(m, n)
    return nodes


def _solve_vl_only(spec: CrossbarSpec, drive: np.ndarray) -> tuple[ReadoutVector, NodalDetail]:
    """Horizontal lines driven at their first crossing, vertical lines grounded after their last."""
    net = _Network()
    sources = net.nodes(spec.m, drive)
    grounds = net.nodes(spec.n, 0.0)
    lines = _line_sets(net, spec, {"vl": grounds, "hl": sources}, 0, None, outs=False)
    net.branch(lines["hl"], lines["vl"], conductance_matrix(spec, "vl"))

    _, inflow, unknowns = net.solve()
    sensed = inflow[grounds]
    detail = NodalDetail(injected=-float(inflow[sources].sum()), absorbed=float(sensed.sum()),
                         unknown_nodes=unknowns)
    return ReadoutVector(vl_currents=sensed, hl_currents=np.zeros(0)), detail


def _dual_lines(spec: CrossbarSpec, outs: bool) -> tuple[_Network, int, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Both line sets of a dual readout, every line ending in a sense termination to ground.

    Returns the network, the ground node, the node of each line set (and
    of each cell output if ``outs``) at every cell, row-major, and the
    terminal node of each line.
    """
    net = _Network()
    gnd = net.nodes(1, 0.0)
    lines = _line_sets(net, spec, {"vl": np.repeat(gnd, spec.n), "hl": np.repeat(gnd, spec.m)}, -1,
                       spec.termination_conductance, outs)
    at = {name: nodes.ravel() for name, nodes in lines.items()}
    return net, int(gnd[0]), at, {"vl": lines["vl"][-1], "hl": lines["hl"][:, -1]}


def _solve_dual_switched(spec: CrossbarSpec, drive: np.ndarray) -> tuple[ReadoutVector, NodalDetail]:
    """2T1M1S dual readout: a column phase, then a row phase.

    During a phase the other line set's switches are driven off, so they
    contribute only their off-state leakage, which drains into that line
    set's terminations and is lost to the measurement.
    """
    cells = [cell for row in spec.cells for cell in row]
    g_body = [series_conductance(fsr_conductance(c.sensor, c.force_f), memristor_conductance(c.memristor))
              for c in cells]
    switches = {"vl": [c.vl_switch for c in cells], "hl": [c.hl_switch for c in cells]}
    sensed = {}
    injected = absorbed = 0.0
    unknowns = 0
    for active, idle in (("vl", "hl"), ("hl", "vl")):
        net, gnd, at, terminals = _dual_lines(spec, outs=True)
        sources = net.nodes(spec.m * spec.n, drive.ravel())
        net.branch(sources, at["out"], g_body)
        net.branch(at["out"], at[active], [switch_conductance(s) for s in switches[active]])
        net.branch(at["out"], at[idle], [s.g_off for s in switches[idle]])
        potential, inflow, size = net.solve()
        sensed[active] = spec.termination_conductance * potential[terminals[active]]
        injected -= inflow[sources].sum()
        absorbed += inflow[gnd]
        unknowns += size
    detail = NodalDetail(injected=float(injected), absorbed=float(absorbed), unknown_nodes=unknowns)
    return ReadoutVector(vl_currents=sensed["vl"], hl_currents=sensed["hl"]), detail


def _solve_dual_shorted(spec: CrossbarSpec, drive: np.ndarray) -> tuple[ReadoutVector, NodalDetail]:
    """Single-switch cells read on both line sets at once (the miswiring case).

    With only one switch per cell the output node has to be hard-wired to
    both its vertical and horizontal line, so every cell shorts the two
    line sets together and the sensed currents smear across all lines.
    """
    rw = spec.wire_resistance_per_segment
    net, gnd, at, terminals = _dual_lines(spec, outs=rw > 0.0)
    if rw > 0.0:
        outs = at["out"]
    else:
        outs = at["vl"]
        for vl, hl in zip(outs.tolist(), at["hl"].tolist()):
            net.short(vl, hl)
    g_stack = conductance_matrix(spec, "vl").ravel()
    live = g_stack > 0.0
    sources = net.nodes(int(live.sum()), drive.ravel()[live])
    net.branch(sources, outs[live], g_stack[live])
    if rw > 0.0:
        net.branch(outs, at["vl"], 1.0 / rw)
        net.branch(outs, at["hl"], 1.0 / rw)

    potential, inflow, unknowns = net.solve()
    g_term = spec.termination_conductance
    readouts = ReadoutVector(vl_currents=g_term * potential[terminals["vl"]],
                             hl_currents=g_term * potential[terminals["hl"]])
    detail = NodalDetail(injected=-float(inflow[sources].sum()), absorbed=float(inflow[gnd]),
                         unknown_nodes=unknowns)
    return readouts, detail


def _dual_drive(spec: CrossbarSpec, drive) -> np.ndarray:
    arr = np.asarray(drive, dtype=float)
    if arr.ndim == 0:
        return np.full((spec.m, spec.n), float(arr))
    if arr.shape != (spec.m, spec.n):
        raise ValueError(f"dual-readout drive must be scalar or {spec.m} x {spec.n}, got {arr.shape}")
    return arr


def solve_nodal_detail(spec: CrossbarSpec, drive) -> tuple[ReadoutVector, NodalDetail]:
    """Full nodal solve returning readouts plus conservation bookkeeping."""
    if spec.readout is Readout.VL_ONLY:
        drive_arr = np.broadcast_to(np.asarray(drive, dtype=float), (spec.m,))
        return _solve_vl_only(spec, drive_arr)

    configs = {cell.config for row in spec.cells for cell in row}
    drive_arr = _dual_drive(spec, drive)
    if configs == {CellConfig.TWO_T1M1S}:
        return _solve_dual_switched(spec, drive_arr)
    if configs == {CellConfig.ONE_T1M1S}:
        return _solve_dual_shorted(spec, drive_arr)
    raise ValueError("dual readout supports uniform 1T1M1S or 2T1M1S grids only")


def solve_nodal(spec: CrossbarSpec, drive) -> ReadoutVector:
    """Line currents from full nodal analysis, including sneak-path leakage.

    Args:
        spec: crossbar description (wire segments, termination, cells).
        drive: VL_ONLY: per-horizontal-line volts (scalar broadcasts);
            VL_AND_HL: per-cell supply volts (scalar broadcasts to m x n).

    Returns:
        ReadoutVector; with ideal wires, zero off-conductance and proper
        per-line selection it matches the ideal readouts within solver
        tolerance.
    """
    readouts, _ = solve_nodal_detail(spec, drive)
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
