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

A spec's cells are read once, on first use, into a cached read-only table
of arrays (sensor, memristor and switch conductances, and the set of cell
wirings) that ``conductance_matrix``, the ideal readout and the nodal
stamps all read.  ``CrossbarSpec._sensor_array`` fills that table for a
sensor array straight from its force and state arrays, with the same
formulas; such a spec builds its ``CellState`` grid only when its
``cells`` is read.

The network's shape depends only on its topology: the readout, the cell
wiring, m, n and whether the wires have resistance.  Each topology is
laid out and compiled once into a cached plan that holds the node
numbering, the branch ends, every index array of the banded elimination
and, per phase, the slot of every branch in the readout's conductance
vector.  A solve builds that vector once from the spec (the line
conductances, then the cells' parts) and fixes the drive, and each phase
then gathers its conductances from it.  One gather, one multiply and one
``np.bincount`` scatter them into the matrix blocks and the right-hand
side together; the elimination carries from block to block only the
columns that couple to the next block; and the inflows of every node are
a signed gather (each branch end's conductance times the potential of
its other end less its own) and one more bincount.

Every readout is a layout plus its phases, each phase the line sets it
senses and its stamps: ``VL_ONLY`` is one phase that senses the vertical
lines, a 2T1M1S dual readout a column phase and a row phase, and a
1T1M1S array read on both line sets one phase that senses both.  One
rule reads every line: each line ends at a ground of its own, and its
current is the current flowing into that ground.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .devices import (CellConfig, CellState, MemristorModel, SensorModel, SwitchModel, _fsr_affine,
                      _reciprocal_sum, memristor_conductance, series_conductance)

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
_HALF_TOLERANCE_SQUARED = (RESIDUAL_TOLERANCE / 2.0) ** 2
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
    """The nodal system has no unique solution (isolated or floating nodes), or its solve fails the KCL check.

    ``conductance_ratio`` is set when the residual check fails: the ratio
    of the largest to the smallest nonzero stamped conductance, which
    measures how far apart the network's values are.
    """

    def __init__(self, message: str, conductance_ratio: float | None = None):
        super().__init__(message)
        self.conductance_ratio = conductance_ratio


class WeightRangeError(ValueError):
    """A weight cannot be programmed inside the memristor conductance span.

    ``index`` names the weight.  It has a default because unpickling calls
    the class with the message alone and then restores ``index``.
    """

    def __init__(self, message: str, index: tuple[int, ...] = ()):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ReadoutVector:
    """Line currents of one readout: per-vertical-line and per-horizontal-line."""

    vl_currents: np.ndarray
    hl_currents: np.ndarray

    def __post_init__(self) -> None:
        vl, hl = np.asarray(self.vl_currents, dtype=float), np.asarray(self.hl_currents, dtype=float)
        object.__setattr__(self, "vl_currents", vl)
        object.__setattr__(self, "hl_currents", hl)
        # one current per line: few enough that a pass in Python costs less than numpy's reductions
        if not all(map(math.isfinite, vl.ravel().tolist() + hl.ravel().tolist())):
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
        self._check()
        # tuples, so that the grid ``_table`` caches cannot change under it
        object.__setattr__(self, "cells", tuple(map(tuple, self.cells)))
        if len(self.cells) != self.m or any(len(row) != self.n for row in self.cells):
            raise ValueError(f"cell grid must be {self.m} x {self.n}")

    def _check(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"crossbar needs m, n >= 1, got {self.m} x {self.n}")
        if self.wire_resistance_per_segment < 0.0:
            raise ValueError("wire resistance must be non-negative")
        if self.termination_conductance <= 0.0:
            raise ValueError("termination conductance must be positive")

    @classmethod
    def _sensor_array(cls, sensor: SensorModel, forces: np.ndarray, memristor: MemristorModel, states: np.ndarray,
                      switch: SwitchModel, **fields) -> CrossbarSpec:
        """A dual-readout 2T1M1S array of ``sensor``s at ``forces`` and ``memristor``s at ``states`` (checked
        m x n arrays), every switch the selected ``switch``; ``fields`` are the wire and termination fields.

        The cell table comes from the arrays through ``_cells``' formulas, so every readout is bit-identical to
        that of the same ``CellState`` grid, which the spec builds only when its ``cells`` is first read.
        """
        m, n = forces.shape
        table = np.empty((6, m * n))  # sensor, memristor, on (vl, hl), off (vl, hl)
        table[0] = _fsr_affine(sensor, forces).ravel()
        table[1] = memristor_conductance(memristor, states).ravel()
        table[2:4], table[4:] = switch.g_on, switch.g_off
        table.flags.writeable = False  # and so every row view of it, which the spec shares with its readers
        spec = object.__new__(cls)
        spec.__dict__.update(
            fields, m=m, n=n, readout=Readout.VL_AND_HL,
            _table=_CellTable(table[0], table[1], table[2:4], table[4:], frozenset({CellConfig.TWO_T1M1S})),
            _grid=functools.partial(_sensor_cells, sensor, forces.tolist(), memristor, states.tolist(), switch))
        spec._check()
        return spec

    def __getattr__(self, name: str):
        # reached only for a missing attribute: the cells of a spec from ``_sensor_array``, on first read
        if name != "cells" or "_grid" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "cells", self._grid())
        return self.cells

    @functools.cached_property
    def _table(self) -> _CellTable:
        """The cells as arrays, read by ``_cells`` on first use and kept: a spec and its cells are immutable."""
        return _cells(self)


def _sensor_cells(sensor: SensorModel, forces: list, memristor: MemristorModel, states: list,
                  switch: SwitchModel) -> tuple:
    """``CrossbarSpec._sensor_array``'s grid of ``CellState``s, from its checked forces and states (nested lists)."""
    return tuple(
        tuple(
            CellState(config=CellConfig.TWO_T1M1S, memristor=replace(memristor, state_w=state), vl_switch=switch,
                      hl_switch=switch, sensor=sensor, force_f=force)
            for force, state in zip(force_row, state_row)
        )
        for force_row, state_row in zip(forces, states)
    )


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


class _CellTable(NamedTuple):
    """A spec's cells as read-only arrays over the grid, row-major; see ``_cells``."""

    sensor: np.ndarray  # (m * n,)
    memristor: np.ndarray  # (m * n,)
    on: np.ndarray  # (2, m * n): vl, hl
    off: np.ndarray  # (2, m * n): vl, hl
    configs: frozenset  # the CellConfig of every cell


def _cells(spec: CrossbarSpec) -> _CellTable:
    """Every cell of the grid, row-major: its sensor conductance (inf for a
    cell without a sensor) and memristor conductance, then one row per line
    set (vl, hl) of its switch's conductance in the ideal readout (g_on, or
    0 when deselected) and when off (g_off); ``_driven`` derives the driven
    value from the two.  A single-switch cell's one switch serves both line
    sets.  Also the set of the cells' wirings.

    ``CellState`` has rejected negative and non-finite forces, so the
    sensor runs ``fsr_conductance``'s formula without its check.  Every
    reader of a spec shares its one table (``CrossbarSpec._table``), so the
    arrays are read-only.  ``CrossbarSpec._sensor_array`` fills the same
    rows from arrays with these formulas, so the two stay in step.
    """
    table, configs = [], set()
    for row in spec.cells:
        for cell in row:
            configs.add(cell.config)
            vl = cell.vl_switch
            hl = cell.hl_switch or vl
            table += (np.inf if cell.sensor is None else _fsr_affine(cell.sensor, cell.force_f),
                      memristor_conductance(cell.memristor),
                      vl.g_on if vl.selected else 0.0, hl.g_on if hl.selected else 0.0, vl.g_off, hl.g_off)
    table = np.array(table).reshape(-1, 6).T
    table.flags.writeable = False  # and so every row view of it
    return _CellTable(table[0], table[1], table[2:4], table[4:], frozenset(configs))


def _driven(on: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Switch conductances as driven, g_on when selected and g_off otherwise,
    from ``_cells``' ideal (``on``) and off values: ``SwitchModel`` keeps
    g_on > g_off >= 0, so ``on`` is positive exactly when selected."""
    return np.where(on > 0.0, on, off)


def conductance_matrix(spec: CrossbarSpec) -> np.ndarray:
    """Effective cell conductances as seen from the vertical lines: ``cell_conductance(cell, "vl")`` of each cell.

    A cell without a sensor fills the sensor's place in the series with an
    infinite conductance (a short), whose reciprocal adds 0 to the sum.
    """
    sensor, memristor, on, off, _ = spec._table
    return series_conductance(sensor, memristor, _driven(on[0], off[0])).reshape(spec.m, spec.n)


def _line_sums(vl: np.ndarray, hl: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cell grids (..., m, n) summed onto their lines in ``out`` (..., n + m):
    the n vertical lines of ``vl``, then the m horizontal lines of ``hl``."""
    n = vl.shape[-1]
    np.add.reduce(vl, axis=-2, out=out[..., :n])
    np.add.reduce(hl, axis=-1, out=out[..., n:])
    return out


def ideal_dual_readout(v_supply: float, spec: CrossbarSpec) -> ReadoutVector:
    """Loss-free dual readout of a 2T1M1S array.

    Every selected cell contributes its full series current to the
    vertical line it sits on during the column phase and again to its
    horizontal line during the row phase:

        vl[l] = sum_k v_supply * g_kl * [vl switch selected]
        hl[k] = sum_l v_supply * g_kl * [hl switch selected]

    g_kl is ``cell_conductance`` with that line's switch on.  The cell
    models have checked every part, so the series formula runs unchecked.

    Raises:
        ValueError: if any cell is not 2T1M1S (single-switch arrays cannot
            attribute their current to both line sets).
    """
    sensor, memristor, switch_on, _, configs = spec._table
    if configs != {CellConfig.TWO_T1M1S}:
        raise ValueError("dual readout requires 2T1M1S cells")
    with np.errstate(divide="ignore"):  # a deselected switch stamps an exact 0, and the cell reads 0
        vl, hl = _reciprocal_sum((sensor, memristor, switch_on)).reshape(2, spec.m, spec.n)
    out = _line_sums(vl, hl, np.empty(spec.n + spec.m))
    out *= v_supply
    return ReadoutVector(vl_currents=out[:spec.n], hl_currents=out[spec.n:])


# ---------------------------------------------------------------------------
# nodal analysis


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[0], y[0], x[1], y[1], ...: both ends of each branch, in branch order."""
    out = np.empty(2 * x.size, dtype=np.result_type(x, y))
    out[0::2], out[1::2] = x, y
    return out


def _freeze(*namespaces: dict) -> None:
    """Make the arrays among the values read-only: one cached plan serves every solve of its topology."""
    for namespace in namespaces:
        for value in namespace.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


class _Layout:
    """A network topology under construction: integer nodes and branch ends, no values.

    ``nodes`` hands out the consecutive integers 0, 1, 2, ..., each fixed
    (a source or a ground, whose potential a solve stamps) or unknown.
    ``branch`` appends the branches ``a[i]--b[i]`` to a named group; each
    phase of a solve stamps one conductance, scalar or per branch, on each
    group (see ``compile``).
    """

    def __init__(self) -> None:
        self._fixed: list[bool] = []
        self._ends: list[tuple[np.ndarray, np.ndarray]] = []
        self._groups: list[tuple[str, slice]] = []
        self._count = 0

    def nodes(self, count: int, fixed: bool = False) -> np.ndarray:
        start = len(self._fixed)
        self._fixed.extend([fixed] * count)
        return np.arange(start, start + count)

    def branch(self, group: str, a, b) -> None:
        a, b = np.ravel(a), np.ravel(b)
        self._ends.append((a, b))
        self._groups.append((group, slice(self._count, self._count + a.size)))
        self._count += a.size

    def compile(self, phases: Sequence[tuple[tuple[str, ...], dict]], **sites) -> "_Plan":
        """The plan of this layout.

        ``phases`` lists, for each phase of a solve, the line sets it senses
        and its stamps: each group's slot in the readout's conductance
        vector, an int for one conductance on every branch of the group or
        a range for one per branch.  ``sites`` names the nodes a solver
        drives ("sources") or reads.
        """
        a, b = (np.concatenate(ends) for ends in zip(*self._ends))
        return _Plan(np.array(self._fixed), a, b, self._groups, phases, sites)


class _Phase(NamedTuple):
    """One phase of a compiled plan: the slot of every branch and entry in the conductance vector."""

    senses: tuple[str, ...]  # the line sets read in this phase
    index: np.ndarray  # the slot of each branch's conductance
    scatter: np.ndarray  # the slot of each entry of the plan's one scatter
    flow: np.ndarray  # the slot of each branch end's conductance, both ends of each branch in turn


class _Plan:
    """A compiled topology: every index array of the nodal solve, derived once.

    A solve stamps a readout's conductance vector and its drive, then runs
    each phase.  A phase's conductances are gathers from that vector,
    through slot indexes compiled here per phase.  G's blocks (``_Band``)
    and the right-hand side are one scatter: one gather of the vector, one
    multiply (by -1 for the couplings between unknowns, by the fixed end's
    potential for the rhs entries) and one ``np.bincount``, whose bins past
    the blocks' hold the rhs.  Each branch end's inflow is its conductance
    times the potential of its other end less its own, so a phase's inflows
    are gathers of the potentials and the vector and one more bincount.
    Zero-conductance branches stay in the plan as stamped zeros, so nothing
    here depends on values: +0.0 changes no sum, and a node whose every
    branch is stamped zero still shows a zero diagonal.
    """

    def __init__(self, fixed: np.ndarray, a: np.ndarray, b: np.ndarray, groups: list[tuple[str, slice]],
                 phases: Sequence[tuple[tuple[str, ...], dict]], sites: dict) -> None:
        self.a, self.b, self.sites = a, b, sites
        self.volts = np.where(fixed, 0.0, np.nan)
        self.unknowns = np.flatnonzero(~fixed)
        size = self.unknowns.size
        index = np.full(fixed.size, -1)
        index[self.unknowns] = np.arange(size)
        ia, ib = index[a], index[b]
        one = (ia >= 0) != (ib >= 0)  # the fixed end drives the unknown one
        self.band = band = _Band(size, ia, ib)
        # stacked[at[i]] += g[of[i]] * factor[i]: G's blocks, then rhs[j] += g * volts[rhs_from[j]]
        self.rhs_from = np.where(ia >= 0, b, a)[one]
        self.at = np.concatenate((band.at, band.bins + np.where(ia >= 0, ia, ib)[one]))
        of = np.concatenate((band.of, np.flatnonzero(one)))
        self.first_rhs = band.at.size
        self.factor = np.ones(of.size)
        self.factor[band.first_coupling:self.first_rhs] = -1.0
        self.bins = band.bins + size
        # inflow[flow_at[i]] += g[i // 2] * (volts[flow_from[i]] - volts[flow_at[i]])
        self.flow_at, self.flow_from = _interleave(a, b), _interleave(b, a)
        self.phases = tuple(self._phase(senses, stamps, groups, of) for senses, stamps in phases)
        _freeze(vars(self), sites, *(phase._asdict() for phase in self.phases))

    @staticmethod
    def _phase(senses: tuple[str, ...], stamps: dict, groups: list[tuple[str, slice]], of: np.ndarray) -> _Phase:
        """A phase's slot indexes, from each group's stamp; ``of`` holds the branch of each scatter entry."""
        index = np.concatenate([np.broadcast_to(stamps[group], where.stop - where.start) for group, where in groups])
        return _Phase(senses, index, index[of], np.repeat(index, 2))

    def stamp(self, values: np.ndarray, drive) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A solve's conductance vector, checked, the node potentials with the sources at ``drive``,
        and the factors of the scatter's entries."""
        low = np.minimum.reduce(values)
        if low < 0.0:
            raise ValueError(f"branch conductance must be non-negative, got {low}")
        volts = self.volts.copy()
        volts[self.sites["sources"]] = drive
        factor = self.factor.copy()
        factor[self.first_rhs:] = volts[self.rhs_from]
        return values, volts, factor

    def _scatter(self, phase: _Phase, values: np.ndarray, factor: np.ndarray) -> np.ndarray:
        """G's blocks, stacked flat, then the right-hand side: one gather, one multiply, one bincount."""
        weights = values[phase.scatter]
        weights *= factor
        return np.bincount(self.at, weights, self.bins)

    def solve(self, phase: _Phase, values: np.ndarray, volts: np.ndarray,
              factor: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Nodal analysis of the unknown nodes by banded block elimination, for ``stamp``'s values.

        ``volts`` holds the fixed potentials and receives the solved ones;
        every phase overwrites them all.  Returns the potential and the net
        branch current flowing into (positive = absorbed by) every node, and
        the number of unknowns.  Sums run in branch order, so a restamped
        plan reproduces its results bit for bit.
        """
        band = self.band
        size = band.size
        stacked = self._scatter(phase, values, factor)
        rhs = stacked[band.bins:]

        if size:
            try:
                volts[self.unknowns] = band.solve(stacked, rhs)
            except np.linalg.LinAlgError as exc:
                # a node whose every branch is stamped zero has a zero row, which no elimination passes;
                # the elimination has updated the blocks in place, so the diagonal is read from a new scatter
                diagonal = self._scatter(phase, values, factor)[band.diagonal]
                if not diagonal.all():
                    isolated = self.unknowns[diagonal == 0.0]
                    raise SingularNetworkError(
                        f"isolated nodes with no conductive path: {isolated.tolist()!r}") from exc
                raise SingularNetworkError(f"nodal system is singular: {exc}") from exc

        flow = volts[self.flow_from] - volts[self.flow_at]
        flow *= values[phase.flow]
        inflow = np.bincount(self.flow_at, flow, volts.size)
        if size:
            residual = inflow[self.unknowns]  # KCL: no net current into an unknown node
            # a sum of squares within (tolerance / 2)^2 puts every residual below the tolerance, which the
            # bound never undercuts, so only a larger sum needs the largest residual and the bound
            if not residual @ residual <= _HALF_TOLERANCE_SQUARED:
                residual = np.abs(residual).max()
                bound = RESIDUAL_TOLERANCE * max(1.0, np.abs(rhs).max())
                if not residual <= bound:
                    g = values[phase.index]
                    live = g[g > 0.0]
                    raise SingularNetworkError(
                        f"nodal solve residual {residual:.3e} A exceeds tolerance {bound:.3e} A",
                        conductance_ratio=float(live.max()) / float(live.min()))
        return volts, inflow, size


class _Band:
    """Block partition of the nodal matrix G of the branches ``ia[i]--ib[i]``
    between unknowns, where -1 marks a fixed end.

    G has on its diagonal the conductance of every branch that meets each
    unknown, and -g at (ia, ib) and (ib, ia) of every branch between two
    unknowns.  The unknowns are cut into equal blocks, as many as fit at
    least as wide as the half-bandwidth of the couplings and ``MIN_BLOCK``,
    so G is block tridiagonal with diagonal blocks D_k and upper blocks U_k,
    stacked flat in ``bins`` entries.  ``at`` and ``of`` place every
    branch's conductance in them, the diagonal entries first, then from
    ``first_coupling`` on the couplings, which enter G as -g: ``_Plan``
    scatters them, with the right-hand side after them, in one
    ``np.bincount``.  Forward elimination forms the Schur complements
    S_k = D_k - U_{k-1}^T S_{k-1}^-1 U_{k-1}; G is symmetric positive
    definite, so no pivoting across blocks is needed.  The couplings
    between blocks reach only some columns of the next block (``columns``;
    where the band sets the width, a block is a row of cells and these are
    its n vertical-line crossings, of 3n unknowns in a wired dual array and
    of 2n in a wired VL_ONLY grid), so U_k keeps only those columns, they
    alone are carried through each block's solve, and the update changes
    only their rows and columns of S_{k+1}.  The last block is padded with
    identity rows.  A system of one block is a dense solve.
    """

    def __init__(self, size: int, ia: np.ndarray, ib: np.ndarray) -> None:
        ends = _interleave(ia, ib)
        free = ends >= 0  # each end at an unknown adds its branch to that unknown's diagonal entry
        diagonal_at, diagonal_of = ends[free], np.repeat(np.arange(ia.size), 2)[free]
        coupled = np.flatnonzero((ia >= 0) & (ib >= 0))
        ia, ib = ia[coupled], ib[coupled]
        # below two narrowest blocks of unknowns the system is one block, whatever its band
        half = int(np.abs(ia - ib).max()) if size >= 2 * MIN_BLOCK and ia.size else 0
        self.size = size
        self.blocks = blocks = max(1, size // max(half, MIN_BLOCK))
        self.width = width = -(-size // blocks)
        self.spare = blocks * width - size
        inner = ia // width == ib // width if blocks > 1 else np.ones(ia.size, dtype=bool)
        rows, cols = _interleave(ia[inner], ib[inner]), _interleave(ib[inner], ia[inner])
        cross = ~inner
        lo, hi = np.minimum(ia[cross], ib[cross]), np.maximum(ia[cross], ib[cross])
        self.columns = columns = np.unique(hi % width)
        # stacked blocks: D_0, ..., D_{B-1}, then U_0, ..., U_{B-2} on the coupled columns only;
        # entry (i, j) of a D_k sits at i * width + j % width, of a U_k at i * |columns| + j's place in columns
        square = blocks * width * width
        self.bins = square + (blocks - 1) * width * columns.size
        node = np.arange(blocks * width)
        diagonal = node * width + node % width
        self.diagonal, self.padding = diagonal[:size], diagonal[size:]
        # stacked[at[i]] += g[of[i]], the diagonal entries first, then from ``first_coupling`` on with -g
        self.at = np.concatenate((diagonal[diagonal_at], rows * width + cols % width,
                                  square + lo * columns.size + np.searchsorted(columns, hi % width)))
        self.of = np.concatenate((diagonal_of, np.repeat(coupled[inner], 2), coupled[cross]))
        self.first_coupling = diagonal_at.size
        _freeze(vars(self))

    def solve(self, stacked: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The unknowns of G u = rhs, G's blocks stacked as ``at`` places them; pads them in place."""
        blocks, width, cols = self.blocks, self.width, self.columns
        if self.spare:
            stacked[self.padding] = 1.0
        d = stacked[: blocks * width * width].reshape(blocks, width, width)
        if blocks == 1:
            return np.linalg.solve(d[0], rhs)

        u = stacked[blocks * width * width: self.bins].reshape(blocks - 1, width, cols.size)
        y = np.concatenate((rhs, np.zeros(self.spare))).reshape(blocks, width)  # a copy: r is updated in place
        across = np.ix_(cols, cols)
        carried = []  # S_k^-1 [U_k | y'_k]
        s, r = d[0], y[0]
        for k in range(blocks - 1):
            carried.append(np.linalg.solve(s, np.column_stack((u[k], r))))
            update = u[k].T @ carried[-1]
            s, r = d[k + 1], y[k + 1]
            s[across] -= update[:, :-1]
            r[cols] -= update[:, -1]
        x = [np.linalg.solve(s, r)]
        for solved in reversed(carried):
            x.append(solved[:, -1] - solved[:, :-1] @ x[-1][cols])
        return np.concatenate(x[::-1])[: self.size]


@dataclass(frozen=True)
class NodalDetail:
    """Bookkeeping from a nodal solve, for conservation checks."""

    injected: float  # A, net current delivered by the drive sources
    absorbed: float  # A, net current sunk by the grounds
    unknown_nodes: int  # unknown potentials solved for, summed over readout phases


def _line_sets(layout: _Layout, m: int, n: int, wired: bool, ends: dict[str, np.ndarray],
               dual: bool) -> dict[str, np.ndarray]:
    """Lay out both line sets; returns the node of each set at every cell, shape (m, n).

    Vertical line l meets ``ends["vl"][l]`` at its last crossing.  In a
    VL_ONLY array horizontal line k meets ``ends["hl"][k]`` at its first
    crossing through one more wire segment, which merges an ideal line into
    its end node.  In a ``dual`` readout horizontal lines end at their last
    crossing, every line meets its end through a sense termination (group
    "term"), and each cell gets a new output node under "out".
    Neighbouring crossings are joined by wire segments (group "wire");
    ideal wires make each line a single node.

    With wire resistance a cell's nodes (vl crossing, hl crossing, output)
    are numbered together, cell by cell in row-major order, so every
    coupling stays within 3n places of the diagonal and the banded solve
    runs on narrow blocks.
    """
    end = "term" if dual else "wire"
    if wired:
        names = ("vl", "hl", "out") if dual else ("vl", "hl")
        grid = layout.nodes(m * n * len(names)).reshape(m, n, len(names))
        nodes = {name: grid[:, :, i] for i, name in enumerate(names)}
        for name, lines, at in (("vl", nodes["vl"].T, -1), ("hl", nodes["hl"], -1 if dual else 0)):
            layout.branch("wire", lines[:, :-1], lines[:, 1:])
            layout.branch(end, lines[:, at], ends[name])
        return nodes
    nodes = {}
    for name, shape in (("vl", (1, n)), ("hl", (m, 1))):
        lines = layout.nodes(ends[name].size) if dual else ends[name]
        if dual:
            layout.branch("term", lines, ends[name])
        nodes[name] = np.broadcast_to(lines.reshape(shape), (m, n))
    if dual:
        nodes["out"] = layout.nodes(m * n).reshape(m, n)
    return nodes


# The first slots of every readout's conductance vector (``_conductances``): an exact 0 for a group a
# phase leaves idle, the sense termination and the wire segment's conductance (0 with ideal wires, whose
# plans have no wire branches).  The readout's per-cell parts follow, m * n slots each.
_ZERO, _TERM, _WIRE = 0, 1, 2
_LINES = {"term": _TERM, "wire": _WIRE}


def _cell_parts(m: int, n: int, count: int) -> list[range]:
    """The slots of the first ``count`` per-cell parts of a conductance vector."""
    return [range(_WIRE + 1 + k * m * n, _WIRE + 1 + (k + 1) * m * n) for k in range(count)]


def _vl_only_layout(layout: _Layout, m: int, n: int, wired: bool) -> _Plan:
    """Horizontal lines driven at their first crossing, vertical lines grounded after their last."""
    sources = layout.nodes(m, fixed=True)
    grounds = layout.nodes(n, fixed=True)
    lines = _line_sets(layout, m, n, wired, {"vl": grounds, "hl": sources}, dual=False)
    layout.branch("cell", lines["hl"], lines["vl"])
    (cell,) = _cell_parts(m, n, 1)
    return layout.compile([(("vl",), {**_LINES, "cell": cell})], sources=sources, grounds=grounds, vl=grounds)


def _dual_grounds(layout: _Layout, m: int, n: int) -> dict[str, np.ndarray]:
    """One ground per line of a dual readout, numbered before any unknown node: all, then per line set."""
    grounds = layout.nodes(n + m, fixed=True)
    return {"grounds": grounds, "vl": grounds[:n], "hl": grounds[n:]}


def _dual_lines(layout: _Layout, m: int, n: int, wired: bool) -> tuple[dict, dict[str, np.ndarray]]:
    """Both line sets of a dual readout, every line ending in a sense termination to its own ground.

    Returns the ground sites and the node of each line set and of each
    cell output at every cell, row-major.
    """
    grounds = _dual_grounds(layout, m, n)
    lines = _line_sets(layout, m, n, wired, grounds, dual=True)
    return grounds, {name: nodes.ravel() for name, nodes in lines.items()}


def _switched_layout(layout: _Layout, m: int, n: int, wired: bool) -> _Plan:
    """2T1M1S cells: supply -- body (sensor and memristor) -- output -- one switch to each line.

    Both phases stamp this one plan and add an output's conductances in
    the same order, body, active switch, idle switch: the column phase
    stamps "vl_col" and "hl", the row phase "hl" and "vl_row", and the
    group a phase does not use carries zeros.  The per-cell parts of the
    conductance vector are the body, the driven vl and hl switches and
    the off vl and hl switches.
    """
    grounds, at = _dual_lines(layout, m, n, wired)
    sources = layout.nodes(m * n, fixed=True)
    layout.branch("body", sources, at["out"])
    layout.branch("vl_col", at["out"], at["vl"])
    layout.branch("hl", at["out"], at["hl"])
    layout.branch("vl_row", at["out"], at["vl"])
    body, vl_active, hl_active, vl_idle, hl_idle = _cell_parts(m, n, 5)
    phases = [(("vl",), {**_LINES, "body": body, "vl_col": vl_active, "hl": hl_idle, "vl_row": _ZERO}),
              (("hl",), {**_LINES, "body": body, "vl_col": _ZERO, "hl": hl_active, "vl_row": vl_idle})]
    return layout.compile(phases, sources=sources, **grounds)


def _shorted_layout(layout: _Layout, m: int, n: int, wired: bool) -> _Plan:
    """Single-switch cells hard-wired to both lines; ideal wires merge every line into one bus node."""
    if wired:
        grounds, at = _dual_lines(layout, m, n, wired)
        outs = at["out"]
    else:
        grounds, bus = _dual_grounds(layout, m, n), layout.nodes(1)
        layout.branch("term", np.repeat(bus, n + m), grounds["grounds"])
        outs = np.repeat(bus, m * n)
    sources = layout.nodes(m * n, fixed=True)
    layout.branch("cell", sources, outs)
    if wired:
        layout.branch("wire", outs, at["vl"])
        layout.branch("wire", outs, at["hl"])
    (cell,) = _cell_parts(m, n, 1)
    return layout.compile([(("vl", "hl"), {**_LINES, "cell": cell})], sources=sources, **grounds)


@functools.lru_cache
def _topology(lay, m: int, n: int, wired: bool) -> _Plan:
    """The plan of one nodal topology, compiled on first use: ``lay`` is the readout's layout function."""
    return lay(_Layout(), m, n, wired)


def _conductances(spec: CrossbarSpec) -> tuple[object, np.ndarray]:
    """The readout's layout function and its conductance vector, whose slots its phases stamp.

    A 2T1M1S array is read in a column phase, then a row phase.  During a
    phase the other line set's switches are driven off, so they contribute
    only their off-state leakage, which drains into that line set's
    terminations and is lost to the measurement.  A 1T1M1S array has one
    switch per cell, so its output is hard-wired to both its lines: every
    cell shorts the two line sets together and the sensed currents smear
    across all lines (the miswiring case).

    Raises:
        ValueError: if a dual readout's cells are not all 1T1M1S or all 2T1M1S.
    """
    rw = spec.wire_resistance_per_segment
    lines = (0.0, spec.termination_conductance, 1.0 / rw if rw > 0.0 else 0.0)  # _ZERO, _TERM, _WIRE
    if spec.readout is Readout.VL_ONLY:
        return _vl_only_layout, np.concatenate((lines, conductance_matrix(spec).ravel()))
    sensor, memristor, switch_on, switch_off, configs = spec._table
    if configs == {CellConfig.ONE_T1M1S}:
        return _shorted_layout, np.concatenate((lines, conductance_matrix(spec).ravel()))
    if configs != {CellConfig.TWO_T1M1S}:
        raise ValueError("dual readout supports uniform 1T1M1S or 2T1M1S grids only")
    body = _reciprocal_sum((sensor, memristor))  # checked parts, both positive
    return _switched_layout, np.concatenate((lines, body, _driven(switch_on, switch_off).ravel(), switch_off.ravel()))


def _drive(spec: CrossbarSpec, drive) -> np.ndarray:
    """The source potentials: a scalar, or one per horizontal line (VL_ONLY) or per cell, row-major.

    Raises:
        ValueError: naming the first potential that is not finite, or the
            shape of a drive that fits neither a scalar nor the sources.
    """
    arr = np.asarray(drive, dtype=float)
    if arr.ndim == 0:
        if not math.isfinite(arr):
            raise ValueError(f"drive must be finite, got {arr}")
        return arr
    if not np.isfinite(arr).all():
        raise ValueError(f"drive must be finite, got {arr[~np.isfinite(arr)][0]}")
    if spec.readout is Readout.VL_ONLY:
        if arr.shape != (spec.m,):
            raise ValueError(f"VL_ONLY drive must be scalar or length {spec.m}, got {arr.shape}")
        return arr
    if arr.shape != (spec.m, spec.n):
        raise ValueError(f"dual-readout drive must be scalar or {spec.m} x {spec.n}, got {arr.shape}")
    return arr.ravel()


def _solve(spec: CrossbarSpec, drive, detail: bool) -> tuple[ReadoutVector, NodalDetail | None]:
    """The phase loop of every nodal readout: each phase solves the readout's one plan, stamped once,
    and senses a line as the current flowing into its ground.  The ``detail`` sums only when asked."""
    drive = _drive(spec, drive)
    lay, values = _conductances(spec)
    plan = _topology(lay, spec.m, spec.n, spec.wire_resistance_per_segment > 0.0)
    stamped = plan.stamp(values, drive)
    sensed = {"hl": np.zeros(0)}
    injected = absorbed = 0.0
    unknowns = 0
    for phase in plan.phases:
        _, inflow, size = plan.solve(phase, *stamped)
        for line in phase.senses:
            sensed[line] = inflow[plan.sites[line]]
        if detail:
            injected -= inflow[plan.sites["sources"]].sum()
            absorbed += np.add.accumulate(inflow[plan.sites["grounds"]])[-1]  # one after another, in ground order
            unknowns += size
    readout = ReadoutVector(vl_currents=sensed["vl"], hl_currents=sensed["hl"])
    if not detail:
        return readout, None
    return readout, NodalDetail(injected=float(injected), absorbed=float(absorbed), unknown_nodes=unknowns)


def solve_nodal_detail(spec: CrossbarSpec, drive) -> tuple[ReadoutVector, NodalDetail]:
    """Full nodal solve returning readouts plus conservation bookkeeping."""
    return _solve(spec, drive, detail=True)


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
    readouts, _ = _solve(spec, drive, detail=False)
    return readouts


def leakage_fraction(ideal: ReadoutVector, actual: ReadoutVector) -> float:
    """Relative L1 readout error: sum |i_actual - i_ideal| / sum |i_ideal|."""
    ideal_flat = ideal.concatenated()
    error = actual.concatenated()
    if ideal_flat.shape != error.shape:
        raise ValueError(f"shape mismatch: {ideal_flat.shape} vs {error.shape}")
    denom = np.add.reduce(np.abs(ideal_flat))
    if denom == 0.0:
        raise ValueError("ideal readout is identically zero; leakage fraction undefined")
    error -= ideal_flat
    return float(np.add.reduce(np.abs(error, out=error)) / denom)


def weights_to_differential(
    weights: np.ndarray, memristor: MemristorModel, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Map signed weights onto differential conductance pairs of ``memristor`` devices.

    Each weight becomes a column pair programmed at

        g_plus  = g_base + max(w, 0) * scale
        g_minus = g_base - min(w, 0) * scale

    with g_base = 1/r_off, the memristor's conductance at state 0, so
    g_plus - g_minus = w * scale exactly and both stay in [1/r_off, 1/r_on].

    Raises:
        WeightRangeError: naming the first offending index if |w| * scale
            exceeds the memristor span.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    w = np.asarray(weights, dtype=float)
    span = memristor.span
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
    g_base = memristor_conductance(memristor, 0.0)
    g_plus = g_base + np.maximum(w, 0.0) * scale
    g_minus = g_base + np.maximum(-w, 0.0) * scale
    return g_plus, g_minus
