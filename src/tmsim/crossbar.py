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
stamps all read.  ``pipeline.build_sensor_crossbar`` computes that table
from its force and state arrays with the same formulas and hands it to
``CrossbarSpec._from_table``; such a spec builds its ``CellState`` grid
only when its ``cells`` is read.

The network's shape depends only on its topology: the readout, the cell
wiring, m, n and whether the wires have resistance.  Each topology is
laid out and compiled once into a cached plan that holds the node
numbering, the branch ends and every index array of the banded
elimination; a solve stamps the branch conductances and the drive into
the plan, scatters them into the matrix blocks in one ``np.bincount`` and
eliminates, carrying from block to block only the columns that couple
to the next block.

Every readout is a layout plus its phases, each phase the line sets it
senses and its stamps: ``VL_ONLY`` is one phase that senses the vertical
lines, a 2T1M1S dual readout a column phase and a row phase, and a
1T1M1S array read on both line sets one phase that senses both.  One
rule reads every line: each line ends at a ground of its own, and its
current is the current flowing into that ground.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .devices import (CellConfig, CellState, MemristorModel, _fsr_affine, _reciprocal_sum,
                      memristor_conductance, series_conductance)

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
    """The nodal system has no unique solution (isolated or floating nodes), or its solve fails the KCL check.

    ``conductance_ratio`` is set when the residual check fails: the ratio
    of the largest to the smallest nonzero stamped conductance, which
    measures how far apart the network's values are.
    """

    def __init__(self, message: str, conductance_ratio: float | None = None):
        super().__init__(message)
        self.conductance_ratio = conductance_ratio


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
        if not (np.isfinite(self.vl_currents).all() and np.isfinite(self.hl_currents).all()):
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
    def _from_table(cls, table: _CellTable, cells, **fields) -> CrossbarSpec:
        """A spec whose cell table the caller has computed with ``_cells``' formulas.

        ``fields`` are every field but ``cells``; ``cells()`` returns the
        matching ``CellState`` grid, which the spec builds only when its
        ``cells`` is first read.
        """
        spec = object.__new__(cls)
        spec.__dict__.update(fields, _table=table, _grid=cells)
        spec._check()
        _freeze(table._asdict())
        return spec

    def __getattr__(self, name: str):
        # reached only for a missing attribute: the cells of a spec from ``_from_table``, on first read
        if name != "cells" or "_grid" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "cells", self._grid())
        return self.cells

    @functools.cached_property
    def _table(self) -> _CellTable:
        """The cells as arrays, read by ``_cells`` on first use and kept: a spec and its cells are immutable."""
        return _cells(self)


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
    arrays are read-only.  ``pipeline.build_sensor_crossbar`` fills the
    same rows from arrays with these formulas, so the two stay in step.
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
    cells = _CellTable(table[0], table[1], table[2:4], table[4:], frozenset(configs))
    _freeze(cells._asdict())
    return cells


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
    """Make the arrays among the values read-only: one cached plan serves every solve of its
    topology, and one cell table every reader of its spec."""
    for namespace in namespaces:
        for value in namespace.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


class _Layout:
    """A network topology under construction: integer nodes and branch ends, no values.

    ``nodes`` hands out the consecutive integers 0, 1, 2, ..., each fixed
    (a source or a ground, whose potential a solve stamps) or unknown.
    ``branch`` appends the branches ``a[i]--b[i]`` to a named group; a
    solve stamps one conductance, scalar or per branch, on each group.
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

    def compile(self, **sites) -> "_Plan":
        """The plan of this layout; ``sites`` names the nodes a solver drives ("sources") or reads."""
        a, b = (np.concatenate(ends) for ends in zip(*self._ends))
        return _Plan(np.array(self._fixed), a, b, self._groups, sites)


class _Plan:
    """A compiled topology: every index array of the nodal solve, derived once.

    A solve stamps only the branch conductances and the drive, then
    eliminates.  Zero-conductance branches stay in the plan as stamped
    zeros, so nothing here depends on values: +0.0 changes no sum, and a
    node whose every branch is stamped zero still shows a zero diagonal.
    """

    def __init__(self, fixed: np.ndarray, a: np.ndarray, b: np.ndarray, groups: list[tuple[str, slice]],
                 sites: dict) -> None:
        self.a, self.b, self.groups, self.sites = a, b, groups, sites
        self.volts = np.where(fixed, 0.0, np.nan)
        self.unknowns = np.flatnonzero(~fixed)
        size = self.unknowns.size
        index = np.full(fixed.size, -1)
        index[self.unknowns] = np.arange(size)
        ia, ib = index[a], index[b]
        one = (ia >= 0) != (ib >= 0)  # the fixed end drives the unknown one
        # rhs[at[i]] += g[of[i]] * volts[from[i]]: a bincount's bins and weights
        self.rhs_at, self.rhs_of = np.where(ia >= 0, ia, ib)[one], np.flatnonzero(one)
        self.rhs_from = np.where(ia >= 0, b, a)[one]
        self.band = _Band(size, ia, ib)
        self.flow_at = _interleave(a, b)
        _freeze(vars(self), sites)

    def stamp(self, conductance: dict, drive) -> tuple[np.ndarray, np.ndarray]:
        """Branch conductances from each group's stamp, and node potentials with the sources at ``drive``."""
        g = np.empty(self.a.size)
        for group, where in self.groups:
            g[where] = conductance[group]
        volts = self.volts.copy()
        volts[self.sites["sources"]] = drive
        return g, volts

    def solve(self, g: np.ndarray, volts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Nodal analysis of the unknown nodes by banded block elimination.

        ``volts`` holds the fixed potentials and receives the solved ones.
        Returns the potential and the net branch current flowing into
        (positive = absorbed by) every node, and the number of unknowns.
        Sums run in branch order, so a restamped plan reproduces its
        results bit for bit.
        """
        low = g.min()
        if low < 0.0:
            raise ValueError(f"branch conductance must be non-negative, got {low}")
        unknowns = self.unknowns
        size = unknowns.size
        rhs = np.bincount(self.rhs_at, g[self.rhs_of] * volts[self.rhs_from], size)

        if size:
            stacked = self.band.assemble(g)
            diagonal = stacked[self.band.diagonal]
            if not diagonal.all():
                isolated = unknowns[diagonal == 0.0]
                raise SingularNetworkError(f"isolated nodes with no conductive path: {isolated.tolist()!r}")
            try:
                volts[unknowns] = self.band.solve(stacked, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularNetworkError(f"nodal system is singular: {exc}") from exc

        current = g * (volts[self.b] - volts[self.a])  # flowing from b into a
        inflow = np.bincount(self.flow_at, _interleave(current, -current), volts.size)
        if size:
            residual = np.abs(inflow[unknowns]).max()  # KCL: no net current into an unknown node
            bound = RESIDUAL_TOLERANCE * max(1.0, np.abs(rhs).max())
            if not residual <= bound:
                live = g[g > 0.0]
                raise SingularNetworkError(f"nodal solve residual {residual:.3e} A exceeds tolerance {bound:.3e} A",
                                           conductance_ratio=float(live.max()) / float(live.min()))
        return volts, inflow, size


class _Band:
    """Block partition of the nodal matrix G of the branches ``ia[i]--ib[i]``
    between unknowns, where -1 marks a fixed end.

    G has on its diagonal the conductance of every branch that meets each
    unknown, and -g at (ia, ib) and (ib, ia) of every branch between two
    unknowns.  The unknowns are cut into equal blocks, as many as fit at
    least as wide as the half-bandwidth of the couplings and ``MIN_BLOCK``,
    so G is block tridiagonal with diagonal blocks D_k and upper blocks U_k;
    ``assemble`` scatters a solve's conductances into all of them in one
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

    def assemble(self, g: np.ndarray) -> np.ndarray:
        """Every block of G for the branch conductances ``g``, stacked flat in one scatter."""
        weights = g[self.of]
        weights[self.first_coupling:] *= -1.0
        stacked = np.bincount(self.at, weights, self.bins)
        if self.spare:
            stacked[self.padding] = 1.0
        return stacked

    def solve(self, stacked: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The unknowns of G u = rhs, G from ``assemble``."""
        blocks, width, cols = self.blocks, self.width, self.columns
        d = stacked[: blocks * width * width].reshape(blocks, width, width)
        if blocks == 1:
            return np.linalg.solve(d[0], rhs)

        u = stacked[blocks * width * width:].reshape(blocks - 1, width, cols.size)
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


def _vl_only_layout(layout: _Layout, m: int, n: int, wired: bool) -> _Plan:
    """Horizontal lines driven at their first crossing, vertical lines grounded after their last."""
    sources = layout.nodes(m, fixed=True)
    grounds = layout.nodes(n, fixed=True)
    lines = _line_sets(layout, m, n, wired, {"vl": grounds, "hl": sources}, dual=False)
    layout.branch("cell", lines["hl"], lines["vl"])
    return layout.compile(sources=sources, grounds=grounds, vl=grounds)


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
    group a phase does not use carries zeros.
    """
    grounds, at = _dual_lines(layout, m, n, wired)
    sources = layout.nodes(m * n, fixed=True)
    layout.branch("body", sources, at["out"])
    layout.branch("vl_col", at["out"], at["vl"])
    layout.branch("hl", at["out"], at["hl"])
    layout.branch("vl_row", at["out"], at["vl"])
    return layout.compile(sources=sources, **grounds)


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
    return layout.compile(sources=sources, **grounds)


@functools.lru_cache
def _topology(lay, m: int, n: int, wired: bool) -> _Plan:
    """The plan of one nodal topology, compiled on first use: ``lay`` is the readout's layout function."""
    return lay(_Layout(), m, n, wired)


def _phases(spec: CrossbarSpec) -> tuple[object, list[tuple[tuple[str, ...], dict]]]:
    """The readout's layout function and its phases: the line sets each phase senses, and its stamps.

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
    if spec.readout is Readout.VL_ONLY:
        return _vl_only_layout, [(("vl",), {"cell": conductance_matrix(spec).ravel()})]
    sensor, memristor, switch_on, switch_off, configs = spec._table
    if configs == {CellConfig.ONE_T1M1S}:
        return _shorted_layout, [(("vl", "hl"), {"cell": conductance_matrix(spec).ravel()})]
    if configs != {CellConfig.TWO_T1M1S}:
        raise ValueError("dual readout supports uniform 1T1M1S or 2T1M1S grids only")
    vl_active, hl_active = _driven(switch_on, switch_off)
    vl_idle, hl_idle = switch_off
    body = _reciprocal_sum((sensor, memristor))  # checked parts, both positive
    return _switched_layout, [(("vl",), {"body": body, "vl_col": vl_active, "hl": hl_idle, "vl_row": 0.0}),
                              (("hl",), {"body": body, "vl_col": 0.0, "hl": hl_active, "vl_row": vl_idle})]


def _drive(spec: CrossbarSpec, drive) -> np.ndarray:
    """The source potentials: one per horizontal line (VL_ONLY) or one per cell, row-major.

    Raises:
        ValueError: naming the first potential that is not finite, or the
            shape of a drive that fits neither a scalar nor the sources.
    """
    arr = np.asarray(drive, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"drive must be finite, got {arr[~np.isfinite(arr)][0]}")
    if spec.readout is Readout.VL_ONLY:
        if arr.shape not in ((), (spec.m,)):
            raise ValueError(f"VL_ONLY drive must be scalar or length {spec.m}, got {arr.shape}")
        return np.broadcast_to(arr, (spec.m,))
    if arr.ndim == 0:
        return np.full(spec.m * spec.n, float(arr))
    if arr.shape != (spec.m, spec.n):
        raise ValueError(f"dual-readout drive must be scalar or {spec.m} x {spec.n}, got {arr.shape}")
    return arr.ravel()


def solve_nodal_detail(spec: CrossbarSpec, drive) -> tuple[ReadoutVector, NodalDetail]:
    """Full nodal solve returning readouts plus conservation bookkeeping.

    Every phase stamps the readout's one plan and solves it; a line is
    sensed as the current flowing into its ground.
    """
    drive = _drive(spec, drive)
    lay, phases = _phases(spec)
    rw = spec.wire_resistance_per_segment
    plan = _topology(lay, spec.m, spec.n, rw > 0.0)
    lines = {"term": spec.termination_conductance} | ({"wire": 1.0 / rw} if rw > 0.0 else {})
    sensed = {"hl": np.zeros(0)}
    injected = absorbed = 0.0
    unknowns = 0
    for senses, stamps in phases:
        _, inflow, size = plan.solve(*plan.stamp(lines | stamps, drive))
        for line in senses:
            sensed[line] = inflow[plan.sites[line]]
        injected -= inflow[plan.sites["sources"]].sum()
        absorbed += np.add.accumulate(inflow[plan.sites["grounds"]])[-1]  # one after another, in ground order
        unknowns += size
    detail = NodalDetail(injected=float(injected), absorbed=float(absorbed), unknown_nodes=unknowns)
    return ReadoutVector(vl_currents=sensed["vl"], hl_currents=sensed["hl"]), detail


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
