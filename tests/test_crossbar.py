"""Crossbar readout tests: ideal algebra, nodal solver, leakage metrics.

The nodal solver is checked against the loss-free readout algebra in the
regimes where they must coincide (zero wire resistance, zero off-state
leakage) and for the conservation and degeneracy properties that hold in
every regime.
"""

import json
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tmsim.braille import build_dataset
from tmsim.crossbar import (
    MIN_BLOCK,
    RESIDUAL_TOLERANCE,
    CrossbarSpec,
    Readout,
    ReadoutVector,
    SingularNetworkError,
    WeightRangeError,
    _Band,
    _cells,
    _interleave,
    _Layout,
    _Plan,
    _switched_layout,
    _topology,
    conductance_matrix,
    ideal_dual_readout,
    ideal_mac_vl,
    leakage_fraction,
    solve_nodal,
    solve_nodal_detail,
    weights_to_differential,
)
from tmsim.devices import (
    CellConfig,
    CellState,
    MemristorModel,
    SensorModel,
    SwitchModel,
    cell_conductance,
    series_conductance,
)
from tmsim.pipeline import build_sensor_crossbar

SENSOR = SensorModel()
V_SUPPLY = 0.5
LEAKAGE_SCALES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)  # the scales of `tmsim leakage`
NODAL_GOLDEN = Path(__file__).parent / "data" / "nodal_readouts_golden.json"


def _reference_solve(a, b, g, volts):
    """Dense nodal analysis of the unknown (NaN) nodes of branches ``a[i]--b[i]``.

    Returns the potential and the net branch current flowing into
    (positive = absorbed by) every node, and the number of unknowns.
    """
    volts = np.array(volts, dtype=float)
    count = volts.size
    unknowns = np.flatnonzero(np.isnan(volts))
    size = unknowns.size
    index = np.full(count, -1)
    index[unknowns] = np.arange(size)

    live = g > 0.0
    a, b, g = a[live], b[live], g[live]
    ia, ib = index[a], index[b]
    ends = _interleave(ia, ib)
    free = ends >= 0
    g_mat = np.zeros((size, size))
    g_mat.flat[:: size + 1] = np.bincount(ends[free], weights=np.repeat(g, 2)[free], minlength=size)
    both = (ia >= 0) & (ib >= 0)
    np.add.at(g_mat, (_interleave(ia[both], ib[both]), _interleave(ib[both], ia[both])),
              -np.repeat(g[both], 2))
    one = (ia >= 0) != (ib >= 0)  # the fixed end drives the unknown one
    rhs = np.bincount(np.where(ia >= 0, ia, ib)[one],
                      weights=(g * np.where(ia >= 0, volts[b], volts[a]))[one], minlength=size)

    if size:
        isolated = unknowns[g_mat.diagonal() == 0.0]
        if isolated.size:
            raise SingularNetworkError(f"isolated nodes with no conductive path: {isolated.tolist()!r}")
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
        volts[unknowns] = u

    current = g * (volts[b] - volts[a])  # flowing from b into a
    inflow = np.bincount(_interleave(a, b), weights=_interleave(current, -current), minlength=count)
    return volts, inflow, size


@pytest.fixture
def against_dense(monkeypatch):
    """Runs the dense reference beside every solve of a compiled plan; yields the solve count."""
    banded = _Plan.solve
    solves = []

    def checked(plan, phase, values, volts, factor):
        # an earlier phase has written its potentials into the unknowns (NaN in the plan's own volts)
        fixed = np.where(np.isnan(plan.volts), np.nan, volts)
        want_potential, want_inflow, want_size = _reference_solve(plan.a, plan.b, values[phase.index], fixed)
        potential, inflow, size = banded(plan, phase, values, volts, factor)  # writes the solved potentials
        assert size == want_size
        for got, want in ((potential, want_potential), (inflow, want_inflow)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        solves.append(size)
        return potential, inflow, size

    monkeypatch.setattr(_Plan, "solve", checked)
    return solves


def _stamped(layout, conductance, drive, **sites):
    """Compiles ``layout`` with one phase that stamps ``conductance`` (per group, one value or a list of
    one per branch) from a conductance vector, and stamps it; returns the plan and its ``solve`` arguments."""
    values, stamps = [], {}
    for group, g in conductance.items():
        stamps[group] = range(len(values), len(values) + len(g)) if np.ndim(g) else len(values)
        values.extend(np.ravel(g))
    plan = layout.compile([((), stamps)], **sites)
    return plan, (plan.phases[0], *plan.stamp(np.array(values, dtype=float), drive))


def _divider():
    """0.5 V -- 1 mS -- mid -- 1 mS and 2 mS in parallel, as a shorted pair of nodes -- ground."""
    layout = _Layout()
    source, ground, mid = layout.nodes(1, fixed=True), layout.nodes(1, fixed=True), layout.nodes(1)
    layout.branch("r", [source, mid, mid], [mid, ground, ground])
    plan, stamped = _stamped(layout, {"r": [1e-3, 1e-3, 2e-3]}, 0.5, sources=source)
    return plan.solve(*stamped)


def _scaled(cfg, scale):
    """``cfg`` with its switch leakage and wire resistance times ``scale``, as `tmsim leakage` sets them."""
    base = cfg.parasitics
    return replace(cfg, parasitics=replace(base, switch_g_off=base.switch_g_off * scale,
                                           wire_resistance=base.wire_resistance * scale))


def _weight_grid(rng, m, n, wire_resistance=0.0):
    """m x n crossbar of selected 1T1M cells with random memristor states."""
    cells = tuple(
        tuple(
            CellState(
                config=CellConfig.ONE_T1M,
                memristor=MemristorModel(state_w=float(rng.uniform(0.0, 1.0))),
                vl_switch=SwitchModel(),
            )
            for _ in range(n)
        )
        for _ in range(m)
    )
    return CrossbarSpec(m=m, n=n, cells=cells, wire_resistance_per_segment=wire_resistance)


def _sensor_grid(rng=None, forces=None, states=None, g_off=0.0, wire_resistance=0.0,
                 config=CellConfig.TWO_T1M1S, selected=True):
    """4 x 2 sensing crossbar in dual-readout wiring."""
    if forces is None:
        forces = rng.uniform(0.0, 40.0, (4, 2))
    if states is None:
        states = rng.uniform(0.0, 1.0, (4, 2)) if rng is not None else np.ones((4, 2))
    switch = SwitchModel(g_on=1e-2, g_off=g_off, selected=selected)
    hl = switch if config is CellConfig.TWO_T1M1S else None
    cells = tuple(
        tuple(
            CellState(
                config=config,
                memristor=MemristorModel(state_w=float(states[k, l])),
                vl_switch=switch,
                hl_switch=hl,
                sensor=SENSOR,
                force_f=float(forces[k, l]),
            )
            for l in range(2)
        )
        for k in range(4)
    )
    return CrossbarSpec(m=4, n=2, cells=cells, readout=Readout.VL_AND_HL,
                        wire_resistance_per_segment=wire_resistance)


def _cellwise_array(forces, states, cfg, parasitic):
    """2T1M1S dual-readout array of ``CellState``s, one per force and memristor state.

    ``parasitic`` uses the calibrated wire resistance and switch
    off-conductance; otherwise wires are ideal and switches do not leak.
    """
    m, n = np.shape(forces)
    g_off = cfg.parasitics.switch_g_off if parasitic else 0.0
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
            for l in range(n)
        )
        for k in range(m)
    )
    return CrossbarSpec(
        m=m, n=n, cells=cells, readout=Readout.VL_AND_HL,
        wire_resistance_per_segment=cfg.parasitics.wire_resistance if parasitic else 0.0,
        termination_conductance=cfg.parasitics.termination_conductance,
    )


def _dual_array(rng, side, cfg, parasitic):
    """side x side ``_cellwise_array`` with random forces and states."""
    states = rng.uniform(0.0, 1.0, (side, side))
    forces = rng.uniform(0.0, cfg.f_press, (side, side))
    return _cellwise_array(forces, states, cfg, parasitic)


class TestIdealMac:
    def test_hand_example(self):
        g = np.array([[1e-3, 1e-5], [5e-4, 1e-4]])
        np.testing.assert_allclose(
            ideal_mac_vl([0.5, 0.5], g), [7.5e-4, 5.5e-5], rtol=1e-12
        )

    def test_zero_drive(self):
        g = np.full((3, 4), 1e-4)
        np.testing.assert_array_equal(ideal_mac_vl([0.0] * 3, g), np.zeros(4))

    def test_single_on_cell(self):
        g = np.zeros((3, 4))
        g[1, 2] = 7e-4
        i = ideal_mac_vl([0.1, 0.5, 0.9], g)
        expected = np.zeros(4)
        expected[2] = 0.5 * 7e-4
        np.testing.assert_allclose(i, expected, rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = rng.uniform(1e-5, 1e-3, (4, 8))
            v1 = rng.uniform(-0.5, 0.5, 4)
            v2 = rng.uniform(-0.5, 0.5, 4)
            a, b = rng.uniform(-2.0, 2.0, 2)
            lhs = ideal_mac_vl(a * v1 + b * v2, g)
            rhs = a * ideal_mac_vl(v1, g) + b * ideal_mac_vl(v2, g)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ideal_mac_vl([0.5, 0.5, 0.5], np.ones((2, 2)))


class TestNodalVlOnly:
    def test_matches_ideal_mac_without_parasitics(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            spec = _weight_grid(rng, 4, 8)
            drive = rng.uniform(0.0, 0.5, 4)
            got = solve_nodal(spec, drive).vl_currents
            want = ideal_mac_vl(drive, conductance_matrix(spec))
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_wire_resistance_reduces_current(self):
        rng = np.random.default_rng(3)
        spec0 = _weight_grid(rng, 4, 8)
        spec1 = CrossbarSpec(m=4, n=8, cells=spec0.cells, wire_resistance_per_segment=5.0)
        i0 = solve_nodal(spec0, 0.5).vl_currents
        i1 = solve_nodal(spec1, 0.5).vl_currents
        assert np.all(i1 < i0)
        assert np.all(i1 > 0.0)

    def test_current_conservation_with_parasitics(self):
        rng = np.random.default_rng(4)
        spec = CrossbarSpec(
            m=4, n=8, cells=_weight_grid(rng, 4, 8).cells, wire_resistance_per_segment=3.0
        )
        _, detail = solve_nodal_detail(spec, rng.uniform(0.1, 0.5, 4))
        assert detail.injected == pytest.approx(detail.absorbed, rel=1e-9)

    @pytest.mark.parametrize("config, g_off", [pytest.param(c, 1e-6, id=c.value) for c in CellConfig]
                             + [pytest.param(CellConfig.TWO_T1M1S, 0.0, id="2T1M1S-g_off-0")])
    def test_conductance_matrix_agrees_with_cells(self, config, g_off):
        rng = np.random.default_rng(5)
        if config is CellConfig.ONE_T1M:
            spec = _weight_grid(rng, 3, 3)
        else:
            spec = _sensor_grid(rng, g_off=g_off, config=config)
        # one deselected vl switch, which the matrix reads at its g_off
        cells = [list(row) for row in spec.cells]
        cells[1][0] = replace(cells[1][0], vl_switch=replace(cells[1][0].vl_switch, selected=False))
        spec = replace(spec, cells=tuple(map(tuple, cells)))
        g = conductance_matrix(spec)
        assert g[1, 0] < g[1, 1]
        for k in range(spec.m):
            for l in range(spec.n):
                assert g[k, l] == cell_conductance(spec.cells[k][l], "vl")


class TestDualReadout:
    def test_ideal_currents_by_brute_force(self):
        rng = np.random.default_rng(6)
        spec = _sensor_grid(rng)
        rv = ideal_dual_readout(V_SUPPLY, spec)
        g = conductance_matrix(spec)
        np.testing.assert_allclose(rv.vl_currents, V_SUPPLY * g.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(rv.hl_currents, V_SUPPLY * g.sum(axis=1), rtol=1e-12)

    def test_nodal_equals_ideal_without_parasitics(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            spec = _sensor_grid(rng)
            got = solve_nodal(spec, V_SUPPLY).concatenated()
            want = ideal_dual_readout(V_SUPPLY, spec).concatenated()
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_dual_phase_conserves_current(self):
        rng = np.random.default_rng(8)
        spec = _sensor_grid(rng, g_off=1.9e-3, wire_resistance=2.0)
        _, detail = solve_nodal_detail(spec, V_SUPPLY)
        assert detail.injected == pytest.approx(detail.absorbed, rel=1e-9)

    def test_deselected_line_switch_drops_that_contribution(self):
        forces = np.full((4, 2), 20.0)
        base = _sensor_grid(forces=forces)
        rv0 = ideal_dual_readout(V_SUPPLY, base)

        # rebuild with cell (2, 1) deselected on its horizontal line only
        cells = [list(row) for row in base.cells]
        target = cells[2][1]
        cells[2][1] = CellState(
            config=target.config,
            memristor=target.memristor,
            vl_switch=target.vl_switch,
            hl_switch=SwitchModel(selected=False),
            sensor=target.sensor,
            force_f=target.force_f,
        )
        masked = CrossbarSpec(m=4, n=2, cells=tuple(tuple(r) for r in cells),
                              readout=Readout.VL_AND_HL)
        rv1 = ideal_dual_readout(V_SUPPLY, masked)
        np.testing.assert_allclose(rv1.vl_currents, rv0.vl_currents, rtol=1e-12)
        lost = V_SUPPLY * cell_conductance(target, "vl")
        assert rv0.hl_currents[2] - rv1.hl_currents[2] == pytest.approx(lost, rel=1e-12)

    def test_requires_two_switch_cells(self):
        spec = _sensor_grid(forces=np.zeros((4, 2)), config=CellConfig.ONE_T1M1S)
        with pytest.raises(ValueError):
            ideal_dual_readout(V_SUPPLY, spec)

    def test_all_cells_deselected_read_zero(self):
        spec = _sensor_grid(forces=np.full((4, 2), 20.0), selected=False)
        rv = ideal_dual_readout(V_SUPPLY, spec)
        assert rv.concatenated().sum() == 0.0


class TestNodalContract:
    """Guards of the nodal solver and its behaviour at array sizes where the
    dense solve dominates."""

    def test_node_without_conductive_path_is_singular(self):
        layout = _Layout()
        source, mid, far = layout.nodes(1, fixed=True), layout.nodes(1), layout.nodes(1)
        layout.branch("r", source, mid)
        layout.branch("open", mid, far)  # a zero-conductance branch leaves the far node isolated
        plan, stamped = _stamped(layout, {"r": 1e-3, "open": 0.0}, 0.5, sources=source)
        with pytest.raises(SingularNetworkError, match="isolated"):
            plan.solve(*stamped)

    def test_negative_conductance_is_rejected(self):
        layout = _Layout()
        source, mid = layout.nodes(1, fixed=True), layout.nodes(1)
        layout.branch("r", [source, mid], [mid, source])
        with pytest.raises(ValueError, match="non-negative"):
            plan, stamped = _stamped(layout, {"r": [1e-3, -1e-4]}, 0.5, sources=source)
            plan.solve(*stamped)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dual", [False, True])
    def test_non_finite_drive_is_rejected(self, dual, bad):
        rng = np.random.default_rng(36)
        if dual:
            spec, drive = _sensor_grid(rng, g_off=1.9e-3, wire_resistance=2.0), np.full((4, 2), 0.5)
            drive[2, 1] = bad
        else:
            spec, drive = _weight_grid(rng, 3, 2, wire_resistance=2.0), bad
        with pytest.raises(ValueError, match=f"^drive must be finite, got {bad}$"):
            solve_nodal(spec, drive)

    @pytest.mark.parametrize("drive", [[0.1, 0.2], np.full((3, 1), 0.2)])
    def test_vl_only_drive_of_the_wrong_shape_is_rejected(self, drive):
        spec = _weight_grid(np.random.default_rng(37), 3, 2, wire_resistance=2.0)
        shape = np.shape(drive)
        with pytest.raises(ValueError, match=re.escape(f"VL_ONLY drive must be scalar or length 3, got {shape}")):
            solve_nodal(spec, drive)

    def test_divider_with_a_short(self):
        potential, inflow, unknowns = _divider()
        assert unknowns == 1
        np.testing.assert_allclose(potential, [0.5, 0.0, 0.125], rtol=1e-12)
        np.testing.assert_allclose(inflow, [-0.375e-3, 0.375e-3, 0.0], rtol=1e-12, atol=1e-18)

    def test_16x16_equals_ideal_without_parasitics(self, cfg):
        spec = _dual_array(np.random.default_rng(21), 16, cfg, parasitic=False)
        got = solve_nodal(spec, V_SUPPLY).concatenated()
        want = ideal_dual_readout(V_SUPPLY, spec).concatenated()
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_16x16_conserves_current_with_parasitics(self, cfg):
        spec = _dual_array(np.random.default_rng(22), 16, cfg, parasitic=True)
        _, detail = solve_nodal_detail(spec, V_SUPPLY)
        assert detail.injected > 0.0
        assert detail.injected == pytest.approx(detail.absorbed, rel=1e-9)

    def test_dual_readout_reports_the_unknowns_of_both_phases(self):
        rng = np.random.default_rng(24)
        spec = _sensor_grid(rng, g_off=1.9e-3, wire_resistance=2.0)
        _, detail = solve_nodal_detail(spec, V_SUPPLY)
        # per phase: 2 vertical lines x 4 crossings, 4 horizontal x 2, 8 cell outputs
        assert detail.unknown_nodes == 2 * (8 + 8 + 8)

    @pytest.mark.parametrize("wire_resistance", [0.0, 2.0])
    def test_shorted_readout_conserves_current(self, wire_resistance):
        rng = np.random.default_rng(23)
        spec = _sensor_grid(rng, g_off=1.9e-3, wire_resistance=wire_resistance,
                            config=CellConfig.ONE_T1M1S)
        _, detail = solve_nodal_detail(spec, V_SUPPLY)
        assert detail.injected > 0.0
        assert detail.injected == pytest.approx(detail.absorbed, rel=1e-9)


class TestPhaseLoop:
    """The one phase loop behind every nodal readout."""

    @pytest.mark.parametrize("wire_resistance", [0.0, 2.0])
    @pytest.mark.parametrize("config", [CellConfig.ONE_T1M, CellConfig.ONE_T1M1S, CellConfig.TWO_T1M1S])
    def test_readout_equals_the_detailed_one(self, config, wire_resistance):
        rng = np.random.default_rng(41)
        if config is CellConfig.ONE_T1M:  # VL_ONLY
            spec, drives = _weight_grid(rng, 5, 4, wire_resistance), (0.4, rng.uniform(0.1, 0.5, 5))
        else:
            spec = _sensor_grid(rng, g_off=1.9e-3, wire_resistance=wire_resistance, config=config)
            drives = (V_SUPPLY, rng.uniform(0.1, 0.5, (4, 2)))
        for drive in drives:
            readout, (detailed, _) = solve_nodal(spec, drive), solve_nodal_detail(spec, drive)
            assert np.array_equal(readout.vl_currents, detailed.vl_currents)
            assert np.array_equal(readout.hl_currents, detailed.hl_currents)

    def test_failed_residual_reports_the_failing_phase_conductance_ratio(self):
        # a driven chain of six unknowns: the first phase joins them by 1 S, the second by 1e12 S between
        # 1 mS ends, which fails the residual check; the vector's 1e-6 S is stamped in the first phase only
        layout = _Layout()
        source, ground, chain = layout.nodes(1, fixed=True), layout.nodes(1, fixed=True), layout.nodes(6)
        layout.branch("in", source, chain[0])
        layout.branch("wire", chain[:-1], chain[1:])
        layout.branch("out", chain[-1], ground)
        plan = layout.compile([((), {"in": 0, "wire": 2, "out": 1}), ((), {"in": 1, "wire": 3, "out": 1})],
                              sources=source)
        stamped = plan.stamp(np.array([1e-6, 1e-3, 1.0, 1e12]), 0.5)
        plan.solve(plan.phases[0], *stamped)
        with pytest.raises(SingularNetworkError, match="residual .* exceeds tolerance") as excinfo:
            plan.solve(plan.phases[1], *stamped)
        assert excinfo.value.conductance_ratio == 1e12 / 1e-3

    def test_failed_residual_of_a_sensor_array_reports_its_conductance_ratio(self, cfg):
        # 1e-30 ohm wire segments, as `tmsim leakage` meets them from parasitics.wire_resistance; both phases
        # stamp the same values (bodies, g_on, g_off, terminations and wires), so either may fail
        wired = replace(cfg, parasitics=replace(cfg.parasitics, wire_resistance=1e-30))
        spec = build_sensor_crossbar(np.full((4, 2), cfg.f_press), np.ones((4, 2)), wired, parasitic=True)
        with pytest.raises(SingularNetworkError, match="residual .* exceeds tolerance") as excinfo:
            solve_nodal(spec, V_SUPPLY)
        sensor, memristor, on, off, _ = spec._table
        stamped = np.concatenate((series_conductance(sensor, memristor), on.ravel(), off.ravel(),
                                  [spec.termination_conductance, 1.0 / 1e-30]))
        assert excinfo.value.conductance_ratio == stamped.max() / stamped[stamped > 0.0].min()


def _band_system(rng, size, half):
    """Random system of ``_branch_system`` with couplings within ``half`` of the diagonal."""
    i = np.concatenate([np.arange(size - k) for k in range(1, min(half, size - 1) + 1)])
    j = i + np.concatenate([np.full(size - k, k) for k in range(1, min(half, size - 1) + 1)])
    keep = rng.permutation(i.size)[: max(1, i.size * 3 // 4)]
    keep = keep[np.argsort(rng.uniform(size=keep.size))]
    return _branch_system(rng, size, i[keep], j[keep])


def _branch_system(rng, size, i, j):
    """Random symmetric, diagonally dominant system with couplings ``i[k]--j[k]`` between unknowns.

    Off-diagonal entries are negative and every unknown has one more
    branch, to a fixed node, that gives its row a positive excess, so the
    inverse is positive and a positive right-hand side gives a solution
    with no entry near zero.  Returns the branch form that ``_Band`` takes
    (ends, -1 for the fixed one, conductances and right-hand side) and the
    dense matrix.
    """
    swap = rng.uniform(size=i.size) < 0.5
    i, j = np.where(swap, j, i), np.where(swap, i, j)
    g = rng.uniform(0.1, 1.0, i.size)
    excess = rng.uniform(0.01, 1.0, size)
    dense = np.diag(np.bincount(i, weights=g, minlength=size) + np.bincount(j, weights=g, minlength=size) + excess)
    np.add.at(dense, (i, j), -g)
    np.add.at(dense, (j, i), -g)
    branches = (np.concatenate((i, np.arange(size))), np.concatenate((j, np.full(size, -1))),
                np.concatenate((g, excess)))
    return branches + (rng.uniform(0.5, 1.0, size),), dense


class TestBandedSolve:
    """The block-tridiagonal elimination against a dense solve."""

    @staticmethod
    def _solve(monkeypatch, size, system, blocks):
        """Solves ``system`` of ``_branch_system`` with one ``np.linalg.solve`` per block; returns the band."""
        (ia, ib, g, rhs), dense = system
        want = np.linalg.solve(dense, rhs)
        calls = []
        solve = np.linalg.solve

        def counted(*a):
            calls.append(a[0].shape[0])
            return solve(*a)

        monkeypatch.setattr(np.linalg, "solve", counted)
        band = _Band(size, ia, ib)
        weights = g[band.of]
        weights[band.first_coupling:] *= -1.0
        got = band.solve(np.bincount(band.at, weights, band.bins), rhs)
        assert len(calls) == blocks
        np.testing.assert_allclose(got, want, rtol=1e-12)
        return band

    @pytest.mark.parametrize("size, half, blocks", [
        (4 * MIN_BLOCK, 5, 4),  # a multiple of the block width
        (4 * MIN_BLOCK + 7, 5, 4),  # not a multiple: the last block is padded
        (100, 150, 1),  # a band wider than the system
        (10 * MIN_BLOCK + 3, 1, 10),  # tridiagonal
        (60 * MIN_BLOCK + 11, 3, 60),  # many blocks
        (5 * MIN_BLOCK, 2 * MIN_BLOCK + 1, 2),  # the band sets the width
    ])
    def test_matches_dense_solve(self, monkeypatch, size, half, blocks):
        self._solve(monkeypatch, size, _band_system(np.random.default_rng(size + half), size, half), blocks)

    @pytest.mark.parametrize("every_column", [True, False])
    def test_carries_only_the_coupled_columns(self, monkeypatch, every_column):
        # four blocks of MIN_BLOCK unknowns, each a chain; across each block boundary every unknown
        # couples to its counterpart in the next block, or every one to the next block's first unknown
        width, blocks = MIN_BLOCK, 4
        size = width * blocks
        chain = np.flatnonzero(np.arange(size - 1) % width != width - 1)
        head = np.arange(size - width)
        across = head + width if every_column else (head // width + 1) * width
        system = _branch_system(np.random.default_rng(33), size, np.concatenate((chain, head)),
                                np.concatenate((chain + 1, across)))
        band = self._solve(monkeypatch, size, system, blocks)
        assert band.width == width
        assert band.columns.tolist() == (list(range(width)) if every_column else [0])

    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("floating", [
        ([0], [1], [1e-3]),  # a pair
        ([0, 1, 2], [1, 2, 0], [1e-3, 2e-3, 5e-4]),  # a triangle
    ])
    def test_floating_component_is_singular(self, floating, chained):
        # nodes joined to each other but to no fixed node; ``chained`` puts
        # the component across the first block boundary of a driven chain
        # of 3 * MIN_BLOCK unknowns
        layout = _Layout()
        source = layout.nodes(1, fixed=True)
        a, b, g = floating
        size = max(a + b) + 1
        head = layout.nodes(MIN_BLOCK - 1 if chained else 0)
        component = layout.nodes(size)
        tail = layout.nodes(3 * MIN_BLOCK - size - head.size if chained else 0)
        chain = np.concatenate([source, head, tail])
        layout.branch("chain", chain[:-1], chain[1:])
        layout.branch("component", component[a], component[b])
        plan, stamped = _stamped(layout, {"chain": 1e-3, "component": g}, 0.5, sources=source)
        with pytest.raises(SingularNetworkError, match="singular"):
            plan.solve(*stamped)


class TestAgainstDenseSolve:
    """Every solve of these layouts also runs the dense reference solve, and
    potentials and inflows agree within 1e-12 of their largest magnitude."""

    def test_divider_with_a_short(self, against_dense):
        _divider()
        assert against_dense == [1]

    @pytest.mark.parametrize("scale", LEAKAGE_SCALES)
    def test_sensor_array_at_each_leakage_scale(self, cfg, against_dense, scale):
        rng = np.random.default_rng([25, int(100 * scale)])
        for _ in range(8):
            forces = cfg.f_press * rng.integers(0, 2, (4, 2))
            spec = build_sensor_crossbar(forces, rng.uniform(0.0, 1.0, (4, 2)), _scaled(cfg, scale), parasitic=True)
            solve_nodal(spec, V_SUPPLY)
        assert len(against_dense) == 16

    @pytest.mark.parametrize("side", [16, 32])
    def test_parasitic_dual_array(self, cfg, against_dense, side):
        solve_nodal(_dual_array(np.random.default_rng(side), side, cfg, parasitic=True), V_SUPPLY)
        assert against_dense == [3 * side * side] * 2

    def test_vl_only_grid_with_wires(self, against_dense):
        rng = np.random.default_rng(26)
        solve_nodal(_weight_grid(rng, 24, 24, wire_resistance=2.0), rng.uniform(0.1, 0.5, 24))
        assert against_dense == [2 * 24 * 24]

    def test_vl_only_grid_with_ideal_wires(self, against_dense):
        # every line is a fixed node, so the solve has no unknowns and only the ground inflows remain
        rng = np.random.default_rng(35)
        solve_nodal(_weight_grid(rng, 6, 5), rng.uniform(0.1, 0.5, 6))
        assert against_dense == [0]

    @pytest.mark.parametrize("wire_resistance", [0.0, 2.0])
    def test_shorted_readout(self, against_dense, wire_resistance):
        spec = _sensor_grid(np.random.default_rng(27), g_off=1.9e-3, wire_resistance=wire_resistance,
                            config=CellConfig.ONE_T1M1S)
        solve_nodal(spec, V_SUPPLY)
        assert len(against_dense) == 1

    @pytest.mark.parametrize("wire_resistance, unknowns", [(0.0, 2 + 4 + 8), (2.0, 3 * 8)])
    def test_one_plan_restamped_with_changing_values(self, against_dense, wire_resistance, unknowns):
        # one cached plan serves every spec of a topology: a conductance or potential left over
        # from an earlier stamp would differ from the dense solve or from the ideal readout
        rng = np.random.default_rng(31)
        forces, states = rng.uniform(0.0, 40.0, (4, 2)), rng.uniform(0.0, 1.0, (4, 2))

        def grid(g_off, selected=True):
            return _sensor_grid(forces=forces, states=states, g_off=g_off, wire_resistance=wire_resistance,
                                selected=selected)

        leaky, tight = grid(1.9e-3), grid(0.0)
        cells = [list(row) for row in tight.cells]
        cells[2][1] = replace(cells[2][1], hl_switch=SwitchModel(selected=False))
        one_deselected = replace(tight, cells=tuple(map(tuple, cells)))
        cells = [list(row) for row in leaky.cells]
        cells[0][1] = replace(cells[0][1], vl_switch=replace(cells[0][1].vl_switch, selected=False))
        cells[3][0] = replace(cells[3][0], hl_switch=replace(cells[3][0].hl_switch, selected=False))
        leaky_deselected = replace(leaky, cells=tuple(map(tuple, cells)))
        specs = [leaky, tight, one_deselected, grid(0.0, selected=False), grid(1.9e-3, selected=False),
                 leaky_deselected, leaky]

        _topology(_switched_layout, 4, 2, wire_resistance > 0.0)
        compiled = _topology.cache_info().misses
        results = [solve_nodal_detail(spec, V_SUPPLY) for spec in specs]
        assert _topology.cache_info().misses == compiled
        assert against_dense == [unknowns] * 2 * len(specs)

        (first, first_detail), (last, last_detail) = results[0], results[-1]
        assert np.array_equal(first.concatenated(), last.concatenated()) and first_detail == last_detail
        assert np.all(results[3][0].concatenated() == 0.0)  # no switch conducts
        assert results[4][0].concatenated().min() > 0.0  # off-state leakage still reaches every line
        # the deselected hl switch of cell (2, 1) costs row 2 that cell's current
        assert results[2][0].hl_currents[2] < results[1][0].hl_currents[2]
        # a leaky deselected switch passes only its leakage: column 1 and row 3 lose most of a cell's current
        (masked, _), (full, _) = results[5], results[0]
        assert masked.vl_currents[1] < full.vl_currents[1] and masked.hl_currents[3] < full.hl_currents[3]
        if not wire_resistance:  # ideal wires and no leakage: each readout is the ideal one
            for spec, (readout, _) in zip(specs[1:4], results[1:4]):
                np.testing.assert_allclose(readout.concatenated(), ideal_dual_readout(V_SUPPLY, spec).concatenated(),
                                           rtol=1e-9)


class TestNodalGolden:
    """Line currents of five symbol masks with seeded states at every `tmsim leakage` scale, pinned
    within 1e-12: LAPACK builds may sum in another order, as for the dense reference."""

    def test_readouts_match_the_golden(self, cfg):
        golden = json.loads(NODAL_GOLDEN.read_text())
        assert golden["scales"] == list(LEAKAGE_SCALES) and len(golden["patterns"]) == 5
        for pattern in golden["patterns"]:
            forces = cfg.f_press * np.array(pattern["dots"])
            for scale in LEAKAGE_SCALES:
                spec = build_sensor_crossbar(forces, pattern["states"], _scaled(cfg, scale), parasitic=True)
                got = solve_nodal(spec, golden["v_supply"])
                want = pattern["readouts"][repr(scale)]
                np.testing.assert_allclose(got.vl_currents, want["vl_currents"], rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(got.hl_currents, want["hl_currents"], rtol=1e-12, atol=0.0)


class TestTopologyCache:
    def test_nodal_pass_compiles_two_sensor_topologies(self, cfg):
        # the 125 symbol masks at the 7 leakage scales: wired at every scale but 0, ideal wires at 0
        _topology.cache_clear()
        masks = [forces for forces, _ in build_dataset("fusion", copies=1, seed=0, f_press=cfg.f_press)]
        scaled = [_scaled(cfg, scale) for scale in LEAKAGE_SCALES]
        rng = np.random.default_rng(32)
        for forces in masks:
            states = rng.uniform(0.0, 1.0, (4, 2))
            for cfg_at_scale in scaled:
                solve_nodal(build_sensor_crossbar(forces, states, cfg_at_scale, parasitic=True), V_SUPPLY)
        info = _topology.cache_info()
        assert (len(masks) * len(scaled), info.misses, info.currsize) == (875, 2, 2)
        _topology(_switched_layout, 4, 2, True)
        _topology(_switched_layout, 4, 2, False)
        assert _topology.cache_info().misses == 2


class TestCellTable:
    """A spec's cells are read into arrays once, and every reader shares them."""

    def test_solve_and_ideal_readout_read_the_cells_once(self, cfg, monkeypatch):
        builds = []

        def counted(spec):
            builds.append(spec)
            return _cells(spec)

        monkeypatch.setattr("tmsim.crossbar._cells", counted)
        rng = np.random.default_rng(38)
        spec = _cellwise_array(rng.uniform(0.0, 40.0, (4, 2)), rng.uniform(0.0, 1.0, (4, 2)), cfg,
                               parasitic=True)
        solve_nodal(spec, V_SUPPLY)
        ideal_dual_readout(V_SUPPLY, spec)
        conductance_matrix(spec)
        assert len(builds) == 1 and builds[0] is spec
        solve_nodal(replace(spec), V_SUPPLY)  # an equal spec is another object with a table of its own
        assert len(builds) == 2

    def test_sensor_array_from_arrays_equals_the_cellwise_one(self, cfg):
        # build_sensor_crossbar fills the table from its arrays; the same grid of CellStates is read by _cells
        masks = [forces for forces, _ in build_dataset("fusion", copies=1, seed=0, f_press=cfg.f_press)]
        rng = np.random.default_rng(41)
        for forces in masks:
            states = rng.uniform(0.0, 1.0, (4, 2))
            for scale in LEAKAGE_SCALES:
                cfg_at_scale = _scaled(cfg, scale)
                spec = build_sensor_crossbar(forces, states, cfg_at_scale, parasitic=True)
                reference = _cellwise_array(forces, states, cfg_at_scale, parasitic=True)
                table, want = spec._table, reference._table
                assert all(np.array_equal(got, expected) for got, expected in zip(table[:4], want[:4]))
                assert table.configs == want.configs
                assert not any(array.flags.writeable for array in table[:4])
                for v_supply in (V_SUPPLY, 0.3):
                    (got, detail), (expected, expected_detail) = (solve_nodal_detail(s, v_supply)
                                                                  for s in (spec, reference))
                    assert np.array_equal(got.concatenated(), expected.concatenated())
                    assert detail == expected_detail
                    assert np.array_equal(ideal_dual_readout(v_supply, spec).concatenated(),
                                          ideal_dual_readout(v_supply, reference).concatenated())
                assert spec.cells == reference.cells and spec == reference and spec == replace(spec)

    def test_sensor_array_builds_its_cell_states_only_when_read(self, cfg, monkeypatch):
        built, tables = [], []
        check = CellState.__post_init__

        def counted(cell):
            built.append(cell)
            check(cell)

        monkeypatch.setattr(CellState, "__post_init__", counted)
        monkeypatch.setattr("tmsim.crossbar._cells", lambda spec: tables.append(spec) or _cells(spec))
        rng = np.random.default_rng(42)
        spec = build_sensor_crossbar(rng.uniform(0.0, 40.0, (4, 2)), rng.uniform(0.0, 1.0, (4, 2)), cfg,
                                     parasitic=True)
        solve_nodal(spec, V_SUPPLY)
        ideal_dual_readout(V_SUPPLY, spec)
        assert built == [] and tables == []
        cells = spec.cells
        assert len(built) == 8 and all(cell is made for cell, made in zip((c for row in cells for c in row), built))
        assert spec.cells is cells and len(built) == 8 and tables == []
        assert "CellState(" in repr(spec) and len(built) == 8

    def test_cached_arrays_are_read_only(self):
        spec = _sensor_grid(np.random.default_rng(39), g_off=1.9e-3, wire_resistance=2.0)
        before = solve_nodal(spec, V_SUPPLY).concatenated()
        table = spec._table
        for array in (table.sensor, table.memristor, table.on, table.off):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert spec._table is table
        assert np.array_equal(solve_nodal(spec, V_SUPPLY).concatenated(), before)

    def test_a_grid_of_lists_is_stored_as_tuples(self):
        base = _sensor_grid(np.random.default_rng(40), g_off=1.9e-3, wire_resistance=2.0)
        rows = [list(row) for row in base.cells]
        spec = CrossbarSpec(m=4, n=2, cells=rows, wire_resistance_per_segment=2.0, readout=Readout.VL_AND_HL)
        assert spec.cells == base.cells and all(type(row) is tuple for row in (spec.cells, *spec.cells))
        before = ideal_dual_readout(V_SUPPLY, spec).concatenated()
        rows[0][0] = rows[3][1]  # the caller's lists no longer reach the cached table
        assert np.array_equal(ideal_dual_readout(V_SUPPLY, spec).concatenated(), before)


class TestScale:
    """Array sizes that a dense solve cannot reach in time or memory."""

    def test_64x64_parasitic_array_balances(self, cfg):
        spec = _dual_array(np.random.default_rng(28), 64, cfg, parasitic=True)
        _, detail = solve_nodal_detail(spec, V_SUPPLY)
        assert detail.unknown_nodes == 2 * 3 * 64 * 64
        assert detail.injected > 0.0
        assert detail.injected == pytest.approx(detail.absorbed, rel=1e-9)

    def test_64x64_equals_ideal_without_parasitics(self, cfg):
        # Ideal wires and no switch leakage leave only the sense termination:
        # a line carrying I sits at I / g_term, which lowers the drive of
        # each of its cells, so I = ideal / (1 + ideal / (g_term * V)).  With
        # 64 cells per line that is 0.8e-9 to 1.2e-9 below the ideal readout.
        spec = _dual_array(np.random.default_rng(29), 64, cfg, parasitic=False)
        got = solve_nodal(spec, V_SUPPLY).concatenated()
        ideal = ideal_dual_readout(V_SUPPLY, spec).concatenated()
        np.testing.assert_allclose(got, ideal / (1.0 + ideal / (spec.termination_conductance * V_SUPPLY)),
                                   rtol=1e-12)
        np.testing.assert_allclose(got, ideal, rtol=2e-9)

    def test_32x32_parasitic_solve_takes_under_half_a_second(self, cfg):
        spec = _dual_array(np.random.default_rng(30), 32, cfg, parasitic=True)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            solve_nodal(spec, V_SUPPLY)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.5


class TestEqualCurrentDegeneracy:
    """Single-switch cells wire their output to both lines at once, so a
    2 x 2 array cannot attribute current to any line: all four readouts
    collapse to the same value no matter which cell is pressed."""

    def _single_press(self, pressed):
        switch = SwitchModel(g_on=1e-2, g_off=0.0, selected=True)
        cells = tuple(
            tuple(
                CellState(
                    config=CellConfig.ONE_T1M1S,
                    memristor=MemristorModel(state_w=1.0),
                    vl_switch=switch,
                    sensor=SENSOR,
                    force_f=20.0 if (k, l) == pressed else 0.0,
                )
                for l in range(2)
            )
            for k in range(2)
        )
        return CrossbarSpec(m=2, n=2, cells=cells, readout=Readout.VL_AND_HL)

    @pytest.mark.parametrize("pressed", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_four_line_currents_identical(self, pressed):
        rv = solve_nodal(self._single_press(pressed), V_SUPPLY)
        currents = rv.concatenated()
        assert currents.shape == (4,)
        assert np.abs(currents[:, None] - currents[None, :]).max() < 1e-12
        assert np.all(currents > 0.0)

    def test_each_line_senses_its_termination_share(self):
        # Ideal wires make all four lines one node, tied to ground by four
        # terminations: V = v * sum(g) / (sum(g) + 4 g_term), each line g_term V.
        spec = self._single_press((0, 1))
        g = conductance_matrix(spec)
        g_term = spec.termination_conductance
        bus = V_SUPPLY * g.sum() / (g.sum() + (spec.m + spec.n) * g_term)
        np.testing.assert_allclose(solve_nodal(spec, V_SUPPLY).concatenated(), np.full(4, g_term * bus),
                                   rtol=1e-12)

    def test_leakage_fraction_of_the_degenerate_readout(self):
        spec = self._single_press((0, 0))
        actual = solve_nodal(spec, V_SUPPLY)
        g = conductance_matrix(spec)
        ideal = ReadoutVector(
            vl_currents=V_SUPPLY * g.sum(axis=0),
            hl_currents=V_SUPPLY * g.sum(axis=1),
        )
        value = leakage_fraction(ideal, actual)
        assert 0.0 < value <= 1.0


class TestReadoutVector:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["vl_currents", "hl_currents"])
    def test_non_finite_current_is_rejected(self, field, bad):
        currents = {"vl_currents": [1e-4, 2e-4], "hl_currents": [[3e-4], [4e-4]]}
        currents[field] = np.insert(np.ravel(currents[field]), 1, bad)
        with pytest.raises(ValueError, match="^readout currents must be finite$"):
            ReadoutVector(**currents)

    def test_currents_are_stored_as_float_arrays(self):
        # the largest finite currents pass: the check does not sum them
        rv = ReadoutVector(vl_currents=[1.7e308, 1.7e308], hl_currents=[[1, 2]])
        assert rv.vl_currents.dtype == rv.hl_currents.dtype == np.float64
        assert rv.vl_currents.tolist() == [1.7e308, 1.7e308] and rv.hl_currents.tolist() == [[1.0, 2.0]]


class TestLeakageFraction:
    def test_identical_readouts_give_zero(self):
        rv = ReadoutVector(vl_currents=np.array([1e-4, 2e-4]), hl_currents=np.array([3e-4]))
        assert leakage_fraction(rv, rv) == 0.0

    def test_uniform_droop(self):
        ideal = ReadoutVector(vl_currents=np.array([1.0, 2.0]), hl_currents=np.array([1.0]))
        actual = ReadoutVector(vl_currents=np.array([0.84, 1.68]), hl_currents=np.array([0.84]))
        assert leakage_fraction(ideal, actual) == pytest.approx(0.16, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        a = ReadoutVector(vl_currents=np.ones(2), hl_currents=np.ones(4))
        b = ReadoutVector(vl_currents=np.ones(3), hl_currents=np.ones(4))
        with pytest.raises(ValueError):
            leakage_fraction(a, b)

    def test_zero_ideal_rejected(self):
        zero = ReadoutVector(vl_currents=np.zeros(2), hl_currents=np.zeros(4))
        with pytest.raises(ValueError):
            leakage_fraction(zero, zero)

    def test_monotone_decrease_on_halving_parasitics(self):
        forces = np.full((4, 2), 20.0)
        ideal = ideal_dual_readout(V_SUPPLY, _sensor_grid(forces=forces))
        fractions = []
        for scale in (1.0, 0.5, 0.25, 0.125, 1e-6):
            spec = _sensor_grid(forces=forces, g_off=1.9e-3 * scale,
                                wire_resistance=2.0 * scale)
            fractions.append(leakage_fraction(ideal, solve_nodal(spec, V_SUPPLY)))
        assert np.all(np.diff(fractions) < 0.0)
        assert fractions[-1] < 1e-5


class TestDifferentialMapping:
    R_ON, R_OFF = 1e3, 1e5
    SPAN = 1 / R_ON - 1 / R_OFF
    MEMRISTOR = MemristorModel(r_on=R_ON, r_off=R_OFF)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            w = rng.uniform(-3.0, 3.0, (6, 14))
            scale = self.SPAN / np.abs(w).max()
            gp, gm = weights_to_differential(w, self.MEMRISTOR, scale)
            np.testing.assert_allclose((gp - gm) / scale, w, rtol=1e-12, atol=1e-15)

    def test_pairs_stay_inside_the_conductance_range(self):
        rng = np.random.default_rng(13)
        w = rng.uniform(-1.0, 1.0, (5, 5))
        gp, gm = weights_to_differential(w, self.MEMRISTOR, self.SPAN)
        for g in (gp, gm):
            assert np.all(g >= 1 / self.R_OFF - 1e-18)
            assert np.all(g <= 1 / self.R_ON + 1e-18)

    def test_zero_weight_maps_to_the_floor_pair(self):
        gp, gm = weights_to_differential(np.zeros((2, 2)), self.MEMRISTOR, 1e-4)
        np.testing.assert_array_equal(gp, np.full((2, 2), 1 / self.R_OFF))
        np.testing.assert_array_equal(gm, np.full((2, 2), 1 / self.R_OFF))

    def test_saturating_weight_maps_to_the_extreme_pair(self):
        gp, gm = weights_to_differential(np.array([[1.0]]), self.MEMRISTOR, self.SPAN)
        assert gp[0, 0] == pytest.approx(1 / self.R_ON, rel=1e-12)
        assert gm[0, 0] == pytest.approx(1 / self.R_OFF, rel=1e-12)

    def test_range_error_names_the_offending_index(self):
        w = np.zeros((3, 4))
        w[2, 1] = 5.0
        with pytest.raises(WeightRangeError) as err:
            weights_to_differential(w, self.MEMRISTOR, self.SPAN)
        assert err.value.index == (2, 1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weights_to_differential(np.zeros((2, 2)), self.MEMRISTOR, 0.0)


class TestSpecValidation:
    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            CrossbarSpec(m=0, n=2, cells=())

    def test_ragged_grid(self):
        rng = np.random.default_rng(14)
        good = _weight_grid(rng, 2, 2)
        with pytest.raises(ValueError):
            CrossbarSpec(m=2, n=3, cells=good.cells)

    def test_negative_wire_resistance(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            CrossbarSpec(m=2, n=2, cells=_weight_grid(rng, 2, 2).cells,
                         wire_resistance_per_segment=-1.0)
