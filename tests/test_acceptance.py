"""Acceptance gate: one test per release criterion, each printing a
``[ACCEPT] <name>: PASS|FAIL`` line (visible without -s) before asserting.

The statistical criteria share one module-scoped accuracy sweep (10 seeds
per grid point) so the whole gate stays well inside its time budget.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tmsim.analog_blocks import SoftmaxParams, softmax_circuit
from tmsim.cost_model import (
    REFERENCE_BLOCK_FIGURES,
    compare,
    default_table,
    estimate,
    reports_to_csv,
)
from tmsim.crossbar import (
    CrossbarSpec,
    Readout,
    conductance_matrix,
    ideal_dual_readout,
    ideal_mac_vl,
    leakage_fraction,
    solve_nodal,
)
from tmsim.devices import (
    CellConfig,
    CellState,
    MemristorModel,
    SensorModel,
    SwitchModel,
    cell_conductance,
    fsr_conductance,
)
from tmsim.pipeline import NetworkArch, build_sensor_crossbar, run_sweep

SIGMA2_GRID = (0.02, 0.05, 0.1, 0.5)
SEEDS = tuple(range(10))


def _report(capsys, name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[ACCEPT] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def sweep_stats(cfg):
    """Mean accuracy over 10 seeds for every criterion row of the grid."""
    t0 = time.perf_counter()

    def row(groups, mode, sigmas):
        rows = run_sweep([groups], sigmas, [mode], SEEDS, cfg)
        return {s: float(np.mean([r.accuracy for r in rows if r.sigma2 == s])) for s in sigmas}

    stats = {
        "group1_analog": row(["group1"], "analog", SIGMA2_GRID),
        "fusion_analog": row(["fusion"], "analog", SIGMA2_GRID),
        "fusion_binary": row(["fusion"], "binary", SIGMA2_GRID),
        "group2_analog": row(["group2"], "analog", (0.02,)),
    }
    stats["elapsed_s"] = time.perf_counter() - t0
    return stats


def test_softmax_chain_matches_mathematical_softmax(capsys):
    params = SoftmaxParams()
    full_scale = params.r_f * params.i_s
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        a = rng.normal(0.0, 0.5, n)
        out = softmax_circuit(a, params)
        z = a / params.v_t
        e = np.exp(z - z.max())
        reference = full_scale * e / e.sum()
        with np.errstate(invalid="ignore"):
            rel = np.abs(out - reference) / np.where(reference > 0, reference, 1.0)
        worst = max(worst, float(rel.max()))
        worst_sum = max(worst_sum, abs(out.sum() - full_scale) / full_scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and worst_sum <= 1e-9 and elapsed < 1.0
    _report(capsys, "softmax chain (1000 vectors, 1e-9 rel, <1 s)", ok,
            f"worst rel {worst:.2e}, worst sum rel {worst_sum:.2e}, {elapsed:.3f} s")


def test_single_active_cell_reads_equal_currents(capsys):
    switch_on = SwitchModel(g_on=1e-2, g_off=0.0, selected=True)
    switch_off = SwitchModel(g_on=1e-2, g_off=0.0, selected=False)
    cells = tuple(
        tuple(
            CellState(
                config=CellConfig.ONE_T1M1S,
                memristor=MemristorModel(state_w=1.0),
                vl_switch=switch_on if (k, l) == (0, 0) else switch_off,
                sensor=SensorModel(),
                force_f=20.0 if (k, l) == (0, 0) else 0.0,
            )
            for l in range(2)
        )
        for k in range(2)
    )
    spec = CrossbarSpec(m=2, n=2, cells=cells, readout=Readout.VL_AND_HL)
    currents = solve_nodal(spec, 0.5).concatenated()
    spread = float(np.abs(currents[:, None] - currents[None, :]).max())
    ok = currents.shape == (4,) and spread <= 1e-12 and np.all(currents > 0)
    _report(capsys, "2x2 single-switch degeneracy (equal currents, 1e-12 A)", ok,
            f"max spread {spread:.2e} A")


def test_nodal_solver_matches_ideal_mac_without_parasitics(capsys):
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cells = tuple(
            tuple(
                CellState(
                    config=CellConfig.ONE_T1M,
                    memristor=MemristorModel(state_w=float(rng.uniform(0.0, 1.0))),
                    vl_switch=SwitchModel(),
                )
                for _ in range(8)
            )
            for _ in range(4)
        )
        spec = CrossbarSpec(m=4, n=8, cells=cells)
        drive = rng.uniform(0.05, 0.5, 4)
        got = solve_nodal(spec, drive).vl_currents
        want = ideal_mac_vl(drive, conductance_matrix(spec))
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(capsys, "nodal solver vs ideal MAC (100 random 4x8, 1e-9 rel, <5 s)", ok,
            f"worst rel {worst:.2e}, {elapsed:.3f} s")


def test_default_parasitics_land_in_leakage_band(capsys, cfg):
    forces = np.full((4, 2), cfg.f_press)
    states = np.ones((4, 2))
    spec = build_sensor_crossbar(forces, states, cfg, parasitic=True)
    ideal = ideal_dual_readout(cfg.sensor.v_supply, spec)
    actual = solve_nodal(spec, cfg.sensor.v_supply)
    value = leakage_fraction(ideal, actual)
    ok = 0.12 <= value <= 0.20
    _report(capsys, "default parasitics leakage in [0.12, 0.20]", ok,
            f"leakage fraction {value:.6f}")


def test_accuracy_grid_reproduces_reference_bands(capsys, sweep_stats):
    g1 = sweep_stats["group1_analog"]
    fa = sweep_stats["fusion_analog"]
    fb = sweep_stats["fusion_binary"]
    failures = []
    if not g1[0.02] >= 95.0:
        failures.append(f"group1 analog @0.02 = {g1[0.02]:.2f} < 95")
    if not fa[0.5] >= 80.0:
        failures.append(f"fusion analog @0.5 = {fa[0.5]:.2f} < 80")
    for s in SIGMA2_GRID:
        if not fa[s] >= fb[s]:
            failures.append(f"fusion analog {fa[s]:.2f} < binary {fb[s]:.2f} @ {s}")
    for label, means in (("group1 analog", g1), ("fusion analog", fa)):
        vals = [means[s] for s in SIGMA2_GRID]
        for lo, hi in zip(vals[1:], vals[:-1]):
            if not lo <= hi + 1.0:
                failures.append(f"{label} rises beyond slack: {vals}")
                break
    if not sweep_stats["elapsed_s"] < 600.0:
        failures.append(f"sweep took {sweep_stats['elapsed_s']:.0f} s >= 600 s")
    detail = "; ".join(failures) if failures else (
        f"g1@0.02 {g1[0.02]:.2f}, fusion@0.5 {fa[0.5]:.2f}, "
        f"sweep {sweep_stats['elapsed_s']:.0f} s"
    )
    _report(capsys, "accuracy grid bands (10-seed means, <10 min)", not failures, detail)


def test_accuracy_scales_from_26_to_125_symbols(capsys, sweep_stats):
    g2 = sweep_stats["group2_analog"][0.02]
    fusion = sweep_stats["fusion_analog"][0.02]
    ok = g2 >= 98.0 and fusion >= 92.0
    _report(capsys, "low-noise accuracy: 26 symbols >= 98, 125 symbols >= 92", ok,
            f"26-symbol {g2:.2f}, 125-symbol {fusion:.2f}")


def test_cost_breakdown_reproduces_reference_figures(capsys):
    t0 = time.perf_counter()
    arch = NetworkArch(labels=tuple(f"sym{i}" for i in range(125)))
    reports = [
        estimate(arch, default_table(s, p), s, p)
        for s in ("analog", "binary")
        for p in ("parallel", "serial")
    ]
    csv_text = reports_to_csv(reports)
    golden = (Path(__file__).parent / "data" / "cost_golden.csv").read_text()

    failures = []
    if csv_text != golden:
        failures.append("emitted CSV differs from committed golden")
    for report in reports:
        expected = REFERENCE_BLOCK_FIGURES[(report.style, report.processing)]
        for block, value in report.block_figures().items():
            if float(f"{value:.9g}") != expected[block]:
                failures.append(f"{report.style}/{report.processing} {block} off")
    by_key = {(r.style, r.processing): r for r in reports}
    orderings = (
        compare(by_key[("analog", "serial")], by_key[("analog", "parallel")]).orderings
        + compare(by_key[("analog", "parallel")], by_key[("binary", "parallel")]).orderings
    )
    for desc, holds in orderings:
        if not holds:
            failures.append(f"ordering violated: {desc}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s >= 1 s")
    _report(capsys, "cost breakdown exact figures and power orderings (<1 s)",
            not failures, "; ".join(failures) if failures else f"{elapsed:.3f} s")


def test_device_conductance_slope_and_monotonicity(capsys):
    model = SensorModel()
    forces = np.linspace(0.0, 47.5, 20)
    g = np.array([fsr_conductance(model, f) for f in forces])
    slopes = np.diff(g) / np.diff(forces)
    slope_err = float(np.abs(slopes - 1.5e-6).max())

    def _cell(force, w):
        switch = SwitchModel(g_on=1e-2, g_off=0.0, selected=True)
        return CellState(
            config=CellConfig.TWO_T1M1S,
            memristor=MemristorModel(state_w=w),
            vl_switch=switch,
            hl_switch=switch,
            sensor=model,
            force_f=force,
        )

    rng = np.random.default_rng(2)
    force_holds = True
    for _ in range(1000):
        w = float(rng.uniform(0.0, 1.0))
        f1 = float(rng.uniform(0.0, 40.0))
        f2 = f1 + float(rng.uniform(0.5, 10.0))
        if not cell_conductance(_cell(f2, w)) > cell_conductance(_cell(f1, w)):
            force_holds = False
            break

    state_holds = True
    for _ in range(1000):
        f = float(rng.uniform(1.0, 50.0))
        w_hi = float(rng.uniform(0.05, 1.0))
        w_lo = float(rng.uniform(0.0, w_hi - 0.02))
        # lower state means higher memristance, so conductance must drop
        if not cell_conductance(_cell(f, w_lo)) < cell_conductance(_cell(f, w_hi)):
            state_holds = False
            break

    ok = slope_err <= 1e-12 and force_holds and state_holds
    _report(capsys, "device curves: affine slope 1.5e-6 and monotone trends", ok,
            f"slope err {slope_err:.2e}, force trend {force_holds}, "
            f"memristance trend {state_holds}")
