"""Device model tests: frozen point values plus monotonicity properties."""

import numpy as np
import pytest

from tmsim.devices import (
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

SENSOR = SensorModel()
SLOPE = 1.5e-6  # S per lbf, affine sensitivity of the default sensor


class TestSensor:
    def test_rest_resistance_is_one_megaohm(self):
        # 1 MOhm is 1 uS
        assert fsr_conductance(SENSOR, 0.0) == pytest.approx(1.0e-6, rel=1e-12)

    def test_reference_press_points(self):
        # frozen evaluations of k*f + c
        assert fsr_conductance(SENSOR, 20.0) == pytest.approx(3.1e-5, rel=1e-12)
        assert fsr_conductance(SENSOR, 40.0) == pytest.approx(6.1e-5, rel=1e-12)
        assert fsr_conductance(SENSOR, 40.0) > fsr_conductance(SENSOR, 20.0)

    def test_conductance_is_affine_with_fixed_slope(self):
        forces = np.linspace(0.0, 40.0, 20)
        h = 1e-3
        for f in forces:
            slope = (fsr_conductance(SENSOR, f + h) - fsr_conductance(SENSOR, f)) / h
            assert slope == pytest.approx(SLOPE, rel=1e-12)

    def test_negative_force_rejected(self):
        with pytest.raises(ValueError):
            fsr_conductance(SENSOR, -0.5)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            SensorModel(sensitivity_k=0.0)
        with pytest.raises(ValueError):
            SensorModel(bias_c=-1e-6)


class TestMemristor:
    def test_endpoints(self):
        assert memristor_conductance(MemristorModel(state_w=1.0)) == pytest.approx(1.0e-3, rel=1e-12)
        assert memristor_conductance(MemristorModel(state_w=0.0)) == pytest.approx(1.0e-5, rel=1e-12)

    def test_midpoint(self):
        assert memristor_conductance(MemristorModel(state_w=0.5)) == pytest.approx(5.05e-4, rel=1e-12)

    def test_monotone_in_state(self):
        w = np.linspace(0.0, 1.0, 50)
        g = np.array([memristor_conductance(MemristorModel(state_w=x)) for x in w])
        assert np.all(np.diff(g) > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemristorModel(state_w=1.5)
        with pytest.raises(ValueError):
            MemristorModel(state_w=-0.1)
        with pytest.raises(ValueError):
            MemristorModel(r_on=1e5, r_off=1e3)


class TestSwitch:
    def test_levels(self):
        assert switch_conductance(SwitchModel(selected=True)) == 1.0e-2
        assert switch_conductance(SwitchModel(selected=False)) == 0.0
        assert switch_conductance(SwitchModel(g_off=1e-6, selected=False)) == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchModel(g_on=1e-3, g_off=1e-3)
        with pytest.raises(ValueError):
            SwitchModel(g_off=-1e-9)


class TestSeriesConductance:
    def test_three_equal_elements(self):
        assert series_conductance(3e-4, 3e-4, 3e-4) == pytest.approx(1e-4, rel=1e-12)

    def test_reference_stack(self):
        # full sensing stack: pressed sensor, fully-on memristor, on switch
        assert series_conductance(3.1e-5, 1e-3, 1e-2) == pytest.approx(
            2.9977758437288465e-05, rel=1e-12
        )

    def test_zero_element_opens_the_path(self):
        assert series_conductance(1e-3, 0.0, 1e-2) == 0.0

    def test_bounded_by_smallest_element(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            parts = rng.uniform(1e-6, 1e-2, 3)
            assert series_conductance(*parts) <= parts.min()

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            series_conductance(1e-3, -1e-4)
        with pytest.raises(ValueError):
            series_conductance()


def _sensing_cell(force=20.0, state_w=1.0, vl_selected=True, hl_selected=True):
    return CellState(
        config=CellConfig.TWO_T1M1S,
        memristor=MemristorModel(state_w=state_w),
        vl_switch=SwitchModel(selected=vl_selected),
        hl_switch=SwitchModel(selected=hl_selected),
        sensor=SENSOR,
        force_f=force,
    )


class TestCellState:
    def test_weight_cell_rejects_sensor(self):
        with pytest.raises(ValueError):
            CellState(config=CellConfig.ONE_T1M, memristor=MemristorModel(),
                      vl_switch=SwitchModel(), sensor=SENSOR, force_f=0.0)

    def test_sensing_cell_requires_sensor_and_force(self):
        with pytest.raises(ValueError):
            CellState(config=CellConfig.ONE_T1M1S, memristor=MemristorModel(),
                      vl_switch=SwitchModel())

    def test_dual_readout_cell_requires_second_switch(self):
        with pytest.raises(ValueError):
            CellState(config=CellConfig.TWO_T1M1S, memristor=MemristorModel(),
                      vl_switch=SwitchModel(), sensor=SENSOR, force_f=0.0)

    def test_single_switch_cell_rejects_second_switch(self):
        with pytest.raises(ValueError):
            CellState(config=CellConfig.ONE_T1M1S, memristor=MemristorModel(),
                      vl_switch=SwitchModel(), hl_switch=SwitchModel(),
                      sensor=SENSOR, force_f=0.0)

    def test_negative_force_rejected(self):
        with pytest.raises(ValueError):
            CellState(config=CellConfig.ONE_T1M1S, memristor=MemristorModel(),
                      vl_switch=SwitchModel(), sensor=SENSOR, force_f=-1.0)


class TestCellConductance:
    def test_off_switch_forces_zero(self):
        cell = _sensing_cell(vl_selected=False)
        assert cell_conductance(cell, "vl") == 0.0
        # the other line keeps conducting through its own switch
        assert cell_conductance(cell, "hl") > 0.0

    def test_full_stack_value(self):
        cell = _sensing_cell(force=20.0, state_w=1.0)
        assert cell_conductance(cell, "vl") == pytest.approx(2.9977758437288465e-05, rel=1e-12)

    def test_weight_cell_omits_sensor_term(self):
        cell = CellState(config=CellConfig.ONE_T1M, memristor=MemristorModel(state_w=1.0),
                         vl_switch=SwitchModel())
        expected = series_conductance(1e-3, 1e-2)
        assert cell_conductance(cell) == pytest.approx(expected, rel=1e-12)

    def test_line_argument_validated(self):
        with pytest.raises(ValueError):
            cell_conductance(_sensing_cell(), "diagonal")

    def test_bounded_by_every_inpath_element(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            f = rng.uniform(0.0, 40.0)
            w = rng.uniform(0.0, 1.0)
            cell = _sensing_cell(force=f, state_w=w)
            g = cell_conductance(cell)
            assert g <= fsr_conductance(SENSOR, f)
            assert g <= memristor_conductance(cell.memristor)
            assert g <= cell.vl_switch.g_on

    def test_increases_with_force_at_fixed_state(self):
        # random states, each probed on an increasing force ladder
        rng = np.random.default_rng(17)
        for _ in range(50):
            w = rng.uniform(0.0, 1.0)
            forces = np.sort(rng.uniform(0.0, 40.0, 8))
            g = [cell_conductance(_sensing_cell(force=f, state_w=w)) for f in forces]
            assert np.all(np.diff(g) > 0.0)

    def test_decreases_as_memristance_increases_at_fixed_force(self):
        # higher memristance = lower state; conductance must fall with it
        rng = np.random.default_rng(29)
        for _ in range(50):
            f = rng.uniform(0.0, 40.0)
            states = np.sort(rng.uniform(0.0, 1.0, 8))
            g = [cell_conductance(_sensing_cell(force=f, state_w=w)) for w in states]
            assert np.all(np.diff(g) > 0.0)
