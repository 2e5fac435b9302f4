"""End-to-end pipeline tests: sensor features, noise, training, mapping,
evaluation and the sweep protocol.

A full default training run on the small-letter group is shared module-wide;
everything else trains tiny throwaway networks or none at all.
"""

import concurrent.futures
import json
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tmsim import braille, pipeline
from tmsim.analog_blocks import softmax_circuit
from tmsim.braille import BrailleGroup, _encode, build_dataset, label_to_group, symbol_to_forces, symbols
from tmsim.config import load_config
from tmsim.crossbar import CrossbarSpec, Readout, _line_sums, ideal_dual_readout
from tmsim.devices import (CellConfig, CellState, SwitchModel, _reciprocal_sum, fsr_conductance,
                           memristor_conductance, series_conductance)
from tmsim.pipeline import (
    N_FEATURES,
    N_HIDDEN,
    EvalEntry,
    EvalReport,
    InvalidNetworkError,
    NetworkArch,
    NoiseSpec,
    TrainHyper,
    TrainedNetwork,
    TrainingError,
    _LOGIT_TIE_MARGIN,
    _STATE_LR_FACTOR,
    _add_noise,
    _cell_slots,
    _check_sigma2,
    _dataset_arrays,
    _hardware_logits,
    _line_currents,
    _network_input,
    _predicted_outputs,
    _state_increment_ladder,
    _state_sensitivity,
    arch_for,
    evaluate,
    eval_report_to_csv,
    forward,
    map_network,
    network_from_json,
    network_to_json,
    run_sweep,
    sensor_layer_forward,
    split_holdout,
    sweep_point,
    train,
)

ONES = np.ones((4, 2))


def _features(forces, states, cfg):
    return sensor_layer_forward(forces, states, cfg) / cfg.feature_norm


def _random_network(labels, seed=0, mode="analog"):
    rng = np.random.default_rng(seed)
    arch = NetworkArch(labels=tuple(labels))
    return TrainedNetwork(
        arch=arch,
        mode=mode,
        w_hidden=rng.normal(0.0, 0.5, (N_FEATURES, N_HIDDEN)),
        b_hidden=rng.normal(0.0, 0.1, N_HIDDEN),
        w_out=rng.normal(0.0, 0.5, (N_HIDDEN, arch.n_out)),
        b_out=rng.normal(0.0, 0.1, arch.n_out),
        sensor_states=rng.uniform(0.0, 1.0, (4, 2)),
        binary_threshold=None,
    )


def _reference_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_memristor(states, cfg):
    g_off = 1.0 / cfg.memristor.r_off
    return g_off + states * (1.0 / cfg.memristor.r_on - g_off)


def _reference_cell(states, force, cfg):
    """Series cell conductance written out, reciprocals added as sensor, memristor, switch."""
    g_s = cfg.sensor.sensitivity_k * force + cfg.sensor.bias_c
    return 1.0 / (1.0 / g_s + 1.0 / _reference_memristor(states, cfg) + 1.0 / cfg.switch_g_on)


def _reference_norm(cfg):
    """Current of one feature unit: a pressed dot at full state adds ``dot_gain`` units."""
    rise = _reference_cell(1.0, cfg.f_press, cfg) - _reference_cell(1.0, 0.0, cfg)
    return cfg.sensor.v_supply * rise / cfg.dot_gain


def _reference_features(forces, states, cfg):
    """Normalized features of force grids (N, 4, 2): column sums, then row sums."""
    u = _reference_cell(states, forces, cfg)
    return np.concatenate([u.sum(axis=-2), u.sum(axis=-1)], axis=-1) * cfg.sensor.v_supply / _reference_norm(cfg)


def _reference_state_sensitivity(states, force, cfg):
    span = 1.0 / cfg.memristor.r_on - 1.0 / cfg.memristor.r_off
    return (_reference_cell(states, force, cfg) / _reference_memristor(states, cfg)) ** 2 * span


def _reference_dataset_arrays(dataset, arch):
    """Pressed-dot grids and output indices, item by item."""
    dots = np.array([np.asarray(grid, dtype=float) > 0.0 for grid, _ in dataset], dtype=float)
    targets = np.array([arch.labels.index(label) for _, label in dataset])
    return dots, targets


def _reference_train(dataset, arch, hyper, cfg):
    """The straightforward training loop that ``train`` must reproduce bit for bit.

    Every step recomputes the cell conductances of the whole batch, draws
    its own noise and builds its one-hot targets.
    """
    dots, targets = _reference_dataset_arrays(dataset, arch)
    forces = dots * cfg.f_press
    n_items = len(dataset)
    rng = np.random.default_rng(hyper.seed)

    w1 = rng.normal(0.0, np.sqrt(2.0 / N_FEATURES), (N_FEATURES, N_HIDDEN))
    b1 = np.zeros(N_HIDDEN)
    w2 = rng.normal(0.0, np.sqrt(2.0 / N_HIDDEN), (N_HIDDEN, arch.n_out))
    b2 = np.zeros(arch.n_out)

    if hyper.mode == "analog":
        states = _state_increment_ladder(cfg, rng)
        threshold = None
    else:
        states = np.ones((4, 2))
        noiseless = _reference_features(forces, states, cfg)
        threshold = 0.5 * noiseless.max(axis=0)

    sigma = np.sqrt(hyper.sigma2)
    onehot = np.eye(arch.n_out)[targets]
    feat_scale = cfg.sensor.v_supply / (_reference_norm(cfg) * cfg.dot_gain)

    for epoch in range(hyper.epochs):
        order = rng.permutation(n_items)
        for start in range(0, n_items, hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            a = dots[batch]
            feats = _reference_features(forces[batch], states, cfg)
            x = feats if sigma == 0.0 else feats + sigma * rng.standard_normal(feats.shape)
            x = _network_input(x, hyper.mode, threshold, cfg.dot_gain)

            pre1 = x @ w1 + b1
            hidden = np.maximum(pre1, 0.0)
            logits = hidden @ w2 + b2
            probs = _reference_softmax(logits)
            picked = probs[np.arange(len(batch)), targets[batch]]
            loss = -np.log(np.maximum(picked, 1e-300)).mean()
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}: {loss}")

            dz = (probs - onehot[batch]) / len(batch)
            dw2 = hidden.T @ dz
            db2 = dz.sum(axis=0)
            dhidden = dz @ w2.T
            dpre1 = dhidden * (pre1 > 0.0)
            dw1 = x.T @ dpre1
            db1 = dpre1.sum(axis=0)

            if hyper.mode == "analog":
                dx = dpre1 @ w1.T  # (B, 6)
                dcell = (dx[:, None, :2] + dx[:, 2:, None]) * feat_scale
                du_on = (dcell * a).sum(axis=0)
                du_off = (dcell * (1.0 - a)).sum(axis=0)
                sens_on = _reference_state_sensitivity(states, cfg.f_press, cfg)
                sens_off = _reference_state_sensitivity(states, 0.0, cfg)
                dstates = du_on * sens_on + du_off * sens_off
                cond = np.maximum((sens_on - sens_off) * feat_scale, 1e-2)
                step = hyper.lr * _STATE_LR_FACTOR * dstates / cond**2
                states = np.clip(states - step, 0.0, 1.0)

            w1 -= hyper.lr * dw1
            b1 -= hyper.lr * db1
            w2 -= hyper.lr * dw2
            b2 -= hyper.lr * db2

    return TrainedNetwork(arch=arch, mode=hyper.mode, w_hidden=w1, b_hidden=b1, w_out=w2,
                          b_out=b2, sensor_states=states, binary_threshold=threshold)


def _reference_loss(dots, targets, cfg, w_hidden, b_hidden, w_out, b_out, sensor_states):
    """Mean cross-entropy of the analog network on noiseless pressed-dot grids, written out."""
    x = _reference_features(dots * cfg.f_press, sensor_states, cfg) / cfg.dot_gain
    logits = np.maximum(x @ w_hidden + b_hidden, 0.0) @ w_out + b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(len(targets)), targets].mean()


def _central_difference(loss, values, step=1e-6):
    """d(loss)/d(values) element by element; ``loss`` takes an array shaped like ``values``."""
    grad = np.empty_like(values)
    for i in np.ndindex(values.shape):
        up, down = values.copy(), values.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss(up) - loss(down)) / (2 * step)
    return grad


def _assert_trains_like_the_reference(train_items, cfg, mode, sigma2, batch_size):
    arch = NetworkArch(labels=tuple(s.label for s in symbols(BrailleGroup.GROUP2)))
    hyper = TrainHyper(epochs=15, batch_size=batch_size, seed=4, sigma2=sigma2, mode=mode)
    fast = train(train_items, arch, hyper, cfg)
    reference = _reference_train(train_items, arch, hyper, cfg)
    assert fast.arch == reference.arch and fast.mode == reference.mode
    for field in ("w_hidden", "b_hidden", "w_out", "b_out", "sensor_states"):
        assert np.array_equal(getattr(fast, field), getattr(reference, field)), field
    if mode == "binary":
        assert np.array_equal(fast.binary_threshold, reference.binary_threshold)
    else:
        assert fast.binary_threshold is None and reference.binary_threshold is None


def _reference_evaluate(hw, dataset, sigma2_grid, seed=0):
    """The straightforward evaluation loop that ``evaluate`` must reproduce exactly.

    Every noise level rebuilds the group masks and filters the label lists
    item by item.
    """
    tn = hw.network
    dots, targets = _reference_dataset_arrays(dataset, tn.arch)
    labels = [label for _, label in dataset]
    groups = [label_to_group(label).value for label in labels]
    feats = _reference_features(dots * hw.cfg.f_press, tn.sensor_states, hw.cfg)

    entries: list[EvalEntry] = []
    for j, sigma2 in enumerate(sigma2_grid):
        _check_sigma2(sigma2)
        rng = np.random.default_rng([seed, j])
        x = feats + np.sqrt(sigma2) * rng.standard_normal(feats.shape) if sigma2 > 0.0 else feats
        logits = _hardware_logits(hw, _network_input(x, tn.mode, tn.binary_threshold, hw.cfg.dot_gain))
        predicted_idx = _reference_softmax(logits / hw.cfg.softmax.v_t).argmax(axis=1)
        predicted = [tn.arch.labels[i] for i in predicted_idx]
        correct = predicted_idx == targets

        present_groups = sorted(set(groups))
        scopes = [("overall", np.ones(len(dataset), dtype=bool))]
        if len(present_groups) > 1:
            scopes += [(g, np.array([gi == g for gi in groups])) for g in present_groups]
        for name, mask in scopes:
            n = int(mask.sum())
            acc = 100.0 * float(correct[mask].sum()) / n
            counts = {}
            for t, p, m in zip(labels, predicted, mask):
                if m and t != p:
                    counts[(t, p)] = counts.get((t, p), 0) + 1
            confusions = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
            entries.append(EvalEntry(group=name, sigma2=float(sigma2), accuracy=acc,
                                     n_items=n, confusions=confusions))
    return EvalReport(mode=tn.mode, seed=seed, entries=tuple(entries))


@pytest.fixture(scope="module")
def g2_split(cfg):
    dataset = build_dataset(BrailleGroup.GROUP2, copies=5, seed=0, f_press=cfg.f_press)
    return split_holdout(dataset, copies=5)


@pytest.fixture(scope="module")
def g2_net(cfg, g2_split):
    """Default-length noise-augmented training run on the 26 small letters."""
    train_items, _ = g2_split
    arch = NetworkArch(labels=tuple(s.label for s in symbols(BrailleGroup.GROUP2)))
    hyper = TrainHyper.from_config(cfg, seed=0, sigma2=0.02, mode="analog")
    return train(train_items, arch, hyper, cfg)


class TestSensorLayer:
    def test_zero_forces_leave_only_bias_leakage(self, cfg):
        readouts = sensor_layer_forward(np.zeros((4, 2)), ONES, cfg)
        bias_current = cfg.sensor.v_supply * cfg.sensor.bias_c
        assert np.all(readouts > 0.0)
        assert np.all(readouts[:2] <= 4 * bias_current)  # column sums, 4 cells each
        assert np.all(readouts[2:] <= 2 * bias_current)  # row sums, 2 cells each

    def test_single_dot_dominates_its_column_and_row(self, cfg):
        grid = symbol_to_forces(_encode("A", BrailleGroup.GROUP1), cfg.f_press)
        readouts = sensor_layer_forward(grid, ONES, cfg)
        cols, rows = readouts[:2], readouts[2:]
        assert cols[0] > cols[1]
        assert np.all(rows[0] > rows[1:])

    def test_concatenation_order_is_columns_then_rows(self, cfg):
        grid = np.zeros((4, 2))
        grid[2, 1] = cfg.f_press
        delta = sensor_layer_forward(grid, ONES, cfg) - sensor_layer_forward(
            np.zeros((4, 2)), ONES, cfg
        )
        assert delta[1] > 0 and delta[2 + 2] > 0
        untouched = [0, 2, 3, 5]
        np.testing.assert_allclose(delta[untouched], 0.0, atol=1e-18)

    def test_doubling_supply_doubles_readouts(self, cfg):
        cfg2 = replace(cfg, sensor=replace(cfg.sensor, v_supply=2 * cfg.sensor.v_supply))
        grid = symbol_to_forces(_encode("t", BrailleGroup.GROUP2), cfg.f_press)
        states = np.full((4, 2), 0.7)
        for fidelity in ("ideal", "nodal"):
            one = sensor_layer_forward(grid, states, cfg, fidelity)
            two = sensor_layer_forward(grid, states, cfg2, fidelity)
            np.testing.assert_allclose(two, 2 * one, rtol=1e-9)

    def test_nodal_matches_ideal_when_parasitics_vanish(self, cfg):
        clean = replace(cfg, parasitics=replace(cfg.parasitics, wire_resistance=0.0,
                                                switch_g_off=0.0))
        grid = symbol_to_forces(_encode("b", BrailleGroup.GROUP2), cfg.f_press)
        states = np.full((4, 2), 0.4)
        np.testing.assert_allclose(
            sensor_layer_forward(grid, states, clean, "nodal"),
            sensor_layer_forward(grid, states, clean, "ideal"),
            rtol=1e-9,
        )

    def test_pressed_dot_contributes_the_calibrated_feature_gain(self, cfg):
        grid = np.zeros((4, 2))
        grid[1, 0] = cfg.f_press
        delta = _features(grid, ONES, cfg) - _features(np.zeros((4, 2)), ONES, cfg)
        assert delta[0] == pytest.approx(cfg.dot_gain, rel=1e-9)
        assert delta[2 + 1] == pytest.approx(cfg.dot_gain, rel=1e-9)

    def test_norm_current_frozen_value(self, cfg):
        assert cfg.feature_norm == pytest.approx(2.4149047690515002e-06, rel=1e-12)

    @pytest.mark.parametrize("v_supply", [0.5, 0.3])
    def test_ideal_matches_the_cellwise_crossbar_readout(self, cfg, v_supply):
        # the readout of a grid of CellStates is the reference for the array path, bit
        # for bit also at a supply that is not a power of two
        cfg = replace(cfg, sensor=replace(cfg.sensor, v_supply=v_supply))
        rng = np.random.default_rng(11)
        switch = SwitchModel(g_on=cfg.switch_g_on)
        for _ in range(100):
            forces = rng.uniform(0.0, 2.0 * cfg.f_press, (4, 2))
            states = rng.uniform(0.0, 1.0, (4, 2))
            cells = [[CellState(config=CellConfig.TWO_T1M1S, memristor=replace(cfg.memristor, state_w=state),
                                vl_switch=switch, hl_switch=switch, sensor=cfg.sensor, force_f=force)
                      for force, state in zip(force_row, state_row)]
                     for force_row, state_row in zip(forces.tolist(), states.tolist())]
            spec = CrossbarSpec(m=4, n=2, cells=cells, readout=Readout.VL_AND_HL)
            reference = ideal_dual_readout(cfg.sensor.v_supply, spec).concatenated()
            assert np.array_equal(sensor_layer_forward(forces, states, cfg), reference)

    def test_input_validation(self, cfg):
        with pytest.raises(ValueError):
            sensor_layer_forward(np.zeros((3, 2)), ONES, cfg)
        with pytest.raises(ValueError):
            sensor_layer_forward(-np.ones((4, 2)), ONES, cfg)
        with pytest.raises(ValueError):
            sensor_layer_forward(np.zeros((4, 2)), 2 * ONES, cfg)
        with pytest.raises(ValueError):
            sensor_layer_forward(np.zeros((4, 2)), ONES, cfg, fidelity="spice")
        for fidelity in ("ideal", "nodal"):
            for bad in (np.nan, np.inf):
                forces, states = np.zeros((4, 2)), ONES.copy()
                forces[1, 0] = bad
                with pytest.raises(ValueError, match="forces must be finite"):
                    sensor_layer_forward(forces, states, cfg, fidelity)
                states[3, 1] = bad
                with pytest.raises(ValueError, match=r"memristor states must lie in \[0, 1\]"):
                    sensor_layer_forward(np.zeros((4, 2)), states, cfg, fidelity)


class TestAddNoise:
    def test_zero_variance_is_identity(self):
        x = np.linspace(0.0, 5.0, 7)
        out = _add_noise(x, NoiseSpec(sigma2=0.0))
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_sample_mean_within_three_sigma(self):
        n = 100_000
        sigma2 = 0.1
        out = _add_noise(np.zeros(n), NoiseSpec(sigma2=sigma2, seed=123))
        assert abs(out.mean()) < 3 * np.sqrt(sigma2 / n)

    def test_sample_variance_within_five_percent(self):
        out = _add_noise(np.zeros(100_000), NoiseSpec(sigma2=0.1, seed=123))
        assert out.var() == pytest.approx(0.1, rel=0.05)

    def test_deterministic_per_seed(self):
        x = np.ones(50)
        a = _add_noise(x, NoiseSpec(sigma2=0.5, seed=9))
        b = _add_noise(x, NoiseSpec(sigma2=0.5, seed=9))
        c = _add_noise(x, NoiseSpec(sigma2=0.5, seed=10))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma2=-0.1)

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf")])
    def test_non_finite_variance_rejected(self, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            NoiseSpec(sigma2=sigma2)
        with pytest.raises(ValueError, match="sigma2"):
            TrainHyper(sigma2=sigma2)

    @pytest.mark.parametrize("name", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [10**30, 2**63, np.uint64(2**63)])
    def test_count_beyond_an_array_index_rejected(self, name, value):
        # train would index arrays by it and fail with an OverflowError
        with pytest.raises(ValueError, match=f"^{name} must be below 9.223e\\+18 to index an array, got "):
            TrainHyper(**{name: value})
        TrainHyper(**{name: 2**63 - 1})

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            NoiseSpec(sigma2=0.1, seed=seed)

    def test_numpy_integer_seed_draws_the_same_stream(self):
        x = np.zeros(5)
        assert np.array_equal(_add_noise(x, NoiseSpec(0.1, seed=np.uint32(9))),
                              _add_noise(x, NoiseSpec(0.1, seed=9)))


class TestTraining:
    def test_single_symbol_memorized_within_fifty_epochs(self, cfg):
        grid = symbol_to_forces(_encode("A", BrailleGroup.GROUP1), cfg.f_press)
        dataset = [(grid, "A")] * 4
        arch = NetworkArch(labels=("A", "B"))
        tn = train(dataset, arch, TrainHyper(epochs=50, batch_size=4, seed=0), cfg)
        report = evaluate(map_network(tn, cfg), dataset, [0.0])
        assert report.accuracy("overall", 0.0) == 100.0

    def test_a_press_off_the_configured_force_is_rejected(self, cfg):
        # train rebuilds every press at cfg.f_press, so a softer press would train as a 20 lbf one
        dataset = build_dataset(BrailleGroup.GROUP1, copies=1, seed=0, f_press=5.0)
        arch = arch_for(["group1"])
        with pytest.raises(TrainingError, match=r"^item 0: a pressed dot must carry braille\.f_press = 20 lbf, got "):
            train(dataset, arch, TrainHyper(epochs=1), cfg)
        good = build_dataset(BrailleGroup.GROUP1, copies=1, seed=0, f_press=cfg.f_press)
        with pytest.raises(TrainingError, match=r"^item 2: a pressed dot must carry braille\.f_press = 20 lbf, got "):
            train(good[:2] + [(good[2][0] / 4, good[2][1])], arch, TrainHyper(epochs=1), cfg)

    def test_two_seeds_close_in_accuracy_but_not_in_weights(self, cfg):
        rows = [sweep_point(["group2"], [0.02], "analog", seed, cfg)[0] for seed in (0, 1)]
        assert abs(rows[0].accuracy - rows[1].accuracy) <= 2.0
        assert rows[0].n_test == rows[1].n_test == 26
        # independent runs from different seeds land on different weights
        dataset = build_dataset(BrailleGroup.GROUP2, copies=2, seed=0, f_press=cfg.f_press)
        arch = NetworkArch(labels=tuple(s.label for s in symbols(BrailleGroup.GROUP2)))
        a, b = (train(dataset, arch, TrainHyper(epochs=2, seed=seed, sigma2=0.02), cfg)
                for seed in (0, 1))
        assert not np.array_equal(a.w_hidden, b.w_hidden)

    def test_training_is_deterministic(self, cfg):
        dataset = build_dataset(BrailleGroup.GROUP1, copies=2, seed=3, f_press=cfg.f_press)
        arch = NetworkArch(labels=tuple(s.label for s in symbols(BrailleGroup.GROUP1)))
        hyper = TrainHyper(epochs=5, seed=7, sigma2=0.05)
        a = train(dataset, arch, hyper, cfg)
        b = train(dataset, arch, hyper, cfg)
        np.testing.assert_array_equal(a.w_hidden, b.w_hidden)
        np.testing.assert_array_equal(a.w_out, b.w_out)
        np.testing.assert_array_equal(a.sensor_states, b.sensor_states)

    @pytest.mark.parametrize("mode, sigma2, batch_size", [
        ("analog", 0.1, 32),
        ("analog", 0.0, 32),
        ("binary", 0.05, 32),
        ("analog", 0.05, 10),  # 104 items: ten batches of 10, then a batch of 4
        ("binary", 0.0, 10),
        ("analog", 0.1, 1),  # batches of one item
        ("analog", 0.02, 200),  # one batch holding all 104 items
    ])
    def test_bit_identical_to_the_reference_loop(self, cfg, g2_split, mode, sigma2, batch_size):
        _assert_trains_like_the_reference(g2_split[0], cfg, mode, sigma2, batch_size)

    def test_bit_identical_where_the_summation_order_shows(self, cfg, g2_split):
        # At the default devices the reciprocals (1e6 or 32258 for the sensor,
        # 100 for the switch) add to the same double in almost any order, so
        # a cell composed in another order than sensor, memristor, switch
        # would still match.  With a 7 mS switch about a quarter of the
        # states round differently.
        _assert_trains_like_the_reference(g2_split[0], replace(cfg, switch_g_on=7e-3), "analog", 0.1, 32)

    @pytest.mark.parametrize("mode", ["analog", "binary"])
    @pytest.mark.parametrize("group", [BrailleGroup.GROUP1, "fusion"])
    def test_stacked_levels_equal_their_own_runs(self, cfg, mode, group):
        # group1 trains on 108 items (a last batch of 12), fusion on 500 items
        # with 125 outputs; the grid holds a 0, which trains as its own stack
        train_items, _ = split_holdout(build_dataset(group, copies=5, seed=2, f_press=cfg.f_press), copies=5)
        arch = arch_for([group.value if isinstance(group, BrailleGroup) else group])
        hyper = TrainHyper(epochs=3, seed=2, sigma2=0.3, mode=mode)
        grid = [0.05, 0.0, 0.5, 0.02]
        stacked = train(train_items, arch, hyper, cfg, sigma2_grid=grid)
        assert len(stacked) == len(grid)
        for sigma2, tn in zip(grid, stacked):
            for own in (train(train_items, arch, replace(hyper, sigma2=sigma2), cfg),
                        _reference_train(train_items, arch, replace(hyper, sigma2=sigma2), cfg)):
                assert own.arch == tn.arch and own.mode == tn.mode
                for field in ("w_hidden", "b_hidden", "w_out", "b_out", "sensor_states", "binary_threshold"):
                    assert np.array_equal(getattr(tn, field), getattr(own, field)), (sigma2, field)

    def test_one_level_grid_equals_the_call_without_a_grid(self, cfg, g2_split):
        arch = arch_for(["group2"])
        hyper = TrainHyper(epochs=3, seed=5, sigma2=0.1)
        [stacked] = train(g2_split[0], arch, hyper, cfg, sigma2_grid=[0.1])
        alone = train(g2_split[0], arch, hyper, cfg)
        for field in ("w_hidden", "b_hidden", "w_out", "b_out", "sensor_states"):
            assert np.array_equal(getattr(stacked, field), getattr(alone, field)), field
        assert train(g2_split[0], arch, hyper, cfg, sigma2_grid=[]) == []

    def test_stacked_divergence_raises_the_first_failing_level(self):
        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "2"})
        train_items, _ = split_holdout(build_dataset(["group1"], copies=5, seed=0, f_press=quick.f_press), copies=5)
        arch = arch_for(["group1"])
        hyper = TrainHyper.from_config(quick, seed=0)
        # at seed 0, 2e46 diverges at epoch 1 and 1e300 at epoch 0: the stack
        # meets 1e300 first, but the levels before it train on and fail later
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingError) as alone:
                train(train_items, arch, replace(hyper, sigma2=2e46), quick)
            with pytest.raises(TrainingError) as stacked:
                train(train_items, arch, hyper, quick, sigma2_grid=[0.02, 2e46, 1e300, 0.5])
        assert str(stacked.value) == str(alone.value) == "loss diverged at epoch 1: nan"
        assert len(stacked.value.trained) == 1 and len(alone.value.trained) == 0

    @pytest.mark.parametrize("environ, sigma2s", [
        # every level diverges in epoch 0
        ({"TMSIM_TRAIN__LR": "1e300"}, [0.02, 0.5, 1e300]),
        # only level 0 diverges, in epoch 0: the levels after it, which would
        # train on, are never read
        ({}, [1e300, 0.02, 0.5]),
    ], ids=["every-level", "level-0-only"])
    def test_a_stack_ends_once_its_first_level_has_diverged(self, monkeypatch, environ, sigma2s):
        diverging = load_config(environ={**environ, "TMSIM_TRAIN__EPOCHS": "50"})
        train_items, _ = split_holdout(build_dataset(["group1"], copies=5, seed=0, f_press=diverging.f_press),
                                       copies=5)
        arch = arch_for(["group1"])
        hyper = TrainHyper.from_config(diverging, seed=0)
        steps = []
        softmax_rows = pipeline._softmax_rows
        monkeypatch.setattr(pipeline, "_softmax_rows", lambda z: steps.append(z.shape) or softmax_rows(z))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            [error] = pipeline._train_stack(*_dataset_arrays(train_items, arch, diverging.f_press), arch, hyper,
                                            diverging, sigma2s)
        assert isinstance(error, TrainingError)
        epoch = int(re.fullmatch(r"loss diverged at epoch (\d+): nan", str(error))[1])
        batches = -(-len(train_items) // hyper.batch_size)
        assert epoch * batches < len(steps) <= (epoch + 1) * batches < hyper.epochs * batches

    def test_a_stack_drops_its_levels_from_the_first_diverged_one(self, monkeypatch):
        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "3"})
        train_items, _ = split_holdout(build_dataset(["group1"], copies=5, seed=0, f_press=quick.f_press), copies=5)
        steps = []  # per softmax call: the levels it sees, and whether every probability is finite
        softmax_rows = pipeline._softmax_rows

        def counted(logits):
            probs = softmax_rows(logits)
            steps.append((len(logits), bool(np.isfinite(probs).all())))
            return probs

        monkeypatch.setattr(pipeline, "_softmax_rows", counted)
        # at seed 0, 1e300 diverges in epoch 0: it leaves the stack together with the healthy 0.5 after it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingError, match=r"^loss diverged at epoch 0: nan$") as failed:
                train(train_items, arch_for(["group1"]), TrainHyper.from_config(quick, seed=0), quick,
                      sigma2_grid=[0.02, 1e300, 0.5])
        diverged = next(i for i, (_, finite) in enumerate(steps) if not finite)
        assert steps[diverged][0] == 3 and len(steps) > diverged + 1
        assert {levels for levels, _ in steps[diverged + 1:]} == {1}
        assert len(failed.value.trained) == 1

    def test_bad_level_rejected_before_training(self, cfg, g2_split):
        with pytest.raises(ValueError, match="sigma2 must be finite and non-negative, got -0.1"):
            train(g2_split[0], arch_for(["group2"]), TrainHyper(epochs=1), cfg, sigma2_grid=[0.02, -0.1])

    def test_cell_slots_read_the_line_sums_and_scatter_the_state_gradient(self):
        # every 4x2 dot pattern, at a supply that is not a power of two
        cfg = load_config(environ={"TMSIM_SENSOR__V_SUPPLY": "0.3"})
        dots = (np.arange(256)[:, None] >> np.arange(8) & 1).reshape(256, 4, 2).astype(float)
        lines, cells = _cell_slots(dots)
        assert lines.shape == (4, 256, N_FEATURES) and cells.shape == (256, 8)
        g_sensor = fsr_conductance(cfg.sensor, np.array([cfg.f_press, 0.0]).reshape(2, 1, 1))
        masks = np.stack([dots, 1.0 - dots], axis=1)
        rng = np.random.default_rng(11)
        for _ in range(5):
            g_m = memristor_conductance(cfg.memristor, rng.random((4, 2)))
            u = _reciprocal_sum((g_sensor, g_m, cfg.switch_g_on))  # (2, 4, 2): pressed, unpressed
            grids = u.take(cells).reshape(dots.shape)
            x = np.add.reduce(np.append(u, 0.0).take(lines), axis=0)
            assert np.array_equal(x, _line_sums(grids, grids, np.empty((256, N_FEATURES))))
            x *= cfg.sensor.v_supply
            assert np.array_equal(x, _line_currents(dots * cfg.f_press, g_m, cfg))

            dcell = rng.standard_normal(dots.shape)
            du = np.bincount(cells.ravel(), weights=dcell.ravel(), minlength=16).reshape(u.shape)
            assert np.array_equal(du, np.add.reduce(dcell[:, None] * masks, axis=0))

    def test_analog_states_stay_in_range_and_spread(self, g2_net):
        states = g2_net.sensor_states
        assert np.all((states >= 0.0) & (states <= 1.0))
        assert states.std() > 0.01
        assert g2_net.binary_threshold is None

    def test_state_sensitivity_matches_central_difference(self, cfg):
        states = np.linspace(0.01, 0.99, 99)
        step = 1e-6
        for force in (0.0, cfg.f_press):
            g_s = fsr_conductance(cfg.sensor, force)

            def cell(w):
                return series_conductance(g_s, memristor_conductance(cfg.memristor, w), cfg.switch_g_on)

            numeric = (cell(states + step) - cell(states - step)) / (2 * step)
            exact = _state_sensitivity(cell(states), memristor_conductance(cfg.memristor, states), cfg)
            np.testing.assert_allclose(exact, numeric, rtol=1e-6)

    def test_binary_mode_fixes_states_and_sets_threshold(self, cfg):
        dataset = build_dataset(BrailleGroup.GROUP2, copies=2, seed=0, f_press=cfg.f_press)
        arch = NetworkArch(labels=tuple(s.label for s in symbols(BrailleGroup.GROUP2)))
        tn = train(dataset, arch, TrainHyper(epochs=5, seed=0, mode="binary"), cfg)
        np.testing.assert_array_equal(tn.sensor_states, ONES)
        assert tn.binary_threshold is not None
        assert tn.binary_threshold.shape == (6,)
        assert np.all(tn.binary_threshold > 0.0)

    def test_divergence_raises(self, cfg):
        dataset = build_dataset(BrailleGroup.GROUP2, copies=1, seed=0, f_press=cfg.f_press)
        arch = NetworkArch(labels=tuple(s.label for s in symbols(BrailleGroup.GROUP2)))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingError, match="diverged"):
                train(dataset, arch, TrainHyper(lr=1e300, epochs=2, batch_size=8, seed=0), cfg)

    def test_dataset_validation(self, cfg):
        arch = NetworkArch(labels=("A", "B"))
        with pytest.raises(TrainingError):
            train([], arch, TrainHyper(epochs=1), cfg)
        grid = symbol_to_forces(_encode("A", BrailleGroup.GROUP1), cfg.f_press)
        with pytest.raises(TrainingError):
            train([(grid, "Z")], arch, TrainHyper(epochs=1), cfg)
        with pytest.raises(TrainingError):
            train([(np.zeros((2, 2)), "A")], arch, TrainHyper(epochs=1), cfg)

    def test_dataset_errors_name_the_first_bad_item(self):
        arch = NetworkArch(labels=("A", "B"))
        good = (np.zeros((4, 2)), "A")
        with pytest.raises(TrainingError, match=r"item 1: force grid must be 4x2, got \(2, 2\)"):
            _dataset_arrays([good, (np.zeros((2, 2)), "B"), (np.zeros((3, 2)), "A")], arch, 20.0)
        with pytest.raises(TrainingError, match=r"item 2: force grid must be 4x2, got \(4, 3\)"):
            _dataset_arrays([good, good, (np.zeros((4, 3)), "B")], arch, 20.0)
        with pytest.raises(TrainingError, match="dataset label 'Z' is not in the architecture's outputs"):
            _dataset_arrays([good, (np.zeros((4, 2)), "Z"), (np.zeros((2, 2)), "B")], arch, 20.0)

    def test_dataset_arrays_match_item_by_item(self, cfg):
        dataset = build_dataset("fusion", copies=2, seed=3, f_press=cfg.f_press)
        dataset = [(grid.tolist() if i % 2 else grid, label) for i, (grid, label) in enumerate(dataset)]
        arch = arch_for(["fusion"])
        dots, targets = _dataset_arrays(dataset, arch, cfg.f_press)
        want_dots, want_targets = _reference_dataset_arrays(dataset, arch)
        assert np.array_equal(dots, want_dots) and dots.dtype == want_dots.dtype
        assert np.array_equal(targets, want_targets)

    def test_hyper_validation(self, cfg):
        with pytest.raises(ValueError):
            TrainHyper(mode="ternary")
        with pytest.raises(ValueError):
            TrainHyper(lr=0.0)
        hyper = TrainHyper.from_config(cfg, seed=3, sigma2=0.1, mode="binary")
        assert (hyper.lr, hyper.epochs, hyper.batch_size) == (
            cfg.train.lr, cfg.train.epochs, cfg.train.batch_size
        )
        assert (hyper.seed, hyper.sigma2, hyper.mode) == (3, 0.1, "binary")

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("lr", -0.05),
        ("epochs", 2.5),
        ("epochs", 0),
        ("epochs", "3"),
        ("batch_size", 32.0),
        ("batch_size", -1),
        ("seed", -1),
        ("seed", 1.5),
    ])
    def test_bad_hyperparameter_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainHyper(**{field: value})

    def test_integer_hyperparameters_accept_numpy_integers(self):
        hyper = TrainHyper(epochs=np.int64(3), batch_size=np.int32(8))
        assert (hyper.epochs, hyper.batch_size) == (3, 8)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf"), -float("inf")])
    def test_bad_forces_rejected_with_their_item(self, cfg, bad):
        arch = NetworkArch(labels=("A", "B"))
        good = (np.zeros((4, 2)), "A")
        grid = np.full((4, 2), cfg.f_press)
        grid[2, 1] = bad
        dataset = [good, good, (grid, "B"), (grid, "A")]
        with pytest.raises(TrainingError, match=r"item 2: forces must be finite and non-negative"):
            train(dataset, arch, TrainHyper(epochs=1), cfg)
        hw = map_network(_random_network(("A", "B")), cfg)
        with pytest.raises(TrainingError, match=r"item 2: forces must be finite and non-negative"):
            evaluate(hw, dataset, [0.0])

    def test_one_full_batch_step_follows_the_loss_gradient(self, cfg):
        # train's backward pass against central differences of a cross-entropy
        # written out here: one noiseless step over the whole dataset moves
        # each dense parameter by -lr times its gradient and each state by
        # -state_lr / cond^2 times its raw gradient
        dataset = build_dataset(BrailleGroup.GROUP1, copies=2, seed=0, f_press=cfg.f_press)
        arch = arch_for(["group1"])
        lr = cfg.train.lr
        after = train(dataset, arch, TrainHyper(lr=lr, epochs=1, batch_size=len(dataset), seed=5), cfg)
        rng = np.random.default_rng(5)  # the initial values, drawn as train draws them
        before = {
            "w_hidden": rng.normal(0.0, np.sqrt(2.0 / N_FEATURES), (N_FEATURES, N_HIDDEN)),
            "b_hidden": np.zeros(N_HIDDEN),
            "w_out": rng.normal(0.0, np.sqrt(2.0 / N_HIDDEN), (N_HIDDEN, arch.n_out)),
            "b_out": np.zeros(arch.n_out),
            "sensor_states": _state_increment_ladder(cfg, rng),
        }
        dots, targets = _reference_dataset_arrays(dataset, arch)

        def gradient(field):
            return _central_difference(lambda v: _reference_loss(dots, targets, cfg, **{**before, field: v}),
                                       before[field])

        for field in ("w_hidden", "b_hidden", "w_out", "b_out"):
            stepped = (getattr(after, field) - before[field]) / -lr
            assert np.abs(stepped).max() > 1e-3, field
            np.testing.assert_allclose(stepped, gradient(field), rtol=1e-5, atol=1e-8, err_msg=field)

        states = before["sensor_states"]
        feat_scale = cfg.sensor.v_supply / (_reference_norm(cfg) * cfg.dot_gain)
        sens_on = _reference_state_sensitivity(states, cfg.f_press, cfg)
        sens_off = _reference_state_sensitivity(states, 0.0, cfg)
        cond = np.maximum((sens_on - sens_off) * feat_scale, 1e-2)
        raw = (after.sensor_states - states) * cond**2 / -(lr * _STATE_LR_FACTOR)
        free = (after.sensor_states > 0.0) & (after.sensor_states < 1.0)  # cells off the clip
        assert free.sum() >= 6
        np.testing.assert_allclose(raw[free], gradient("sensor_states")[free], rtol=1e-5, atol=1e-8)

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            NetworkArch(labels=("A",))
        with pytest.raises(ValueError):
            NetworkArch(labels=("A", "A"))


class TestMapping:
    def test_zero_weights_map_to_the_floor_pair(self, cfg):
        tn = _random_network(("A", "B"))
        tn = replace(tn, w_hidden=np.zeros_like(tn.w_hidden), w_out=np.zeros_like(tn.w_out))
        hw = map_network(tn, cfg)
        floor = 1.0 / cfg.memristor.r_off
        for g in (hw.gp_hidden, hw.gm_hidden, hw.gp_out, hw.gm_out):
            np.testing.assert_array_equal(g, np.full(g.shape, floor))

    def test_extreme_weight_saturates_the_pair(self, cfg):
        tn = _random_network(("A", "B"), seed=2)
        k = np.unravel_index(np.abs(tn.w_hidden).argmax(), tn.w_hidden.shape)
        hw = map_network(tn, cfg)
        hi, lo = 1.0 / cfg.memristor.r_on, 1.0 / cfg.memristor.r_off
        pos = tn.w_hidden[k] > 0
        assert hw.gp_hidden[k] == pytest.approx(hi if pos else lo, rel=1e-12)
        assert hw.gm_hidden[k] == pytest.approx(lo if pos else hi, rel=1e-12)

    def test_all_pairs_inside_the_conductance_range(self, cfg, g2_net):
        hw = map_network(g2_net, cfg)
        hi, lo = 1.0 / cfg.memristor.r_on, 1.0 / cfg.memristor.r_off
        for g in (hw.gp_hidden, hw.gm_hidden, hw.gp_out, hw.gm_out):
            assert np.all(g >= lo - 1e-18)
            assert np.all(g <= hi + 1e-15)

    def test_amplifier_gain_inverts_the_scale(self, cfg, g2_net):
        hw = map_network(g2_net, cfg)
        assert hw.amp_hidden == pytest.approx(1.0 / hw.scale_hidden, rel=1e-12)
        assert hw.amp_out == pytest.approx(1.0 / hw.scale_out, rel=1e-12)

    def test_mapped_forward_agrees_with_software_argmax(self, cfg):
        tn = _random_network(tuple("ABCDEFGH"), seed=5)
        hw = map_network(tn, cfg)
        rng = np.random.default_rng(6)
        agreements = 0
        for _ in range(500):
            grid = rng.integers(0, 2, (4, 2)) * cfg.f_press
            x = _features(grid, tn.sensor_states, cfg) / cfg.dot_gain
            hidden = np.maximum(x @ tn.w_hidden + tn.b_hidden, 0.0)
            logits = hidden @ tn.w_out + tn.b_out
            software = tn.arch.labels[int(np.argmax(logits))]
            _, predicted = forward(hw, grid)
            agreements += software == predicted
        assert agreements == 500


class TestForward:
    def test_noiseless_t_is_recognized(self, cfg, g2_net):
        hw = map_network(g2_net, cfg)
        grid = symbol_to_forces(_encode("t", BrailleGroup.GROUP2), cfg.f_press)
        probs, label = forward(hw, grid)
        assert label == "t"
        assert probs.shape == (26,)
        # distant losers underflow to exactly zero at the thermal-voltage scale
        assert np.all(probs >= 0.0)
        assert probs.max() > 0.5

    def test_probabilities_sum_to_one(self, cfg, g2_net):
        hw = map_network(g2_net, cfg)
        rng = np.random.default_rng(8)
        for _ in range(20):
            grid = rng.integers(0, 2, (4, 2)) * cfg.f_press
            probs, _ = forward(hw, grid, noise=NoiseSpec(sigma2=0.05, seed=1))
            assert probs.sum() == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("sigma2", [0.0, 0.05])
    def test_probabilities_are_the_softmax_chain_outputs(self, cfg, g2_net, sigma2):
        hw = map_network(g2_net, cfg)
        tn, params = hw.network, cfg.softmax
        rng = np.random.default_rng(14)
        for _ in range(20):
            grid = rng.integers(0, 2, (4, 2)) * cfg.f_press
            noise = NoiseSpec(sigma2=sigma2, seed=3)
            probs, label = forward(hw, grid, noise=noise)
            feats = _add_noise(_features(grid, tn.sensor_states, cfg)[None], noise)
            logits = _hardware_logits(hw, _network_input(feats, tn.mode, None, cfg.dot_gain))
            want = softmax_circuit(logits, params)[0] / (params.r_f * params.i_s)
            assert np.array_equal(probs, want)
            assert label == tn.arch.labels[int(np.argmax(want))]

    @pytest.mark.parametrize("mode", ["analog", "binary"])
    @pytest.mark.parametrize("sigma2", [None, 0.05])  # None: no NoiseSpec at all
    def test_fusion_probabilities_are_the_softmax_chain_outputs(self, cfg, mode, sigma2):
        arch = arch_for(["fusion"])
        dataset = build_dataset("fusion", copies=1, seed=0, f_press=cfg.f_press)
        hw = map_network(train(dataset, arch, TrainHyper(epochs=2, seed=0, mode=mode), cfg), cfg)
        tn, params = hw.network, cfg.softmax
        assert tn.arch.n_out == 125
        rng = np.random.default_rng(15)
        for i in range(20):
            # pressed-or-not patterns and arbitrary non-negative forces
            grid = rng.integers(0, 2, (4, 2)) * cfg.f_press if i % 2 else rng.uniform(0.0, 2 * cfg.f_press, (4, 2))
            noise = None if sigma2 is None else NoiseSpec(sigma2=sigma2, seed=i)
            probs, label = forward(hw, grid, noise=noise)
            feats = _features(grid, tn.sensor_states, cfg)[None]
            if noise is not None:
                feats = _add_noise(feats, noise)
            logits = _hardware_logits(hw, _network_input(feats, tn.mode, tn.binary_threshold, cfg.dot_gain))
            want = softmax_circuit(logits, params)[0] / (params.r_f * params.i_s)
            assert np.array_equal(probs, want)
            assert label == tn.arch.labels[int(np.argmax(want))]

    def test_non_finite_force_rejected(self, cfg, g2_net):
        grid = symbol_to_forces(_encode("t", BrailleGroup.GROUP2), cfg.f_press)
        grid[0, 1] = np.nan
        with pytest.raises(ValueError, match="forces must be finite"):
            forward(map_network(g2_net, cfg), grid)

    @pytest.mark.parametrize("bad", [-1.0, -np.inf])
    def test_negative_force_rejected(self, cfg, g2_net, bad):
        grid = symbol_to_forces(_encode("t", BrailleGroup.GROUP2), cfg.f_press)
        grid[2, 0] = bad
        with pytest.raises(ValueError, match=f"force must be non-negative, got {bad}"):
            forward(map_network(g2_net, cfg), grid)

    def test_binary_network_without_threshold_rejected(self):
        with pytest.raises(ValueError, match="binary_threshold"):
            _random_network(["a", "b"], mode="binary")


def _crafted_logits(v_t):
    """Rows of 4 logits around each decision hazard of the argmax shortcut, both orders of every pair."""
    rows = []

    def both_orders(a, b, rest=(-0.4, -0.5)):
        rows.extend([[a, b, *rest], [b, a, *rest], [*rest, a, b], [*rest, b, a]])

    for top in (1e-3, 0.3, -0.2, 50.0, -7.0):
        both_orders(top, top)  # exact tie
        both_orders(top, np.nextafter(top, np.inf))  # 1 ulp
        both_orders(top, np.nextafter(np.nextafter(top, -np.inf), -np.inf))  # 2 ulp
        scale = max(abs(top), v_t)
        for gap in (0.5, 1.0, 1.01, 2.0):  # inside, at and just beyond the margin
            both_orders(top, top - gap * _LOGIT_TIE_MARGIN * scale)
    for spread in (1000.0, 5000.0):  # the others underflow to 0 in the circuit's exp
        far = spread * v_t
        both_orders(far, 0.0, rest=(-far, -2.0 * far))
        both_orders(far, far, rest=(-far, 0.0))
        both_orders(0.0, np.nextafter(0.0, np.inf), rest=(-far, -far))
    rows.append([0.25] * 4)
    return np.array(rows)


class TestPredictedOutputs:
    """``_predicted_outputs`` reads the circuit's argmax from the logits."""

    def test_equals_the_circuit_argmax_on_crafted_logits(self, cfg):
        logits = _crafted_logits(cfg.softmax.v_t)
        want = softmax_circuit(logits, cfg.softmax).argmax(axis=1)
        # the crafted rows include ties that only the circuit's rounding makes
        assert (logits.argmax(axis=1) != want).any()
        assert np.array_equal(_predicted_outputs(logits, cfg.softmax), want)

    def test_equals_the_circuit_argmax_on_network_logits(self, cfg):
        rng = np.random.default_rng(9)
        logits = rng.normal(0.0, 0.2, (2000, 125))
        logits[::7, 3] = logits[::7].max(axis=1)  # ties with the top at a later or an earlier index
        want = softmax_circuit(logits, cfg.softmax).argmax(axis=1)
        assert np.array_equal(_predicted_outputs(logits, cfg.softmax), want)

    def test_only_near_ties_reach_the_circuit(self, cfg, monkeypatch):
        import tmsim.pipeline as pipeline

        seen = []
        circuit = pipeline.softmax_circuit
        monkeypatch.setattr(pipeline, "softmax_circuit",
                            lambda logits, params: seen.append(len(logits)) or circuit(logits, params))
        clear = np.array([[0.1, 0.2, 0.3], [0.0, -1.0, 0.5], [1.0, 1.0 - 1e-6, 0.0]])
        assert _predicted_outputs(clear, cfg.softmax).tolist() == [2, 2, 0]
        assert seen == []
        tied = np.vstack([clear, [[0.4, 0.4, 0.0]]])
        assert _predicted_outputs(tied, cfg.softmax).tolist() == [2, 2, 0, 0]
        assert seen == [1]


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logit_rejected_by_the_circuit(self, cfg, bad):
        logits = np.array([[0.1, 0.2, 0.3], [0.0, bad, 0.5]])
        with pytest.raises(ValueError, match="softmax_circuit needs a finite maximum"):
            _predicted_outputs(logits, cfg.softmax)


class TestEvaluate:
    def test_noise_degrades_accuracy(self, cfg, g2_net, g2_split):
        _, test_items = g2_split
        report = evaluate(map_network(g2_net, cfg), test_items, [0.0, 0.02, 0.5], seed=0)
        clean = report.accuracy("overall", 0.0)
        assert clean == 100.0
        assert clean >= report.accuracy("overall", 0.5)

    def test_reports_are_bit_identical_across_runs(self, cfg, g2_net, g2_split):
        _, test_items = g2_split
        a = evaluate(map_network(g2_net, cfg), test_items, [0.1], seed=4)
        b = evaluate(map_network(g2_net, cfg), test_items, [0.1], seed=4)
        assert a == b

    def test_fusion_dataset_reports_per_group_entries(self, cfg):
        labels = tuple(s.label for g in BrailleGroup for s in symbols(g))
        tn = _random_network(labels, seed=11)
        dataset = build_dataset("fusion", copies=1, seed=0, f_press=cfg.f_press)
        report = evaluate(map_network(tn, cfg), dataset, [0.0])
        by_group = {e.group: e.n_items for e in report.entries}
        assert by_group == {"overall": 125, "group1": 27, "group2": 26,
                           "group3": 46, "group4": 26}

    @pytest.mark.parametrize("mode", ["analog", "binary"])
    def test_matches_reference_evaluate(self, cfg, mode):
        dataset = build_dataset("fusion", copies=2, seed=0, f_press=cfg.f_press)
        tn = train(dataset, arch_for(["fusion"]), TrainHyper(epochs=3, seed=0, mode=mode), cfg)
        hw = map_network(tn, cfg)
        grid = [0.0, 0.05, 0.5]
        report = evaluate(hw, dataset, grid, seed=2)
        assert report == _reference_evaluate(hw, dataset, grid, seed=2)
        assert len(report.entries) == 15
        pairs = [pair for e in report.entries for pair, _ in e.confusions]
        assert pairs
        assert all(type(t) is str and type(p) is str for t, p in pairs)

    def test_a_press_off_the_configured_force_is_rejected(self, cfg):
        # evaluate rebuilds every press at hw.cfg.f_press: a softer press would score as a 20 lbf one
        tn = _random_network(tuple(s.label for s in symbols(BrailleGroup.GROUP1)), seed=11)
        dataset = build_dataset(BrailleGroup.GROUP1, copies=1, seed=0, f_press=5.0)
        with pytest.raises(TrainingError, match=r"^item 0: a pressed dot must carry braille\.f_press = 20 lbf, got "):
            evaluate(map_network(tn, cfg), dataset, [0.0])

    def test_single_group_dataset_reports_overall_only(self, cfg, g2_net, g2_split):
        _, test_items = g2_split
        report = evaluate(map_network(g2_net, cfg), test_items, [0.0])
        assert [e.group for e in report.entries] == ["overall"]

    def test_confusions_listed_for_misclassified_items(self, cfg):
        tn = _random_network(tuple("ABCD"), seed=13)
        grids = [symbol_to_forces(_encode(l, BrailleGroup.GROUP1), cfg.f_press)
                 for l in "ABCD"]
        report = evaluate(map_network(tn, cfg), list(zip(grids, "ABCD")), [0.0])
        entry = report.entries[0]
        wrong = round((100.0 - entry.accuracy) / 100.0 * entry.n_items)
        assert sum(count for _, count in entry.confusions) == wrong

    def test_argument_validation(self, cfg, g2_net, g2_split):
        _, test_items = g2_split
        hw = map_network(g2_net, cfg)
        for sigma2 in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma2"):
                evaluate(hw, test_items, [sigma2])
        report = evaluate(hw, test_items, [0.1])
        with pytest.raises(KeyError):
            report.accuracy("overall", 0.25)

    @pytest.mark.parametrize("seed", [-1, 2.0])
    def test_bad_seed_rejected(self, cfg, g2_net, g2_split, seed):
        _, test_items = g2_split
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            evaluate(map_network(g2_net, cfg), test_items, [0.1], seed=seed)

    def test_csv_layout(self, cfg, g2_net, g2_split):
        _, test_items = g2_split
        report = evaluate(map_network(g2_net, cfg), test_items, [0.02, 0.5])
        lines = eval_report_to_csv(report).strip().split("\n")
        assert lines[0] == "group,mode,sigma2=0.02,sigma2=0.5"
        cells = lines[1].split(",")
        assert cells[:2] == ["overall", "analog"]
        assert float(cells[2]) == pytest.approx(report.accuracy("overall", 0.02))


class TestSweepProtocol:
    def test_holdout_split_reserves_one_copy_per_label(self, cfg):
        dataset = build_dataset("fusion", copies=5, seed=0, f_press=cfg.f_press)
        train_items, test_items = split_holdout(dataset, copies=5)
        assert len(train_items) == 500 and len(test_items) == 125
        test_counts: dict[str, int] = {}
        for _, label in test_items:
            test_counts[label] = test_counts.get(label, 0) + 1
        assert set(test_counts.values()) == {1}

    def test_holdout_validation(self, cfg):
        dataset = build_dataset(BrailleGroup.GROUP1, copies=1, seed=0, f_press=cfg.f_press)
        with pytest.raises(ValueError, match="copies"):
            split_holdout(dataset, copies=1)

    def test_run_sweep_covers_the_grid(self):
        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "2"})
        rows = run_sweep([["group1"]], [0.02, 0.5], ["analog"], [0], quick)
        assert [(r.group_set, r.sigma2, r.mode, r.seed) for r in rows] == [
            ("group1", 0.02, "analog", 0),
            ("group1", 0.5, "analog", 0),
        ]
        assert all(r.n_test == 27 for r in rows)

    @staticmethod
    def _serial_rows(group_sets, sigma2_grid, modes, seeds, cfg):
        """The per-point sweep: one training and one score per point, stack by stack, levels in grid order."""
        return [sweep_point(g, [s], m, seed, cfg)[0] for g in group_sets for m in modes
                for seed in seeds for s in sigma2_grid]

    @pytest.mark.parametrize("seeds", [[0], [0, 1]])
    def test_pooled_rows_equal_serial_points_in_stack_order(self, monkeypatch, seeds):
        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "2"})
        grid = ([["group1"], ["group2"]], [0.02, 0.5], ["analog", "binary"], seeds, quick)
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                pools.append(workers)
                super().__init__(workers, **kwargs)

        # two cores even on a one-core host, so the pool path runs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        rows = run_sweep(*grid)
        assert pools == [2]
        assert rows == self._serial_rows(*grid)

    def _assert_raises_as_the_serial_sweep(self, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(Exception) as serial:
                self._serial_rows(*grid)
            with pytest.raises(Exception) as swept:
                run_sweep(*grid)
        assert type(swept.value) is type(serial.value)
        assert str(swept.value) == str(serial.value)
        return swept.value

    @pytest.mark.parametrize("sigma2_grid", [[0.02, 0.5, 1e300], [1e300, 0.02, 0.5]])
    def test_diverging_level_raises_as_the_serial_sweep(self, monkeypatch, sigma2_grid):
        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "2"})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        error = self._assert_raises_as_the_serial_sweep(([["group1"]], sigma2_grid, ["analog"], [0], quick))
        assert isinstance(error, TrainingError)
        assert str(error) == "group1 analog sigma2=1e+300 seed 0: loss diverged at epoch 0: nan"

    def test_a_diverging_stack_trains_once(self, monkeypatch):
        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "2"})
        stacks = []
        train_stack = pipeline._train_stack

        def counted(*args):
            stacks.append(list(args[-1]))
            return train_stack(*args)

        monkeypatch.setattr(pipeline, "_train_stack", counted)
        # at seed 0, 2e46 diverges at epoch 1 and 1e300 at epoch 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingError) as failed:
                sweep_point(["group1"], [0.02, 2e46, 1e300, 0.5], "analog", 0, quick)
        assert stacks == [[0.02, 2e46, 1e300, 0.5]]
        assert str(failed.value) == "group1 analog sigma2=2e+46 seed 0: loss diverged at epoch 1: nan"
        divergence = failed.value.__cause__
        assert isinstance(divergence, TrainingError) and len(divergence.trained) == 1
        # the network of the level before it is the one that level trains alone
        [carried] = divergence.trained
        train_items, _ = split_holdout(build_dataset(["group1"], copies=5, seed=0, f_press=quick.f_press), copies=5)
        alone = train(train_items, arch_for(["group1"]), TrainHyper.from_config(quick, seed=0, sigma2=0.02), quick)
        for field in ("w_hidden", "b_hidden", "w_out", "b_out", "sensor_states"):
            assert np.array_equal(getattr(carried, field), getattr(alone, field)), field

    @pytest.mark.parametrize("cores", [{0}, {0, 1}])
    def test_a_pooled_failure_keeps_its_cause(self, monkeypatch, cores):
        # two stacks, so that two cores start the pool; 1e300 diverges in both
        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "2"})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingError) as failed:
                run_sweep([["group1"], ["group2"]], [0.02, 1e300], ["analog"], [0], quick)
        assert str(failed.value) == "group1 analog sigma2=1e+300 seed 0: loss diverged at epoch 0: nan"
        cause = failed.value.__cause__
        assert type(cause) is TrainingError and str(cause) == "loss diverged at epoch 0: nan"

    def test_a_failing_sweep_starts_no_stack_after_its_failure(self, monkeypatch):
        # group1's only point fails, and group2's stack lies wholly after it in grid order
        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "2"})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        started = []
        stack_rows = pipeline._stack_rows

        def counted(*args, **kwargs):
            started.append(args[0])
            return stack_rows(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_stack_rows", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingError, match=r"^group1 analog sigma2=1e\+300 seed 0: loss diverged"):
                run_sweep([["group1"], ["group2"]], [1e300], ["analog"], [0], quick)
        assert started == [["group1"]]

    @pytest.mark.parametrize("cores", [{0}, {0, 1}])
    def test_first_failing_stack_wins_across_stacks(self, monkeypatch, cores):
        # Seed 3's stack fails at its second level: 1e300 diverges.  Seed 4's
        # fails at its first: 2.6e41 trains to logits that overflow, which
        # scoring rejects.  Seed 3's stack comes first, so its failure wins,
        # and on one core seed 4's stack never starts.
        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "2"})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        grid = ([["group1"]], [2.6e41, 1e300], ["analog"], [3, 4], quick)
        error = self._assert_raises_as_the_serial_sweep(grid)
        assert isinstance(error, TrainingError)
        assert str(error) == "group1 analog sigma2=1e+300 seed 3: loss diverged at epoch 0: nan"
        if cores == {0}:  # a pool could not pickle the counting wrapper
            started = []
            stack_rows = pipeline._stack_rows

            def counted(*args, **kwargs):
                started.append(args[2])
                return stack_rows(*args, **kwargs)

            monkeypatch.setattr(pipeline, "_stack_rows", counted)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(TrainingError, match=r"^group1 analog sigma2=1e\+300 seed 3: "):
                    run_sweep(*grid)
            assert started == [3]
        # and the levels before a diverged one are scored first: seed 4's
        # 2.6e41 level is rejected before its 1e300 level diverges
        error = self._assert_raises_as_the_serial_sweep(([["group1"]], [2.6e41, 1e300], ["analog"], [4], quick))
        assert isinstance(error, TrainingError) and "sigma2=2.6e+41 seed 4: softmax_circuit" in str(error)

    def test_workers_apply_the_callers_warning_filters(self, monkeypatch):
        diverging = load_config(environ={"TMSIM_TRAIN__LR": "1e300", "TMSIM_TRAIN__EPOCHS": "2"})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                run_sweep([["group1"]], [0.02, 0.5], ["analog"], [0], diverging)
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingError, match="diverged"):
                run_sweep([["group1"]], [0.02, 0.5], ["analog"], [0], diverging)

    def test_pooled_stacks_apply_the_callers_warning_filters(self, monkeypatch):
        # two stacks, so that the pool starts
        diverging = load_config(environ={"TMSIM_TRAIN__LR": "1e300", "TMSIM_TRAIN__EPOCHS": "2"})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                run_sweep([["group1"]], [0.02, 0.5], ["analog"], [0, 1], diverging)

    def test_sweep_point_looks_its_dataset_up_in_braille(self, monkeypatch):
        # so a wrapper on braille.build_dataset, such as perfbench's trace, sees every point
        calls = []
        build = braille.build_dataset

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(braille, "build_dataset", counted)
        rows = sweep_point(["group1"], [0.02, 0.5], "analog", 0, load_config(environ={"TMSIM_TRAIN__EPOCHS": "1"}))
        assert [row.sigma2 for row in rows] == [0.02, 0.5]
        assert calls == [(["group1"],)]  # one dataset for the whole stack

    @pytest.mark.parametrize("cores, sigma2_grid", [({0}, [0.02, 0.5]), ({0, 1}, [0.02])])
    def test_one_worker_runs_in_process(self, monkeypatch, cores, sigma2_grid):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        quick = load_config(environ={"TMSIM_TRAIN__EPOCHS": "2"})
        grid = ([["group1"]], sigma2_grid, ["analog"], [0], quick)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert run_sweep(*grid) == self._serial_rows(*grid)


class TestSerialization:
    def test_round_trip(self, g2_net):
        restored = network_from_json(network_to_json(g2_net))
        assert restored.arch == g2_net.arch
        assert restored.mode == g2_net.mode
        np.testing.assert_array_equal(restored.w_hidden, g2_net.w_hidden)
        np.testing.assert_array_equal(restored.b_hidden, g2_net.b_hidden)
        np.testing.assert_array_equal(restored.w_out, g2_net.w_out)
        np.testing.assert_array_equal(restored.b_out, g2_net.b_out)
        np.testing.assert_array_equal(restored.sensor_states, g2_net.sensor_states)
        assert restored.binary_threshold is None

    def test_binary_threshold_survives(self, cfg):
        dataset = build_dataset(BrailleGroup.GROUP1, copies=1, seed=0, f_press=cfg.f_press)
        arch = NetworkArch(labels=tuple(s.label for s in symbols(BrailleGroup.GROUP1)))
        tn = train(dataset, arch, TrainHyper(epochs=2, seed=0, mode="binary"), cfg)
        restored = network_from_json(network_to_json(tn))
        np.testing.assert_array_equal(restored.binary_threshold, tn.binary_threshold)

    def test_unknown_schema_rejected(self, g2_net):
        text = network_to_json(g2_net).replace('"schema_version": 1', '"schema_version": 9')
        with pytest.raises(ValueError):
            network_from_json(text)

    @pytest.mark.parametrize("key, value", [("n_inputs", 7), ("n_hidden", 13)])
    def test_other_layer_sizes_rejected(self, g2_net, key, value):
        data = json.loads(network_to_json(g2_net))
        data[key] = value
        with pytest.raises(ValueError, match=key):
            network_from_json(json.dumps(data))


class TestNetworkValidation:
    """A ``TrainedNetwork`` that the stack cannot run is rejected on construction."""

    @pytest.mark.parametrize("changes, field", [
        ({"mode": "quantum"}, "mode"),
        ({"w_hidden": np.zeros((N_FEATURES, N_HIDDEN + 1))}, "w_hidden"),
        ({"b_hidden": np.zeros(N_HIDDEN - 1)}, "b_hidden"),
        ({"w_out": np.zeros((N_HIDDEN - 1, 2))}, "w_out"),
        ({"b_out": np.zeros(3)}, "b_out"),
        ({"sensor_states": np.ones((2, 4))}, "sensor_states"),
        ({"sensor_states": np.full((4, 2), 2.0)}, "sensor_states"),
        ({"sensor_states": np.full((4, 2), -0.1)}, "sensor_states"),
        ({"w_hidden": np.full((N_FEATURES, N_HIDDEN), np.nan)}, "w_hidden"),
        ({"b_out": np.array([0.0, np.inf])}, "b_out"),
        ({"w_out": np.full((N_HIDDEN, 2), "x")}, "w_out"),
        ({"binary_threshold": np.zeros(N_FEATURES)}, "binary_threshold"),
        ({"mode": "binary", "binary_threshold": np.zeros(N_FEATURES - 1)}, "binary_threshold"),
        ({"mode": "binary", "binary_threshold": np.full(N_FEATURES, np.nan)}, "binary_threshold"),
    ])
    def test_bad_field_rejected(self, changes, field):
        with pytest.raises(InvalidNetworkError, match=field):
            replace(_random_network(["a", "b"]), **changes)

    def test_states_on_the_bounds_accepted(self):
        states = np.zeros((4, 2))
        states[0] = 1.0
        assert replace(_random_network(["a", "b"]), sensor_states=states).sensor_states is states
        binary = replace(_random_network(["a", "b"]), mode="binary", binary_threshold=np.zeros(N_FEATURES))
        assert binary.mode == "binary"
