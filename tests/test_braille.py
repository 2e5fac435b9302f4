"""Symbol table and force-grid encoding tests."""

import numpy as np
import pytest

from tmsim.braille import (
    DOT_CELL_POSITIONS,
    BrailleGroup,
    UnknownSymbolError,
    _GROUP_SELECT_DOTS,
    _GROUP_SIZES,
    _encode,
    _table,
    build_dataset,
    label_to_group,
    symbol_to_forces,
    symbols,
)
from tmsim.config import load_config

F_PRESS = load_config(environ={}).f_press  # the configured press force, 20 lbf


class TestSymbolTable:
    def test_group_sizes(self):
        assert len(symbols(BrailleGroup.GROUP1)) == 27
        assert len(symbols(BrailleGroup.GROUP2)) == 26
        assert len(symbols(BrailleGroup.GROUP3)) == 46
        assert len(symbols(BrailleGroup.GROUP4)) == 26
        assert len(_table()) == 125
        assert sum(_GROUP_SIZES.values()) == 125

    def test_full_patterns_unique_across_fusion_set(self):
        patterns = {sym.dots for sym in _table()}
        assert len(patterns) == 125

    def test_labels_globally_unique(self):
        labels = [sym.label for sym in _table()]
        assert len(set(labels)) == 125

    def test_group_select_bits_consistent(self):
        for sym in _table():
            assert (sym.dots[6], sym.dots[7]) == _GROUP_SELECT_DOTS[sym.group]

    def test_base_patterns_unique_within_group(self):
        for group in BrailleGroup:
            base = {sym.dots[:6] for sym in symbols(group)}
            assert len(base) == len(symbols(group))


class TestEncode:
    def test_capital_a_is_dot_one_only(self):
        sym = _encode("A", BrailleGroup.GROUP1)
        assert sym.dots == (True, False, False, False, False, False, False, False)

    def test_small_a_adds_the_group_select_dot(self):
        sym = _encode("a", BrailleGroup.GROUP2)
        assert sym.dots == (True, False, False, False, False, False, False, True)

    def test_small_b_is_dots_one_two(self):
        sym = _encode("b", BrailleGroup.GROUP2)
        assert sym.dots == (True, True, False, False, False, False, False, True)

    def test_unknown_label_names_near_misses(self):
        with pytest.raises(UnknownSymbolError, match="nearest"):
            _encode("zz", BrailleGroup.GROUP2)

    def test_label_lookup_is_group_scoped(self):
        _encode("t", BrailleGroup.GROUP2)
        with pytest.raises(UnknownSymbolError):
            _encode("t", BrailleGroup.GROUP1)


class TestForceGrids:
    def test_capital_a_presses_only_the_top_left_cell(self):
        grid = symbol_to_forces(_encode("A", BrailleGroup.GROUP1), F_PRESS)
        expected = np.zeros((4, 2))
        expected[0, 0] = F_PRESS
        np.testing.assert_array_equal(grid, expected)

    def test_small_a_adds_the_bottom_right_select_cell(self):
        grid = symbol_to_forces(_encode("a", BrailleGroup.GROUP2), F_PRESS)
        expected = np.zeros((4, 2))
        expected[0, 0] = F_PRESS
        expected[3, 1] = F_PRESS  # D8 sits at row 4, column 2
        np.testing.assert_array_equal(grid, expected)

    def test_entries_binary_at_press_force(self):
        for sym in _table():
            grid = symbol_to_forces(sym, f_press=12.5)
            assert grid.shape == (4, 2)
            assert set(np.unique(grid)) <= {0.0, 12.5}

    def test_grid_thresholding_recovers_the_dot_pattern(self):
        f = F_PRESS
        for sym in _table():
            grid = symbol_to_forces(sym, f)
            recovered = tuple(bool(grid[r, c] > f / 2) for (r, c) in DOT_CELL_POSITIONS)
            assert recovered == sym.dots

    def test_press_force_validated(self):
        with pytest.raises(ValueError):
            symbol_to_forces(_encode("A", BrailleGroup.GROUP1), f_press=0.0)


class TestBuildDataset:
    def test_fusion_five_copies_is_625_items(self):
        assert len(build_dataset("fusion", copies=5, f_press=F_PRESS)) == 625

    def test_single_group_single_copy(self):
        items = build_dataset(BrailleGroup.GROUP1, copies=1, f_press=F_PRESS)
        assert len(items) == 27
        assert {label for _, label in items} == {s.label for s in symbols(BrailleGroup.GROUP1)}

    def test_every_symbol_appears_copies_times(self):
        items = build_dataset(["group2", "group4"], copies=3, seed=1, f_press=F_PRESS)
        counts: dict[str, int] = {}
        for _, label in items:
            counts[label] = counts.get(label, 0) + 1
        assert len(counts) == 52
        assert set(counts.values()) == {3}

    def test_same_seed_reproduces_the_dataset(self):
        a = build_dataset("fusion", copies=2, seed=42, f_press=F_PRESS)
        b = build_dataset("fusion", copies=2, seed=42, f_press=F_PRESS)
        assert [label for _, label in a] == [label for _, label in b]
        for (ga, _), (gb, _) in zip(a, b):
            np.testing.assert_array_equal(ga, gb)

    def test_different_seeds_shuffle_differently(self):
        a = [label for _, label in build_dataset("fusion", copies=2, seed=0, f_press=F_PRESS)]
        b = [label for _, label in build_dataset("fusion", copies=2, seed=1, f_press=F_PRESS)]
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError):
            build_dataset("fusion", copies=0, f_press=F_PRESS)
        with pytest.raises(ValueError):
            build_dataset([], f_press=F_PRESS)
        with pytest.raises(ValueError):
            build_dataset("group9", f_press=F_PRESS)


def test_label_to_group():
    assert label_to_group("A") is BrailleGroup.GROUP1
    assert label_to_group("a") is BrailleGroup.GROUP2
    assert label_to_group("people") is BrailleGroup.GROUP3
    assert label_to_group("9") is BrailleGroup.GROUP4
    with pytest.raises(UnknownSymbolError):
        label_to_group("missing")
