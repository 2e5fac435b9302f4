"""8-dot Braille symbol set and force-pattern encoding.

The symbol inventory lives in ``data/braille_symbols.txt`` (one line per
symbol: label, group, D1..D8 bits) so it can be audited against a standard
literary braille chart.  Dots D7 and D8 act as group-select bits, extending
the classic 6-dot cell to four disjoint symbol groups that together form
the 125-symbol fusion set.

A symbol is rendered for the sensor array as a 4x2 force grid: D1-D3 and
D7 run down the first column, D4-D6 and D8 down the second.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterable

import numpy as np

__all__ = [
    "BrailleGroup",
    "BrailleSymbol",
    "UnknownSymbolError",
    "GROUP_SIZES",
    "GROUP_SELECT_DOTS",
    "DOT_CELL_POSITIONS",
    "DEFAULT_PRESS_FORCE",
    "symbols",
    "all_symbols",
    "encode",
    "symbol_to_forces",
    "build_dataset",
    "label_to_group",
]

DEFAULT_PRESS_FORCE = 20.0  # lbf, nominal reading force of one raised dot

# Grid position (row, col) of each dot D1..D8 on the 4x2 sensor array.
DOT_CELL_POSITIONS = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (3, 0), (3, 1))


class BrailleGroup(str, Enum):
    GROUP1 = "group1"  # capital letters + capitalization sign
    GROUP2 = "group2"  # small letters
    GROUP3 = "group3"  # contracted (Grade 2) words and sounds
    GROUP4 = "group4"  # numbers, punctuation and symbols


GROUP_SIZES = {
    BrailleGroup.GROUP1: 27,
    BrailleGroup.GROUP2: 26,
    BrailleGroup.GROUP3: 46,
    BrailleGroup.GROUP4: 26,
}

# (D7, D8) values that tag each group.
GROUP_SELECT_DOTS = {
    BrailleGroup.GROUP1: (False, False),
    BrailleGroup.GROUP2: (False, True),
    BrailleGroup.GROUP3: (True, False),
    BrailleGroup.GROUP4: (True, True),
}


class UnknownSymbolError(LookupError):
    """Raised for labels missing from the requested group."""


@dataclass(frozen=True)
class BrailleSymbol:
    label: str
    group: BrailleGroup
    dots: tuple[bool, bool, bool, bool, bool, bool, bool, bool]

    def __post_init__(self) -> None:
        if len(self.dots) != 8:
            raise ValueError(f"expected 8 dots, got {len(self.dots)}")
        if (self.dots[6], self.dots[7]) != GROUP_SELECT_DOTS[self.group]:
            raise ValueError(f"{self.label}: group-select dots do not match {self.group.value}")


@lru_cache(maxsize=1)
def _table() -> tuple[BrailleSymbol, ...]:
    text = resources.files("tmsim").joinpath("data/braille_symbols.txt").read_text()
    loaded: list[BrailleSymbol] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"symbol table line {lineno}: expected 3 tab-separated fields")
        label, group_name, bits = parts
        if len(bits) != 8 or set(bits) - {"0", "1"}:
            raise ValueError(f"symbol table line {lineno}: bad dot bits {bits!r}")
        dots = tuple(b == "1" for b in bits)
        loaded.append(BrailleSymbol(label, BrailleGroup(group_name), dots))

    by_group: dict[BrailleGroup, list[BrailleSymbol]] = {g: [] for g in BrailleGroup}
    for sym in loaded:
        by_group[sym.group].append(sym)
    for group, expected in GROUP_SIZES.items():
        got = len(by_group[group])
        if got != expected:
            raise ValueError(f"{group.value}: expected {expected} symbols, found {got}")
        base_patterns = {sym.dots[:6] for sym in by_group[group]}
        if len(base_patterns) != expected:
            raise ValueError(f"{group.value}: D1-D6 patterns are not unique")
    if len({sym.label for sym in loaded}) != len(loaded):
        raise ValueError("symbol labels must be globally unique")
    if len({sym.dots for sym in loaded}) != len(loaded):
        raise ValueError("full 8-dot patterns must be unique across the fusion set")
    return tuple(loaded)


@lru_cache(maxsize=1)
def _by_label() -> dict[str, BrailleSymbol]:
    """Every symbol of the table under its (globally unique) label."""
    return {sym.label: sym for sym in _table()}


def symbols(group: BrailleGroup) -> tuple[BrailleSymbol, ...]:
    """All symbols of one group, in canonical (fixture) order."""
    return tuple(sym for sym in _table() if sym.group is group)


def all_symbols() -> tuple[BrailleSymbol, ...]:
    """The 125-symbol fusion set, groups concatenated in canonical order."""
    return _table()


def encode(label: str, group: BrailleGroup) -> BrailleSymbol:
    """Look up a symbol by label within a group.

    Raises:
        UnknownSymbolError: naming the nearest labels when no exact match
            exists.
    """
    sym = _by_label().get(label)
    if sym is not None and sym.group is group:
        return sym
    candidates = [sym.label for sym in _table() if sym.group is group]
    near = difflib.get_close_matches(label, candidates, n=3, cutoff=0.0)
    raise UnknownSymbolError(f"no symbol {label!r} in {group.value}; nearest: {', '.join(near)}")


def symbol_to_forces(symbol: BrailleSymbol, f_press: float = DEFAULT_PRESS_FORCE) -> np.ndarray:
    """4x2 force grid for a symbol: f_press on raised dots, 0 elsewhere."""
    if f_press <= 0.0:
        raise ValueError(f"f_press must be positive, got {f_press}")
    grid = np.zeros((4, 2))
    for dot, (row, col) in zip(symbol.dots, DOT_CELL_POSITIONS):
        if dot:
            grid[row, col] = f_press
    return grid


def _normalize_groups(groups: Iterable[BrailleGroup | str] | str) -> tuple[BrailleGroup, ...]:
    if isinstance(groups, str):
        groups = [groups]
    resolved: list[BrailleGroup] = []
    for g in groups:
        if isinstance(g, str) and g.lower() == "fusion":
            resolved.extend(BrailleGroup)
        else:
            resolved.append(BrailleGroup(g))
    if not resolved:
        raise ValueError("need at least one symbol group")
    # preserve canonical order, drop duplicates
    return tuple(g for g in BrailleGroup if g in resolved)


def build_dataset(
    groups: Iterable[BrailleGroup | str] | str,
    copies: int = 5,
    seed: int = 0,
    f_press: float = DEFAULT_PRESS_FORCE,
) -> list[tuple[np.ndarray, str]]:
    """Deterministic dataset of (force grid, label) pairs.

    Every selected symbol appears ``copies`` times; item order is shuffled
    by a generator seeded with ``seed``, so identical arguments reproduce
    the identical dataset.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    selected = _normalize_groups(groups)
    pool = [sym for g in selected for sym in symbols(g)]
    items = [(symbol_to_forces(sym, f_press), sym.label) for sym in pool for _ in range(copies)]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def label_to_group(label: str) -> BrailleGroup:
    """Group membership of a label (labels are globally unique)."""
    sym = _by_label().get(label)
    if sym is not None:
        return sym.group
    raise UnknownSymbolError(f"no symbol {label!r} in any group")
