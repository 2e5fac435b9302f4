"""Area/power accounting for the full stack under {analog, binary} x {serial, parallel}.

The counting logic is code; the per-unit costs are data.  A report covers
four circuit blocks:

* sensor crossbar (layer 1): 8 sensor patches; area only, its cell power
  is pooled with the other crossbars,
* weight crossbars (layers 2 and 3): differential pairs, two cells per
  dense weight,
* line amplifiers (per line in parallel processing, one shared multiplexed
  amplifier per layer in serial processing),
* per-output normalizer units: the softmax channel circuits in analog
  style, the data-converter/adder stack in binary style; one per output
  line in parallel processing, a single shared unit in serial processing.

Power is reported in two pools matching how such budgets are usually
quoted: all crossbar cells together, and amplifiers plus normalizers
together.  Amplifier and normalizer area is split per layer block, with
the normalizer circuitry counted inside the layers-2&3 amplifier block.

``default_table`` returns unit costs calibrated so that the default
6-14-125 architecture reproduces the reference design figures recorded in
``REFERENCE_BLOCK_FIGURES``; the analog amplifier/normalizer unit powers
(0.82 mW and 0.94 mW) reproduce both processing styles from the same
units, while the binary style needs per-processing units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .pipeline import N_FEATURES, N_HIDDEN, NetworkArch, SENSOR_COLS, SENSOR_ROWS

__all__ = [
    "REFERENCE_BLOCK_FIGURES",
    "CostTable",
    "BlockCounts",
    "CostReport",
    "CompareSummary",
    "default_table",
    "estimate",
    "compare",
    "reports_to_csv",
]

_STYLES = ("analog", "binary")
_PROCESSINGS = ("parallel", "serial")

N_SENSORS = SENSOR_ROWS * SENSOR_COLS

# Block totals of the reference 6-14-125 system that the default tables are
# calibrated against, keyed (style, processing).  Units: m^2 and W.
REFERENCE_BLOCK_FIGURES = {
    ("analog", "parallel"): {
        "area_crossbar_l1": 0.02,
        "area_crossbar_l23": 39.5e-6,
        "area_amps_l1": 3.38e-6,
        "area_amps_l23": 438.45e-6,
        "power_crossbars": 262e-6,
        "power_amps": 236.4e-3,
    },
    ("analog", "serial"): {
        "area_crossbar_l1": 0.02,
        "area_crossbar_l23": 39.5e-6,
        "area_amps_l1": 0.906e-6,
        "area_amps_l23": 90e-6,
        "power_crossbars": 262e-6,
        "power_amps": 3.4e-3,
    },
    ("binary", "parallel"): {
        "area_crossbar_l1": 0.02,
        "area_crossbar_l23": 562.3e-6,
        "area_amps_l1": 6.77e-6,
        "area_amps_l23": 2932e-6,
        "power_crossbars": 3.6e-3,
        "power_amps": 1.9,
    },
    ("binary", "serial"): {
        "area_crossbar_l1": 0.02,
        "area_crossbar_l23": 562.3e-6,
        "area_amps_l1": 1.47e-6,
        "area_amps_l23": 154e-6,
        "power_crossbars": 3.6e-3,
        "power_amps": 0.1,
    },
}


@dataclass(frozen=True)
class CostTable:
    """Per-instance unit costs.

    One table describes one (style, processing) combination: the amplifier
    entries of a serial table already include the multiplexing overhead,
    and a binary table's normalizer entries stand for the converter/adder
    stack rather than a softmax channel.
    """

    sensor_area: float  # one sensor patch, m^2
    cell_area: float  # one layers-2&3 crossbar cell, m^2
    cell_power: float  # one crossbar cell, any layer, W
    amp_area_l1: float  # one layer-1 line amplifier, m^2
    amp_area_l23: float  # one layers-2&3 line amplifier, m^2
    amp_power: float  # one line amplifier, W
    division_area: float  # one per-output normalizer unit, m^2
    division_power: float  # one per-output normalizer unit, W

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0.0:
                raise ValueError(f"unit cost {name} must be non-negative, got {value}")


@dataclass(frozen=True)
class BlockCounts:
    sensors: int
    cells_l23: int
    cells_total: int
    amps_l1: int
    amps_l23: int
    divisions: int


@dataclass(frozen=True)
class CostReport:
    style: str
    processing: str
    arch_dims: tuple[int, int, int]  # (inputs, hidden, outputs)
    counts: BlockCounts
    area_crossbar_l1: float
    area_crossbar_l23: float
    area_amps_l1: float
    area_amps_l23: float
    power_crossbars: float
    power_amps: float

    @property
    def total_area(self) -> float:
        return self.area_crossbar_l1 + self.area_crossbar_l23 + self.area_amps_l1 + self.area_amps_l23

    @property
    def total_power(self) -> float:
        return self.power_crossbars + self.power_amps

    def block_figures(self) -> dict[str, float]:
        return {
            "area_crossbar_l1": self.area_crossbar_l1,
            "area_crossbar_l23": self.area_crossbar_l23,
            "area_amps_l1": self.area_amps_l1,
            "area_amps_l23": self.area_amps_l23,
            "power_crossbars": self.power_crossbars,
            "power_amps": self.power_amps,
        }


def _check_combination(style: str, processing: str) -> None:
    if style not in _STYLES:
        raise ValueError(f"style must be one of {_STYLES}, got {style!r}")
    if processing not in _PROCESSINGS:
        raise ValueError(f"processing must be one of {_PROCESSINGS}, got {processing!r}")


def _block_counts(arch: NetworkArch, processing: str) -> BlockCounts:
    """Instance counts per circuit block, for a checked ``processing``.

    Two crossbar cells realize one dense weight (differential pair).  In
    parallel processing every output line owns an amplifier and every
    network output owns a normalizer unit; serial processing multiplexes
    each layer onto one amplifier and shares a single normalizer.
    """
    cells_l23 = 2 * (N_FEATURES * N_HIDDEN + N_HIDDEN * arch.n_out)
    if processing == "parallel":
        amps_l1 = N_FEATURES
        amps_l23 = N_HIDDEN + arch.n_out
        divisions = arch.n_out
    else:
        amps_l1 = 1
        amps_l23 = 2  # one shared amplifier per weight layer
        divisions = 1
    return BlockCounts(
        sensors=N_SENSORS,
        cells_l23=cells_l23,
        cells_total=N_SENSORS + cells_l23,
        amps_l1=amps_l1,
        amps_l23=amps_l23,
        divisions=divisions,
    )


def _reference_counts(processing: str) -> BlockCounts:
    arch = NetworkArch(labels=tuple(f"out{i}" for i in range(125)))
    return _block_counts(arch, processing)


def default_table(style: str, processing: str) -> CostTable:
    """Unit costs calibrated against ``REFERENCE_BLOCK_FIGURES``.

    Every unit is reference block figure divided by reference instance
    count, except the amplifier/normalizer power split: the analog figures
    decompose exactly into 0.82 mW per amplifier and 0.94 mW per softmax
    channel across both processing styles (145a + 125d and 3a + d both
    land on the reference totals); the binary figures admit no shared
    split, so each processing keeps its own calibrated pair.
    """
    _check_combination(style, processing)
    figures = REFERENCE_BLOCK_FIGURES[(style, processing)]
    counts = _reference_counts(processing)

    amp_area_l1 = figures["area_amps_l1"] / counts.amps_l1
    # the layers-2&3 amplifier block houses the normalizer circuitry; its
    # line amplifiers are costed like layer-1 ones and the remainder is
    # attributed to the normalizers
    division_area = (figures["area_amps_l23"] - counts.amps_l23 * amp_area_l1) / counts.divisions
    if style == "analog":
        amp_power, division_power = 0.82e-3, 0.94e-3
    elif processing == "parallel":
        amp_power, division_power = 6.0e-3, 8.24e-3
    else:
        amp_power, division_power = 20.0e-3, 40.0e-3
    return CostTable(
        sensor_area=figures["area_crossbar_l1"] / counts.sensors,
        cell_area=figures["area_crossbar_l23"] / counts.cells_l23,
        cell_power=figures["power_crossbars"] / counts.cells_total,
        amp_area_l1=amp_area_l1,
        amp_area_l23=amp_area_l1,
        amp_power=amp_power,
        division_area=division_area,
        division_power=division_power,
    )


def estimate(arch: NetworkArch, table: CostTable, style: str, processing: str) -> CostReport:
    """Counts times unit costs for one (style, processing) combination."""
    _check_combination(style, processing)
    counts = _block_counts(arch, processing)
    return CostReport(
        style=style,
        processing=processing,
        arch_dims=(N_FEATURES, N_HIDDEN, arch.n_out),
        counts=counts,
        area_crossbar_l1=counts.sensors * table.sensor_area,
        area_crossbar_l23=counts.cells_l23 * table.cell_area,
        area_amps_l1=counts.amps_l1 * table.amp_area_l1,
        area_amps_l23=counts.amps_l23 * table.amp_area_l23 + counts.divisions * table.division_area,
        power_crossbars=counts.cells_total * table.cell_power,
        power_amps=(counts.amps_l1 + counts.amps_l23) * table.amp_power + counts.divisions * table.division_power,
    )


@dataclass(frozen=True)
class CompareSummary:
    orderings: tuple[tuple[str, bool], ...]  # (description, holds)


def compare(a: CostReport, b: CostReport) -> CompareSummary:
    """Checks of the expected power orderings between two reports of one architecture."""
    if a.arch_dims != b.arch_dims:
        raise ValueError(f"reports cover different architectures: {a.arch_dims} vs {b.arch_dims}")
    orderings: list[tuple[str, bool]] = []
    by_proc = {r.processing: r for r in (a, b)}
    by_style = {r.style: r for r in (a, b)}
    if a.style == b.style and len(by_proc) == 2:
        orderings.append(
            ("serial total power < parallel total power",
             by_proc["serial"].total_power < by_proc["parallel"].total_power)
        )
    if a.processing == b.processing and len(by_style) == 2:
        orderings.append(
            ("analog total power < binary total power",
             by_style["analog"].total_power < by_style["binary"].total_power)
        )
    return CompareSummary(orderings=tuple(orderings))


_CSV_BLOCK_ROWS = (
    # (row label, area field, power pool printed on this row or None)
    ("crossbar_layer1", "area_crossbar_l1", "power_crossbars"),
    ("crossbar_layers23", "area_crossbar_l23", None),
    ("amplifiers_layer1", "area_amps_l1", "power_amps"),
    ("amplifiers_layers23", "area_amps_l23", None),
)


def reports_to_csv(reports: Sequence[CostReport]) -> str:
    """Block-by-block CSV, one area and one power column per report.

    Power figures are pooled (crossbars together, amplifiers plus
    normalizers together); each pool is printed on its first row and the
    second row of the pair is left empty, mirroring the merged cells of
    the usual presentation.
    """
    if not reports:
        raise ValueError("need at least one report")
    header = ["block"]
    for r in reports:
        header.append(f"{r.style}_{r.processing}_area_m2")
        header.append(f"{r.style}_{r.processing}_power_w")
    lines = [",".join(header)]
    for label, area_field, power_field in _CSV_BLOCK_ROWS:
        row = [label]
        for r in reports:
            figures = r.block_figures()
            row.append(f"{figures[area_field]:.9g}")
            row.append("" if power_field is None else f"{figures[power_field]:.9g}")
        lines.append(",".join(row))
    totals = ["total"]
    for r in reports:
        totals.append(f"{r.total_area:.9g}")
        totals.append(f"{r.total_power:.9g}")
    lines.append(",".join(totals))
    return "\n".join(lines) + "\n"
