"""Cost model tests: block counts, calibrated default tables, report math
and the CSV rendering against a golden file."""

from dataclasses import replace
from pathlib import Path

import pytest

from tmsim.cost_model import (
    REFERENCE_BLOCK_FIGURES,
    CostTable,
    _PROCESSINGS,
    _STYLES,
    _block_counts,
    compare,
    default_table,
    estimate,
    reports_to_csv,
)
from tmsim.pipeline import NetworkArch

GOLDEN_CSV = Path(__file__).parent / "data" / "cost_golden.csv"

REFERENCE_ARCH = NetworkArch(labels=tuple(f"sym{i}" for i in range(125)))

ALL_COMBOS = [(s, p) for s in _STYLES for p in _PROCESSINGS]


def _reference_report(style, processing):
    return estimate(REFERENCE_ARCH, default_table(style, processing), style, processing)


class TestBlockCounts:
    def test_reference_architecture_counts(self):
        counts = _block_counts(REFERENCE_ARCH.n_out, "parallel")
        assert counts.sensors == 8
        assert counts.cells_l23 == 2 * (6 * 14 + 14 * 125) == 3668
        assert counts.cells_total == 3676
        assert (counts.amps_l1, counts.amps_l23, counts.divisions) == (6, 139, 125)

    def test_serial_processing_multiplexes(self):
        counts = _block_counts(REFERENCE_ARCH.n_out, "serial")
        assert (counts.amps_l1, counts.amps_l23, counts.divisions) == (1, 2, 1)
        # crossbar hardware is unchanged by the processing style
        assert counts.cells_total == _block_counts(REFERENCE_ARCH.n_out, "parallel").cells_total

    def test_counts_scale_with_architecture(self):
        small = NetworkArch(labels=("x", "y"))
        counts = _block_counts(small.n_out, "parallel")
        assert counts.cells_l23 == 2 * (6 * 14 + 14 * 2)
        assert counts.divisions == 2

    def test_bad_processing_rejected(self):
        # the counts run unchecked; estimate checks the processing at its entry
        table = default_table("analog", "parallel")
        with pytest.raises(ValueError, match=r"^processing must be one of \('parallel', 'serial'\), got 'batch'$"):
            estimate(REFERENCE_ARCH, table, "analog", "batch")


class TestDefaultTables:
    @pytest.mark.parametrize("style,processing", ALL_COMBOS)
    def test_reproduces_reference_block_figures(self, style, processing):
        report = _reference_report(style, processing)
        for block, expected in REFERENCE_BLOCK_FIGURES[(style, processing)].items():
            assert report.block_figures()[block] == pytest.approx(expected, rel=1e-12), block

    @pytest.mark.parametrize("style,processing", ALL_COMBOS)
    def test_reference_figures_print_back_exactly(self, style, processing):
        """%.9g formatting must round-trip every calibrated block figure."""
        report = _reference_report(style, processing)
        for block, expected in REFERENCE_BLOCK_FIGURES[(style, processing)].items():
            assert float(f"{report.block_figures()[block]:.9g}") == expected, block

    def test_analog_power_split_is_shared_across_processings(self):
        par = default_table("analog", "parallel")
        ser = default_table("analog", "serial")
        assert par.amp_power == ser.amp_power == 0.82e-3
        assert par.division_power == ser.division_power == 0.94e-3

    def test_bad_style_rejected(self):
        with pytest.raises(ValueError, match="style"):
            default_table("digital", "parallel")
        with pytest.raises(ValueError, match="processing"):
            default_table("analog", "pipelined")


class TestEstimate:
    def test_zero_table_gives_zero_report(self):
        zero = CostTable(**{f: 0.0 for f in CostTable.__dataclass_fields__})
        report = estimate(REFERENCE_ARCH, zero, "analog", "parallel")
        assert report.total_area == 0.0
        assert report.total_power == 0.0

    def test_doubling_unit_costs_doubles_every_figure(self):
        table = default_table("analog", "parallel")
        doubled = CostTable(**{f: 2 * getattr(table, f) for f in CostTable.__dataclass_fields__})
        one = estimate(REFERENCE_ARCH, table, "analog", "parallel")
        two = estimate(REFERENCE_ARCH, doubled, "analog", "parallel")
        for block, figure in one.block_figures().items():
            assert two.block_figures()[block] == pytest.approx(2 * figure, rel=1e-12)

    @pytest.mark.parametrize("style,processing", ALL_COMBOS)
    def test_figures_are_keyed_as_the_reference(self, style, processing):
        assert list(_reference_report(style, processing).figures) == list(REFERENCE_BLOCK_FIGURES[(style, processing)])

    def test_block_figures_is_a_copy(self):
        report = _reference_report("analog", "parallel")
        before = dict(report.figures)
        copy = report.block_figures()
        copy["area_crossbar_l1"] = -1.0
        del copy["power_amps"]
        assert dict(report.figures) == report.block_figures() == before
        with pytest.raises(TypeError):
            report.figures["area_crossbar_l1"] = -1.0

    def test_negative_unit_cost_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            replace(default_table("analog", "parallel"), cell_area=-1e-9)

    def test_bad_style_rejected(self):
        with pytest.raises(ValueError, match="style"):
            estimate(REFERENCE_ARCH, default_table("analog", "parallel"), "quantum", "parallel")


class TestCompare:
    def test_self_comparison_is_all_zero_with_no_orderings(self):
        report = _reference_report("analog", "parallel")
        assert compare(report, report).orderings == ()

    def test_serial_beats_parallel_on_power_for_analog(self):
        summary = compare(
            _reference_report("analog", "parallel"), _reference_report("analog", "serial")
        )
        assert summary.orderings == (("serial total power < parallel total power", True),)

    def test_analog_beats_binary_on_power_in_parallel(self):
        summary = compare(
            _reference_report("analog", "parallel"), _reference_report("binary", "parallel")
        )
        assert summary.orderings == (("analog total power < binary total power", True),)

    def test_architecture_mismatch_rejected(self):
        other = NetworkArch(labels=("x", "y"))
        a = _reference_report("analog", "parallel")
        b = estimate(other, default_table("analog", "parallel"), "analog", "parallel")
        with pytest.raises(ValueError, match="architectures"):
            compare(a, b)


class TestCsv:
    def test_matches_golden_file(self):
        reports = [_reference_report(s, p) for s, p in ALL_COMBOS]
        assert reports_to_csv(reports) == GOLDEN_CSV.read_text()

    def test_single_report_layout(self):
        text = reports_to_csv([_reference_report("analog", "serial")])
        lines = text.strip().split("\n")
        assert lines[0] == "block,analog_serial_area_m2,analog_serial_power_w"
        assert len(lines) == 6  # header + four block rows + totals
        # pooled power prints on the first row of each pair only
        assert lines[2].endswith(",") and lines[4].endswith(",")
        assert lines[-1].startswith("total,")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            reports_to_csv([])
