"""Tests for repro.coverage: situations, engine, report.

The structural assertions pin the reproduction to the paper:
situation-count formulas, monotone coverage growth, technique ordering,
100 % coverage with a fault-free check unit.
"""

import numpy as np
import pytest

from repro.coverage.engine import (
    evaluate_adder,
    evaluate_divider,
    evaluate_gate_level,
    evaluate_multiplier,
    evaluate_operator,
    evaluate_subtractor,
    theoretical_situations,
)
from repro.coverage.report import (
    PAPER_TABLE2,
    render_table1,
    render_table2,
    render_two_bit_analysis,
)
from repro.coverage.situations import (
    adder_situations,
    divider_situations,
    multiplier_situations,
)
from repro.coverage.techniques import TECHNIQUES, techniques_for
from repro.errors import FaultError, SimulationError
from repro.gates.builders import full_adder


class TestSituationCounts:
    def test_paper_formula_rows(self):
        """Table 2's printed counts for n = 1..3 match the formula."""
        assert adder_situations(1) == 128
        assert adder_situations(2) == 1024
        assert adder_situations(3) == 6144

    def test_formula_general(self):
        assert adder_situations(8) == 32 * 8 * (1 << 16)

    def test_multiplier_counts(self):
        assert multiplier_situations(4) == 32 * 6 * 256

    def test_divider_counts(self):
        assert divider_situations(2) == 32 * 3 * (4 * 3)

    def test_invalid_width(self):
        for width in (0, True, "x", 2.0, None):
            for count in (adder_situations, multiplier_situations, divider_situations):
                with pytest.raises(FaultError, match="width="):
                    count(width)


class TestTechniqueRegistry:
    def test_all_operators_covered(self):
        for operator in ("add", "sub", "mul"):
            names = [t.name for t in techniques_for(operator)]
            assert names == ["tech1", "tech2", "both"]

    def test_div_has_no_both(self):
        names = [t.name for t in techniques_for("div")]
        assert names == ["tech1", "tech2"]

    def test_paper_coverages_recorded(self):
        assert TECHNIQUES[("add", "tech1")].paper_coverage == 97.25
        assert TECHNIQUES[("sub", "both")].paper_coverage == 99.58

    def test_unknown_operator(self):
        with pytest.raises(FaultError):
            techniques_for("xor")


@pytest.fixture(scope="module")
def adder_stats():
    return {n: evaluate_adder(n) for n in (1, 2, 3)}


class TestAdderCoverage:
    def test_exhaustive_counts(self, adder_stats):
        for n, stats in adder_stats.items():
            assert stats["tech1"].situations == adder_situations(n)

    def test_monotone_in_width(self, adder_stats):
        """Paper Table 2: coverage grows with operand width."""
        for technique in ("tech1", "tech2", "both"):
            values = [adder_stats[n][technique].coverage for n in (1, 2, 3)]
            assert values == sorted(values)

    def test_technique_ordering(self, adder_stats):
        """Paper Table 2: tech2 >= tech1, both >= each."""
        for n in (1, 2, 3):
            s = adder_stats[n]
            assert s["tech2"].coverage >= s["tech1"].coverage
            assert s["both"].coverage >= s["tech2"].coverage

    def test_band_close_to_paper(self, adder_stats):
        """Within 3.5 points of the paper's percentages (shape match)."""
        for n in (1, 2, 3):
            paper = PAPER_TABLE2[n]
            ours = [
                adder_stats[n][t].coverage_percent
                for t in ("tech1", "tech2", "both")
            ]
            for measured, published in zip(ours, paper):
                assert abs(measured - published) < 3.5

    def test_detect_while_correct_positive(self, adder_stats):
        """The early-detection property the paper highlights."""
        s = adder_stats[2]
        assert s["tech1"].detected_while_correct > 0
        assert s["both"].detected_while_correct > s["tech1"].detected_while_correct

    def test_per_case_range_includes_perfect(self, adder_stats):
        both = adder_stats[2]["both"]
        assert both.per_case_max == 1.0
        assert both.per_case_min < 1.0


class TestOtherOperators:
    def test_subtractor(self):
        stats = evaluate_subtractor(3)
        assert stats["both"].coverage >= stats["tech1"].coverage
        assert stats["tech1"].coverage > 0.9

    def test_multiplier(self):
        stats = evaluate_multiplier(3)
        # Tiny 3-bit arrays leave more compensation room; Table 1's
        # published figures are for wider operands.
        assert stats["tech1"].coverage > 0.8
        assert stats["both"].coverage >= stats["tech2"].coverage

    def test_divider(self):
        stats = evaluate_divider(3)
        assert set(stats) == {"tech1", "tech2"}
        assert stats["tech2"].coverage >= stats["tech1"].coverage

    def test_dispatch(self):
        stats = evaluate_operator("add", 2)
        assert stats["tech1"].operator == "add"
        with pytest.raises(SimulationError):
            evaluate_operator("pow", 2)

    def test_theoretical_dispatch(self):
        assert theoretical_situations("add", 2) == 1024
        assert theoretical_situations("sub", 2) == 1024
        with pytest.raises(SimulationError):
            theoretical_situations("pow", 2)


class TestReports:
    def test_table2_renders(self, adder_stats):
        text = render_table2(widths=(1, 2, 3), results=adder_stats)
        assert "Table 2" in text
        assert "128" in text and "1024" in text and "6144" in text

    def test_two_bit_analysis(self, adder_stats):
        text = render_two_bit_analysis(stats=adder_stats[2])
        assert "1024" in text
        assert "paper: 216" in text

    def test_gate_level_describe_names_supplied_vectors(self):
        # Caller-supplied vectors are not a sample of anything.
        vectors = {
            name: np.array([0, 1], dtype=np.uint8) for name in ("a", "b", "cin")
        }
        stats, _ = evaluate_gate_level(full_adder(), vectors=vectors, store=False)
        assert stats.describe().startswith("fa gate-level (supplied): 23/32 ")
        exhaustive, _ = evaluate_gate_level(full_adder(), store=False)
        assert exhaustive.describe().startswith("fa gate-level (exhaustive): 32/32 ")

    def test_table1_renders_from_precomputed(self):
        results = {"add": evaluate_adder(2)}
        text = render_table1(width=2, operators=("add",), results=results)
        assert "add" in text and "tech1" in text and "97.25" in text
