"""Differential tests for the multiplier/divider Table 2 architectures.

The gate-level test architectures lower the truncated ripple-row
multiplier and the unrolled restoring divider (plus their fault-free
checking logic) to flat netlists; a cell-level fault at an array
position becomes a multi-site fault group over every replica /
iteration.  These tests sweep *every* collapsed faulty-cell class at
*every* fault site (n = 3 and 4) and assert the swept netlist outputs
are bit-identical to the functional LUT-splicing units
(:class:`~repro.arch.multiplier.ArrayMultiplierUnit`,
:class:`~repro.arch.divider.RestoringDividerUnit`), including the
detection flags and the zero-divisor-excluded universe size.
"""

import numpy as np
import pytest

from repro.arch.cell import collapsed_cell_library, faulty_cell_library
from repro.arch.divider import RestoringDividerUnit
from repro.arch.multiplier import ArrayMultiplierUnit
from repro.arch.testbench import (
    Table2DividerArchitecture,
    Table2MultiplierArchitecture,
    table2_architecture,
)
from repro.coverage.engine import (
    evaluate_divider,
    evaluate_multiplier,
    theoretical_situations,
)
from repro.errors import SimulationError
from repro.gates.backends import OverridePlan
from repro.gates.engine import engine_for, unpack_bits


def _stats_key(stats):
    return {
        name: (
            s.situations,
            s.covered,
            s.observable_errors,
            s.detected_while_correct,
            s.per_case_min,
            s.per_case_max,
        )
        for name, s in stats.items()
    }


def _sweep_outputs(arch, groups):
    """Unpacked output bits of the whole sweep for a batch of fault groups.

    Returns ``(n_outputs, len(groups) + 1, n_vectors)`` uint8 bits; the
    last fault row is the shared golden run.
    """
    engine = engine_for(arch.netlist)
    rows = arch.space.input_rows(0, arch.space.n_words)
    plan = OverridePlan(engine.compiled, groups)
    out = engine.backend.run_outputs(rows, plan, len(groups) + 1)
    return unpack_bits(out, arch.space.n_vectors)


def _word(bits, rows):
    """Assemble packed bit rows into uint64 values, LSB first."""
    return sum(
        bits[r].astype(np.uint64) << np.uint64(j) for j, r in enumerate(rows)
    )


def _operands(width):
    v = np.arange(1 << (2 * width), dtype=np.uint64)
    mask = np.uint64((1 << width) - 1)
    return v & mask, (v >> np.uint64(width)) & mask


class TestMultiplierArchitecture:
    @pytest.mark.parametrize("width", [3, 4])
    def test_every_class_every_site_matches_functional_unit(self, width):
        arch = table2_architecture("mul", width)
        a, b = _operands(width)
        mask = np.uint64((1 << width) - 1)
        neg_a = (np.uint64(0) - a) & mask
        neg_b = (np.uint64(0) - b) & mask
        cases = [
            (group, pos)
            for group in collapsed_cell_library()
            if not group.is_reference
            for pos in arch.positions
        ]
        groups = [
            arch.fault_group(g.representative.fault.fault, pos) for g, pos in cases
        ]
        bits = _sweep_outputs(arch, groups)
        res_rows = list(range(width))
        for row, (group, (frow, fcol)) in enumerate(cases):
            unit = ArrayMultiplierUnit(width, group.representative, frow, fcol)
            ris = unit.mul(a, b)
            got = _word(bits[:, row, :], res_rows)
            assert (got == ris).all(), (group.representative.fault, frow, fcol)
            det1 = ((ris + unit.mul(neg_a, b)) & mask) != 0
            det2 = ((ris + unit.mul(a, neg_b)) & mask) != 0
            assert (bits[arch.detect_rows["tech1"], row, :] == det1).all()
            assert (bits[arch.detect_rows["tech2"], row, :] == det2).all()

    def test_golden_row_is_fault_free_product(self):
        arch = table2_architecture("mul", 4)
        a, b = _operands(4)
        bits = _sweep_outputs(arch, [])
        got = _word(bits[:, 0, :], range(4))
        assert (got == (a * b) & np.uint64(15)).all()
        # The fault-free unit never fires a check.
        assert not bits[arch.detect_rows["tech1"], 0, :].any()
        assert not bits[arch.detect_rows["tech2"], 0, :].any()

    def test_positions_and_replicas(self):
        arch = Table2MultiplierArchitecture(4)
        assert list(arch.positions) == ArrayMultiplierUnit.cell_positions(4)
        assert len(arch.chains) == 3  # nominal + two checking products
        cell = faulty_cell_library()[0]
        group = arch.fault_group(cell.fault.fault, (1, 0))
        assert len(group) % len(arch.chains) == 0
        nets = set(arch.netlist.nets)
        assert all(f.site.net in nets for f in group)

    def test_fault_position_validated(self):
        arch = Table2MultiplierArchitecture(3)
        cell = faulty_cell_library()[0]
        with pytest.raises(SimulationError):
            arch.fault_group(cell.fault.fault, (0, 0))  # row 0 has no cells
        with pytest.raises(SimulationError):
            arch.fault_group(cell.fault.fault, (2, 2))  # outside the triangle

    def test_width_one_rejected(self):
        with pytest.raises(SimulationError):
            Table2MultiplierArchitecture(1)


class TestDividerArchitecture:
    @pytest.mark.parametrize("width", [3, 4])
    def test_every_class_every_site_matches_functional_unit(self, width):
        arch = table2_architecture("div", width)
        a, b = _operands(width)
        keep = b != 0
        mask = np.uint64((1 << width) - 1)
        cases = [
            (group, pos)
            for group in collapsed_cell_library()
            if not group.is_reference
            for pos in arch.positions
        ]
        groups = [
            arch.fault_group(g.representative.fault.fault, pos) for g, pos in cases
        ]
        bits = _sweep_outputs(arch, groups)
        q_rows = list(range(width))
        r_rows = list(range(width, 2 * width))
        for row, (group, pos) in enumerate(cases):
            unit = RestoringDividerUnit(width, group.representative, pos)
            q, r = unit.divmod(a[keep], b[keep])
            got_q = _word(bits[:, row, :], q_rows)[keep]
            got_r = _word(bits[:, row, :], r_rows)[keep]
            assert (got_q == q).all(), (group.representative.fault, pos)
            assert (got_r == r).all(), (group.representative.fault, pos)
            det1 = ((q * b[keep] + r) & mask) != a[keep]
            det2 = det1 | (r >= b[keep])
            assert (bits[arch.detect_rows["tech1"], row, :][keep] == det1).all()
            assert (bits[arch.detect_rows["tech2"], row, :][keep] == det2).all()

    def test_golden_row_is_true_divmod(self):
        arch = table2_architecture("div", 4)
        a, b = _operands(4)
        keep = b != 0
        bits = _sweep_outputs(arch, [])
        q = _word(bits[:, 0, :], range(4))[keep]
        r = _word(bits[:, 0, :], range(4, 8))[keep]
        assert (q == a[keep] // b[keep]).all()
        assert (r == a[keep] % b[keep]).all()
        assert not bits[arch.detect_rows["tech1"], 0, :][keep].any()
        assert not bits[arch.detect_rows["tech2"], 0, :][keep].any()

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_zero_divisor_excluded_universe(self, width):
        """The masked sweep spans exactly 2**n * (2**n - 1) situations."""
        space = Table2DividerArchitecture(width).space
        total = space.valid_count(0, space.n_words)
        assert total == (1 << width) * ((1 << width) - 1)
        # Partial word ranges partition the same universe.
        split = max(1, space.n_words // 2)
        assert total == space.valid_count(0, split) + space.valid_count(
            split, space.n_words
        )
        stats = evaluate_divider(width)
        assert stats["tech1"].situations == theoretical_situations("div", width)
        assert stats["tech1"].situations == 32 * (width + 1) * total

    def test_iteration_unrolling(self):
        """One chain replica per quotient bit, width + 1 cells each."""
        arch = Table2DividerArchitecture(3)
        assert len(arch.chains) == 3
        assert all(sorted(tags) == [0, 1, 2, 3] for tags in arch.chains)
        cell = faulty_cell_library()[0]
        group = arch.fault_group(cell.fault.fault, 3)
        assert len(group) % len(arch.chains) == 0

    def test_fault_position_validated(self):
        arch = Table2DividerArchitecture(2)
        cell = faulty_cell_library()[0]
        with pytest.raises(SimulationError):
            arch.fault_group(cell.fault.fault, 3)  # chain has positions 0..2


class TestEvaluatorParity:
    """The gate sweep and the functional LUT evaluators agree integer
    for integer on the full (masked) operand universe."""

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_multiplier_gate_matches_functional(self, width):
        gate = evaluate_multiplier(width, method="gate")
        functional = evaluate_multiplier(width, method="functional")
        assert _stats_key(gate) == _stats_key(functional)
        assert gate["tech1"].method == "gate"

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_divider_gate_matches_functional(self, width):
        gate = evaluate_divider(width, method="gate")
        functional = evaluate_divider(width, method="functional")
        assert _stats_key(gate) == _stats_key(functional)
        assert set(gate) == {"tech1", "tech2"}

    def test_default_method_is_gate(self):
        assert evaluate_multiplier(4)["tech1"].method == "gate"
        assert evaluate_divider(4)["tech1"].method == "gate"

    def test_two_xor_cell_style(self):
        gate = evaluate_multiplier(3, cell_netlist="two_xor", method="gate")
        functional = evaluate_multiplier(3, cell_netlist="two_xor", method="functional")
        assert _stats_key(gate) == _stats_key(functional)

