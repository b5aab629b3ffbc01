"""Tests for repro.arch: cells, adders, multiplier, divider, ALU."""

import numpy as np
import pytest

from repro.arch.adders import RippleCarryAdderUnit
from repro.arch.alu import FaultableALU
from repro.arch.bitops import mask_of, ones_complement, to_signed, to_unsigned
from repro.arch.cell import (
    NUM_FA_FAULTS,
    effective_faulty_cells,
    faulty_cell_library,
    reference_cell,
)
from repro.arch.divider import RestoringDividerUnit
from repro.arch.multiplier import ArrayMultiplierUnit
from repro.errors import FaultError, SimulationError


class TestBitops:
    def test_mask(self):
        assert mask_of(4) == 15

    def test_width_bounds(self):
        with pytest.raises(SimulationError):
            mask_of(0)
        with pytest.raises(SimulationError):
            mask_of(63)

    @pytest.mark.parametrize(
        "build",
        (RippleCarryAdderUnit, ArrayMultiplierUnit, RestoringDividerUnit, FaultableALU),
    )
    @pytest.mark.parametrize("width", (True, False))
    def test_boolean_width_rejected(self, build, width):
        # ``True == 1``: without the check it built a 1-bit unit.
        with pytest.raises(SimulationError, match="got bool"):
            build(width)

    @pytest.mark.parametrize("value,width,expected", [(7, 3, -1), (3, 3, 3), (-1, 4, -1)])
    def test_signed_roundtrip(self, value, width, expected):
        assert to_signed(to_unsigned(value, width), width) == expected

    def test_signed_array(self):
        arr = np.array([7, 3, 0], dtype=np.uint64)
        out = to_signed(arr, 3)
        assert list(out) == [-1, 3, 0]

    def test_ones_complement(self):
        assert ones_complement(0b1010, 4) == 0b0101


class TestCellLibrary:
    def test_reference_cell_truth(self):
        ref = reference_cell()
        for idx in range(8):
            a, b, c = idx & 1, (idx >> 1) & 1, (idx >> 2) & 1
            s, co = ref.evaluate(a, b, c)
            assert s == (a + b + c) & 1
            assert co == (a + b + c) >> 1

    def test_library_size(self):
        assert len(faulty_cell_library()) == NUM_FA_FAULTS
        assert len(faulty_cell_library("two_xor")) == NUM_FA_FAULTS

    def test_effective_cells_differ(self):
        ref = reference_cell()
        for cell in effective_faulty_cells():
            assert cell.differs_from(ref)

    def test_unknown_style_rejected(self):
        with pytest.raises(FaultError):
            faulty_cell_library("bogus")

    def test_library_cached_copies(self):
        first = faulty_cell_library()
        second = faulty_cell_library()
        assert first == second
        assert first is not second


class TestRippleCarryAdderUnit:
    def test_fault_free_exhaustive(self):
        unit = RippleCarryAdderUnit(4)
        a = np.arange(16, dtype=np.uint64).repeat(16)
        b = np.tile(np.arange(16, dtype=np.uint64), 16)
        total, carry = unit.add(a, b)
        assert (total == ((a + b) & np.uint64(15))).all()
        assert (carry == ((a + b) >> np.uint64(4))).all()

    def test_sub_identity(self):
        unit = RippleCarryAdderUnit(5)
        a = np.arange(32, dtype=np.uint64)
        b = np.uint64(13)
        total, _ = unit.add(a, b)
        diff, _ = unit.sub(total, b)
        assert (diff == a).all()

    def test_neg(self):
        unit = RippleCarryAdderUnit(4)
        values = np.arange(16, dtype=np.uint64)
        neg = unit.neg(values)
        assert (neg == ((-values) & np.uint64(15))).all()

    def test_faulty_cell_changes_behaviour(self):
        cells = effective_faulty_cells()
        changed = 0
        a = np.arange(16, dtype=np.uint64).repeat(16)
        b = np.tile(np.arange(16, dtype=np.uint64), 16)
        golden = (a + b) & np.uint64(15)
        for cell in cells[:8]:
            unit = RippleCarryAdderUnit(4, cell, 1)
            total, _ = unit.add(a, b)
            if (total != golden).any():
                changed += 1
        assert changed > 0

    def test_fault_position_validated(self):
        cell = faulty_cell_library()[0]
        with pytest.raises(FaultError):
            RippleCarryAdderUnit(4, cell, 4)
        with pytest.raises(FaultError):
            RippleCarryAdderUnit(4, cell, None)

    def test_operand_range_checked(self):
        unit = RippleCarryAdderUnit(3)
        with pytest.raises(SimulationError):
            unit.add(np.array([9], dtype=np.uint64), np.array([0], dtype=np.uint64))

    def test_bad_carry_in(self):
        unit = RippleCarryAdderUnit(3)
        with pytest.raises(SimulationError):
            unit.add(1, 1, cin=2)


class TestArrayMultiplierUnit:
    @pytest.mark.parametrize("width", [2, 3, 4, 6])
    def test_fault_free(self, width):
        unit = ArrayMultiplierUnit(width)
        mask = np.uint64((1 << width) - 1)
        a = np.arange(1 << width, dtype=np.uint64).repeat(1 << width)
        b = np.tile(np.arange(1 << width, dtype=np.uint64), 1 << width)
        assert (unit.mul(a, b) == ((a * b) & mask)).all()

    def test_cell_positions(self):
        positions = ArrayMultiplierUnit.cell_positions(4)
        assert len(positions) == 6  # 3 + 2 + 1
        assert (1, 0) in positions and (3, 0) in positions

    def test_faulty_cell_validated(self):
        cell = faulty_cell_library()[0]
        with pytest.raises(FaultError):
            ArrayMultiplierUnit(4, cell, 0, 0)  # row 0 invalid
        with pytest.raises(FaultError):
            ArrayMultiplierUnit(4, cell, 3, 1)  # col out of range

    def test_faulty_cell_changes_some_product(self):
        a = np.arange(16, dtype=np.uint64).repeat(16)
        b = np.tile(np.arange(16, dtype=np.uint64), 16)
        golden = (a * b) & np.uint64(15)
        seen_change = False
        for cell in effective_faulty_cells()[:16]:
            unit = ArrayMultiplierUnit(4, cell, 1, 0)
            if (unit.mul(a, b) != golden).any():
                seen_change = True
                break
        assert seen_change


class TestRestoringDividerUnit:
    @pytest.mark.parametrize("width", [3, 4, 5])
    def test_fault_free_exhaustive(self, width):
        unit = RestoringDividerUnit(width)
        size = 1 << width
        a = np.arange(size, dtype=np.uint64).repeat(size - 1)
        b = np.tile(np.arange(1, size, dtype=np.uint64), size)
        q, r = unit.divmod(a, b)
        assert (q == a // b).all()
        assert (r == a % b).all()

    def test_division_by_zero(self):
        unit = RestoringDividerUnit(4)
        with pytest.raises(SimulationError):
            unit.divmod(np.array([4], dtype=np.uint64), np.array([0], dtype=np.uint64))

    def test_faulty_cell_corrupts_consistently(self):
        cells = effective_faulty_cells()
        unit = RestoringDividerUnit(4, cells[0], 0)
        a = np.arange(16, dtype=np.uint64)
        b = np.full(16, 3, dtype=np.uint64)
        q, r = unit.divmod(a, b)
        assert q.shape == a.shape and r.shape == a.shape

    def test_width_boundary(self):
        """The 63-bit guard-bit chain of a width-62 divider fits uint64,
        so every width the generic unit limit allows is supported."""
        unit = RestoringDividerUnit(62)
        a = np.array([(1 << 62) - 1, 123456789012345678, 5], dtype=np.uint64)
        b = np.array([3, 987654321, 7], dtype=np.uint64)
        q, r = unit.divmod(a, b)
        assert (q == a // b).all() and (r == a % b).all()
        # A faulty cell at the top of the 63-cell chain is legal too.
        faulty = RestoringDividerUnit(62, effective_faulty_cells()[0], 62)
        fq, fr = faulty.divmod(a, b)
        assert fq.shape == a.shape and fr.shape == a.shape
        with pytest.raises(SimulationError):
            RestoringDividerUnit(63)  # the generic 62-bit unit limit


class TestFaultableALU:
    def test_signed_semantics(self):
        alu = FaultableALU(8)
        assert alu.add(100, 50) == to_signed(150, 8)
        assert alu.sub(-100, 50) == to_signed(-150, 8)
        assert alu.mul(-5, 3) == -15
        assert alu.neg(-128) == -128  # two's complement edge

    def test_c_division_semantics(self):
        alu = FaultableALU(16)
        assert alu.div(7, 2) == 3
        assert alu.div(-7, 2) == -3
        assert alu.mod(-7, 2) == -1
        assert alu.div(7, -2) == -3
        assert alu.mod(7, -2) == 1

    def test_divide_by_zero(self):
        alu = FaultableALU(8)
        with pytest.raises(SimulationError):
            alu.div(1, 0)

    def test_fault_injection_and_clear(self):
        alu = FaultableALU(8)
        cell = effective_faulty_cells()[0]
        alu.inject_fault("adder", cell, position=2)
        assert alu.faulty_unit == "adder"
        corrupted = any(alu.add(a, 13) != to_signed(a + 13, 8) for a in range(-40, 40))
        assert corrupted
        alu.clear_fault()
        assert alu.faulty_unit is None
        assert all(alu.add(a, 13) == to_signed(a + 13, 8) for a in range(-40, 40))

    def test_single_unit_failure_model(self):
        """Injecting into one unit leaves the others fault-free."""
        alu = FaultableALU(8)
        cell = effective_faulty_cells()[0]
        alu.inject_fault("multiplier", cell, position=1, column=0)
        assert all(alu.add(a, 9) == to_signed(a + 9, 8) for a in range(-30, 30))

    def test_unknown_unit_rejected(self):
        alu = FaultableALU(8)
        with pytest.raises(FaultError):
            alu.inject_fault("shifter", effective_faulty_cells()[0])

    def test_logic_ops(self):
        alu = FaultableALU(8)
        assert alu.bit_and(0b1100, 0b1010) == 0b1000
        assert alu.bit_or(0b1100, 0b1010) == 0b1110
        assert alu.bit_xor(0b1100, 0b1010) == 0b0110
