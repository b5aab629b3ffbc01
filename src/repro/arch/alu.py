"""A faultable ALU facade bundling the cell-level datapath units.

:class:`FaultableALU` is the integration point used by the SCK execution
backends (:mod:`repro.core.backends`) and the monoprocessor VM
(:mod:`repro.vm.machine`): it exposes integer operations at a fixed
width, optionally routing one operation class through a faulty unit.
This realises the paper's *single functional unit failure* model -- any
number of physical faults confined to one unit -- at the granularity the
specification-level operators see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.arch.adders import RippleCarryAdderUnit
from repro.arch.bitops import (
    ArrayLike,
    check_width,
    mask_of,
    to_signed,
    to_unsigned,
    wrap_signed,
)
from repro.arch.cell import FullAdderCell
from repro.arch.divider import RestoringDividerUnit
from repro.arch.multiplier import ArrayMultiplierUnit
from repro.errors import FaultError, SimulationError

#: Operation classes that map onto distinct functional units.
UNIT_CLASSES = ("adder", "multiplier", "divider")


@dataclass
class FaultableALU:
    """Fixed-width integer ALU with at most one faulty functional unit.

    The ALU owns one adder, one multiplier and one divider.  Injecting a
    fault replaces a single full-adder cell inside one of them.  All
    operations accept and return *signed* Python ints (or NumPy arrays),
    internally working on two's-complement bit patterns of ``width``
    bits, exactly like the fixed-width ``int`` arithmetic of the paper's
    software implementation.
    """

    width: int = 16
    cell_netlist: str = "xor3_majority"
    _adder: RippleCarryAdderUnit = field(init=False, repr=False)
    _multiplier: ArrayMultiplierUnit = field(init=False, repr=False)
    _divider: RestoringDividerUnit = field(init=False, repr=False)
    _fault_unit: Optional[str] = field(default=None, init=False)
    _mask: int = field(init=False, repr=False, compare=False)
    _half: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.width = check_width(self.width)
        self._mask = mask_of(self.width)
        self._half = 1 << (self.width - 1)
        self._adder = RippleCarryAdderUnit(self.width)
        self._multiplier = ArrayMultiplierUnit(self.width)
        self._divider = RestoringDividerUnit(self.width)

    # ------------------------------------------------------------------
    # Fault management
    # ------------------------------------------------------------------
    def inject_fault(
        self,
        unit: str,
        cell: FullAdderCell,
        position: int = 0,
        column: int = 0,
    ) -> None:
        """Make one functional unit faulty.

        Args:
            unit: one of ``"adder"``, ``"multiplier"``, ``"divider"``.
            cell: the faulty full-adder behaviour.
            position: cell index (adder/divider chain position, or
                multiplier row; multiplier rows start at 1).
            column: multiplier column (ignored for the other units).
        """
        if unit not in UNIT_CLASSES:
            raise FaultError(f"unknown unit {unit!r}; choose from {UNIT_CLASSES}")
        self.clear_fault()
        if unit == "adder":
            self._adder = RippleCarryAdderUnit(self.width, cell, position)
        elif unit == "multiplier":
            self._multiplier = ArrayMultiplierUnit(self.width, cell, position, column)
        else:
            self._divider = RestoringDividerUnit(self.width, cell, position)
        self._fault_unit = unit

    def clear_fault(self) -> None:
        """Restore all units to fault-free behaviour."""
        self._adder = RippleCarryAdderUnit(self.width)
        self._multiplier = ArrayMultiplierUnit(self.width)
        self._divider = RestoringDividerUnit(self.width)
        self._fault_unit = None

    @property
    def faulty_unit(self) -> Optional[str]:
        """Name of the currently faulty unit, or None."""
        return self._fault_unit

    # ------------------------------------------------------------------
    # Signed fixed-width operations: a Python int in gives a Python int
    # out without touching NumPy; arrays take the bitops array path.
    # ------------------------------------------------------------------
    def _u(self, value: ArrayLike) -> ArrayLike:
        if type(value) is int:
            return value & self._mask
        return to_unsigned(value, self.width)

    def _s(self, value: ArrayLike) -> ArrayLike:
        if type(value) is int:
            return wrap_signed(value, self._half)
        return to_signed(value, self.width)

    def add(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Signed fixed-width ``a + b`` through the (possibly faulty) adder."""
        result, _ = self._adder.add(self._u(a), self._u(b))
        return self._s(result)

    def sub(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Signed fixed-width ``a - b`` through the adder core."""
        result, _ = self._adder.sub(self._u(a), self._u(b))
        return self._s(result)

    def neg(self, a: ArrayLike) -> ArrayLike:
        """Signed fixed-width ``-a`` through the adder core."""
        return self._s(self._adder.neg(self._u(a)))

    def mul(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Signed fixed-width ``a * b`` (truncated, C semantics)."""
        return self._s(self._multiplier.mul(self._u(a), self._u(b)))

    def divmod(self, a: ArrayLike, b: ArrayLike):
        """Signed ``(a // b, a % b)`` with C truncation semantics.

        The magnitude division runs through the (possibly faulty)
        restoring divider; signs are applied outside the unit, as a
        hardware divider wrapper would.
        """
        a_s = self._s(a)
        b_s = self._s(b)
        if isinstance(a_s, np.ndarray) or isinstance(b_s, np.ndarray):
            a_arr = np.asarray(a_s, dtype=np.int64)
            b_arr = np.asarray(b_s, dtype=np.int64)
            if np.any(b_arr == 0):
                raise SimulationError("division by zero")
            q_mag, r_mag = self._divider.divmod(
                np.abs(a_arr).astype(np.uint64), np.abs(b_arr).astype(np.uint64)
            )
            q = q_mag.astype(np.int64)
            r = r_mag.astype(np.int64)
            sign_q = np.where((a_arr < 0) ^ (b_arr < 0), -1, 1)
            sign_r = np.where(a_arr < 0, -1, 1)
            return self._s(q * sign_q), self._s(r * sign_r)
        if b_s == 0:
            raise SimulationError("division by zero")
        q, r = self._divider.divmod(abs(a_s), abs(b_s))
        if (a_s < 0) != (b_s < 0):
            q = -q
        if a_s < 0:
            r = -r
        return self._s(q), self._s(r)

    def div(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Signed truncating division ``a / b``."""
        return self.divmod(a, b)[0]

    def mod(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Signed remainder with C semantics (sign of the dividend)."""
        return self.divmod(a, b)[1]

    # Logic operations never route through the faultable datapath units;
    # the paper's fault model targets arithmetic functional units, and
    # these are provided for completeness of the spec-level operators.
    def bit_and(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        return self._s(np.bitwise_and(self._u(a), self._u(b)) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else self._u(a) & self._u(b))

    def bit_or(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        return self._s(np.bitwise_or(self._u(a), self._u(b)) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else self._u(a) | self._u(b))

    def bit_xor(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        return self._s(np.bitwise_xor(self._u(a), self._u(b)) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else self._u(a) ^ self._u(b))
