"""Vectorised n-bit ripple-carry adder with an optional faulty cell.

The unit mirrors the paper's test architecture: a chain of full-adder
cells where at most one cell (``fault_position``) behaves according to a
faulty truth table.  Subtraction and negation are realised exactly as the
paper describes the ``g`` function: one's-complement the second operand
and assert the carry-in -- both flow through the *same* (possibly
faulty) adder chain, which is what makes error compensation possible.

:func:`ripple_add` evaluates such a chain in closed form; the
multiplier rows and the divider's subtractor chain reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.arch.bitops import ArrayLike, as_u64, check_width, mask_of, unit_operands
from repro.arch.cell import FullAdderCell
from repro.errors import FaultError, SimulationError


def ripple_add(
    a: ArrayLike,
    b: ArrayLike,
    cin: int,
    width: int,
    cell: Optional[FullAdderCell] = None,
    position: Optional[int] = None,
) -> Tuple[ArrayLike, ArrayLike]:
    """``(sum mod 2**width, carry_out)`` of a ``width``-cell ripple chain.

    The cell at ``position`` follows ``cell``'s truth table (every cell
    is fault-free when ``cell`` is None).  Only one cell can be faulty,
    so the chain is exact integer arithmetic around it: the fault-free
    cells below ``position`` add the low bits, whose sum carries into the
    faulty cell at bit ``position``; the fault-free cells above add the
    high bits plus the faulty cell's carry-out.  Operands are
    ``width``-bit Python ints or broadcastable ``uint64`` arrays; the
    same formulas serve both, only the LUT lookup depends on the type.
    """
    mask = (1 << width) - 1
    if cell is None:
        total = a + b + cin
        return total & mask, total >> width
    p = position
    low_mask = (1 << p) - 1
    low = (a & low_mask) + (b & low_mask) + cin
    idx = ((a >> p) & 1) | (((b >> p) & 1) << 1) | ((low >> p) << 2)
    s_lut, c_lut = (cell.sum_lut, cell.carry_lut) if isinstance(idx, int) else cell.luts()
    high = (a >> (p + 1)) + (b >> (p + 1)) + c_lut[idx]
    total = (low & low_mask) | (s_lut[idx] << p) | (high << (p + 1))
    return total & mask, high >> (width - 1 - p)


@dataclass
class RippleCarryAdderUnit:
    """An n-bit ripple-carry adder functional unit.

    Attributes:
        width: operand width in bits.
        faulty_cell: the behaviour of the faulty cell, or None.
        fault_position: index of the faulty cell in the chain (0 = LSB).
    """

    width: int
    faulty_cell: Optional[FullAdderCell] = None
    fault_position: Optional[int] = None
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.width = check_width(self.width)
        self.mask = mask_of(self.width)
        if (self.faulty_cell is None) != (self.fault_position is None):
            raise FaultError(
                "faulty_cell and fault_position must be given together"
            )
        if self.fault_position is not None and not (
            0 <= self.fault_position < self.width
        ):
            raise FaultError(
                f"fault_position {self.fault_position} outside [0, {self.width})"
            )

    # ------------------------------------------------------------------
    @property
    def is_faulty(self) -> bool:
        return self.faulty_cell is not None

    # ------------------------------------------------------------------
    def add(
        self, a: ArrayLike, b: ArrayLike, cin: int = 0
    ) -> Tuple[ArrayLike, ArrayLike]:
        """Ripple-carry addition; returns ``(sum mod 2**width, carry_out)``.

        Operands are unsigned ``width``-bit patterns (two's-complement
        values should be masked by the caller; see
        :mod:`repro.arch.bitops`).  Two Python ints give Python ints;
        otherwise operands may be NumPy arrays of any broadcastable
        shape and the results are ``uint64`` arrays.
        """
        if cin not in (0, 1):
            raise SimulationError(f"carry-in must be 0 or 1, got {cin!r}")
        a, b = unit_operands(a, b, self.mask)
        total, carry = ripple_add(
            a, b, int(cin), self.width, self.faulty_cell, self.fault_position
        )
        if isinstance(a, int):
            return total, carry
        return as_u64(total), as_u64(carry)

    def sub(self, a: ArrayLike, b: ArrayLike) -> Tuple[ArrayLike, ArrayLike]:
        """Two's-complement subtraction ``a - b`` through the adder core.

        Implements the paper's ``g`` function: the subtrahend is
        one's-complemented and the carry-in is asserted, so the faulty
        cell participates in the check operation exactly as in the
        nominal one.  Returns ``(difference mod 2**width, carry_out)``
        where the carry-out is the *not-borrow* flag.
        """
        a, b = unit_operands(a, b, self.mask)
        return self.add(a, b ^ self.mask, cin=1)

    def neg(self, a: ArrayLike) -> ArrayLike:
        """Two's-complement negation ``-a``, i.e. ``0 - a`` through the adder core."""
        return self.sub(0, a)[0]
