"""Vectorised array multiplier with a single faulty full-adder cell.

The unit models a ripple-row array multiplier truncated to the operand
width (C ``int`` semantics: ``n x n -> n`` bits, upper half discarded),
matching the paper's software-oriented integer model where ``a * b`` is
computed in fixed-width integers.  Row ``i`` adds the partial product
``(a & -bit_i(b)) << i`` into the running sum through a row of full-adder
cells; the faulty cell is identified by ``(row, column)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.arch.adders import ripple_add
from repro.arch.bitops import ArrayLike, as_u64, check_width, mask_of, unit_operands
from repro.arch.cell import FullAdderCell
from repro.errors import FaultError


@dataclass
class ArrayMultiplierUnit:
    """An n-bit truncated array multiplier functional unit.

    Attributes:
        width: operand width in bits.
        faulty_cell: faulty full-adder behaviour, or None.
        fault_row: row of the faulty cell, in ``[1, width)``.
        fault_col: column of the faulty cell, in ``[0, width - fault_row)``.
    """

    width: int
    faulty_cell: Optional[FullAdderCell] = None
    fault_row: Optional[int] = None
    fault_col: Optional[int] = None
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.width = check_width(self.width)
        self.mask = mask_of(self.width)
        have = (self.faulty_cell is not None, self.fault_row is not None, self.fault_col is not None)
        if any(have) and not all(have):
            raise FaultError("faulty_cell, fault_row and fault_col must be given together")
        if self.fault_row is not None:
            if not (1 <= self.fault_row < self.width):
                raise FaultError(
                    f"fault_row {self.fault_row} outside [1, {self.width})"
                )
            if not (0 <= self.fault_col < self.width - self.fault_row):
                raise FaultError(
                    f"fault_col {self.fault_col} outside [0, {self.width - self.fault_row})"
                )

    # ------------------------------------------------------------------
    @property
    def is_faulty(self) -> bool:
        return self.faulty_cell is not None

    @staticmethod
    def cell_positions(width: int) -> List[Tuple[int, int]]:
        """All (row, column) cell positions of the truncated array."""
        return [
            (row, col)
            for row in range(1, width)
            for col in range(width - row)
        ]

    # ------------------------------------------------------------------
    def mul(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Truncated product ``(a * b) mod 2**width``.

        Two Python ints give a Python int; otherwise vectorised over
        broadcastable NumPy operands, returning a ``uint64`` array.
        Every row but the faulty one is an exact modular add of its
        partial product, so only that row runs through :func:`ripple_add`.
        """
        a, b = unit_operands(a, b, self.mask)
        mask = self.mask
        if self.faulty_cell is None:
            product = (a * b) & mask
        else:
            r = self.fault_row
            low_rows = (1 << r) - 1
            # Rows 0 .. r-1: the exact product of b's low r bits.
            product = (a * (b & low_rows)) & mask
            # Row r: its n - r cells add the partial product into the
            # accumulator's top bits; the row's carry-out is truncated.
            row, _ = ripple_add(
                product >> r, (a * ((b >> r) & 1)) & (mask >> r), 0,
                self.width - r, self.faulty_cell, self.fault_col,
            )
            product = (product & low_rows) | (row << r)
            # Rows r+1 .. n-1: exact again.  Masking the term before the
            # add keeps it from wrapping (uint64 products wrap silently,
            # a wrapping add of 0-d results would warn).
            product = (product + ((a * ((b >> (r + 1)) << (r + 1))) & mask)) & mask
        return product if isinstance(a, int) else as_u64(product)
