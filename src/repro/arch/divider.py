"""Sequential restoring divider with a faulty cell in its subtractor core.

The divider iterates the classical restoring algorithm: the partial
remainder is shifted left one bit at a time and the divisor is
conditionally subtracted.  The subtraction runs through an internal
ripple-carry adder chain of ``width + 1`` cells (one guard bit), and a
single cell of that chain may be faulty -- so a hardware fault corrupts
*both* the quotient and the remainder in a correlated way, which is what
the paper's division checks (``op1' = ris * op2 + (op1 % op2)``) must
catch.

Only unsigned operands are supported (the paper's precision discussion
concerns the remainder correction, not signed semantics); division by
zero raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.arch.adders import ripple_add
from repro.arch.bitops import ArrayLike, as_u64, check_width, mask_of, unit_operands
from repro.arch.cell import FullAdderCell
from repro.errors import FaultError, SimulationError


@dataclass
class RestoringDividerUnit:
    """An n-bit restoring divider functional unit.

    Attributes:
        width: operand width in bits.
        faulty_cell: faulty full-adder behaviour used inside the
            subtractor chain, or None.
        fault_position: index of the faulty cell in the internal
            ``width + 1``-bit chain (0 = LSB).
    """

    width: int
    faulty_cell: Optional[FullAdderCell] = None
    fault_position: Optional[int] = None
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The guard-bit chain needs width + 1 <= 64 uint64 lanes, which
        # check_width's generic 62-bit unit limit already guarantees --
        # no separate divider bound exists (the seed's width + 1 > 62
        # guard wrongly rejected width 62).
        self.width = check_width(self.width)
        self.mask = mask_of(self.width)
        if (self.faulty_cell is None) != (self.fault_position is None):
            raise FaultError("faulty_cell and fault_position must be given together")
        if self.fault_position is not None and not (
            0 <= self.fault_position <= self.width
        ):
            raise FaultError(
                f"fault_position {self.fault_position} outside [0, {self.width}]"
            )

    # ------------------------------------------------------------------
    @property
    def is_faulty(self) -> bool:
        return self.faulty_cell is not None

    # ------------------------------------------------------------------
    def divmod(self, a: ArrayLike, b: ArrayLike) -> Tuple[ArrayLike, ArrayLike]:
        """Restoring division; returns ``(quotient, remainder)``.

        Two Python ints give Python ints; otherwise vectorised over
        broadcastable NumPy operands, returning ``uint64`` arrays.  Every
        divisor must be non-zero.
        """
        a, b = unit_operands(a, b, self.mask)
        zero_divisor = b == 0 if isinstance(b, int) else (b == 0).any()
        if zero_divisor:
            raise SimulationError("division by zero in RestoringDividerUnit")
        if self.faulty_cell is None:
            quotient, remainder = a // b, a % b
        else:
            chain = self.width + 1
            chain_mask = (1 << chain) - 1
            not_b = b ^ chain_mask  # a - b is a + ~b + 1 in the chain
            quotient = remainder = 0
            for k in range(self.width - 1, -1, -1):
                # The chain sees only its width + 1 low bits of the
                # shifted partial remainder; a fault can set higher ones.
                remainder = ((remainder << 1) | ((a >> k) & 1)) & chain_mask
                trial, not_borrow = ripple_add(
                    remainder, not_b, 1, chain, self.faulty_cell, self.fault_position
                )
                # Keep the difference unless it borrowed (restoring step).
                remainder = remainder ^ (not_borrow * (trial ^ remainder))
                quotient = quotient | (not_borrow << k)
            # A fault can leave the remainder wider than the unit.
            remainder = remainder & self.mask
        if isinstance(a, int):
            return quotient, remainder
        return as_u64(quotient), as_u64(remainder)

    def div(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Quotient only."""
        return self.divmod(a, b)[0]

    def mod(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Remainder only."""
        return self.divmod(a, b)[1]
