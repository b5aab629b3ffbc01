"""Situation-count formulas for coverage experiments.

The paper sizes the adder experiment as::

    No. of faulty situations = num_faults_1bit * n * 2**(2n)

with ``num_faults_1bit = 32`` -- every faulty cell behaviour, at every
chain position, for every operand pair.  The formula matches the printed
Table 2 rows for n = 1, 2, 3 (128, 1024, 6144); the paper's n = 4 row
(7808) and n >= 8 rows deviate from its own formula (evidently sampled or
pruned), so the exact evaluators report the formula's counts instead.
This module implements the formula itself, plus the analogous counts
for the other units.
"""

from __future__ import annotations

import numbers

from repro.arch.cell import NUM_FA_FAULTS
from repro.errors import FaultError


def _check_width(width: int) -> int:
    if isinstance(width, bool) or not isinstance(width, numbers.Integral) or width < 1:
        raise FaultError(
            f"width= must be a positive integer, got {type(width).__name__} {width!r}"
        )
    return int(width)


def adder_situations(width: int) -> int:
    """``32 * n * 2**(2n)`` faulty situations of the n-bit adder."""
    n = _check_width(width)
    return NUM_FA_FAULTS * n * (1 << (2 * n))


def subtractor_situations(width: int) -> int:
    """Same universe as the adder (the subtractor reuses its chain)."""
    return adder_situations(width)


def multiplier_situations(width: int) -> int:
    """``32 * n(n-1)/2 * 2**(2n)`` situations of the truncated array."""
    n = _check_width(width)
    cells = n * (n - 1) // 2
    return NUM_FA_FAULTS * cells * (1 << (2 * n))


def divider_situations(width: int) -> int:
    """``32 * (n+1) * (2**n * (2**n - 1))`` situations (divisor != 0)."""
    n = _check_width(width)
    return NUM_FA_FAULTS * (n + 1) * ((1 << n) * ((1 << n) - 1))
