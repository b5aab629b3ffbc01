"""Situation-count formulas for coverage experiments.

The paper sizes the adder experiment as::

    No. of faulty situations = num_faults_1bit * n * 2**(2n)

with ``num_faults_1bit = 32`` -- every faulty cell behaviour, at every
chain position, for every operand pair.  The paper prints this count for
n = 1, 2, 3 (128, 1024, 6144) and 7808 for n = 4, whose percentages fit
the formula's 32768; the exact evaluators report the formula's counts.
``docs/architecture.md``, "Deviations from the paper", lists every known
deviation from the paper.  This module implements the formula itself,
plus the analogous counts for the other units.
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
