"""Cell-level faulty datapath units.

This package implements the paper's test architecture (Section 4.1): the
arithmetic units are composed of full-adder cells; fault injection
replaces exactly one cell's behaviour with a faulty truth table derived
from gate-level stuck-at simulation of the cell netlist
(:mod:`repro.gates`).  The units evaluate their chains in closed form
around the one faulty cell (:func:`~repro.arch.adders.ripple_add`), on
Python ints for the VM's scalar calls and vectorised over NumPy arrays
for exhaustive coverage campaigns.

Public API:

* :class:`~repro.arch.cell.FullAdderCell` and
  :func:`~repro.arch.cell.faulty_cell_library` -- the 32-fault universe;
* :class:`~repro.arch.adders.RippleCarryAdderUnit` -- n-bit adder with an
  optional faulty cell, plus subtract/negate helpers built on it;
* :class:`~repro.arch.multiplier.ArrayMultiplierUnit` -- truncated array
  multiplier (C ``int`` semantics: n x n -> n bits);
* :class:`~repro.arch.divider.RestoringDividerUnit` -- sequential
  restoring divider reusing a (possibly faulty) adder core;
* :mod:`~repro.arch.bitops` -- two's-complement helpers.
"""

from repro.arch.bitops import mask_of, to_signed, to_unsigned
from repro.arch.cell import (
    CellFault,
    FullAdderCell,
    NUM_FA_FAULTS,
    faulty_cell_library,
    reference_cell,
)
from repro.arch.adders import RippleCarryAdderUnit
from repro.arch.multiplier import ArrayMultiplierUnit
from repro.arch.divider import RestoringDividerUnit
from repro.arch.alu import FaultableALU

__all__ = [
    "mask_of",
    "to_signed",
    "to_unsigned",
    "CellFault",
    "FullAdderCell",
    "NUM_FA_FAULTS",
    "faulty_cell_library",
    "reference_cell",
    "RippleCarryAdderUnit",
    "ArrayMultiplierUnit",
    "RestoringDividerUnit",
    "FaultableALU",
]
