"""Full-adder cells and their faulty variants.

A :class:`FullAdderCell` is a functional truth table ``(a, b, cin) ->
(s, cout)`` stored as two 8-entry lookup arrays.  The fault-free cell and
the 32 faulty variants are derived by exhaustively simulating a
gate-level full-adder netlist (:mod:`repro.gates.builders`) under each
single stuck-at fault of its stem+branch fault universe -- exactly the
paper's "functional level" model where *the faulty functional unit is
the single full-adder in the chain* and ``num_faults_1bit = 32``.

Two cell netlists are provided:

* ``"xor3_majority"`` (default): ``s = a^b^cin``,
  ``cout = (a&b) | (cin&(a|b))`` -- 16 fault sites;
* ``"two_xor"``: the textbook five-gate adder -- also 16 fault sites but
  with an exposed internal propagate net, which makes compensating
  (undetectable) errors more frequent.  Kept for the sensitivity ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import FaultError
from repro.gates.builders import full_adder, full_adder_xor3
from repro.gates.engine import engine_for
from repro.gates.faults import FaultSite, StuckAtFault, full_fault_list
from repro.gates.netlist import Netlist
from repro.gates.simulate import NetlistSimulator

#: Number of single stuck-at faults of the 1-bit full adder, as quoted by
#: the paper's Table 2 situation-count formula.
NUM_FA_FAULTS = 32

_NETLIST_BUILDERS = {
    "xor3_majority": full_adder_xor3,
    "two_xor": full_adder,
}

DEFAULT_CELL_NETLIST = "xor3_majority"


@dataclass(frozen=True)
class CellFault:
    """Identity of a faulty cell variant: netlist style + stuck-at fault."""

    netlist_style: str
    fault: StuckAtFault

    def describe(self) -> str:
        return f"{self.fault.describe()} [{self.netlist_style}]"


@dataclass(frozen=True)
class FullAdderCell:
    """A (possibly faulty) full-adder behaviour as two 8-entry LUTs.

    The LUT index is ``a | (b << 1) | (cin << 2)``.
    """

    sum_lut: Tuple[int, ...]
    carry_lut: Tuple[int, ...]
    fault: CellFault = None

    def __post_init__(self) -> None:
        if len(self.sum_lut) != 8 or len(self.carry_lut) != 8:
            raise FaultError("full-adder LUTs must have 8 entries")

    @property
    def is_faulty(self) -> bool:
        return self.fault is not None

    def luts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (sum, carry) LUTs as read-only uint64 arrays for vector indexing."""
        return self._lut_arrays

    @cached_property
    def _lut_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        # Built once per instance: cached_property writes the instance
        # __dict__ directly, which a frozen dataclass still allows.
        arrays = (
            np.asarray(self.sum_lut, dtype=np.uint64),
            np.asarray(self.carry_lut, dtype=np.uint64),
        )
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def evaluate(self, a: int, b: int, cin: int) -> Tuple[int, int]:
        """Scalar evaluation of the cell."""
        idx = (a & 1) | ((b & 1) << 1) | ((cin & 1) << 2)
        return self.sum_lut[idx], self.carry_lut[idx]

    def differs_from(self, other: "FullAdderCell") -> bool:
        """True if the two cells differ on any input combination."""
        return self.sum_lut != other.sum_lut or self.carry_lut != other.carry_lut


def _luts_from_table(netlist: Netlist, table) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Extract the (sum, carry) LUT pair from an exhaustive truth table.

    ``table`` has shape ``(8, n_outputs)`` in ``primary_outputs`` column
    order; primary inputs are declared a, b, cin, so combo index bit0=a
    matches our LUT convention directly.
    """
    s_col = netlist.primary_outputs.index("s")
    c_col = netlist.primary_outputs.index("cout")
    return tuple(int(v) for v in table[:, s_col]), tuple(int(v) for v in table[:, c_col])


def _lut_from_netlist(netlist: Netlist, fault: StuckAtFault = None) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    return _luts_from_table(netlist, NetlistSimulator(netlist).truth_table(fault))


def reference_cell(netlist_style: str = DEFAULT_CELL_NETLIST) -> FullAdderCell:
    """The fault-free full-adder cell (identical for every style)."""
    builder = _get_builder(netlist_style)
    s_lut, c_lut = _lut_from_netlist(builder())
    return FullAdderCell(s_lut, c_lut, fault=None)


def _get_builder(netlist_style: str):
    try:
        return _NETLIST_BUILDERS[netlist_style]
    except KeyError:
        raise FaultError(
            f"unknown cell netlist style {netlist_style!r}; "
            f"choose from {sorted(_NETLIST_BUILDERS)}"
        ) from None


def cell_netlist(netlist_style: str = DEFAULT_CELL_NETLIST) -> Netlist:
    """A fresh copy of the gate-level full-adder cell netlist.

    The same netlist whose faulty truth tables define the LUT library;
    the gate-level test architectures (:mod:`repro.arch.testbench`)
    instantiate it structurally so cell-level faults can be translated
    onto chain positions.
    """
    return _get_builder(netlist_style)()


_library_cache: Dict[str, List[FullAdderCell]] = {}


def faulty_cell_library(netlist_style: str = DEFAULT_CELL_NETLIST) -> List[FullAdderCell]:
    """All 32 faulty full-adder variants for ``netlist_style``.

    The list order is deterministic (fault-site enumeration order, SA0
    before SA1).  Variants whose behaviour happens to coincide with the
    fault-free cell are *not* removed: the paper's situation counts keep
    the full 32-fault universe.
    """
    if netlist_style not in _library_cache:
        builder = _get_builder(netlist_style)
        netlist = builder()
        faults = full_fault_list(netlist)
        # One batched bit-parallel pass produces all 32 faulty truth
        # tables at once instead of 32 interpreter walks.
        tables = engine_for(netlist).truth_tables(faults)  # (n_faults, 8, n_outputs)
        cells: List[FullAdderCell] = []
        for fault, table in zip(faults, tables):
            s_lut, c_lut = _luts_from_table(netlist, table)
            cells.append(
                FullAdderCell(s_lut, c_lut, fault=CellFault(netlist_style, fault))
            )
        if len(cells) != NUM_FA_FAULTS:
            raise FaultError(
                f"cell netlist {netlist_style!r} has {len(cells)} faults, "
                f"expected {NUM_FA_FAULTS}"
            )
        _library_cache[netlist_style] = cells
    return list(_library_cache[netlist_style])


def effective_faulty_cells(netlist_style: str = DEFAULT_CELL_NETLIST) -> List[FullAdderCell]:
    """The subset of faulty variants that differ from the fault-free cell."""
    ref = reference_cell(netlist_style)
    return [cell for cell in faulty_cell_library(netlist_style) if cell.differs_from(ref)]


@dataclass(frozen=True)
class CollapsedCellGroup:
    """A functional equivalence class of the faulty-cell library.

    ``representative`` is the first library member with this (sum, carry)
    LUT pair, ``multiplicity`` the class size, and ``is_reference`` marks
    classes whose behaviour coincides with the fault-free cell (their
    chains compute exact results, so every situation is trivially
    covered).  Because two cells with identical LUTs drive the unit
    identically on every operand, simulating one representative and
    weighting its verdicts by ``multiplicity`` is exact -- not an
    approximation -- while the situation accounting still spans the full
    32-fault universe the paper counts.
    """

    representative: FullAdderCell
    multiplicity: int
    is_reference: bool


def collapsed_cell_library(
    netlist_style: str = DEFAULT_CELL_NETLIST,
) -> List[CollapsedCellGroup]:
    """Functionally collapsed faulty-cell library for ``netlist_style``.

    Groups the 32 faulty variants by identical (sum, carry) LUT pairs, in
    first-appearance order.  The batched Table 2 evaluators simulate one
    representative per group and broadcast the exact per-situation counts
    to the whole class.
    """
    ref = reference_cell(netlist_style)
    groups: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[FullAdderCell]] = {}
    order: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    for cell in faulty_cell_library(netlist_style):
        key = (cell.sum_lut, cell.carry_lut)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(cell)
    return [
        CollapsedCellGroup(
            representative=groups[key][0],
            multiplicity=len(groups[key]),
            is_reference=not groups[key][0].differs_from(ref),
        )
        for key in order
    ]


def bitflip_cell_library(netlist_style: str = DEFAULT_CELL_NETLIST) -> List[FullAdderCell]:
    """Bit-flip faulty cells: output bits inverted on every evaluation.

    The paper's fault model names bit-flips alongside stuck-ats as
    error manifestations of the failed unit; these three variants flip
    the sum, the carry, or both, uniformly across the truth table.
    They are *not* part of the Table 2 universe (which the paper sizes
    at 32 stuck-at faults) but extend campaign studies.
    """
    ref = reference_cell(netlist_style)
    flips = []
    for flip_s, flip_c, tag in ((1, 0, "s"), (0, 1, "cout"), (1, 1, "both")):
        s_lut = tuple(v ^ flip_s for v in ref.sum_lut)
        c_lut = tuple(v ^ flip_c for v in ref.carry_lut)
        site = FaultSite(f"bitflip_{tag}")
        fault = CellFault(netlist_style, StuckAtFault(site, 0))
        flips.append(FullAdderCell(s_lut, c_lut, fault=fault))
    return flips
