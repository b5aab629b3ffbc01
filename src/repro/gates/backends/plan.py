"""Pre-resolved stuck-at override plans shared by every execution backend.

An :class:`OverridePlan` is the backend-facing form of a fault batch:
row ``r`` of a fault-major evaluation simulates ``faults[r]`` -- a
single :class:`~repro.gates.faults.StuckAtFault` or a sequence applied
simultaneously (a multi-site fault group).  Stems are applied to a
net's value right after it is produced; branches override the value
seen by one specific gate input pin only.  The plan resolves every
site to compiled ids once, so backends consume plain
``{net id -> (row list, constant column)}`` maps with no name lookups
in their hot loops.

Rows keep the caller's order.  Correctness never depends on it; the
``fused`` backend's tainted-prefix walk is cheapest when rows ascend in
first-divergence level, which the cone schedule
(:mod:`repro.gates.sparse`) provides.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.gates.compile import CompiledNetlist
from repro.gates.faults import StuckAtFault

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: One matrix row simulates either a single fault or a *group* of faults
#: applied together (e.g. the same cell-level fault replicated into the
#: nominal and checking copies of a functional unit).
FaultGroup = Union[StuckAtFault, Sequence[StuckAtFault]]

#: Rows of one override entry: a slice for an ascending run of rows,
#: else a list; either indexes the row axis of a value matrix.
RowIndex = Union[slice, List[int]]


def _stuck_column(values: List[int]) -> np.ndarray:
    """Per-row stuck constants as an ``(n, 1)`` uint64 column."""
    col = np.empty((len(values), 1), dtype=np.uint64)
    for i, v in enumerate(values):
        col[i, 0] = ALL_ONES if v else 0
    return col


def _row_index(rows: List[int]) -> RowIndex:
    """``rows`` as a slice when they form one ascending run (the common
    case: a site's rows are adjacent in a cone schedule), else as-is."""
    lo = rows[0]
    if rows[-1] - lo + 1 == len(rows) and rows == list(range(lo, lo + len(rows))):
        return slice(lo, lo + len(rows))
    return rows


class OverridePlan:
    """Pre-resolved stuck-at overrides for one fault-matrix evaluation.

    Row indices stay plain lists -- they feed NumPy fancy indexing
    directly and building ndarray objects per site costs more than it
    saves at these sizes.  ``stem`` maps a net id to ``(rows, column)``;
    ``branch_by_gate`` maps a compiled gate index to per-pin entries of
    the same shape.
    """

    def __init__(self, compiled: CompiledNetlist, faults: Sequence[FaultGroup]) -> None:
        stem: Dict[int, Tuple[List[int], List[int]]] = {}
        branch: Dict[int, Dict[int, Tuple[List[int], List[int]]]] = {}
        self.n_rows = len(faults)
        for row, entry_faults in enumerate(faults):
            group = (
                (entry_faults,)
                if isinstance(entry_faults, StuckAtFault)
                else tuple(entry_faults)
            )
            for fault in group:
                self._add(compiled, stem, branch, row, fault)
        # Each site becomes one fancy assignment: rows plus a per-row
        # constant column (0 or all-ones) broadcast across the words.
        self.stem = {
            nid: (_row_index(rows), _stuck_column(values))
            for nid, (rows, values) in stem.items()
        }
        self.branch_by_gate = {
            gate: {
                pin: (_row_index(rows), _stuck_column(values))
                for pin, (rows, values) in pins.items()
            }
            for gate, pins in branch.items()
        }

    @staticmethod
    def _add(
        compiled: CompiledNetlist,
        stem: Dict[int, Tuple[List[int], List[int]]],
        branch: Dict[int, Dict[int, Tuple[List[int], List[int]]]],
        row: int,
        fault: StuckAtFault,
    ) -> None:
        """Register one site."""
        if fault.site.is_stem:
            nid = compiled.net_id(fault.site.net)
            entry = stem.get(nid)
            if entry is None:
                entry = stem[nid] = ([], [])
            entry[0].append(row)
            entry[1].append(fault.value)
            return
        gate_name, pin = fault.site.branch
        gate, pin = compiled.pin_id(gate_name, pin)
        pins = branch.setdefault(gate, {})
        entry = pins.get(pin)
        if entry is None:
            entry = pins[pin] = ([], [])
        entry[0].append(row)
        entry[1].append(fault.value)

    @staticmethod
    def apply(entry: Tuple[RowIndex, np.ndarray], values: np.ndarray) -> None:
        rows, consts = entry
        values[rows] = consts
