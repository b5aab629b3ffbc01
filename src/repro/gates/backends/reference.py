"""The interpreting oracle as an execution backend.

The original dict-keyed interpreter survives as
:class:`~repro.gates.simulate.ReferenceSimulator`; this backend brings
the same evaluation style -- unpacked uint8 bit arrays through the
:mod:`repro.gates.cells` truth functions, gate by gate -- under the
common :class:`~repro.gates.backends.base.Backend` protocol, extended
to multi-site fault groups.  It shares *no* kernel code with the
word-parallel backends: vectors are unpacked lane by lane, evaluated
through the cell library (not the compiled opcode lowering), and packed
back, so agreement with ``python_loop``/``fused`` is a genuine
differential check, not a reformulation.

Every lane of every word -- including the phantom lanes beyond a
sub-word universe -- carries the deterministic packed input bits, so
results are bit-identical to the packed backends on whole words.  Slow
by design; differential tests swap it in on small netlists.
"""

from __future__ import annotations

import numpy as np

from repro.gates.backends.base import Backend
from repro.gates.backends.plan import OverridePlan
from repro.gates.cells import cell_function
from repro.gates.compile import CompiledNetlist

_LANES = 64
_SHIFTS = np.arange(_LANES, dtype=np.uint64)


def _unpack(words: np.ndarray) -> np.ndarray:
    """uint64 word rows -> uint8 lane bits along a new last axis."""
    bits = (words[..., :, None] >> _SHIFTS) & np.uint64(1)
    return bits.reshape(*words.shape[:-1], words.shape[-1] * _LANES).astype(np.uint8)

def _pack(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_unpack` (bit count must be a word multiple)."""
    lanes = bits.astype(np.uint64).reshape(*bits.shape[:-1], -1, _LANES)
    return np.bitwise_or.reduce(lanes << _SHIFTS, axis=-1)


class ReferenceBackend(Backend):
    """Cell-library interpretation of every lane, packed at the edges."""

    name = "reference"

    def __init__(self, compiled: CompiledNetlist) -> None:
        super().__init__(compiled)
        # Compiled gate g is the g-th gate of the cached topological
        # order (compile_netlist lowers exactly this sequence).
        self._gates = compiled.source.topological_gates()
        offsets = compiled.operand_offsets
        self._operand_ids = [
            [int(i) for i in compiled.operands[offsets[g] : offsets[g + 1]]]
            for g in range(compiled.n_gates)
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _apply8(entry, values: np.ndarray) -> None:
        """The uint8 form of :meth:`OverridePlan.apply`."""
        rows, consts = entry
        values[rows] = (consts != 0).astype(np.uint8)

    def run_words(self, words: np.ndarray) -> np.ndarray:
        vals = self.run_matrix(words, OverridePlan(self.compiled, []), 1)
        return vals[:, 0, :]

    def run_matrix(
        self, words: np.ndarray, plan: OverridePlan, n_rows: int
    ) -> np.ndarray:
        c = self.compiled
        n_words = words.shape[1]
        n_lanes = n_words * _LANES
        stems = plan.stem
        branches = plan.branch_by_gate
        bits = np.empty((c.n_nets, n_rows, n_lanes), dtype=np.uint8)
        in_bits = _unpack(words)
        for k, nid in enumerate(self._input_ids):
            bits[nid] = in_bits[k]
            entry = stems.get(nid)
            if entry is not None:
                self._apply8(entry, bits[nid])
        for g, gate in enumerate(self._gates):
            gate_branches = branches.get(g)
            pins = []
            for pin, nid in enumerate(self._operand_ids[g]):
                pv = bits[nid]
                if gate_branches is not None:
                    entry = gate_branches.get(pin)
                    if entry is not None:
                        pv = pv.copy()
                        self._apply8(entry, pv)
                pins.append(pv)
            out = cell_function(gate.cell_type)(pins)
            nid = int(c.gate_output_ids[g])
            bits[nid] = out
            entry = stems.get(nid)
            if entry is not None:
                self._apply8(entry, bits[nid])
        return _pack(bits)
