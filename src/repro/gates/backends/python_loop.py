"""The per-gate NumPy ufunc loop -- the one evaluation loop.

This is the original :class:`~repro.gates.engine.BitParallelEngine`
hot path moved verbatim: one resolved dispatch tuple per gate, one
word-wide ufunc call per gate, fresh result matrices every call.  It
is the stack's only packed-word evaluation loop: the default ``fused``
backend subclasses it and adds tainted-prefix walks for the derived
kernels only.  Registered on its own, with the base class's derived
kernels (full matrix, then reduce), it is the semantic baseline the
fused walks are differentially tested against, and the denominator of
the backend-speedup gate in ``benchmarks/bench_engine.py``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.gates.backends.base import Backend, GateOp, gate_program
from repro.gates.backends.plan import OverridePlan
from repro.gates.compile import CompiledNetlist


class PythonLoopBackend(Backend):
    """Per-gate ufunc dispatch over the compiled gate program."""

    name = "python_loop"

    def __init__(self, compiled: CompiledNetlist) -> None:
        super().__init__(compiled)
        self._program: List[GateOp] = gate_program(compiled)

    def run_words(self, words: np.ndarray) -> np.ndarray:
        vals = np.empty((self.compiled.n_nets, words.shape[1]), dtype=np.uint64)
        for k, nid in enumerate(self._input_ids):
            vals[nid] = words[k]
        for ufunc, invert, operand_ids, out_id in self._program:
            out = vals[out_id]
            if ufunc is None:  # BUF / NOT
                if invert:
                    np.invert(vals[operand_ids[0]], out=out)
                else:
                    np.copyto(out, vals[operand_ids[0]])
            else:
                ufunc(vals[operand_ids[0]], vals[operand_ids[1]], out=out)
                for nid in operand_ids[2:]:
                    ufunc(out, vals[nid], out=out)
                if invert:
                    np.invert(out, out=out)
        return vals

    def run_matrix(
        self, words: np.ndarray, plan: OverridePlan, n_rows: int
    ) -> np.ndarray:
        """Fault-major evaluation, all rows advancing together.

        Each gate costs one word-wide NumPy op over the whole fault
        batch instead of ``n_rows`` interpreter walks.
        """
        c = self.compiled
        n_words = words.shape[1]
        stems = plan.stem
        branches = plan.branch_by_gate
        apply = plan.apply
        vals = np.empty((c.n_nets, n_rows, n_words), dtype=np.uint64)
        for k, nid in enumerate(self._input_ids):
            vals[nid] = words[k]  # broadcast (n_words,) -> (n_rows, n_words)
            entry = stems.get(nid)
            if entry is not None:
                apply(entry, vals[nid])
        for g, (ufunc, invert, operand_ids, out_id) in enumerate(self._program):
            gate_branches = branches.get(g)
            if gate_branches is None:
                pins = [vals[nid] for nid in operand_ids]
            else:
                # Copy only the pins a branch fault actually overrides;
                # untouched pins stay zero-copy views of their nets.
                pins = []
                for pin, nid in enumerate(operand_ids):
                    entry = gate_branches.get(pin)
                    if entry is None:
                        pins.append(vals[nid])
                    else:
                        faulted = vals[nid].copy()
                        apply(entry, faulted)
                        pins.append(faulted)
            out = vals[out_id]
            if ufunc is None:  # BUF / NOT
                if invert:
                    np.invert(pins[0], out=out)
                else:
                    np.copyto(out, pins[0])
            else:
                ufunc(pins[0], pins[1], out=out)
                for pv in pins[2:]:
                    ufunc(out, pv, out=out)
                if invert:
                    np.invert(out, out=out)
            entry = stems.get(out_id)
            if entry is not None:
                apply(entry, out)
        return vals
