"""Logic simulation of gate-level netlists, with fault injection.

Two entry points:

* :func:`simulate` -- scalar simulation of a single input assignment;
* :func:`simulate_vector` -- vectorised simulation of many assignments at
  once (NumPy arrays of 0/1 per primary input).

Both accept an optional :class:`~repro.gates.faults.StuckAtFault`.  A stem
fault overrides the net value seen by *all* readers (and by primary
outputs); a branch fault overrides the value seen by one specific gate
input pin only.

:class:`NetlistSimulator` is a thin adapter over the compiled
bit-parallel engine: the netlist is lowered once
(:mod:`repro.gates.compile`), vectors are packed 64 per ``uint64`` word
and evaluated word-wide (:mod:`repro.gates.engine`), and results are
unpacked back to the historical uint8 dict interface.  The original
dict-keyed interpreter survives as :class:`ReferenceSimulator`; it is
the differential-testing oracle for the engine and the baseline of
``benchmarks/bench_engine.py``.

One-shot :func:`simulate` / :func:`simulate_vector` calls reuse a cached
:class:`NetlistSimulator` per netlist (invalidated via
:attr:`~repro.gates.netlist.Netlist.version`), so repeated one-shot
calls no longer re-validate and re-sort the netlist every time.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import SimulationError
from repro.gates.cells import cell_function
from repro.gates.compile import compile_netlist
from repro.gates.engine import BitParallelEngine, engine_for, unpack_bits
from repro.gates.faults import StuckAtFault
from repro.gates.memo import identity_memo, netlist_fingerprint
from repro.gates.netlist import Gate, Netlist

Value = Union[int, np.ndarray]


def _as_bit_array(name: str, value: Value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.uint8)
    if arr.ndim > 1:
        raise SimulationError(f"input {name!r} must be scalar or 1-d, got shape {arr.shape}")
    bad = arr > 1
    if np.any(bad):
        raise SimulationError(f"input {name!r} contains non-binary values")
    return arr


class NetlistSimulator:
    """Reusable simulator bound to one netlist (compiled, bit-parallel)."""

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self._compiled = compile_netlist(netlist)
        self._engine = engine_for(netlist)

    @property
    def engine(self) -> BitParallelEngine:
        """The underlying bit-parallel engine (for batched campaigns)."""
        return self._engine

    # ------------------------------------------------------------------
    def _unpack(
        self, words: np.ndarray, n_vectors: int, scalar: bool
    ) -> np.ndarray:
        bits = unpack_bits(words, n_vectors)
        return bits.reshape(()) if scalar else bits

    def run(
        self,
        inputs: Mapping[str, Value],
        fault: Optional[StuckAtFault] = None,
    ) -> Dict[str, np.ndarray]:
        """Simulate and return the value of every net.

        ``inputs`` maps each primary input name to 0/1 (scalar) or a 1-d
        array of 0/1 values; all arrays must share one length.  Scalar
        inputs yield 0-d arrays, matching the historical interface.
        """
        packed, scalar = self._engine.pack_inputs(inputs)
        words = self._engine.run_words(packed, fault)
        return {
            net: self._unpack(words[nid], packed.n_vectors, scalar)
            for net, nid in self._compiled.net_ids.items()
        }

    def outputs(
        self,
        inputs: Mapping[str, Value],
        fault: Optional[StuckAtFault] = None,
    ) -> Dict[str, np.ndarray]:
        """Simulate and return only the primary output values."""
        packed, scalar = self._engine.pack_inputs(inputs)
        words = self._engine.run_words(packed, fault)
        return {
            net: self._unpack(
                words[self._compiled.net_id(net)], packed.n_vectors, scalar
            )
            for net in self.netlist.primary_outputs
        }

    # ------------------------------------------------------------------
    def truth_table(self, fault: Optional[StuckAtFault] = None) -> np.ndarray:
        """Exhaustive truth table of the primary outputs.

        Returns an array of shape ``(2**n_inputs, n_outputs)`` where input
        combination ``i`` assigns bit ``k`` of ``i`` to the ``k``-th
        primary input (input order as declared).
        """
        n = len(self.netlist.primary_inputs)
        if n > 20:
            raise SimulationError(f"truth table of {n} inputs is too large")
        packed = self._engine.exhaustive()
        words = self._engine.run_words(packed, fault)
        out_ids = [self._compiled.net_id(net) for net in self.netlist.primary_outputs]
        bits = unpack_bits(words[out_ids], packed.n_vectors)  # (n_out, V)
        return bits.T.astype(np.uint8)

    def behavior_signature(self, fault: Optional[StuckAtFault] = None) -> bytes:
        """Opaque signature of the (possibly faulty) exhaustive behaviour."""
        return self.truth_table(fault).tobytes()


class ReferenceSimulator:
    """The original dict-keyed interpreter, kept as a semantic oracle.

    Same interface and fault semantics as :class:`NetlistSimulator`, but
    every call re-walks the gate list net-name by net-name.  Slow by
    design -- equivalence property tests and the engine benchmark use it
    as the trusted baseline.
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self._ordered: Sequence[Gate] = netlist.topological_gates()

    # ------------------------------------------------------------------
    def run(
        self,
        inputs: Mapping[str, Value],
        fault: Optional[StuckAtFault] = None,
    ) -> Dict[str, np.ndarray]:
        """Simulate and return the value of every net."""
        values: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for name in self.netlist.primary_inputs:
            if name not in inputs:
                raise SimulationError(f"missing assignment for primary input {name!r}")
            arr = _as_bit_array(name, inputs[name])
            if arr.ndim == 1:
                if length is None:
                    length = arr.shape[0]
                elif arr.shape[0] != length:
                    raise SimulationError(
                        f"input {name!r} length {arr.shape[0]} != {length}"
                    )
            values[name] = arr

        stem_net: Optional[str] = None
        branch_key = None
        stuck_value = 0
        if fault is not None:
            stuck_value = fault.value
            if fault.site.is_stem:
                stem_net = fault.site.net
            else:
                gate_name, pin = fault.site.branch
                branch_key = (gate_name, pin)

        def stuck(arr: np.ndarray) -> np.ndarray:
            return np.full_like(arr, stuck_value)

        if stem_net is not None and stem_net in values:
            values[stem_net] = stuck(values[stem_net])

        for gate in self._ordered:
            pins = []
            for pin_index, net in enumerate(gate.inputs):
                pin_value = values[net]
                if branch_key == (gate.name, pin_index):
                    pin_value = stuck(pin_value)
                pins.append(pin_value)
            out = cell_function(gate.cell_type)(pins)
            if stem_net == gate.output:
                out = stuck(np.asarray(out, dtype=np.uint8))
            values[gate.output] = np.asarray(out, dtype=np.uint8)
        return values

    def outputs(
        self,
        inputs: Mapping[str, Value],
        fault: Optional[StuckAtFault] = None,
    ) -> Dict[str, np.ndarray]:
        """Simulate and return only the primary output values."""
        values = self.run(inputs, fault)
        return {net: values[net] for net in self.netlist.primary_outputs}

    # ------------------------------------------------------------------
    def truth_table(self, fault: Optional[StuckAtFault] = None) -> np.ndarray:
        """Exhaustive truth table of the primary outputs."""
        n = len(self.netlist.primary_inputs)
        if n > 20:
            raise SimulationError(f"truth table of {n} inputs is too large")
        combos = np.arange(2**n, dtype=np.uint32)
        assignment = {
            name: ((combos >> k) & 1).astype(np.uint8)
            for k, name in enumerate(self.netlist.primary_inputs)
        }
        outs = self.outputs(assignment, fault)
        return np.stack(
            [outs[net] for net in self.netlist.primary_outputs], axis=1
        ).astype(np.uint8)

    def behavior_signature(self, fault: Optional[StuckAtFault] = None) -> bytes:
        """Opaque signature of the (possibly faulty) exhaustive behaviour."""
        return self.truth_table(fault).tobytes()


# ----------------------------------------------------------------------
# One-shot helpers with a per-netlist simulator cache
# ----------------------------------------------------------------------
@identity_memo(netlist_fingerprint)
def get_simulator(netlist: Netlist) -> NetlistSimulator:
    """Cached :class:`NetlistSimulator` for ``netlist``.

    Keyed on object identity and :attr:`Netlist.version`, so one-shot
    :func:`simulate` calls stop re-validating and re-sorting the same
    netlist while structural mutations still force a rebuild.
    """
    return NetlistSimulator(netlist)


def simulate(
    netlist: Netlist,
    inputs: Mapping[str, int],
    fault: Optional[StuckAtFault] = None,
) -> Dict[str, int]:
    """One-shot scalar simulation; returns primary output values as ints."""
    sim = get_simulator(netlist)
    outs = sim.outputs(inputs, fault)
    return {net: int(np.asarray(value).reshape(()).item()) for net, value in outs.items()}


def simulate_vector(
    netlist: Netlist,
    inputs: Mapping[str, np.ndarray],
    fault: Optional[StuckAtFault] = None,
) -> Dict[str, np.ndarray]:
    """One-shot vectorised simulation of many assignments."""
    return get_simulator(netlist).outputs(inputs, fault)
