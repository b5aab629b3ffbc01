"""Gate-level netlist substrate.

This package models combinational circuits at the structural gate level:

* :mod:`repro.gates.netlist` -- nets, gates and the :class:`Netlist` graph
  (with indexed driver/fanout queries and an iterative topological sort);
* :mod:`repro.gates.cells` -- the primitive cell library (AND, OR, XOR...);
* :mod:`repro.gates.builders` -- parameterised generators for the
  arithmetic blocks used throughout the paper (full adder, ripple-carry
  adder, carry-lookahead adder, subtractor, comparator, array
  multiplier, truncated array multiplier, unrolled restoring divider --
  the latter two shared, via cell-instantiation callbacks, with the
  Table 2 test architectures);
* :mod:`repro.gates.faults` -- the classical single-stuck-at fault
  universe (stems plus fanout branches), functional and structural fault
  collapsing;
* :mod:`repro.gates.compile` -- lowering of a netlist to flat integer-id
  arrays (:class:`CompiledNetlist`): per-gate opcode/operand arrays,
  CSR fanout index, cached topological order;
* :mod:`repro.gates.engine` -- the bit-parallel simulator on top of the
  compiled form: 64 test vectors per ``uint64`` word, fault-major
  matrix evaluation (single faults or multi-site fault groups), batched
  stuck-at campaigns with structural collapsing and fault dropping
  (:func:`run_stuck_at_campaign`), the streaming helpers
  (:func:`engine.exhaustive_word_range`, :func:`engine.popcount_words`)
  that let exhaustive sweeps run in O(chunk) memory;
* :mod:`repro.gates.sparse` -- cone schedules: fault classes clustered
  by fan-out cone into the batches the campaign sweep runs;
* :mod:`repro.gates.backends` -- the execution layer under the
  engine: the levelized ``fused`` backend the library runs, plus the
  ``python_loop`` loop and the ``reference`` interpreter the
  differential tests compare it against, all bit-identical;
* :mod:`repro.gates.simulate` -- the public simulation surface:
  :class:`NetlistSimulator` (thin adapter over the compiled engine),
  cached one-shot :func:`simulate` / :func:`simulate_vector`, and the
  original interpreter as :class:`ReferenceSimulator` for differential
  testing;
* :mod:`repro.gates.emit` -- structural VHDL/Verilog emission off the
  compiled lowering.

The paper's Section 4.1 test environment models the faulty functional unit
as a single full adder in a chain; the 32-fault universe it quotes
(``num_faults_1bit == 32``) is exactly the stem+branch single-stuck-at
fault list of the standard five-gate full adder built here.
"""

from repro.gates.netlist import Gate, Net, Netlist
from repro.gates.backends import (
    DEFAULT_BACKEND,
    Backend,
    list_backends,
    resolve_backend_name,
)
from repro.gates.cells import CELL_LIBRARY, CellType, cell_function
from repro.gates.compile import CompiledNetlist, compile_netlist
from repro.gates.engine import (
    BitParallelEngine,
    PackedVectors,
    StuckAtCampaignResult,
    engine_for,
    exhaustive_word_range,
    popcount_words,
    run_stuck_at_campaign,
)
from repro.gates.faults import (
    FaultSite,
    StuckAtFault,
    enumerate_fault_sites,
    full_fault_list,
    structural_equivalence_groups,
)
from repro.gates.simulate import (
    NetlistSimulator,
    ReferenceSimulator,
    get_simulator,
    simulate,
    simulate_vector,
)
from repro.gates import builders

__all__ = [
    "Gate",
    "Net",
    "Netlist",
    "DEFAULT_BACKEND",
    "Backend",
    "list_backends",
    "resolve_backend_name",
    "CELL_LIBRARY",
    "CellType",
    "cell_function",
    "CompiledNetlist",
    "compile_netlist",
    "BitParallelEngine",
    "PackedVectors",
    "StuckAtCampaignResult",
    "engine_for",
    "exhaustive_word_range",
    "popcount_words",
    "run_stuck_at_campaign",
    "FaultSite",
    "StuckAtFault",
    "enumerate_fault_sites",
    "full_fault_list",
    "structural_equivalence_groups",
    "NetlistSimulator",
    "ReferenceSimulator",
    "get_simulator",
    "simulate",
    "simulate_vector",
    "builders",
]
