"""Test-pattern generation: fault dictionaries, compact sets, self-test.

The ATPG layer on top of the bit-parallel fault-simulation engine.  The
coverage engine (:mod:`repro.coverage`) answers *whether* a fault is
detectable; this package answers *which vectors to apply*:

* :mod:`repro.tpg.dictionary` -- fault x vector detection bitsets
  (:class:`FaultDictionary`), built by the batched engine over
  constrained vector universes (:class:`TestSpace`, defined in
  :mod:`repro.gates.engine` and re-exported here), persistable to
  ``.npz``;
* :mod:`repro.tpg.compaction` -- greedy set-cover and reverse-order
  compaction yielding minimal test sets with per-vector marginal
  coverage provenance (:class:`CompactTestSet`);
* :mod:`repro.tpg.generate` -- the simulation-based ATPG loop: seeded
  random phases with fault dropping, then exhaustive word-range sweeps
  over the residue; deterministic per seed;
* :mod:`repro.tpg.report` -- the per-unit generation table;
* :mod:`repro.tpg.emit` -- self-test artefacts: VHDL/Verilog benches
  (stimulus ROM + golden-response checking around the structurally
  emitted DUT) and :mod:`repro.vm` programs applying the same test sets
  to the software-side units.

The compact sets are *validated end to end*: replaying one through the
campaign engine reproduces its dictionary's claimed per-fault detection
bit for bit (``tests/test_tpg.py``).
"""

from repro.gates.engine import TestSpace
from repro.tpg.compaction import (
    CompactTestSet,
    GreedyCover,
    compact_from_dictionary,
    greedy_cover,
    reverse_compact,
)
from repro.tpg.dictionary import (
    FaultDictionary,
    build_fault_dictionary,
    dictionary_for_vectors,
    inputs_from_bits,
    replay_detected,
)
from repro.tpg.emit import (
    SelfTestProgram,
    emit_alu_self_test,
    emit_self_test_verilog,
    emit_self_test_vhdl,
    emit_vm_self_test,
    golden_responses,
)
from repro.tpg.generate import (
    TPG_SEED,
    TPGResult,
    UNIT_OPERATORS,
    compact_test_set,
    generate_tests,
    unit_netlist,
    unit_space,
    unit_test_set,
)

#: Re-exports served lazily from :mod:`repro.tpg.report`: importing that
#: module eagerly here would load the CLI before ``python -m
#: repro.tpg.report`` executes it, which runpy warns about.
_REPORT_EXPORTS = ("TPGUnitRow", "render_tpg_report", "tpg_unit_results")


def __getattr__(name: str):
    if name in _REPORT_EXPORTS:
        from repro.tpg import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CompactTestSet",
    "FaultDictionary",
    "GreedyCover",
    "SelfTestProgram",
    "TPGResult",
    "TPGUnitRow",
    "TPG_SEED",
    "TestSpace",
    "UNIT_OPERATORS",
    "build_fault_dictionary",
    "compact_from_dictionary",
    "compact_test_set",
    "dictionary_for_vectors",
    "emit_alu_self_test",
    "emit_self_test_verilog",
    "emit_self_test_vhdl",
    "emit_vm_self_test",
    "generate_tests",
    "golden_responses",
    "greedy_cover",
    "inputs_from_bits",
    "render_tpg_report",
    "replay_detected",
    "reverse_compact",
    "tpg_unit_results",
    "unit_netlist",
    "unit_space",
    "unit_test_set",
]
