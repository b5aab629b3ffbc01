"""Static analysis over gate-level netlists.

Pure structural reasoning -- no simulation -- split over four modules:

- :mod:`repro.analysis.lint` -- a rule engine emitting structured
  diagnostics (combinational loops, undriven/multiply-driven nets,
  dangling outputs, unreachable logic, unused inputs, rail misuse)
  with a ``python -m repro.analysis.lint`` CLI and an
  :func:`~repro.analysis.lint.assert_clean` hook the architecture
  constructors use as a build gate.
- :mod:`repro.analysis.cones` -- vectorized transitive fan-in/fan-out
  support cones over the compiled CSR arrays: per-net primary-input
  support bitmasks, primary-output reachability masks, and the
  partition of outputs into support-disjoint cones.
- :mod:`repro.analysis.collapse` -- classical fault collapsing: the
  structural *equivalence* classes of :mod:`repro.gates.faults` plus
  *dominance* edges, producing a :class:`~repro.analysis.collapse.CollapseMap`
  the campaign engine consumes to simulate fewer representatives while
  expanding detection verdicts back over the full universe.
- :mod:`repro.analysis.testability` -- SCOAP controllability /
  observability measures (Goldstein), per-fault detection effort, and
  the hardest-to-test fault ranking the TPG report surfaces.

All artifacts are cacheable in the result store (``store=`` keywords)
keyed on the netlist content digest, and memoised in-process per
netlist version like the compiled lowering.
"""

from repro.analysis.collapse import CollapseMap, collapse_faults
from repro.analysis.cones import (
    ConeAnalysis,
    GateConeAnalysis,
    analyze_cones,
    analyze_gate_cones,
)
from repro.analysis.testability import (
    ScoapMeasures,
    fault_efforts,
    hardest_faults,
    scoap,
)

#: Re-exports served lazily from :mod:`repro.analysis.lint`: importing
#: that module eagerly here would load the CLI before ``python -m
#: repro.analysis.lint`` executes it, which runpy warns about.
_LINT_EXPORTS = ("LintIssue", "LintReport", "assert_clean", "lint_netlist")


def __getattr__(name: str):
    if name in _LINT_EXPORTS:
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CollapseMap",
    "ConeAnalysis",
    "GateConeAnalysis",
    "LintIssue",
    "LintReport",
    "ScoapMeasures",
    "analyze_cones",
    "analyze_gate_cones",
    "assert_clean",
    "collapse_faults",
    "fault_efforts",
    "hardest_faults",
    "lint_netlist",
    "scoap",
]
