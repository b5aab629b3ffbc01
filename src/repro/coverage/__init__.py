"""Fault-coverage analysis engine (the paper's Sections 2.1 and 4).

Evaluates, for every arithmetic operator and overloading technique, the
worst-case fault coverage when the checking operation is executed on the
*same* faulty functional unit as the nominal operation:

* :mod:`repro.coverage.situations` -- the paper's situation-count
  formulas;
* :mod:`repro.coverage.techniques` -- the checking techniques of Table 1
  expressed at the hardware level;
* :mod:`repro.coverage.engine` -- exact (gate-sweep / transfer-matrix /
  functional) evaluation in the calling process, planned once per
  architecture;
* :mod:`repro.coverage.transfer` -- the carry-state transfer-matrix DP
  behind the exact wide-width (n = 8, 16) Table 2 rows;
* :mod:`repro.coverage.report` -- renderers regenerating Tables 1 and 2
  and the in-text 2-bit analysis, with per-cell provenance.
"""

from repro.coverage.situations import (
    adder_situations,
    divider_situations,
    multiplier_situations,
)
from repro.coverage.techniques import TECHNIQUES, CheckTechnique, techniques_for
from repro.coverage.engine import (
    CoverageStats,
    GateLevelCoverage,
    evaluate_adder,
    evaluate_divider,
    evaluate_gate_level,
    evaluate_multiplier,
    evaluate_operator,
    evaluate_subtractor,
)

#: Re-exports served lazily from :mod:`repro.coverage.report`: importing
#: that module eagerly here would load the CLI before ``python -m
#: repro.coverage.report`` executes it, which runpy warns about.
_REPORT_EXPORTS = ("render_table1", "render_table2", "render_two_bit_analysis")


def __getattr__(name: str):
    if name in _REPORT_EXPORTS:
        from repro.coverage import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "adder_situations",
    "multiplier_situations",
    "divider_situations",
    "TECHNIQUES",
    "CheckTechnique",
    "techniques_for",
    "CoverageStats",
    "GateLevelCoverage",
    "evaluate_operator",
    "evaluate_adder",
    "evaluate_subtractor",
    "evaluate_multiplier",
    "evaluate_divider",
    "evaluate_gate_level",
    "render_table1",
    "render_table2",
    "render_two_bit_analysis",
]
