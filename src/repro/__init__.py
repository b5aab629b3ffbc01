"""repro -- self-checking data-paths via operator overloading.

A faithful, self-contained reproduction of:

    C. Bolchini, F. Salice, D. Sciuto, L. Pomante,
    "Reliable System Specification for Self-Checking Data-Paths",
    Design, Automation and Test in Europe (DATE), 2005.

The package provides:

* the :class:`~repro.core.SCK` self-checking data type (the paper's
  contribution), with pluggable checking techniques and backends;
* a gate-level netlist substrate with the paper's 32-fault full-adder
  universe (:mod:`repro.gates`);
* vectorised cell-level faulty datapath units (:mod:`repro.arch`);
* a fault model and injection campaigns (:mod:`repro.faults`);
* the worst-case fault-coverage engine regenerating Tables 1 and 2
  (:mod:`repro.coverage`);
* a monoprocessor VM and a hardware/software co-design flow
  regenerating Table 3 (:mod:`repro.vm`, :mod:`repro.codesign`);
* generators for the paper's figures and HDL artefacts
  (:mod:`repro.hdlgen`);
* a test-generation subsystem: fault dictionaries, compact test sets
  and emitted self-test benches/programs (:mod:`repro.tpg`);
* a content-addressed result store memoising campaign artifacts, with
  checkpointed resumable sharded runs (:mod:`repro.store`);
* a static-analysis subsystem: structural lint, support cones,
  equivalence/dominance fault collapsing and SCOAP testability
  (:mod:`repro.analysis`);
* a unified telemetry subsystem: metrics registry, tracing spans,
  campaign lifecycle events and the trace report tool
  (:mod:`repro.obs`);
* benchmark applications, FIR first (:mod:`repro.apps`).
"""

from repro.analysis import (
    CollapseMap,
    ConeAnalysis,
    GateConeAnalysis,
    ScoapMeasures,
    analyze_cones,
    analyze_gate_cones,
    collapse_faults,
    fault_efforts,
    hardest_faults,
    scoap,
)
from repro.core import SCK, SCKContext, current_context
from repro.faults import (
    IncrementalCampaignResult,
    NetlistDiff,
    diff_netlists,
    incremental_stuck_at_campaign,
)
from repro.gates.backends import (
    DEFAULT_BACKEND,
    list_backends,
    resolve_backend_name,
)
from repro.obs import (
    METRICS_ENV,
    MetricsRegistry,
    TRACE_ENV,
    emit_event,
    read_trace,
    registry,
    set_kernel_profiling,
    span,
)
from repro.store import (
    CacheKey,
    ResultStore,
    STORE_DIR_ENV,
    STORE_ENV,
    StoreCorruptionWarning,
    open_store,
    resolve_store,
)
from repro.tpg import (
    CompactTestSet,
    FaultDictionary,
    TestSpace,
    build_fault_dictionary,
    compact_test_set,
    emit_self_test_verilog,
    emit_self_test_vhdl,
    emit_vm_self_test,
    generate_tests,
    unit_test_set,
)
from repro.errors import (
    CheckError,
    CompilationError,
    FaultError,
    NetlistError,
    OverflowPolicyError,
    ReproError,
    SchedulingError,
    SimulationError,
    SpecificationError,
    StoreError,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    # Lint names are served lazily by repro.analysis, so that
    # ``python -m repro.analysis.lint`` finds its module unimported.
    from repro import analysis

    if name in analysis._LINT_EXPORTS:
        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SCK",
    "SCKContext",
    "current_context",
    "CollapseMap",
    "ConeAnalysis",
    "LintIssue",
    "LintReport",
    "ScoapMeasures",
    "GateConeAnalysis",
    "analyze_cones",
    "analyze_gate_cones",
    "IncrementalCampaignResult",
    "NetlistDiff",
    "diff_netlists",
    "incremental_stuck_at_campaign",
    "assert_clean",
    "collapse_faults",
    "fault_efforts",
    "hardest_faults",
    "lint_netlist",
    "scoap",
    "DEFAULT_BACKEND",
    "list_backends",
    "resolve_backend_name",
    "METRICS_ENV",
    "MetricsRegistry",
    "TRACE_ENV",
    "emit_event",
    "read_trace",
    "registry",
    "set_kernel_profiling",
    "span",
    "CacheKey",
    "ResultStore",
    "STORE_DIR_ENV",
    "STORE_ENV",
    "StoreCorruptionWarning",
    "open_store",
    "resolve_store",
    "CompactTestSet",
    "FaultDictionary",
    "TestSpace",
    "build_fault_dictionary",
    "compact_test_set",
    "emit_self_test_verilog",
    "emit_self_test_vhdl",
    "emit_vm_self_test",
    "generate_tests",
    "unit_test_set",
    "ReproError",
    "NetlistError",
    "SimulationError",
    "FaultError",
    "CheckError",
    "SpecificationError",
    "SchedulingError",
    "CompilationError",
    "OverflowPolicyError",
    "StoreError",
    "__version__",
]
