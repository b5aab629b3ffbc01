"""Hardware/software co-design flow (the paper's Section 5).

Starting from a dataflow-graph specification whose operators may be
SCK-enriched, the flow schedules, binds and costs a hardware
implementation (latency formula, clock, CLB slices) and compiles a
software implementation for the monoprocessor VM (execution time, code
size) -- regenerating Table 3 for the FIR case study.

Modules:

* :mod:`repro.codesign.dfg` -- the dataflow-graph IR;
* :mod:`repro.codesign.sck_transform` -- SCK enrichment (per-operator
  hidden checks) and embedded-check enrichment (hand-placed,
  algorithm-level);
* :mod:`repro.codesign.scheduling` -- ASAP / ALAP / resource-constrained
  list scheduling;
* :mod:`repro.codesign.allocation` -- unit allocation and binding, with
  the reliability-aware different-unit rule for check operations;
* :mod:`repro.codesign.area` -- the calibrated CLB-slice area model;
* :mod:`repro.codesign.timing` -- the clock-period model;
* :mod:`repro.codesign.swmodel` -- software time/size estimation on the
  VM;
* :mod:`repro.codesign.partition` -- a simple HW/SW partitioner;
* :mod:`repro.codesign.flow` -- the end-to-end reliable co-design flow;
* :mod:`repro.codesign.report` -- the Table 3 renderer.
"""

from repro.codesign.dfg import DataflowGraph, Node
from repro.codesign.sck_transform import embed_output_checks, enrich_with_sck
from repro.codesign.scheduling import Schedule, alap_schedule, asap_schedule, list_schedule
from repro.codesign.allocation import Allocation, Binding, bind
from repro.codesign.area import AreaModel, AreaReport
from repro.codesign.timing import TimingModel
from repro.codesign.swmodel import SoftwareEstimate, estimate_software
from repro.codesign.partition import PartitionDecision, partition
from repro.codesign.flow import FlowResult, HardwareResult, ReliableCoDesignFlow


def __getattr__(name: str):
    # Served lazily from :mod:`repro.codesign.report`: importing it
    # eagerly here would load the CLI before ``python -m
    # repro.codesign.report`` executes it, which runpy warns about.
    if name == "render_table3":
        from repro.codesign.report import render_table3

        return render_table3
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DataflowGraph",
    "Node",
    "enrich_with_sck",
    "embed_output_checks",
    "Schedule",
    "asap_schedule",
    "alap_schedule",
    "list_schedule",
    "Allocation",
    "Binding",
    "bind",
    "AreaModel",
    "AreaReport",
    "TimingModel",
    "SoftwareEstimate",
    "estimate_software",
    "PartitionDecision",
    "partition",
    "ReliableCoDesignFlow",
    "FlowResult",
    "HardwareResult",
    "render_table3",
]
