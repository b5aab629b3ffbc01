"""Calibrated CLB-slice area model.

The paper reports post-synthesis Xilinx CLB-slice counts for the FIR
variants (Table 3).  The original Synopsys CoCentric scripts are not
recoverable, so this model estimates area additively from the bound
datapath, with constants calibrated once against the paper's plain-FIR
row and then applied unchanged to every variant (the honest way to
reproduce *relative* overheads):

``area = controller + units + steering + registers + error logic``

* *controller*: base FSM cost plus a per-state increment (longer
  schedules mean wider state registers and more next-state logic);
* *units*: per-instance cost; a multiplier bound to a single constant
  operand is costed as a cheap constant multiplier (shift-add network),
  which is why the paper's min-latency FIR is barely bigger than its
  min-area version despite holding four multipliers;
* *steering*: input multiplexers, proportional to the operations a unit
  instance serves beyond the first (resource sharing is not free --
  this term is what makes the paper's *min-area* SCK variant larger
  than its min-latency variant);
* *registers*: proportional to the peak number of values alive across
  a cycle boundary;
* *error logic*: per comparator/OR plus the error latch.

All constants live in :class:`AreaModel` and are dumped into every
:class:`AreaReport`, so every report states the calibration it was
computed under.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.codesign.allocation import Allocation
from repro.codesign.dfg import DataflowGraph
from repro.codesign.scheduling import Schedule


@dataclass(frozen=True)
class AreaModel:
    """Slice-cost constants (see module docstring for calibration)."""

    controller_base: int = 60
    controller_per_state: int = 8
    alu_slices: int = 45
    generic_mult_slices: int = 190
    constant_mult_slices: int = 52
    divider_slices: int = 230
    checker_slices: int = 45
    comparator_slices: int = 18
    io_slices: int = 25
    mux_per_extra_binding: int = 24
    register_slices: int = 9
    error_latch_slices: int = 6


@dataclass
class AreaReport:
    """Area breakdown for one bound implementation."""

    total: int
    breakdown: Dict[str, int]
    model: AreaModel

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.breakdown.items())
        return f"{self.total} slices ({parts})"


def _is_constant_mult(graph: DataflowGraph, allocation: Allocation, unit_key: Tuple[str, int]) -> bool:
    """A mult instance serving only by-constant products is a KCM."""
    ops = allocation.ops_on(*unit_key)
    if not ops:
        return False
    for name in ops:
        node = graph.node(name)
        if node.op != "mul":
            return False
        if not any(graph.node(arg).op == "const" for arg in node.args):
            return False
    return True


def _live_values_peak(schedule: Schedule) -> int:
    """Peak count of values produced but not yet fully consumed."""
    graph = schedule.graph
    last_use: Dict[str, int] = {}
    for node in graph.nodes:
        for arg in node.args:
            last_use[arg] = max(last_use.get(arg, 0), schedule.start[node.name])
    peak = 0
    for cycle in range(schedule.length + 1):
        live = 0
        for node in graph.nodes:
            if node.op == "const":
                continue
            born = schedule.finish(node.name)
            dies = last_use.get(node.name, born)
            if born <= cycle <= dies:
                live += 1
        peak = max(peak, live)
    return peak


def estimate_area(
    allocation: Allocation,
    model: AreaModel = AreaModel(),
) -> AreaReport:
    """Estimate CLB slices for a bound schedule."""
    schedule = allocation.schedule
    graph = schedule.graph
    breakdown: Dict[str, int] = {}

    breakdown["controller"] = (
        model.controller_base + model.controller_per_state * schedule.length
    )

    unit_cost = 0
    per_class_cost = {
        "alu": model.alu_slices,
        "div": model.divider_slices,
        "cmp": model.comparator_slices,
        "io": model.io_slices,
    }
    for unit_class, count in allocation.instances.items():
        for instance in range(count):
            if unit_class == "mult":
                if _is_constant_mult(graph, allocation, (unit_class, instance)):
                    unit_cost += model.constant_mult_slices
                else:
                    unit_cost += model.generic_mult_slices
            elif unit_class == "checker":
                # A checker unit is sized by the widest operation bound
                # to it: a checking multiplier costs what multipliers
                # cost, not what a spare ALU costs.
                ops = allocation.ops_on(unit_class, instance)
                if any(graph.node(name).op == "mul" for name in ops):
                    if _is_constant_mult(graph, allocation, (unit_class, instance)):
                        unit_cost += model.constant_mult_slices
                    else:
                        unit_cost += model.generic_mult_slices
                elif any(graph.node(name).op in ("div", "mod") for name in ops):
                    unit_cost += model.divider_slices
                else:
                    unit_cost += model.checker_slices
            else:
                unit_cost += per_class_cost.get(unit_class, model.alu_slices)
    breakdown["units"] = unit_cost

    steering = 0
    for degree in allocation.sharing_degree().values():
        if degree > 1:
            steering += model.mux_per_extra_binding * (degree - 1)
    breakdown["steering"] = steering

    breakdown["registers"] = model.register_slices * _live_values_peak(schedule)

    # Comparators and the OR network are combinational gates outside
    # the scheduled units; cost them directly per node.
    comparators = [n for n in graph.nodes if n.op == "cmpne"]
    or_gates = [n for n in graph.nodes if n.op == "or"]
    breakdown["error_logic"] = (
        model.comparator_slices * len(comparators)
        + model.error_latch_slices * len(or_gates)
        + (model.error_latch_slices if comparators else 0)
    )

    total = sum(breakdown.values())
    return AreaReport(total=total, breakdown=breakdown, model=model)
