"""Fault-injection campaigns over a :class:`~repro.arch.alu.FaultableALU`.

A campaign runs a user-supplied workload once per fault descriptor and
classifies each run:

* ``correct``   -- every output matched the golden run;
* ``detected``  -- at least one output differed *and* the workload's
  error indication was raised (or the run raised an exception);
* ``escaped``   -- an output differed silently (undetected error);
* ``false_alarm`` -- outputs matched but the error indication fired
  (the paper counts these as *useful* early detections: "the technique
  allows fault detection also when the produced result is correct").

The workload is any callable receiving the (possibly faulty) ALU and
returning ``(outputs, error_flag)``.

Besides the per-fault ALU campaigns, :func:`run_gate_level_campaign`
exposes the batched bit-parallel path: the whole stuck-at universe of a
gate-level netlist is simulated against one shared golden run
(:mod:`repro.gates.engine`) and folded into the same
:class:`CampaignResult` vocabulary (``detected`` / ``escaped``), so
campaign reporting works unchanged at either abstraction level.  Both
run in the calling process; :func:`run_sharded_stuck_at_campaign` adds
the result store on top of the engine campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.alu import FaultableALU
from repro.errors import CheckError, ReproError
from repro.faults.model import FaultDescriptor
from repro.gates.engine import StuckAtCampaignResult, run_stuck_at_campaign
from repro.gates.faults import (
    StuckAtFault,
    default_fault_universe,
    resolve_collapse_mode,
)
from repro.gates.netlist import Netlist
from repro.obs.trace import span as obs_span
from repro.store import (
    CacheKey,
    digest_faults,
    digest_input_vectors,
    digest_netlist,
    digest_params,
    resolve_store,
)

Workload = Callable[[FaultableALU], Tuple[Sequence[int], bool]]


#: ALU campaigns classify :class:`FaultDescriptor`\ s; gate-level
#: campaigns classify raw :class:`StuckAtFault`\ s through the same
#: result machinery (both expose ``describe()``).
CampaignFault = Union[FaultDescriptor, StuckAtFault]


@dataclass
class CampaignOutcome:
    """Classification of one fault's run."""

    fault: CampaignFault
    classification: str
    outputs: Tuple[int, ...] = ()

    def describe(self) -> str:
        return f"{self.classification:11s} {self.fault.describe()}"


@dataclass
class CampaignResult:
    """Aggregate result of a fault-injection campaign."""

    outcomes: List[CampaignOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def count(self, classification: str) -> int:
        return sum(1 for o in self.outcomes if o.classification == classification)

    @property
    def coverage(self) -> float:
        """Fraction of faults that did not silently escape.

        Matches the paper's definition: the result is either correct or
        an error signal is raised.
        """
        if not self.outcomes:
            return 1.0
        return 1.0 - self.count("escaped") / self.total

    @property
    def detection_while_correct(self) -> int:
        """Faults flagged although the final outputs were correct."""
        return self.count("false_alarm")

    def escaped_faults(self) -> List[CampaignFault]:
        return [o.fault for o in self.outcomes if o.classification == "escaped"]

    def summary(self) -> str:
        return (
            f"{self.total} faults: {self.count('correct')} silent-correct, "
            f"{self.count('false_alarm')} detected-while-correct, "
            f"{self.count('detected')} detected, "
            f"{self.count('escaped')} escaped "
            f"(coverage {100.0 * self.coverage:.2f}%)"
        )


class FaultInjector:
    """Runs fault-injection campaigns for a fixed-width workload."""

    def __init__(self, width: int = 16, cell_netlist: str = "xor3_majority") -> None:
        self.width = width
        self.cell_netlist = cell_netlist

    def golden_run(self, workload: Workload) -> Tuple[Tuple[int, ...], bool]:
        """Run the workload on a fault-free ALU."""
        alu = FaultableALU(self.width, self.cell_netlist)
        outputs, error = workload(alu)
        return tuple(int(v) for v in outputs), bool(error)

    def run(
        self,
        workload: Workload,
        faults: Iterable[FaultDescriptor],
    ) -> CampaignResult:
        """Inject each fault, run the workload, classify the outcome."""
        golden_outputs, golden_error = self.golden_run(workload)
        if golden_error:
            raise CheckError(
                "workload raises its error indication on a fault-free ALU; "
                "campaign classifications would be meaningless"
            )
        result = CampaignResult()
        for fault in faults:
            alu = FaultableALU(self.width, self.cell_netlist)
            alu.inject_fault(fault.unit, fault.cell, fault.position, fault.column)
            try:
                outputs, error = workload(alu)
            except ReproError:
                # A crash (e.g. division by zero caused by a corrupted
                # divisor) is an error indication in its own right.
                result.outcomes.append(CampaignOutcome(fault, "detected"))
                continue
            outputs = tuple(int(v) for v in outputs)
            wrong = outputs != golden_outputs
            if wrong and error:
                cls = "detected"
            elif wrong:
                cls = "escaped"
            elif error:
                cls = "false_alarm"
            else:
                cls = "correct"
            result.outcomes.append(CampaignOutcome(fault, cls, outputs))
        return result


def run_sharded_stuck_at_campaign(
    netlist: Netlist,
    vectors: Optional[Mapping[str, Union[int, np.ndarray]]] = None,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
    fault_dropping: bool = True,
    store=None,
) -> StuckAtCampaignResult:
    """:func:`~repro.gates.engine.run_stuck_at_campaign` behind the result store.

    The campaign runs in the calling process over the fault list
    (default: the full stem+branch universe) with any collapsing mode of
    :func:`~repro.gates.faults.resolve_collapse_mode`.

    With a result store active (``store=`` or ``REPRO_STORE``), the
    result memoises under a content key; a repeat run is a pure hit.
    """
    with obs_span("sharded_campaign", netlist=netlist.name):
        return _run_sharded_stuck_at_impl(
            netlist, vectors, faults, collapse, fault_dropping, store
        )


def _run_sharded_stuck_at_impl(
    netlist: Netlist,
    vectors: Optional[Mapping[str, Union[int, np.ndarray]]],
    faults: Optional[Iterable[StuckAtFault]],
    collapse: Union[bool, str],
    fault_dropping: bool,
    store,
) -> StuckAtCampaignResult:
    fault_seq: Optional[Tuple[StuckAtFault, ...]] = (
        tuple(faults) if faults is not None else None
    )
    store = resolve_store(store)
    key = None
    if store is not None:
        universe = (
            fault_seq if fault_seq is not None else default_fault_universe(netlist)
        )
        key = CacheKey(
            kind="campaign",
            netlist=digest_netlist(netlist),
            universe=digest_faults(universe),
            space=digest_input_vectors(netlist, vectors),
            method="stuck_at",
            params=digest_params(
                collapse=resolve_collapse_mode(collapse),
                fault_dropping=fault_dropping,
            ),
        )
        cached = store.get(key, faults=universe)
        if cached is not None:
            return cached
    # ``faults=None`` passes through untouched: it keeps the memoised
    # default-universe fast path.  A given ``faults`` is materialised
    # above, since it may be a one-shot iterator.
    result = run_stuck_at_campaign(
        netlist,
        inputs=vectors,
        faults=fault_seq,
        collapse=collapse,
        fault_dropping=fault_dropping,
    )
    if store is not None:
        store.put(key, result)
    return result


def run_gate_level_campaign(
    netlist: Netlist,
    vectors: Optional[Mapping[str, Union[int, np.ndarray]]] = None,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
    fault_dropping: bool = True,
    store=None,
) -> Tuple[CampaignResult, StuckAtCampaignResult]:
    """Batched stuck-at campaign over a gate-level netlist.

    Unlike :class:`FaultInjector` (one workload run per fault), this
    simulates the entire stuck-at universe in a single bit-parallel pass
    against a shared golden run, with structural fault collapsing and
    fault dropping.  ``vectors`` maps primary inputs to 0/1 arrays (all
    the same length); by default the exhaustive vector set is applied.

    A fault whose outputs diverge from the golden run on some vector is
    ``detected``; one that never diverges is ``escaped`` (at the bare
    gate level there is no checking operation to flag it).  Returns the
    classic :class:`CampaignResult` plus the raw
    :class:`~repro.gates.engine.StuckAtCampaignResult` for callers that
    need per-fault detecting vectors or the collapsing groups.
    """
    raw = run_sharded_stuck_at_campaign(
        netlist,
        vectors=vectors,
        faults=faults,
        collapse=collapse,
        fault_dropping=fault_dropping,
        store=store,
    )
    result = CampaignResult()
    for fault, hit in zip(raw.faults, raw.detected):
        result.outcomes.append(
            CampaignOutcome(fault, "detected" if hit else "escaped")
        )
    return result, raw
