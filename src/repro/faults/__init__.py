"""Fault model: descriptors, activation schedules and campaign injection.

The paper's fault model is the *single functional unit failure*: any
number of physical faults may affect one (and only one) functional unit,
manifesting as errors (stuck-at, bit-flip...) on the bits of the result.
Permanent, transient and intermittent faults are all covered.

* :mod:`repro.faults.model` -- fault descriptors and activation
  schedules (permanent / transient / intermittent);
* :mod:`repro.faults.universe` -- the canonical 32-fault full-adder
  universe and enumeration of (fault, location) cases per unit type;
* :mod:`repro.faults.injector` -- campaign orchestration: per-fault ALU
  workloads (:class:`FaultInjector`) and the batched gate-level
  campaigns (:func:`run_gate_level_campaign`,
  :func:`run_sharded_stuck_at_campaign`);
* :mod:`repro.faults.sharding` -- the in-process, order-preserving
  shard loop behind the store's span checkpoints;
* :mod:`repro.faults.incremental` -- campaign recomputation across
  netlist edits: structural diff, verdict-preservation proofs, and
  store-backed reuse (:func:`incremental_stuck_at_campaign`).
"""

from repro.faults.model import (
    ActivationSchedule,
    FaultDescriptor,
    intermittent,
    permanent,
    transient,
)
from repro.faults.universe import (
    AdderFaultCase,
    DividerFaultCase,
    MultiplierFaultCase,
    adder_fault_cases,
    divider_fault_cases,
    multiplier_fault_cases,
)
from repro.faults.injector import (
    CampaignResult,
    FaultInjector,
    run_gate_level_campaign,
    run_sharded_stuck_at_campaign,
)
from repro.faults.incremental import (
    IncrementalCampaignResult,
    NetlistDiff,
    diff_netlists,
    incremental_stuck_at_campaign,
)

__all__ = [
    "ActivationSchedule",
    "FaultDescriptor",
    "permanent",
    "transient",
    "intermittent",
    "AdderFaultCase",
    "MultiplierFaultCase",
    "DividerFaultCase",
    "adder_fault_cases",
    "multiplier_fault_cases",
    "divider_fault_cases",
    "FaultInjector",
    "CampaignResult",
    "run_gate_level_campaign",
    "run_sharded_stuck_at_campaign",
    "NetlistDiff",
    "diff_netlists",
    "IncrementalCampaignResult",
    "incremental_stuck_at_campaign",
]
