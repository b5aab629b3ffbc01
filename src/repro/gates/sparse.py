"""Cone schedules of the campaign sweep over the compiled CSR arrays.

A stuck-at fault can only perturb the gates in the transitive fan-out
cone of its site; every gate outside that cone recomputes the golden
value a campaign already has.  This module turns the per-gate cone
bitmasks of :func:`repro.analysis.cones.analyze_gate_cones` into
*cone schedules*: fault groups are clustered by cone similarity into
fixed-size batches (keeping the vectorized fault-major matrix shape),
and each batch carries

* ``plan`` -- the :class:`~repro.gates.backends.plan.OverridePlan` of
  its member groups, built once and reused by every word chunk a
  sweep streams through the batch,
* ``gates`` -- the ascending compiled gate indices of the union cone,
  the only gates a backend's walk needs to evaluate, and
* ``out_ids`` -- the compiled net ids of the primary outputs reachable
  from any member site; outputs outside this set provably carry no
  detection bits, so the XOR/OR detection reduction skips them.

Clustering sorts groups by first-divergence level, then cone mask,
then fault site, so consecutive groups share cone structure, batch
union cones stay close to the per-member cones, and a batch's rows
arrive ascending in level with each site's rows adjacent (the order
that keeps the fused walk's tainted prefixes short).  The schedule is
consumed by the detection sweep campaigns, fault dictionaries and ATPG
share in :mod:`repro.gates.engine` (through
:meth:`~repro.gates.backends.base.Backend.run_detect`) and by the Table
1/2 gate sweeps in :mod:`repro.coverage.engine` (through
:meth:`~repro.gates.backends.base.Backend.run_outputs`).

Invariants a schedule guarantees (backends rely on them):

* every branch-site gate of a member is in ``gates``;
* every stem site's *driver* gate is in ``gates`` (stems are applied
  where the net is produced), or the net is a primary input handled by
  the backend's input materialisation;
* ``gates`` is ascending in compiled order, hence topologically sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gates.backends.plan import FaultGroup, OverridePlan
from repro.gates.compile import CompiledNetlist
from repro.gates.faults import FaultSite, StuckAtFault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis -> gates)
    from repro.analysis.cones import ConeAnalysis, GateConeAnalysis

_WORD = 64

#: Words in the first detection slab of the campaign sweep.
#: With fault dropping on, the sweep walks the vector space in slabs
#: that start here and double each step: most faults fall to the
#: earliest vectors, so the cheap first probe retires the bulk of the
#: universe and each wider slab re-schedules only the survivors (whose
#: union cones tighten as the shallow fault sites drop out).  Dropping
#: detected classes between slabs is the sweep's only early exit; the
#: kernels always walk a batch's whole cone.
SPARSE_WORD_SUBCHUNK = 64


@dataclass(frozen=True)
class SparseBatch:
    """One cone-clustered fault batch of a :class:`SparseSchedule`."""

    members: Tuple[int, ...]  # indices into the scheduled fault-group list
    plan: OverridePlan  # the members' overrides, row r simulating members[r]
    gates: np.ndarray  # ascending compiled gate ids covering every member cone
    out_ids: Tuple[int, ...]  # compiled net ids of the reachable primary outputs
    cone_fraction: float  # |gates| / n_gates


@dataclass(frozen=True)
class SparseSchedule:
    """Cone-clustered batching of one fault-group list."""

    batches: Tuple[SparseBatch, ...]
    cone_density: float  # mean per-group cone fraction of total gates
    n_gates: int

    @property
    def n_groups(self) -> int:
        return sum(len(b.members) for b in self.batches)


def _as_group(entry: FaultGroup) -> Tuple[StuckAtFault, ...]:
    if isinstance(entry, StuckAtFault):
        return (entry,)
    return tuple(entry)


def _mask_to_indices(mask: np.ndarray, limit: int) -> np.ndarray:
    """Ascending indices of the set bits of one packed uint64 mask row."""
    bits = np.unpackbits(mask.view(np.uint8), bitorder="little")
    idx = np.nonzero(bits)[0]
    return idx[idx < limit].astype(np.int64)


def _site_level(compiled: CompiledNetlist, fault: StuckAtFault) -> Tuple[int, int]:
    """First-divergence level of one site and a key unique per stem
    net / branch pin.

    A row cannot differ from the fault-free run below the shallowest
    level over its sites: a stem becomes observable at its shallowest
    reader (or, for read-free output nets, where it is produced), a
    branch at its gate.  The schedule sorts rows by it, which keeps the
    ``fused`` walk's tainted prefixes short.
    """
    if fault.site.is_stem:
        nid = compiled.net_id(fault.site.net)
        lo, hi = compiled.fanout_offsets[nid], compiled.fanout_offsets[nid + 1]
        if hi > lo:
            return int(compiled.gate_levels[compiled.fanout_gates[lo:hi]].min()), nid
        return int(compiled.net_levels[nid]), nid
    gate, pin = compiled.pin_id(*fault.site.branch)
    key = compiled.n_nets + int(compiled.operand_offsets[gate]) + pin
    return int(compiled.gate_levels[gate]), key


def fault_cone_mask(
    compiled: CompiledNetlist,
    gate_cones: "GateConeAnalysis",
    fault: StuckAtFault,
) -> np.ndarray:
    """Packed gate mask of everything ``fault`` can perturb.

    Stems cover the net's reader cone *plus the driver gate* (the
    sparse walk applies stem overrides where the net is produced);
    branches cover the faulted gate plus its downstream cone.
    """
    row = np.zeros(gate_cones.net_cone_masks.shape[1], dtype=np.uint64)
    if fault.site.is_stem:
        nid = compiled.net_id(fault.site.net)
        row |= gate_cones.net_cone_masks[nid]
        driver = int(gate_cones.driver_gates[nid])
        if driver >= 0:
            row[driver // _WORD] |= np.uint64(1) << np.uint64(driver % _WORD)
        return row
    gate, _pin = compiled.pin_id(*fault.site.branch)
    row |= gate_cones.gate_masks[gate]
    row[gate // _WORD] |= np.uint64(1) << np.uint64(gate % _WORD)
    return row


def _fault_reach_mask(
    compiled: CompiledNetlist,
    cones: "ConeAnalysis",
    fault: StuckAtFault,
) -> np.ndarray:
    if fault.site.is_stem:
        nid = compiled.net_id(fault.site.net)
        return cones.reach_masks[nid]
    gate, _pin = compiled.pin_id(*fault.site.branch)
    return cones.reach_masks[compiled.gate_output_ids[gate]]


def build_schedule(
    compiled: CompiledNetlist,
    fault_groups: Sequence[FaultGroup],
    fault_chunk: int,
    gate_cones: "GateConeAnalysis",
    cones: Optional["ConeAnalysis"] = None,
) -> SparseSchedule:
    """Cluster ``fault_groups`` into cone-similar batches.

    ``fault_chunk`` bounds the batch size, i.e. the fault-major matrix
    rows of one backend call; each batch's plan is built here, once.
    With ``cones`` the batches also carry the restricted primary-output
    id sets; without it every batch reduces over all outputs (still
    bit-identical, just more XOR/OR work).
    """
    n_groups = len(fault_groups)
    n_gates = compiled.n_gates
    gw = max(1, (n_gates + _WORD - 1) // _WORD)
    ow = max(1, (compiled.n_outputs + _WORD - 1) // _WORD)
    # Everything a row needs depends on its faults' sites only, and
    # multi-site groups (the Table sweeps' replicated cell faults) share
    # sites heavily: resolve each distinct site once, then fold every
    # group's sites with one segmented reduction per quantity.
    site_pos: Dict[FaultSite, int] = {}
    site_masks: List[np.ndarray] = []
    site_reach: List[np.ndarray] = []
    site_levels: List[int] = []
    site_keys: List[int] = []
    flat: List[int] = []
    starts = np.zeros(n_groups, dtype=np.int64)
    for i, entry in enumerate(fault_groups):
        starts[i] = len(flat)
        for fault in _as_group(entry):
            pos = site_pos.get(fault.site)
            if pos is None:
                pos = site_pos[fault.site] = len(site_keys)
                site_masks.append(fault_cone_mask(compiled, gate_cones, fault))
                if cones is not None:
                    site_reach.append(_fault_reach_mask(compiled, cones, fault))
                level, key = _site_level(compiled, fault)
                site_levels.append(level)
                site_keys.append(key)
            flat.append(pos)
    masks = np.zeros((n_groups, gw), dtype=np.uint64)
    reach = np.zeros((n_groups, ow), dtype=np.uint64)
    if cones is None:
        reach[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
    levels = np.full(n_groups, compiled.depth + 1, dtype=np.int64)
    sites = np.zeros(n_groups, dtype=np.int64)
    # Empty groups keep the defaults; dropping their (repeated) start
    # leaves every other group's segment intact.
    filled = np.nonzero(np.diff(np.append(starts, len(flat))))[0]
    if len(filled):
        idx = np.asarray(flat, dtype=np.int64)
        seg = starts[filled]
        masks[filled] = np.bitwise_or.reduceat(np.asarray(site_masks)[idx], seg, axis=0)
        if cones is not None:
            reach[filled] = np.bitwise_or.reduceat(
                np.asarray(site_reach)[idx], seg, axis=0
            )
        levels[filled] = np.minimum.reduceat(np.asarray(site_levels)[idx], seg)
        sites[filled] = np.minimum.reduceat(np.asarray(site_keys)[idx], seg)

    # Primary key: first-divergence level; then the cone mask words, so
    # equal-level groups with overlapping cones land in the same batch;
    # then the site, so rows overriding one site sit side by side.
    keys = [sites] + [masks[:, w] for w in range(gw - 1, -1, -1)] + [levels]
    order = np.lexsort(keys)

    output_ids = [int(i) for i in compiled.output_ids]
    chunk = max(1, int(fault_chunk))
    batches = []
    for lo in range(0, n_groups, chunk):
        members = order[lo : lo + chunk]
        union = np.bitwise_or.reduce(masks[members], axis=0)
        gates = _mask_to_indices(union, n_gates)
        out_union = np.bitwise_or.reduce(reach[members], axis=0)
        out_ids = tuple(
            output_ids[k] for k in _mask_to_indices(out_union, compiled.n_outputs)
        )
        member_ids = tuple(int(m) for m in members)
        batches.append(
            SparseBatch(
                members=member_ids,
                plan=OverridePlan(compiled, [fault_groups[m] for m in member_ids]),
                gates=gates,
                out_ids=out_ids,
                cone_fraction=float(len(gates) / n_gates) if n_gates else 0.0,
            )
        )

    if n_groups and n_gates:
        from repro.analysis.cones import _popcount_rows

        density = float(_popcount_rows(masks).mean() / n_gates)
    else:
        density = 0.0
    return SparseSchedule(
        batches=tuple(batches), cone_density=density, n_gates=n_gates
    )


__all__ = [
    "SPARSE_WORD_SUBCHUNK",
    "SparseBatch",
    "SparseSchedule",
    "build_schedule",
    "fault_cone_mask",
]
