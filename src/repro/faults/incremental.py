"""Incremental campaign recomputation across netlist edits.

Re-running a whole stuck-at campaign after touching one gate wastes
nearly all of its work: a fault whose detection behaviour provably
cannot have changed keeps its old verdict.  This module makes that
proof and the reuse explicit:

* :func:`diff_netlists` -- a gate-level structural diff of two netlist
  versions, by gate instance name over ``(cell_type, inputs, output)``;
* :func:`incremental_stuck_at_campaign` -- given the previous
  campaign's result (passed in, or found in the result store under the
  old netlist's content key), re-simulates only the fault classes whose
  verdicts the edit can reach and merges the rest from the old result,
  **bit-identically** to a from-scratch
  :func:`~repro.gates.engine.run_stuck_at_campaign` over the new
  netlist (``detected`` / ``first_detected`` / ``faults`` /
  ``n_vectors`` all equal; only the ``n_simulated_runs`` work counter
  reflects the saving).

The reuse proof, per equivalence-class representative fault:

1. the identical fault (same site, same polarity) existed in the old
   universe, so the old result recorded its exact verdict (structural
   equivalence classes share *identical* detection words, so the old
   broadcast verdict is exact, not approximate);
2. the set of primary outputs reachable from the fault site is the
   same, by name, in both versions; and
3. none of those outputs is *dirty* -- reachable from any added,
   removed or modified gate (in whichever version the gate exists).

Condition 3 implies every reached output's transitive fan-in cone is
gate-for-gate identical (a changed gate in the cone of output ``p``
would make ``p`` reachable from that gate), so both the golden and the
faulty functions at every reachable output are unchanged, hence the
detection words -- and the earliest detecting vector -- are unchanged.
Outputs outside the reach set never differ from golden in either
version.  Everything else (including every fault at a site the old
netlist did not have) is re-simulated, one representative per class,
over the same exhaustive vector set.

Out of scope, falling back to a full from-scratch campaign (recorded
in :attr:`IncrementalCampaignResult.reason`): changed primary-input or
primary-output interfaces, and a missing/mismatched old result.
Dominance collapsing is rejected outright -- its verdict inference
crosses cone boundaries, so per-class reuse proofs do not compose.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.gates.engine import (
    StuckAtCampaignResult,
    run_stuck_at_campaign,
)
from repro.gates.faults import (
    StuckAtFault,
    default_fault_universe,
    fault_classes,
    resolve_collapse_mode,
)
from repro.gates.memo import netlist_fingerprint
from repro.gates.netlist import Gate, Netlist
from repro.obs import events as obs_events
from repro.obs.trace import span as obs_span
from repro.store import (
    CacheKey,
    digest_faults,
    digest_input_vectors,
    digest_netlist,
    digest_params,
    resolve_store,
)


# ----------------------------------------------------------------------
# Structural diff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetlistDiff:
    """Gate-level structural diff of two netlist versions.

    Gates are matched by instance name; a matched gate counts as
    ``modified`` when its ``(cell_type, inputs, output)`` signature
    changed.  ``io_changed`` flags a different primary-input or
    primary-output interface (order included -- input order defines the
    packed vector layout).
    """

    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    modified: Tuple[str, ...]
    io_changed: bool

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.modified or self.io_changed)

    @property
    def n_changed_gates(self) -> int:
        return len(self.added) + len(self.removed) + len(self.modified)

    def describe(self) -> str:
        if self.is_empty:
            return "identical"
        parts = []
        if self.io_changed:
            parts.append("io changed")
        for label, names in (
            ("added", self.added),
            ("removed", self.removed),
            ("modified", self.modified),
        ):
            if names:
                parts.append(f"{label}: {', '.join(names)}")
        return "; ".join(parts)


def _gate_signature(gate: Gate) -> Tuple:
    return (gate.cell_type, tuple(gate.inputs), gate.output)


def diff_netlists(old: Netlist, new: Netlist) -> NetlistDiff:
    """Structural diff of ``old`` -> ``new`` by gate instance name."""
    old_gates = {g.name: g for g in old.gates}
    new_gates = {g.name: g for g in new.gates}
    if len(old_gates) != len(old.gates) or len(new_gates) != len(new.gates):
        raise SimulationError(
            "diff_netlists needs unique gate instance names in both versions"
        )
    added = tuple(sorted(set(new_gates) - set(old_gates)))
    removed = tuple(sorted(set(old_gates) - set(new_gates)))
    modified = tuple(
        sorted(
            name
            for name in set(old_gates) & set(new_gates)
            if _gate_signature(old_gates[name]) != _gate_signature(new_gates[name])
        )
    )
    io_changed = (
        list(old.primary_inputs) != list(new.primary_inputs)
        or list(old.primary_outputs) != list(new.primary_outputs)
    )
    return NetlistDiff(
        added=added, removed=removed, modified=modified, io_changed=io_changed
    )


# ----------------------------------------------------------------------
# Verdict-preservation proof
# ----------------------------------------------------------------------
def dirty_outputs(old: Netlist, new: Netlist, diff: NetlistDiff) -> frozenset:
    """Primary-output names whose function the edit may have changed.

    The union, over every added/removed/modified gate, of the primary
    outputs reachable from its output net -- computed in the version
    the gate exists in (both for modifications).  An output *not* in
    this set has a gate-for-gate identical fan-in cone in both
    versions.
    """
    from repro.analysis.cones import analyze_cones

    dirty: set = set()
    if diff.removed or diff.modified:
        cones = analyze_cones(old, store=False)
        gates = {g.name: g for g in old.gates}
        for name in diff.removed + diff.modified:
            dirty.update(cones.outputs_reached(gates[name].output))
    if diff.added or diff.modified:
        cones = analyze_cones(new, store=False)
        gates = {g.name: g for g in new.gates}
        for name in diff.added + diff.modified:
            dirty.update(cones.outputs_reached(gates[name].output))
    return frozenset(dirty)


class _ReachIndex:
    """Packed reached-primary-output masks per fault site, one netlist.

    ``reach_masks[row_of(fault)]`` is the packed set of primary-output
    *declared indices* the fault can perturb; with an unchanged I/O
    interface the declared order is identical in both versions, so mask
    rows compare across versions word-for-word.  Keeping the proof in
    packed-row space (one gather + two array comparisons for every
    class at once) is what makes the reuse audit cost microseconds
    instead of rivalling the remainder simulation.
    """

    def __init__(self, netlist: Netlist) -> None:
        from repro.analysis.cones import analyze_cones

        self._cones = analyze_cones(netlist, store=False)
        self._gates = {g.name: g for g in netlist.gates}
        self._nids = self._cones._net_ids

    @property
    def reach_masks(self) -> np.ndarray:
        return self._cones.reach_masks

    def row_of(self, fault: StuckAtFault) -> int:
        """Reach-mask row of the fault's entry net, -1 when the site
        does not exist in this netlist version."""
        site = fault.site
        if site.is_stem:
            return self._nids.get(site.net, -1)
        gate_name, pin = site.branch
        gate = self._gates.get(gate_name)
        if gate is None or pin >= len(gate.inputs) or gate.inputs[pin] != site.net:
            return -1
        return self._nids.get(gate.output, -1)

    def reach_of(self, fault: StuckAtFault) -> Optional[frozenset]:
        """Output-name set the fault can perturb, or None when the
        site does not exist in this netlist version."""
        row = self.row_of(fault)
        if row < 0:
            return None
        names = self._cones.output_names
        mask = self.reach_masks[row]
        return frozenset(
            names[k]
            for k in range(len(names))
            if mask[k // 64] >> np.uint64(k % 64) & np.uint64(1)
        )


# ----------------------------------------------------------------------
# The incremental campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IncrementalCampaignResult:
    """A merged campaign over the new netlist plus its reuse audit."""

    result: StuckAtCampaignResult  #: bit-identical to a from-scratch campaign
    diff: NetlistDiff
    n_reused_classes: int
    n_resimulated_classes: int
    n_reused_faults: int
    n_resimulated_faults: int
    scratch: bool  #: True when the whole campaign was re-run from scratch
    reason: str  #: why (scope fallback) or how (reuse stats) -- human readable

    @property
    def reuse_fraction(self) -> float:
        total = self.n_reused_faults + self.n_resimulated_faults
        return self.n_reused_faults / total if total else 0.0


def _old_result_from_store(
    store,
    old: Netlist,
    mode: str,
    fault_dropping: bool,
) -> Optional[StuckAtCampaignResult]:
    """Look up the old campaign in the result store."""
    if store is None:
        return None
    universe = default_fault_universe(old)
    key = CacheKey(
        kind="campaign",
        netlist=digest_netlist(old),
        universe=digest_faults(universe),
        space=digest_input_vectors(old, None),
        method="stuck_at",
        params=digest_params(collapse=mode, fault_dropping=fault_dropping),
    )
    return store.get(key, faults=universe)


def incremental_stuck_at_campaign(
    old: Netlist,
    new: Netlist,
    old_result: Optional[StuckAtCampaignResult] = None,
    collapse: Union[bool, str] = True,
    fault_dropping: bool = True,
    store=None,
) -> IncrementalCampaignResult:
    """Exhaustive stuck-at campaign over ``new``, reusing ``old``'s verdicts.

    ``old_result`` is the previous campaign over ``old`` (exhaustive
    vector set, default fault universe); omitted, it is looked up in
    the result store (``store=`` or ``REPRO_STORE``).  The returned
    :attr:`~IncrementalCampaignResult.result` is bit-identical to
    ``run_stuck_at_campaign(new, collapse=collapse, ...)`` in
    ``faults`` / ``detected`` / ``first_detected`` / ``n_vectors`` /
    ``groups``; ``n_simulated_runs`` counts only the work actually
    redone.  The merged result is stored under the new netlist's
    regular campaign key, so subsequent campaigns and further
    incremental steps chain off it.

    ``collapse`` accepts ``"equivalence"`` (default) or ``"none"``;
    ``"dominance"`` raises :class:`~repro.errors.SimulationError`
    (dominance infers verdicts across cone boundaries, which breaks
    the per-class reuse proof).  When the edit is out of scope --
    changed I/O interface, or no usable old result -- the campaign
    silently falls back to from-scratch simulation and says so in
    :attr:`~IncrementalCampaignResult.reason`.
    """
    mode = resolve_collapse_mode(collapse)
    if mode == "dominance":
        raise SimulationError(
            "incremental_stuck_at_campaign cannot prove reuse under dominance "
            "collapsing (verdicts are inferred across cone boundaries); use "
            'collapse="equivalence" or "none"'
        )
    store = resolve_store(store)

    with obs_span("incremental_campaign", netlist=new.name):
        result = _incremental_impl(
            old, new, old_result, mode, fault_dropping, store
        )
    obs_events.emit(
        obs_events.INCREMENTAL_CAMPAIGN,
        netlist=new.name,
        scratch=result.scratch,
        n_reused_faults=result.n_reused_faults,
        n_resimulated_faults=result.n_resimulated_faults,
        n_changed_gates=result.diff.n_changed_gates,
        reason=result.reason,
    )
    return result


def _scratch(
    new: Netlist,
    diff: NetlistDiff,
    mode: str,
    fault_dropping: bool,
    store,
    reason: str,
) -> IncrementalCampaignResult:
    from repro.faults.injector import run_sharded_stuck_at_campaign

    result = run_sharded_stuck_at_campaign(
        new,
        collapse=mode,
        fault_dropping=fault_dropping,
        store=False if store is None else store,
    )
    return IncrementalCampaignResult(
        result=result,
        diff=diff,
        n_reused_classes=0,
        n_resimulated_classes=len(result.groups),
        n_reused_faults=0,
        n_resimulated_faults=len(result.faults),
        scratch=True,
        reason=reason,
    )


@dataclass(frozen=True)
class _ReuseProof:
    """Structural reuse proof of one ``(old, new, collapse)`` pair.

    Everything here depends only on the two netlist *structures*, never
    on campaign verdicts, so repeated incremental steps between the same
    versions (the edit-simulate loop this module exists for) pay dict
    lookups instead of re-proving.  The flat scatter arrays turn verdict
    merging into four fancy-indexed assignments.
    """

    diff: NetlistDiff
    fault_seq: Tuple[StuckAtFault, ...]  # the new default universe
    groups: Tuple[Tuple[int, ...], ...]
    n_reused_classes: int
    reuse_fi: np.ndarray  # member fault indices of every reused class
    reuse_src: np.ndarray  # old-result row per reused member
    remainder_reps: Tuple[StuckAtFault, ...]  # one rep per re-simulated class
    rem_fi: np.ndarray  # member fault indices of every re-simulated class
    rem_src: np.ndarray  # remainder-result row per re-simulated member


#: (id(old), id(new), collapse mode) -> (refs, fingerprints, proof).
_PROOF_MEMO: Dict[Tuple[int, int, str], Tuple] = {}
_PROOF_MEMO_MAX = 32


def _reuse_proof(old: Netlist, new: Netlist, mode: str) -> _ReuseProof:
    key = (id(old), id(new), mode)
    stamp = (netlist_fingerprint(old), netlist_fingerprint(new))
    hit = _PROOF_MEMO.get(key)
    if (
        hit is not None
        and hit[0]() is old
        and hit[1]() is new
        and hit[2] == stamp
    ):
        return hit[3]
    proof = _compute_reuse_proof(old, new, mode)
    try:
        refs = (
            weakref.ref(old, lambda _r, _k=key: _PROOF_MEMO.pop(_k, None)),
            weakref.ref(new, lambda _r, _k=key: _PROOF_MEMO.pop(_k, None)),
        )
    except TypeError:  # pragma: no cover - non-weakrefable netlist
        refs = ((lambda: old), (lambda: new))
    if key in _PROOF_MEMO:
        del _PROOF_MEMO[key]
    _PROOF_MEMO[key] = (refs[0], refs[1], stamp, proof)
    while len(_PROOF_MEMO) > _PROOF_MEMO_MAX:
        del _PROOF_MEMO[next(iter(_PROOF_MEMO))]
    return proof


def _compute_reuse_proof(old: Netlist, new: Netlist, mode: str) -> _ReuseProof:
    diff = diff_netlists(old, new)
    fault_seq, groups = fault_classes(new, None, mode)
    empty = np.empty(0, dtype=np.int64)
    if diff.io_changed:
        # Out of scope; the caller falls back to scratch, so the class
        # partition below is never needed.
        return _ReuseProof(
            diff, fault_seq, groups, 0, empty, empty, (), empty, empty
        )

    old_universe = default_fault_universe(old)
    old_index: Dict[StuckAtFault, int] = {f: i for i, f in enumerate(old_universe)}
    dirty = dirty_outputs(old, new, diff)
    old_reach = _ReachIndex(old)
    new_reach = _ReachIndex(new)

    # Evaluate the three proof conditions for every class at once over
    # packed reach-mask rows (bit k = declared output index k, the same
    # layout in both versions because the I/O interface is unchanged).
    out_names = tuple(new.primary_outputs)
    ow = new_reach.reach_masks.shape[1]
    dirty_row = np.zeros(ow, dtype=np.uint64)
    for k, po in enumerate(out_names):
        if po in dirty:
            dirty_row[k // 64] |= np.uint64(1) << np.uint64(k % 64)
    n_classes = len(groups)
    reps = [fault_seq[members[0]] for members in groups]
    old_idx = np.fromiter(
        (old_index.get(rep, -1) for rep in reps), dtype=np.int64, count=n_classes
    )
    old_rows = np.fromiter(
        (old_reach.row_of(rep) for rep in reps), dtype=np.int64, count=n_classes
    )
    new_rows = np.fromiter(
        (new_reach.row_of(rep) for rep in reps), dtype=np.int64, count=n_classes
    )
    ok = (old_idx >= 0) & (old_rows >= 0) & (new_rows >= 0)
    om = old_reach.reach_masks[np.maximum(old_rows, 0)]
    nm = new_reach.reach_masks[np.maximum(new_rows, 0)]
    ok &= (om == nm).all(axis=1)
    ok &= ~((nm & dirty_row[None, :]) != 0).any(axis=1)

    reused_classes = np.nonzero(ok)[0]
    remainder = np.nonzero(~ok)[0]
    reuse_fi = np.fromiter(
        (fi for ci in reused_classes for fi in groups[ci]), dtype=np.int64
    )
    reuse_src = np.fromiter(
        (old_idx[ci] for ci in reused_classes for _fi in groups[ci]),
        dtype=np.int64,
        count=len(reuse_fi),
    )
    rem_fi = np.fromiter(
        (fi for ci in remainder for fi in groups[ci]), dtype=np.int64
    )
    rem_src = np.fromiter(
        (k for k, ci in enumerate(remainder) for _fi in groups[ci]),
        dtype=np.int64,
        count=len(rem_fi),
    )
    return _ReuseProof(
        diff=diff,
        fault_seq=fault_seq,
        groups=groups,
        n_reused_classes=int(len(reused_classes)),
        reuse_fi=reuse_fi,
        reuse_src=reuse_src,
        remainder_reps=tuple(fault_seq[groups[ci][0]] for ci in remainder),
        rem_fi=rem_fi,
        rem_src=rem_src,
    )


def _incremental_impl(
    old: Netlist,
    new: Netlist,
    old_result: Optional[StuckAtCampaignResult],
    mode: str,
    fault_dropping: bool,
    store,
) -> IncrementalCampaignResult:
    proof = _reuse_proof(old, new, mode)
    diff = proof.diff
    if diff.io_changed:
        return _scratch(
            new, diff, mode, fault_dropping, store,
            "scratch: primary I/O interface changed",
        )
    if old_result is None:
        old_result = _old_result_from_store(store, old, mode, fault_dropping)
        if old_result is None:
            return _scratch(
                new, diff, mode, fault_dropping, store,
                "scratch: no old campaign result (none passed, none stored)",
            )
    if (
        tuple(old_result.faults) != default_fault_universe(old)
        or old_result.n_vectors != 1 << len(old.primary_inputs)
    ):
        return _scratch(
            new, diff, mode, fault_dropping, store,
            "scratch: old result does not cover the exhaustive default universe",
        )

    fault_seq = proof.fault_seq
    groups = proof.groups

    detected = np.zeros(len(fault_seq), dtype=bool)
    first_detected = np.full(len(fault_seq), -1, dtype=np.int64)
    # Proof complete for every reused member: every output the fault
    # can perturb has an identical fan-in cone in both versions, so its
    # detection words -- and earliest witness -- are unchanged.
    detected[proof.reuse_fi] = old_result.detected[proof.reuse_src]
    first_detected[proof.reuse_fi] = old_result.first_detected[proof.reuse_src]

    n_runs = 0
    if proof.remainder_reps:
        # One representative per remaining class, scattered rows: the
        # per-fault detection words are independent of batch
        # composition, so simulating reps alone is bit-identical to
        # their verdicts inside the full campaign.
        part = run_stuck_at_campaign(
            new,
            faults=list(proof.remainder_reps),
            collapse="none",
            fault_dropping=fault_dropping,
        )
        n_runs = part.n_simulated_runs
        detected[proof.rem_fi] = part.detected[proof.rem_src]
        first_detected[proof.rem_fi] = part.first_detected[proof.rem_src]

    merged = StuckAtCampaignResult(
        netlist_name=new.name,
        faults=fault_seq,
        detected=detected,
        first_detected=first_detected,
        n_vectors=1 << len(new.primary_inputs),
        n_simulated_runs=n_runs,
        groups=groups,
    )
    if store is not None:
        key = CacheKey(
            kind="campaign",
            netlist=digest_netlist(new),
            universe=digest_faults(fault_seq),
            space=digest_input_vectors(new, None),
            method="stuck_at",
            params=digest_params(collapse=mode, fault_dropping=fault_dropping),
        )
        store.put(
            key,
            merged,
            {"incremental": True, "reused_classes": proof.n_reused_classes},
        )
    n_reused_faults = int(len(proof.reuse_fi))
    n_resim_faults = int(len(proof.rem_fi))
    return IncrementalCampaignResult(
        result=merged,
        diff=diff,
        n_reused_classes=proof.n_reused_classes,
        n_resimulated_classes=len(proof.remainder_reps),
        n_reused_faults=n_reused_faults,
        n_resimulated_faults=n_resim_faults,
        scratch=False,
        reason=(
            f"incremental: reused {proof.n_reused_classes}/{len(groups)} "
            f"classes ({n_reused_faults}/{len(fault_seq)} faults) across "
            f"{diff.n_changed_gates} changed gates"
        ),
    )


__all__ = [
    "NetlistDiff",
    "diff_netlists",
    "dirty_outputs",
    "IncrementalCampaignResult",
    "incremental_stuck_at_campaign",
]
