"""Static fault collapsing: structural equivalence plus dominance.

Built on the equivalence partition of :mod:`repro.gates.faults`
(controlling input stuck values merge with the implied output stuck
value; BUF/NOT inputs merge with their outputs).  This module adds the
classical *dominance* relation: for an AND gate, a test for an input
stuck at its non-controlling value ``1`` must set every other input to
``1`` and propagate the output -- which also detects the output
stuck-at-1.  Formally ``tests(input SA-noncontrolling) is a subset of
tests(output SA-v)`` with

=====  ==================  ====================
cell   dominated pin SAv   dominating output SAv
=====  ==================  ====================
AND    SA1                 SA1
NAND   SA1                 SA0
OR     SA0                 SA0
NOR    SA0                 SA1
=====  ==================  ====================

so the dominating output fault need not be targeted: any detection of a
dominated pin fault implies its detection.  A pin reads its *branch*
site when the net fans out, else the stem; a stem that is also a
primary output is never dominated (its fault is directly observable
there, so the subset relation breaks) -- the same caveat the
equivalence rules apply.

The result is a :class:`CollapseMap` over the equivalence classes:

- ``kept`` classes (no incoming dominance edge) are simulated directly;
- ``dropped`` classes are resolved afterwards, in topological order:
  *detected* as soon as any dominated predecessor is detected (exact
  for every vector set, by the subset relation), and *residually
  simulated* when every predecessor came back undetected -- the
  predecessors' tests are a subset, so an undetected predecessor says
  nothing about the dominator (an AND output SA1 is detectable by an
  all-zeros input even when every single-input SA1 is redundant).

Detection verdicts therefore expand back **bit-identical** to the
uncollapsed campaign.  ``first_detected`` of an *inferred* class is a
valid detecting vector (the earliest among its predecessors' witnesses)
but not necessarily the globally earliest one; equivalence-only
collapsing keeps ``first_detected`` exact.

Dominance chains compose (a gate output with fanout one is the next
gate's pin site), so resolution runs in waves; cycles cannot arise from
these rules on an acyclic netlist, but the builder falls back to
keeping any cyclic class defensively.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import FaultError
from repro.gates.cells import CellType
from repro.gates.faults import (
    StuckAtFault,
    _fault_key,
    fault_classes,
)
from repro.gates.memo import identity_memo, netlist_fingerprint
from repro.gates.netlist import Netlist

#: Per cell type: (non-controlling pin stuck value, implied output stuck
#: value of the *dominating* output fault).
_DOMINANCE: Dict[CellType, Tuple[int, int]] = {
    CellType.AND: (1, 1),
    CellType.NAND: (1, 0),
    CellType.OR: (0, 0),
    CellType.NOR: (0, 1),
}

COLLAPSE_MAP_MODES = ("equivalence", "dominance")


@dataclass(frozen=True)
class CollapseMap:
    """The collapsed view of one fault universe.

    ``groups`` are the structural-equivalence classes (index groups into
    the fault list, as in :func:`structural_equivalence_groups`).
    ``kept`` are the class indices a campaign simulates directly;
    ``dropped`` lists the dominating classes in topological resolution
    order (every predecessor resolves first);
    ``implied_by[c]`` are the classes whose detection implies class
    ``c``'s detection (empty for kept classes).
    """

    netlist_name: str
    mode: str
    n_faults: int
    groups: Tuple[Tuple[int, ...], ...]
    kept: Tuple[int, ...]
    dropped: Tuple[int, ...]
    implied_by: Tuple[Tuple[int, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.groups)

    @property
    def n_kept(self) -> int:
        return len(self.kept)

    @property
    def reduction(self) -> float:
        """Fraction of the *uncollapsed* universe not simulated up
        front (residual simulation of undetected dominators can claw a
        little back)."""
        return 1.0 - self.n_kept / self.n_faults if self.n_faults else 0.0

    def summary(self) -> str:
        return (
            f"{self.netlist_name}: {self.mode} collapse, "
            f"{self.n_faults} faults -> {self.n_classes} classes -> "
            f"{self.n_kept} kept ({100.0 * self.reduction:.1f}% reduction)"
        )


def _dominance_edges(
    netlist: Netlist,
    fault_seq: Sequence[StuckAtFault],
    groups: Sequence[Sequence[int]],
) -> Dict[int, Set[int]]:
    """Dominance edges between equivalence classes.

    Returns ``{dominating class: {dominated predecessor classes}}``;
    self-edges (pin and output fault already equivalence-merged) are
    skipped, as are faults absent from a restricted universe.
    """
    class_of: Dict[Tuple, int] = {}
    for ci, members in enumerate(groups):
        for fi in members:
            class_of[_fault_key(fault_seq[fi])] = ci
    outputs = set(netlist.primary_outputs)
    preds: Dict[int, Set[int]] = {}
    for gate in netlist.gates:
        rule = _DOMINANCE.get(gate.cell_type)
        if rule is None:
            continue
        pin_value, out_value = rule
        cv = class_of.get((gate.output, None, out_value))
        if cv is None:
            continue
        for pin, net in enumerate(gate.inputs):
            if netlist.fanout_count(net) >= 2:
                branch: Optional[Tuple[str, int]] = (gate.name, pin)
            elif net in outputs:
                continue  # stem observable at a PO: no subset relation
            else:
                branch = None
            cu = class_of.get((net, branch, pin_value))
            if cu is None or cu == cv:
                continue
            preds.setdefault(cv, set()).add(cu)
    return preds


def _build_map(
    netlist: Netlist,
    fault_seq: Optional[Sequence[StuckAtFault]],
    mode: str,
) -> CollapseMap:
    fault_seq, groups = fault_classes(netlist, fault_seq)
    n_classes = len(groups)
    if mode == "equivalence":
        return CollapseMap(
            netlist_name=netlist.name,
            mode=mode,
            n_faults=len(fault_seq),
            groups=groups,
            kept=tuple(range(n_classes)),
            dropped=(),
            implied_by=tuple(() for _ in range(n_classes)),
        )

    preds = _dominance_edges(netlist, fault_seq, groups)
    succs: Dict[int, List[int]] = {}
    indegree = [0] * n_classes
    for cv, sources in preds.items():
        indegree[cv] = len(sources)
        for cu in sources:
            succs.setdefault(cu, []).append(cv)

    # Kahn over the class graph: in-degree-0 classes are kept, the rest
    # resolve in topological waves.  Any class left on a cycle (cannot
    # happen on an acyclic netlist, but be defensive) is kept too.
    remaining = [d for d in indegree]
    ready = deque(c for c in range(n_classes) if remaining[c] == 0)
    topo_dropped: List[int] = []
    seen = 0
    while ready:
        c = ready.popleft()
        seen += 1
        if indegree[c] > 0:
            topo_dropped.append(c)
        for s in succs.get(c, ()):
            remaining[s] -= 1
            if remaining[s] == 0:
                ready.append(s)
    cyclic = {c for c in range(n_classes) if remaining[c] > 0} if seen != n_classes else set()
    kept = tuple(
        c for c in range(n_classes) if indegree[c] == 0 or c in cyclic
    )
    dropped = tuple(c for c in topo_dropped if c not in cyclic)
    dropped_set = set(dropped)
    implied_by = tuple(
        tuple(sorted(preds[c])) if c in dropped_set else ()
        for c in range(n_classes)
    )
    return CollapseMap(
        netlist_name=netlist.name,
        mode=mode,
        n_faults=len(fault_seq),
        groups=groups,
        kept=kept,
        dropped=dropped,
        implied_by=implied_by,
    )


_collapse_memo = identity_memo(netlist_fingerprint)


@_collapse_memo
def _default_dominance_map(netlist: Netlist) -> CollapseMap:
    return _build_map(netlist, None, "dominance")


@_collapse_memo
def _default_equivalence_map(netlist: Netlist) -> CollapseMap:
    return _build_map(netlist, None, "equivalence")


def _map_payload(cmap: CollapseMap) -> dict:
    def pack(groups: Sequence[Sequence[int]]):
        offsets = np.zeros(len(groups) + 1, dtype=np.int64)
        np.cumsum([len(g) for g in groups], out=offsets[1:])
        members = np.array(
            [i for g in groups for i in g], dtype=np.int64
        )
        return offsets, members

    group_offsets, group_members = pack(cmap.groups)
    implied_offsets, implied_members = pack(cmap.implied_by)
    return {
        "netlist_name": cmap.netlist_name,
        "mode": cmap.mode,
        "n_faults": cmap.n_faults,
        "arrays": {
            "group_offsets": group_offsets,
            "group_members": group_members,
            "kept": np.array(cmap.kept, dtype=np.int64),
            "dropped": np.array(cmap.dropped, dtype=np.int64),
            "implied_offsets": implied_offsets,
            "implied_members": implied_members,
        },
    }


def _map_from_payload(payload: dict) -> CollapseMap:
    arrays = payload["arrays"]

    def unpack(offsets, members) -> Tuple[Tuple[int, ...], ...]:
        offsets = np.asarray(offsets, dtype=np.int64)
        members = np.asarray(members, dtype=np.int64)
        return tuple(
            tuple(int(i) for i in members[lo:hi])
            for lo, hi in zip(offsets[:-1], offsets[1:])
        )

    return CollapseMap(
        netlist_name=str(payload["netlist_name"]),
        mode=str(payload["mode"]),
        n_faults=int(payload["n_faults"]),
        groups=unpack(arrays["group_offsets"], arrays["group_members"]),
        kept=tuple(int(c) for c in np.asarray(arrays["kept"])),
        dropped=tuple(int(c) for c in np.asarray(arrays["dropped"])),
        implied_by=unpack(arrays["implied_offsets"], arrays["implied_members"]),
    )


def collapse_faults(
    netlist: Netlist,
    faults: Optional[Sequence[StuckAtFault]] = None,
    mode: str = "dominance",
    store: object = None,
) -> CollapseMap:
    """The :class:`CollapseMap` of ``netlist``'s fault universe.

    ``faults`` defaults to the memoised stem+branch universe; ``mode``
    is ``"equivalence"`` or ``"dominance"``.  Default-universe maps are
    memoised per netlist version and, with a result store active,
    persisted under the netlist content digest.
    """
    if mode not in COLLAPSE_MAP_MODES:
        raise FaultError(
            f"unknown collapse mode {mode!r}; choose from {COLLAPSE_MAP_MODES}"
        )
    if faults is not None:
        return _build_map(netlist, tuple(faults), mode)
    from repro.store import CacheKey, digest_netlist, resolve_store

    store = resolve_store(store)
    cached_fn = (
        _default_dominance_map if mode == "dominance" else _default_equivalence_map
    )
    if store is None:
        return cached_fn(netlist)
    key = CacheKey(
        kind="analysis",
        netlist=digest_netlist(netlist),
        universe="-",
        space="-",
        method=f"collapse-{mode}",
    )
    cached = store.get(key)
    if isinstance(cached, dict):
        return _map_from_payload(cached)
    result = cached_fn(netlist)
    store.put(key, _map_payload(result))
    return result
