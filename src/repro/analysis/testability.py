"""SCOAP testability measures over the levelized netlist.

Goldstein's combinational controllability/observability, computed in
two passes over the compiled topological order:

- ``cc0(n)`` / ``cc1(n)``: the least number of primary-input
  assignments (counted as one per gate traversed, plus one per forced
  input) needed to set net ``n`` to 0/1.  Primary inputs cost 1 either
  way; a rail pinned by a constant costs 1 for its tied value and is
  uncontrollable to the opposite.
- ``co(n)``: the effort of propagating a change on net ``n`` to some
  primary output.  A primary output costs 0; a gate input pin adds the
  cost of holding every *other* input at the gate's non-controlling
  value plus the output's own observability.  A stem's observability is
  the cheapest of its reader pins (and 0 directly at a primary output).

Gate rules (``+1`` per traversed gate; inversions swap the cc pair,
observability is inversion-blind):

=========  ==============================  ==============================
cell       cc1 (output)                    cc0 (output)
=========  ==============================  ==============================
AND        ``sum(cc1 inputs) + 1``         ``min(cc0 inputs) + 1``
OR         ``min(cc1 inputs) + 1``         ``sum(cc0 inputs) + 1``
XOR (n)    cheapest odd-parity cover + 1   cheapest even-parity cover + 1
BUF/NOT    input cc (swapped for NOT) + 1
pin obs    AND/NAND: ``co(out) + sum(cc1 others) + 1``;
           OR/NOR: ``co(out) + sum(cc0 others) + 1``;
           XOR/XNOR: ``co(out) + sum(min(cc0, cc1) others) + 1``;
           BUF/NOT: ``co(out) + 1``
=========  ==============================  ==============================

The n-input XOR parity covers come from a running two-state DP (the
cheapest way to force even/odd many inputs to 1), so the wide XOR
trees of the checker logic get exact values, not 2-input approximations.

Unreachable or uncontrollable positions saturate at :data:`INFINITY`
rather than overflowing.  :func:`fault_efforts` combines both halves
into the classical detection-effort estimate of a stuck-at fault --
controllability of the opposite value at the site plus observability of
the site (branch faults use their pin observability) -- which is what
ranks ATPG targets and the hardest-to-test report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FaultError
from repro.gates.compile import (
    OP_AND,
    OP_OR,
    OP_XOR,
    CompiledNetlist,
    compile_netlist,
)
from repro.gates.faults import StuckAtFault, default_fault_universe
from repro.gates.memo import identity_memo, netlist_fingerprint
from repro.gates.netlist import Netlist

#: Saturation value for uncontrollable/unobservable positions.  Small
#: enough that sums over any realistic netlist stay far from int64
#: overflow, large enough to dominate every genuine effort.
INFINITY = np.int64(1) << np.int64(40)


def _sat(value: np.ndarray) -> np.ndarray:
    return np.minimum(value, INFINITY)


@dataclass(frozen=True)
class ScoapMeasures:
    """SCOAP controllability/observability of every net of one netlist.

    ``pin_co`` is flat, aligned with the compiled operand CSR
    (``compiled.operands``); :meth:`pin_observability` resolves a
    ``(gate name, pin)`` pair through it.  All values are int64 with
    :data:`INFINITY` marking unreachable positions.
    """

    netlist_name: str
    net_names: Tuple[str, ...]
    cc0: np.ndarray  # (n_nets,) int64
    cc1: np.ndarray  # (n_nets,) int64
    co: np.ndarray  # (n_nets,) int64, stem observability
    pin_co: np.ndarray  # (n_pins,) int64, aligned with compiled.operands
    _net_ids: dict
    _pin_ids: dict
    _operand_offsets: np.ndarray

    def of(self, net: str) -> Tuple[int, int, int]:
        """``(cc0, cc1, co)`` of one net, by name."""
        nid = self._net_ids[net]
        return (int(self.cc0[nid]), int(self.cc1[nid]), int(self.co[nid]))

    def pin_observability(self, gate_name: str, pin: int) -> int:
        g, p = self._pin_ids[(gate_name, pin)]
        return int(self.pin_co[int(self._operand_offsets[g]) + p])


def _controllability(
    compiled: CompiledNetlist, constants: Mapping[str, int]
) -> Tuple[np.ndarray, np.ndarray]:
    n_nets = compiled.n_nets
    cc0 = np.full(n_nets, INFINITY, dtype=np.int64)
    cc1 = np.full(n_nets, INFINITY, dtype=np.int64)
    for name, nid in zip(compiled.source.primary_inputs, compiled.input_ids):
        pinned = constants.get(name)
        if pinned is None:
            cc0[nid] = cc1[nid] = 1
        elif pinned == 0:
            cc0[nid] = 1
        else:
            cc1[nid] = 1
    offsets = compiled.operand_offsets
    for g in range(compiled.n_gates):
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        ops = compiled.operands[lo:hi]
        base = int(compiled.base_ops[g])
        if base == OP_AND:
            set_out = int(_sat(cc1[ops].sum())) + 1
            clear_out = int(cc0[ops].min()) + 1
        elif base == OP_OR:
            set_out = int(cc1[ops].min()) + 1
            clear_out = int(_sat(cc0[ops].sum())) + 1
        elif base == OP_XOR:
            even, odd = 0, int(INFINITY)
            for nid in ops.tolist():
                z, o = int(cc0[nid]), int(cc1[nid])
                even, odd = (
                    min(even + z, odd + o),
                    min(even + o, odd + z),
                )
            set_out = min(odd, int(INFINITY)) + 1
            clear_out = min(even, int(INFINITY)) + 1
        else:  # OP_COPY
            set_out = int(cc1[ops[0]]) + 1
            clear_out = int(cc0[ops[0]]) + 1
        out = compiled.gate_output_ids[g]
        if compiled.inverts[g]:
            set_out, clear_out = clear_out, set_out
        cc1[out] = min(set_out, int(INFINITY))
        cc0[out] = min(clear_out, int(INFINITY))
    return cc0, cc1


def _observability(
    compiled: CompiledNetlist, cc0: np.ndarray, cc1: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    n_nets = compiled.n_nets
    co = np.full(n_nets, INFINITY, dtype=np.int64)
    co[compiled.output_ids] = 0
    pin_co = np.full(len(compiled.operands), INFINITY, dtype=np.int64)
    offsets = compiled.operand_offsets
    for g in range(compiled.n_gates - 1, -1, -1):
        out_co = int(co[compiled.gate_output_ids[g]])
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        ops = compiled.operands[lo:hi]
        base = int(compiled.base_ops[g])
        if base == OP_AND:
            side = cc1[ops]
        elif base == OP_OR:
            side = cc0[ops]
        elif base == OP_XOR:
            side = np.minimum(cc0[ops], cc1[ops])
        else:  # OP_COPY
            side = np.zeros(len(ops), dtype=np.int64)
        # Not saturated: the per-pin subtraction below must recover the
        # exact sum of the *other* pins even when one side is INFINITY
        # (sums stay far below int64 with INFINITY = 2**40).
        total = int(side.sum())
        for p in range(len(ops)):
            cost = out_co + (total - int(side[p])) + 1
            cost = min(cost, int(INFINITY))
            pin_co[lo + p] = cost
            nid = int(ops[p])
            if cost < co[nid]:
                co[nid] = cost
    return co, pin_co


def _compute_scoap(
    netlist: Netlist, constants: Optional[Mapping[str, int]]
) -> ScoapMeasures:
    compiled = compile_netlist(netlist)
    cc0, cc1 = _controllability(compiled, dict(constants or {}))
    co, pin_co = _observability(compiled, cc0, cc1)
    return ScoapMeasures(
        netlist_name=compiled.name,
        net_names=compiled.net_names,
        cc0=cc0,
        cc1=cc1,
        co=co,
        pin_co=pin_co,
        _net_ids=dict(compiled.net_ids),
        _pin_ids=dict(compiled.pin_ids),
        _operand_offsets=compiled.operand_offsets,
    )


_scoap_memo = identity_memo(netlist_fingerprint)


@_scoap_memo
def _cached_scoap(netlist: Netlist) -> ScoapMeasures:
    return _compute_scoap(netlist, None)


def scoap(
    netlist: Netlist,
    constants: Optional[Mapping[str, int]] = None,
    store: object = None,
) -> ScoapMeasures:
    """SCOAP measures of ``netlist``.

    ``constants`` pins rails (name -> 0/1), making the pinned value
    cost 1 and the opposite :data:`INFINITY` -- pass a test space's
    constants to score the universe a campaign actually sweeps.  The
    unconstrained result is memoised per netlist version and storable
    in the result store under the netlist content digest.
    """
    if constants:
        return _compute_scoap(netlist, constants)
    from repro.store import CacheKey, digest_netlist, resolve_store

    store = resolve_store(store)
    if store is None:
        return _cached_scoap(netlist)
    key = CacheKey(
        kind="analysis",
        netlist=digest_netlist(netlist),
        universe="-",
        space="-",
        method="scoap",
    )
    cached = store.get(key)
    if isinstance(cached, dict):
        return _scoap_from_payload(netlist, cached)
    result = _cached_scoap(netlist)
    store.put(key, _scoap_payload(result))
    return result


def _scoap_payload(result: ScoapMeasures) -> dict:
    return {
        "netlist_name": result.netlist_name,
        "net_names": list(result.net_names),
        "arrays": {
            "cc0": result.cc0,
            "cc1": result.cc1,
            "co": result.co,
            "pin_co": result.pin_co,
        },
    }


def _scoap_from_payload(netlist: Netlist, payload: dict) -> ScoapMeasures:
    compiled = compile_netlist(netlist)
    arrays = payload["arrays"]
    return ScoapMeasures(
        netlist_name=str(payload["netlist_name"]),
        net_names=tuple(str(n) for n in payload["net_names"]),
        cc0=np.asarray(arrays["cc0"], dtype=np.int64),
        cc1=np.asarray(arrays["cc1"], dtype=np.int64),
        co=np.asarray(arrays["co"], dtype=np.int64),
        pin_co=np.asarray(arrays["pin_co"], dtype=np.int64),
        _net_ids=dict(compiled.net_ids),
        _pin_ids=dict(compiled.pin_ids),
        _operand_offsets=compiled.operand_offsets,
    )


def fault_efforts(
    netlist: Netlist,
    faults: Optional[Sequence[StuckAtFault]] = None,
    constants: Optional[Mapping[str, int]] = None,
    measures: Optional[ScoapMeasures] = None,
) -> np.ndarray:
    """SCOAP detection effort of every fault, aligned with ``faults``.

    ``effort(SAv @ site) = cc(opposite of v)(net) + observability``
    where a branch fault observes through its specific pin and a stem
    fault through the cheapest reader (or directly at a primary
    output).  Saturates at :data:`INFINITY` for positions SCOAP deems
    untestable (the measure is a heuristic bound, not a proof).
    """
    if measures is None:
        measures = scoap(netlist, constants=constants)
    fault_seq: Sequence[StuckAtFault] = (
        default_fault_universe(netlist) if faults is None else tuple(faults)
    )
    efforts = np.empty(len(fault_seq), dtype=np.int64)
    for k, fault in enumerate(fault_seq):
        site = fault.site
        nid = measures._net_ids.get(site.net)
        if nid is None:
            raise FaultError(
                f"fault site {site.describe()} is not a net of "
                f"{measures.netlist_name!r}"
            )
        control = measures.cc1[nid] if fault.value == 0 else measures.cc0[nid]
        if site.branch is None:
            observe = measures.co[nid]
        else:
            gate_name, pin = site.branch
            observe = measures.pin_observability(gate_name, pin)
        efforts[k] = min(int(control) + int(observe), int(INFINITY))
    return efforts


def hardest_faults(
    netlist: Netlist,
    faults: Optional[Sequence[StuckAtFault]] = None,
    limit: int = 10,
    constants: Optional[Mapping[str, int]] = None,
) -> List[Tuple[StuckAtFault, int]]:
    """The ``limit`` highest-effort faults, hardest first.

    Ties break by universe order, so the ranking is deterministic; the
    TPG report prints this next to the proven-redundant residue.
    """
    fault_seq: Sequence[StuckAtFault] = (
        default_fault_universe(netlist) if faults is None else tuple(faults)
    )
    efforts = fault_efforts(netlist, fault_seq, constants=constants)
    order = sorted(range(len(fault_seq)), key=lambda k: (-int(efforts[k]), k))
    return [(fault_seq[k], int(efforts[k])) for k in order[: max(0, limit)]]
