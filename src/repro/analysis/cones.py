"""Support cones over the compiled CSR arrays.

The transitive fan-in of a net (which primary inputs can affect it) and
the transitive fan-out (which primary outputs it can affect) are the
basic reachability facts every other static analysis builds on:
unreachable-logic lint, output-cone partitioning for independent
evaluation, and the incremental-recomputation item on the roadmap.

Both directions are computed as bitmask propagation over the levelized
CSR arrays of a :class:`~repro.gates.compile.CompiledNetlist`: every
net carries one ``uint64`` word row per 64 primary inputs (or outputs),
and one level of gates is processed with a single gather +
``bitwise_or.reduceat`` (forward) or ``bitwise_or.at`` scatter
(backward) -- no per-gate Python loop.

Results are memoised per netlist version like the compiled lowering and
are storable in the result store keyed on the netlist content digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.gates.compile import CompiledNetlist, compile_netlist
from repro.gates.memo import identity_memo, netlist_fingerprint
from repro.gates.netlist import Netlist

_WORD = 64


def _mask_words(count: int) -> int:
    return max(1, (count + _WORD - 1) // _WORD)


def _bit_indices(mask_row: np.ndarray, limit: int) -> List[int]:
    """Indices of the set bits of one packed mask row, ascending."""
    out: List[int] = []
    for w, word in enumerate(mask_row.tolist()):
        base = w * _WORD
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
    return [k for k in out if k < limit]


def _level_batches(compiled: CompiledNetlist) -> List[np.ndarray]:
    """Compiled gate indices grouped by level, ascending."""
    levels = compiled.gate_levels
    if len(levels) == 0:
        return []
    order = np.argsort(levels, kind="stable")
    bounds = np.nonzero(np.diff(levels[order]))[0] + 1
    return np.split(order, bounds)


@dataclass(frozen=True)
class ConeAnalysis:
    """Fan-in/fan-out reachability of every net of one netlist.

    ``support_masks[n]`` packs which primary inputs (by declared index)
    are in the transitive fan-in of net ``n``; ``reach_masks[n]`` packs
    which primary outputs (by declared index) are in its transitive
    fan-out.  ``partitions`` groups primary-output indices whose support
    cones share at least one primary input (transitively), i.e. the
    finest split of the netlist into independently evaluable sub-cones.
    """

    netlist_name: str
    input_names: Tuple[str, ...]
    output_names: Tuple[str, ...]
    net_names: Tuple[str, ...]
    support_masks: np.ndarray  # (n_nets, ceil(n_inputs/64)) uint64
    support_counts: np.ndarray  # (n_nets,) int64
    reach_masks: np.ndarray  # (n_nets, ceil(n_outputs/64)) uint64
    reach_counts: np.ndarray  # (n_nets,) int64
    partitions: Tuple[Tuple[int, ...], ...]
    _net_ids: dict

    def _nid(self, net: str) -> int:
        return self._net_ids[net]

    def support_of(self, net: str) -> Tuple[str, ...]:
        """Primary inputs in the transitive fan-in of ``net``."""
        row = self.support_masks[self._nid(net)]
        return tuple(
            self.input_names[k] for k in _bit_indices(row, len(self.input_names))
        )

    def outputs_reached(self, net: str) -> Tuple[str, ...]:
        """Primary outputs in the transitive fan-out of ``net``."""
        row = self.reach_masks[self._nid(net)]
        return tuple(
            self.output_names[k] for k in _bit_indices(row, len(self.output_names))
        )

    def output_partitions(self) -> Tuple[Tuple[str, ...], ...]:
        """The support-disjoint output groups, by output name."""
        return tuple(
            tuple(self.output_names[k] for k in group) for group in self.partitions
        )


def _compute_cones(compiled: CompiledNetlist) -> ConeAnalysis:
    n_nets = compiled.n_nets
    n_in = compiled.n_inputs
    n_out = compiled.n_outputs
    in_words = _mask_words(n_in)
    out_words = _mask_words(n_out)
    batches = _level_batches(compiled)

    # Forward: which primary inputs support each net.
    support = np.zeros((n_nets, in_words), dtype=np.uint64)
    for k, nid in enumerate(compiled.input_ids.tolist()):
        support[nid, k // _WORD] |= np.uint64(1) << np.uint64(k % _WORD)
    offsets = compiled.operand_offsets
    operands = compiled.operands
    for gs in batches:
        starts = offsets[gs].astype(np.int64)
        counts = (offsets[gs + 1] - offsets[gs]).astype(np.int64)
        seg = np.zeros(len(gs), dtype=np.int64)
        np.cumsum(counts[:-1], out=seg[1:])
        flat = np.repeat(starts - seg, counts) + np.arange(int(counts.sum()))
        gathered = support[operands[flat]]
        reduced = np.bitwise_or.reduceat(gathered, seg, axis=0)
        support[compiled.gate_output_ids[gs]] = reduced

    # Backward: which primary outputs each net reaches.
    reach = np.zeros((n_nets, out_words), dtype=np.uint64)
    for k, nid in enumerate(compiled.output_ids.tolist()):
        reach[nid, k // _WORD] |= np.uint64(1) << np.uint64(k % _WORD)
    for gs in reversed(batches):
        starts = offsets[gs].astype(np.int64)
        counts = (offsets[gs + 1] - offsets[gs]).astype(np.int64)
        flat = np.repeat(starts, counts) + (
            np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        out_rows = np.repeat(reach[compiled.gate_output_ids[gs]], counts, axis=0)
        np.bitwise_or.at(reach, operands[flat], out_rows)

    support_counts = _popcount_rows(support)
    reach_counts = _popcount_rows(reach)

    # Output partition: union outputs sharing any supporting input.
    parent = list(range(n_out))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    out_support = support[compiled.output_ids] if n_out else support[:0]
    for k in range(n_in):
        column = (out_support[:, k // _WORD] >> np.uint64(k % _WORD)) & np.uint64(1)
        users = np.nonzero(column)[0]
        for j in users[1:].tolist():
            ri, rj = find(int(users[0])), find(j)
            if ri != rj:
                parent[rj] = ri
    groups: dict = {}
    for k in range(n_out):
        groups.setdefault(find(k), []).append(k)
    partitions = tuple(tuple(g) for g in groups.values())

    return ConeAnalysis(
        netlist_name=compiled.name,
        input_names=tuple(compiled.source.primary_inputs),
        output_names=tuple(compiled.source.primary_outputs),
        net_names=compiled.net_names,
        support_masks=support,
        support_counts=support_counts,
        reach_masks=reach,
        reach_counts=reach_counts,
        partitions=partitions,
        _net_ids=dict(compiled.net_ids),
    )


def _popcount_rows(masks: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(masks).sum(axis=1, dtype=np.int64)
    bits = (masks[:, :, None] >> np.arange(_WORD, dtype=np.uint64)) & np.uint64(1)
    return bits.sum(axis=(1, 2), dtype=np.int64)


_cones_memo = identity_memo(netlist_fingerprint)


@_cones_memo
def _cached_cones(netlist: Netlist) -> ConeAnalysis:
    return _compute_cones(compile_netlist(netlist))


def _cones_payload(result: ConeAnalysis) -> dict:
    offsets = np.zeros(len(result.partitions) + 1, dtype=np.int64)
    np.cumsum([len(g) for g in result.partitions], out=offsets[1:])
    members = np.array(
        [k for group in result.partitions for k in group], dtype=np.int64
    )
    return {
        "netlist_name": result.netlist_name,
        "input_names": list(result.input_names),
        "output_names": list(result.output_names),
        "net_names": list(result.net_names),
        "arrays": {
            "support_masks": result.support_masks,
            "support_counts": result.support_counts,
            "reach_masks": result.reach_masks,
            "reach_counts": result.reach_counts,
            "partition_offsets": offsets,
            "partition_members": members,
        },
    }


def _cones_from_payload(payload: dict) -> ConeAnalysis:
    arrays = payload["arrays"]
    offsets = np.asarray(arrays["partition_offsets"], dtype=np.int64)
    members = np.asarray(arrays["partition_members"], dtype=np.int64)
    partitions = tuple(
        tuple(int(k) for k in members[lo:hi])
        for lo, hi in zip(offsets[:-1], offsets[1:])
    )
    net_names = tuple(str(n) for n in payload["net_names"])
    return ConeAnalysis(
        netlist_name=str(payload["netlist_name"]),
        input_names=tuple(str(n) for n in payload["input_names"]),
        output_names=tuple(str(n) for n in payload["output_names"]),
        net_names=net_names,
        support_masks=np.asarray(arrays["support_masks"], dtype=np.uint64),
        support_counts=np.asarray(arrays["support_counts"], dtype=np.int64),
        reach_masks=np.asarray(arrays["reach_masks"], dtype=np.uint64),
        reach_counts=np.asarray(arrays["reach_counts"], dtype=np.int64),
        partitions=partitions,
        _net_ids={name: i for i, name in enumerate(net_names)},
    )


def analyze_cones(netlist: Netlist, store: object = None) -> ConeAnalysis:
    """Support/reach cones of ``netlist``, memoised per netlist version.

    With a result store (``store=`` or the ``REPRO_STORE`` environment
    variable) the packed mask arrays are persisted under the netlist's
    content digest, so cold processes skip the propagation entirely.
    """
    from repro.store import CacheKey, digest_netlist, resolve_store

    store = resolve_store(store)
    if store is None:
        return _cached_cones(netlist)
    key = CacheKey(
        kind="analysis",
        netlist=digest_netlist(netlist),
        universe="-",
        space="-",
        method="cones",
    )
    cached = store.get(key)
    if isinstance(cached, dict):
        return _cones_from_payload(cached)
    result = _cached_cones(netlist)
    store.put(key, _cones_payload(result))
    return result


@dataclass(frozen=True)
class GateConeAnalysis:
    """Gate-granular fan-out cones of one netlist.

    ``gate_masks[g]`` packs the compiled indices of every gate strictly
    downstream of gate ``g`` (transitively reachable through its output
    net); ``net_cone_masks[n]`` packs the gates a stuck-at fault on net
    ``n`` can perturb -- the net's reader gates and everything
    downstream of them (the *driver* of ``n`` is not included; a stem
    override replaces its output, it does not re-evaluate it).

    ``gate_cone_sizes[g]`` counts the gate itself plus its downstream
    cone, so sizes rank gates by blast radius; ``mean_cone_fraction``
    is the average ``net_cone_sizes / n_gates`` over all nets -- how
    much of the netlist a single fault can perturb on average.
    """

    netlist_name: str
    gate_names: Tuple[str, ...]
    net_names: Tuple[str, ...]
    gate_masks: np.ndarray  # (n_gates, ceil(n_gates/64)) uint64
    gate_cone_sizes: np.ndarray  # (n_gates,) int64, downstream + self
    net_cone_masks: np.ndarray  # (n_nets, ceil(n_gates/64)) uint64
    net_cone_sizes: np.ndarray  # (n_nets,) int64
    driver_gates: np.ndarray  # (n_nets,) int64, -1 for primary inputs
    mean_cone_fraction: float
    _gate_ids: dict
    _net_ids: dict

    @property
    def n_gates(self) -> int:
        return len(self.gate_names)

    def cone_of(self, gate: str) -> Tuple[str, ...]:
        """Names of the gates strictly downstream of ``gate``."""
        row = self.gate_masks[self._gate_ids[gate]]
        return tuple(self.gate_names[k] for k in _bit_indices(row, self.n_gates))

    def net_cone(self, net: str) -> Tuple[str, ...]:
        """Names of the gates a stuck-at fault on ``net`` can perturb."""
        row = self.net_cone_masks[self._net_ids[net]]
        return tuple(self.gate_names[k] for k in _bit_indices(row, self.n_gates))

    def ranking(self) -> Tuple[str, ...]:
        """Gate names by descending cone size (stable within ties)."""
        order = np.argsort(-self.gate_cone_sizes, kind="stable")
        return tuple(self.gate_names[int(g)] for g in order)


def _fanout_reduce(
    starts: np.ndarray,
    counts: np.ndarray,
    fanout_gates: np.ndarray,
    rows_of: np.ndarray,
) -> np.ndarray:
    """OR-reduce ``rows_of[reader]`` over each CSR fanout segment.

    ``starts``/``counts`` delimit non-empty segments of
    ``fanout_gates``; returns one reduced mask row per segment.
    """
    seg = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=seg[1:])
    flat = np.repeat(starts - seg, counts) + np.arange(int(counts.sum()))
    readers = fanout_gates[flat]
    return np.bitwise_or.reduceat(rows_of[readers], seg, axis=0)


def _compute_gate_cones(compiled: CompiledNetlist) -> GateConeAnalysis:
    n_gates = compiled.n_gates
    n_nets = compiled.n_nets
    gw = _mask_words(n_gates)

    self_bits = np.zeros((n_gates, gw), dtype=np.uint64)
    idx = np.arange(n_gates)
    self_bits[idx, idx // _WORD] = np.uint64(1) << (idx % _WORD).astype(np.uint64)

    # reader row = its own bit plus everything downstream of it; filled
    # in reverse level order so every reader of a gate's output net is
    # final before the gate itself is reduced.
    fo_off = compiled.fanout_offsets.astype(np.int64)
    fo_gates = compiled.fanout_gates
    masks = np.zeros((n_gates, gw), dtype=np.uint64)
    reader_rows = self_bits.copy()
    for gs in reversed(_level_batches(compiled)):
        outs = compiled.gate_output_ids[gs]
        lo = fo_off[outs]
        counts = fo_off[outs + 1] - lo
        nz = counts > 0
        if nz.any():
            reduced = _fanout_reduce(lo[nz], counts[nz], fo_gates, reader_rows)
            masks[gs[nz]] = reduced
            reader_rows[gs[nz]] |= reduced

    net_masks = np.zeros((n_nets, gw), dtype=np.uint64)
    lo = fo_off[:-1]
    counts = fo_off[1:] - lo
    nz = counts > 0
    if nz.any():
        net_masks[nz] = _fanout_reduce(lo[nz], counts[nz], fo_gates, reader_rows)

    driver_gates = np.full(n_nets, -1, dtype=np.int64)
    driver_gates[compiled.gate_output_ids] = np.arange(n_gates, dtype=np.int64)

    net_cone_sizes = _popcount_rows(net_masks)
    fraction = 0.0
    if n_gates and n_nets:
        fraction = float(net_cone_sizes.mean() / n_gates)
    return GateConeAnalysis(
        netlist_name=compiled.name,
        gate_names=compiled.gate_names,
        net_names=compiled.net_names,
        gate_masks=masks,
        gate_cone_sizes=_popcount_rows(masks) + 1,
        net_cone_masks=net_masks,
        net_cone_sizes=net_cone_sizes,
        driver_gates=driver_gates,
        mean_cone_fraction=fraction,
        _gate_ids={name: i for i, name in enumerate(compiled.gate_names)},
        _net_ids=dict(compiled.net_ids),
    )


_gate_cones_memo = identity_memo(netlist_fingerprint)


@_gate_cones_memo
def _cached_gate_cones(netlist: Netlist) -> GateConeAnalysis:
    return _compute_gate_cones(compile_netlist(netlist))


def _gate_cones_payload(result: GateConeAnalysis) -> dict:
    return {
        "netlist_name": result.netlist_name,
        "gate_names": list(result.gate_names),
        "net_names": list(result.net_names),
        "mean_cone_fraction": result.mean_cone_fraction,
        "arrays": {
            "gate_masks": result.gate_masks,
            "gate_cone_sizes": result.gate_cone_sizes,
            "net_cone_masks": result.net_cone_masks,
            "net_cone_sizes": result.net_cone_sizes,
            "driver_gates": result.driver_gates,
        },
    }


def _gate_cones_from_payload(payload: dict) -> GateConeAnalysis:
    arrays = payload["arrays"]
    gate_names = tuple(str(n) for n in payload["gate_names"])
    net_names = tuple(str(n) for n in payload["net_names"])
    return GateConeAnalysis(
        netlist_name=str(payload["netlist_name"]),
        gate_names=gate_names,
        net_names=net_names,
        gate_masks=np.asarray(arrays["gate_masks"], dtype=np.uint64),
        gate_cone_sizes=np.asarray(arrays["gate_cone_sizes"], dtype=np.int64),
        net_cone_masks=np.asarray(arrays["net_cone_masks"], dtype=np.uint64),
        net_cone_sizes=np.asarray(arrays["net_cone_sizes"], dtype=np.int64),
        driver_gates=np.asarray(arrays["driver_gates"], dtype=np.int64),
        mean_cone_fraction=float(payload["mean_cone_fraction"]),
        _gate_ids={name: i for i, name in enumerate(gate_names)},
        _net_ids={name: i for i, name in enumerate(net_names)},
    )


def analyze_gate_cones(netlist: Netlist, store: object = None) -> GateConeAnalysis:
    """Per-gate fan-out cones of ``netlist``, memoised per version.

    The packed masks feed the campaign's cone schedules
    (:mod:`repro.gates.sparse`) and the incremental-campaign
    invalidation rule (:mod:`repro.faults.incremental`).  With a result
    store active they persist under the netlist content digest like the
    other ``kind="analysis"`` artifacts.
    """
    from repro.store import CacheKey, digest_netlist, resolve_store

    store = resolve_store(store)
    if store is None:
        return _cached_gate_cones(netlist)
    key = CacheKey(
        kind="analysis",
        netlist=digest_netlist(netlist),
        universe="-",
        space="-",
        method="gate_cones",
    )
    cached = store.get(key)
    if isinstance(cached, dict):
        return _gate_cones_from_payload(cached)
    result = _cached_gate_cones(netlist)
    store.put(key, _gate_cones_payload(result))
    return result
