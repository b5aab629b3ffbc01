"""Fault dictionaries: full fault x vector detection bitsets.

A :class:`FaultDictionary` records, for every stuck-at fault of a
netlist and every vector of a test universe, whether the vector detects
the fault -- the classical ATPG artefact that turns coverage questions
("is this fault testable?") into set-cover questions ("which vectors do
I keep?").  The detection matrix is packed 64 vectors per ``uint64``
word, one row per fault, so the n = 8 adder's 131072-vector universe
against its 296-fault list is a 600 KB array, and compaction reduces it
with bitwise ops only (:mod:`repro.tpg.compaction`).

Dictionaries are built by the campaigns' cone-scheduled detection
sweep (:mod:`repro.gates.engine`): one representative per structural
equivalence class is simulated against a shared golden row, each cone
batch walking only its union fan-out cone, and the per-vector
difference words *are* the dictionary rows.  Builds run in the calling
process; ``save``/``load`` round-trip through ``.npz`` and the result
store memoises them, so expensive dictionaries persist.

Constrained universes are described by a
:class:`~repro.gates.engine.TestSpace`: some primary inputs sweep (the
operand bits), some are pinned constants (a test architecture's
``zero``/``one`` rails), and a field of the swept inputs may be required
non-zero (the divider's divisor).  It is the same object a Table 2
architecture carries as ``arch.space``, and the dictionary kernel
streams it -- or an explicit test table -- through the same chunk
iterator as the Table sweeps (:func:`repro.gates.engine.sweep_chunks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.gates.engine import (
    LANES,
    PackedVectors,
    SweepSource,
    TestSpace,
    _DetectSweep,
    engine_for,
    pack_bits,
    popcount_words,
    sweep_chunks,
)
from repro.gates.faults import (
    FaultSite,
    StuckAtFault,
    fault_classes,
    resolve_collapse_mode,
)
from repro.gates.netlist import Netlist
from repro.obs.trace import span as obs_span
from repro.store import (
    CacheKey,
    digest_faults,
    digest_netlist,
    digest_params,
    digest_test_space,
    digest_vector_table,
    resolve_store,
)
from repro.store.codecs import pack_groups, unpack_groups

def inputs_from_bits(netlist: Netlist, bits: np.ndarray) -> Dict[str, np.ndarray]:
    """Per-input 0/1 vector arrays for an explicit test table.

    ``bits`` is ``(n_tests, n_inputs)`` in netlist input order -- the
    layout :class:`~repro.tpg.compaction.CompactTestSet` carries -- and
    the result plugs straight into ``run_stuck_at_campaign(inputs=...)``.
    """
    return {
        name: np.ascontiguousarray(bits[:, i])
        for i, name in enumerate(netlist.primary_inputs)
    }


@dataclass
class FaultDictionary:
    """Packed fault x vector detection matrix for one netlist.

    ``words[f]`` holds fault ``f``'s detection bit stream: lane
    ``v % 64`` of word ``v // 64`` is set iff universe vector
    ``vector_base + v`` detects ``faults[f]`` (some primary output
    differs from the fault-free response).  ``groups`` are the
    structural equivalence classes whose representatives were actually
    simulated; members share their representative's row bit-for-bit.
    """

    netlist_name: str
    faults: Tuple[StuckAtFault, ...]
    groups: Tuple[Tuple[int, ...], ...]
    words: np.ndarray  # (n_faults, n_words) uint64
    n_vectors: int
    vector_base: int = 0

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    @property
    def detected(self) -> np.ndarray:
        """Boolean per-fault: detected by at least one vector."""
        return (self.words != 0).any(axis=1)

    @property
    def detected_count(self) -> int:
        return int(np.sum(self.detected))

    @property
    def coverage(self) -> float:
        return self.detected_count / self.n_faults if self.n_faults else 1.0

    def detections_per_fault(self) -> np.ndarray:
        """How many universe vectors detect each fault."""
        return popcount_words(self.words)

    def column_bits(self, vector: int) -> np.ndarray:
        """Detection bits of one universe vector, ``(n_faults,)`` uint8."""
        local = vector - self.vector_base
        if not (0 <= local < self.n_vectors):
            raise SimulationError(
                f"vector {vector} outside dictionary range "
                f"[{self.vector_base}, {self.vector_base + self.n_vectors})"
            )
        return (
            (self.words[:, local // LANES] >> np.uint64(local % LANES)) & np.uint64(1)
        ).astype(np.uint8)

    def covered_by(self, vectors: Iterable[int]) -> np.ndarray:
        """Faults detected by a vector subset, ``(n_faults,)`` bool."""
        out = np.zeros(self.n_faults, dtype=bool)
        for v in vectors:
            out |= self.column_bits(v).astype(bool)
        return out

    def undetected_faults(self) -> List[StuckAtFault]:
        return [f for f, d in zip(self.faults, self.detected) if not d]

    def summary(self) -> str:
        return (
            f"{self.netlist_name}: dictionary of {self.n_faults} faults x "
            f"{self.n_vectors} vectors ({len(self.groups)} equivalence "
            f"classes, {self.detected_count} detectable, "
            f"{100.0 * self.coverage:.2f}% coverage)"
        )

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist to ``.npz`` (compressed; faults stored field-wise)."""
        np.savez_compressed(
            path,
            netlist_name=np.array(self.netlist_name),
            words=self.words,
            n_vectors=np.array(self.n_vectors, dtype=np.int64),
            vector_base=np.array(self.vector_base, dtype=np.int64),
            **pack_faults(self.faults),
            **pack_groups(self.groups),
        )

    @classmethod
    def load(cls, path) -> "FaultDictionary":
        """Inverse of :meth:`save`."""
        with np.load(path) as data:
            return cls(
                netlist_name=str(data["netlist_name"]),
                faults=unpack_faults(data),
                groups=unpack_groups(data),
                words=data["words"],
                n_vectors=int(data["n_vectors"]),
                vector_base=int(data["vector_base"]),
            )


def pack_faults(faults: Sequence[StuckAtFault]) -> Dict[str, np.ndarray]:
    """Field-wise arrays of an ordered stuck-at fault list (the
    :meth:`FaultDictionary.save` layout)."""
    nets, gates, pins, values = [], [], [], []
    for fault in faults:
        nets.append(fault.site.net)
        if fault.site.is_stem:
            gates.append("")
            pins.append(-1)
        else:
            gate, pin = fault.site.branch
            gates.append(gate)
            pins.append(pin)
        values.append(fault.value)
    return {
        "fault_nets": np.array(nets, dtype=np.str_),
        "fault_gates": np.array(gates, dtype=np.str_),
        "fault_pins": np.array(pins, dtype=np.int64),
        "fault_values": np.array(values, dtype=np.uint8),
    }


def unpack_faults(arrays: Mapping[str, np.ndarray]) -> Tuple[StuckAtFault, ...]:
    """Inverse of :func:`pack_faults` (exact tuple of frozen faults)."""
    return tuple(
        StuckAtFault(FaultSite(net, None if pin < 0 else (gate, pin)), value)
        for net, gate, pin, value in zip(
            arrays["fault_nets"].tolist(),
            arrays["fault_gates"].tolist(),
            arrays["fault_pins"].tolist(),
            arrays["fault_values"].tolist(),
        )
    )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _dictionary_classes(
    netlist: Netlist,
    faults: Optional[Sequence[StuckAtFault]],
    collapse: Union[bool, str],
) -> Tuple[Tuple[StuckAtFault, ...], Tuple[Tuple[int, ...], ...]]:
    """Fault list + classes (:func:`~repro.gates.faults.fault_classes`).

    Dictionaries record every fault's *per-vector* detection words, so
    only behaviour-preserving collapsing is legal here: ``"dominance"``
    (which infers detection rather than reproducing detection words) is
    rejected -- dominance-collapsed flows build their dictionaries with
    ``"equivalence"`` instead (see :func:`repro.tpg.generate.generate_tests`).
    """
    mode = resolve_collapse_mode(collapse)
    if mode == "dominance":
        raise SimulationError(
            "fault dictionaries need exact per-vector detection words; "
            "collapse='dominance' only preserves detection verdicts -- "
            "use collapse='equivalence' (or True) here"
        )
    return fault_classes(netlist, faults, mode)


def _dictionary_shard(
    netlist: Netlist,
    groups: Tuple[Tuple[int, ...], ...],
    fault_seq: Tuple[StuckAtFault, ...],
    source: SweepSource,
) -> np.ndarray:
    """Core kernel: per-fault detection words over a whole sweep source.

    ``source`` is a :class:`TestSpace` or an explicit packed test table,
    streamed by :func:`~repro.gates.engine.sweep_chunks`; every chunk
    runs the campaigns' cone-scheduled detection sweep over all classes
    (one representative each, scheduled and planned once), and the
    per-vector output difference words (masked lanes cleared) are
    broadcast to the whole class.  Classes reaching no primary output
    keep all-zero rows.
    """
    engine = engine_for(netlist)
    detect = _DetectSweep(engine, fault_seq, groups)
    every = range(len(groups))
    group_words = np.zeros((len(groups), source.n_words), dtype=np.uint64)
    for lo, hi, rows, valid in sweep_chunks(engine, len(groups), source):
        for class_ids, diff in detect(rows, every):
            if valid is not None:
                diff &= valid
            group_words[class_ids, lo:hi] = diff
    words = np.empty((len(fault_seq), source.n_words), dtype=np.uint64)
    for group, row in zip(groups, group_words):
        for fi in group:
            words[fi] = row
    return words


def build_fault_dictionary(
    netlist: Netlist,
    space: Optional[TestSpace] = None,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
    store=None,
) -> FaultDictionary:
    """Exhaustive fault dictionary of ``netlist`` over ``space``.

    ``space`` defaults to the unconstrained universe over every primary
    input; ``faults`` to the full stem+branch universe (in campaign
    order, so dictionary rows line up with
    :func:`~repro.gates.engine.run_stuck_at_campaign` verdicts).
    Masked lanes (a non-zero field, the tail of a sub-word universe)
    are never counted as detecting.  With a result store active
    (``store=``/``REPRO_STORE``) the finished dictionary memoises under
    a content key.
    """
    with obs_span("fault_dictionary", netlist=netlist.name):
        return _build_fault_dictionary_impl(
            netlist, space, faults, collapse, store
        )


def _build_fault_dictionary_impl(
    netlist: Netlist,
    space: Optional[TestSpace],
    faults: Optional[Iterable[StuckAtFault]],
    collapse: Union[bool, str],
    store,
) -> FaultDictionary:
    if space is None:
        space = TestSpace.full(netlist)
    elif space.netlist is not netlist:
        raise SimulationError("test space was built for a different netlist")
    fault_tuple = tuple(faults) if faults is not None else None
    fault_seq, groups = _dictionary_classes(netlist, fault_tuple, collapse)
    store = resolve_store(store)
    key = None
    if store is not None:
        key = CacheKey(
            kind="dictionary",
            netlist=digest_netlist(netlist),
            universe=digest_faults(fault_seq),
            space=digest_test_space(space),
            method="dictionary",
            params=digest_params(collapse=resolve_collapse_mode(collapse)),
        )
        cached = store.get(key, faults=fault_seq)
        if cached is not None:
            return cached
    words = _dictionary_shard(netlist, groups, fault_seq, space)
    result = FaultDictionary(
        netlist_name=netlist.name,
        faults=fault_seq,
        groups=groups,
        words=words,
        n_vectors=space.n_vectors,
        vector_base=0,
    )
    if store is not None:
        store.put(key, result)
    return result


def _test_table(netlist: Netlist, bits) -> np.ndarray:
    """``bits`` as a validated ``(n_tests, n_inputs)`` uint8 0/1 table.

    Both replay paths (:func:`dictionary_for_vectors` and
    :func:`replay_detected`) run this first, so they accept and reject
    the same tables.
    """
    table = np.asarray(bits)
    n_inputs = len(netlist.primary_inputs)
    if table.ndim != 2:
        raise SimulationError(
            f"test table must be 2-D (n_tests, {n_inputs}), got shape {table.shape}"
        )
    if table.shape[1] != n_inputs:
        raise SimulationError(
            f"test table has {table.shape[1]} input columns, netlist has {n_inputs}"
        )
    if not np.isin(table, (0, 1)).all():
        raise SimulationError("test table holds non-binary values; entries must be 0 or 1")
    return table.astype(np.uint8)


def dictionary_for_vectors(
    netlist: Netlist,
    bits: np.ndarray,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
    store=None,
) -> FaultDictionary:
    """Fault dictionary over an explicit test table.

    ``bits`` is ``(n_tests, n_inputs)`` 0/1 in netlist input order (the
    layout ATPG and compact test sets carry); the dictionary's vector
    ``t`` is row ``t`` of the table.  This is the *replay* primitive:
    building it for a compact set and comparing ``detected`` against the
    set's claim is the end-to-end validation the tests pin down.  A
    table that is not 2-D, has the wrong column count or holds a value
    other than 0/1 raises :class:`~repro.errors.SimulationError`.
    """
    bits = _test_table(netlist, bits)
    fault_tuple = tuple(faults) if faults is not None else None
    fault_seq, groups = _dictionary_classes(netlist, fault_tuple, collapse)
    store = resolve_store(store)
    key = None
    if store is not None:
        key = CacheKey(
            kind="dictionary",
            netlist=digest_netlist(netlist),
            universe=digest_faults(fault_seq),
            space=digest_vector_table(bits),
            method="table",
            params=digest_params(collapse=resolve_collapse_mode(collapse)),
        )
        cached = store.get(key, faults=fault_seq)
        if cached is not None:
            return cached
    packed = PackedVectors(
        np.stack([pack_bits(column) for column in bits.T]), bits.shape[0]
    )
    words = _dictionary_shard(netlist, groups, fault_seq, packed)
    result = FaultDictionary(
        netlist_name=netlist.name,
        faults=fault_seq,
        groups=groups,
        words=words,
        n_vectors=packed.n_vectors,
    )
    if store is not None:
        store.put(key, result)
    return result


def replay_detected(
    netlist: Netlist,
    bits: np.ndarray,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
) -> np.ndarray:
    """Per-fault detection of an explicit test table, via the campaign path.

    Runs :func:`repro.faults.injector.run_sharded_stuck_at_campaign`
    with the table's per-input vector arrays -- a different code path
    from the dictionary kernel -- and returns its boolean ``detected``
    array.  Agreement between the two is the subsystem's bit-for-bit
    acceptance criterion.
    """
    from repro.faults.injector import run_sharded_stuck_at_campaign

    bits = _test_table(netlist, bits)
    fault_tuple = tuple(faults) if faults is not None else None
    if bits.shape[0] == 0:
        fault_seq, _ = _dictionary_classes(netlist, fault_tuple, collapse)
        return np.zeros(len(fault_seq), dtype=bool)
    raw = run_sharded_stuck_at_campaign(
        netlist,
        vectors=inputs_from_bits(netlist, bits),
        faults=fault_tuple,
        collapse=collapse,
    )
    return np.asarray(raw.detected, dtype=bool)
