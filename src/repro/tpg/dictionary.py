"""Fault dictionaries: full fault x vector detection bitsets.

A :class:`FaultDictionary` records, for every stuck-at fault of a
netlist and every vector of a test universe, whether the vector detects
the fault -- the classical ATPG artefact that turns coverage questions
("is this fault testable?") into set-cover questions ("which vectors do
I keep?").  The detection matrix is packed 64 vectors per ``uint64``
word, one row per fault, so the n = 8 adder's 131072-vector universe
against its 296-fault list is a 600 KB array, and compaction reduces it
with bitwise ops only (:mod:`repro.tpg.compaction`).

Dictionaries are built by the batched bit-parallel engine
(:meth:`repro.gates.engine.BitParallelEngine.run_fault_groups`): one
representative per structural equivalence class is simulated against a
shared golden row and the per-vector difference words *are* the
dictionary rows.  Large universes shard across worker processes by
*word range* (:func:`repro.faults.sharding.shard_bounds`) and merge
bit-identically (:meth:`FaultDictionary.merge`); ``save``/``load``
round-trip through ``.npz`` so expensive dictionaries persist.

Constrained universes are described by a :class:`TestSpace`: some
primary inputs sweep (the operand bits), some are pinned constants (a
test architecture's ``zero``/``one`` rails), and a field of the swept
inputs may be required non-zero (the divider's divisor) -- the same
masked-operand machinery the Table 2 sweeps use
(:func:`repro.gates.engine.exhaustive_field_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.faults.sharding import resolve_workers, run_sharded, shard_bounds
from repro.gates.backends import resolve_backend_name
from repro.gates.engine import (
    ALL_ONES,
    LANES,
    MAX_EXHAUSTIVE_INPUTS,
    engine_for,
    exhaustive_word_range,
    matrix_word_chunk,
    pack_bits,
    popcount_words,
)
from repro.gates.faults import (
    FaultSite,
    StuckAtFault,
    default_equivalence_groups,
    default_fault_universe,
    resolve_collapse_mode,
    structural_equivalence_groups,
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
    run_checkpointed,
)

#: Streaming chunk sizes of the dictionary builder: vectors move through
#: the fault matrix ``DICT_WORD_CHUNK`` words (x64 vectors) at a time,
#: equivalence-class representatives ``DICT_FAULT_CHUNK`` rows at a time
#: (the word chunk clamped to the netlist's matrix budget,
#: :func:`repro.gates.engine.matrix_word_chunk`).  Chunking never
#: changes a dictionary bit.
DICT_WORD_CHUNK = 256
DICT_FAULT_CHUNK = 64


@dataclass(frozen=True)
class TestSpace:
    """A (possibly constrained) vector universe over a netlist's inputs.

    ``free_inputs`` sweep -- vector ``v`` assigns bit ``k`` of ``v`` to
    the ``k``-th free input, matching :func:`exhaustive_word_range` --
    while ``constants`` pins the remaining primary inputs to 0/1 (a test
    architecture's constant rails).  ``nonzero_field`` names a
    ``[lo, hi)`` range of *free-input indices* whose bits must not all
    be zero (the divider's ``b != 0``); vectors violating it are masked
    out of every sweep and every random phase.
    """

    netlist: Netlist
    free_inputs: Tuple[str, ...]
    constants: Tuple[Tuple[str, int], ...] = ()
    nonzero_field: Optional[Tuple[int, int]] = None

    # Not a pytest class, despite the domain-appropriate Test* name.
    __test__ = False

    def __post_init__(self) -> None:
        const = dict(self.constants)
        free_index = {name: k for k, name in enumerate(self.free_inputs)}
        if len(free_index) != len(self.free_inputs):
            raise SimulationError("duplicate free inputs in test space")
        plan: List[Tuple[bool, int]] = []  # (is_free, free index or constant)
        free_seen = 0
        for name in self.netlist.primary_inputs:
            if name in free_index:
                if free_index[name] != free_seen:
                    raise SimulationError(
                        "free inputs must follow the netlist's input order"
                    )
                plan.append((True, free_seen))
                free_seen += 1
            elif name in const:
                value = const.pop(name)
                if value not in (0, 1):
                    raise SimulationError(
                        f"constant input {name!r} must be 0 or 1, got {value!r}"
                    )
                plan.append((False, value))
            else:
                raise SimulationError(
                    f"primary input {name!r} is neither swept nor pinned"
                )
        if free_seen != len(self.free_inputs) or const:
            extra = sorted(set(list(free_index)[free_seen:]) | set(const))
            raise SimulationError(
                f"test space names unknown inputs: {extra}"
            )
        if self.nonzero_field is not None:
            lo, hi = self.nonzero_field
            if not (0 <= lo < hi <= len(self.free_inputs)):
                raise SimulationError(
                    f"nonzero field [{lo}, {hi}) outside the "
                    f"{len(self.free_inputs)} free inputs"
                )
        object.__setattr__(self, "_plan", tuple(plan))

    @classmethod
    def full(cls, netlist: Netlist) -> "TestSpace":
        """The unconstrained exhaustive universe over every input."""
        return cls(netlist, tuple(netlist.primary_inputs))

    # ------------------------------------------------------------------
    @property
    def n_free(self) -> int:
        return len(self.free_inputs)

    @property
    def n_vectors(self) -> int:
        """Raw universe size, ``2**n_free`` (masked lanes included)."""
        return 1 << self.n_free

    @property
    def n_words(self) -> int:
        return max(1, self.n_vectors >> 6)

    @property
    def tail_mask(self) -> np.uint64:
        if self.n_vectors >= LANES:
            return ALL_ONES
        return np.uint64((1 << self.n_vectors) - 1)

    def _expand(self, free_rows: np.ndarray) -> np.ndarray:
        """Free-input word rows -> all-input word rows (constants filled)."""
        rows = np.empty(
            (len(self.netlist.primary_inputs), free_rows.shape[1]), dtype=np.uint64
        )
        for i, (is_free, value) in enumerate(self._plan):
            if is_free:
                rows[i] = free_rows[value]
            else:
                rows[i] = ALL_ONES if value else np.uint64(0)
        return rows

    def input_rows(self, word_lo: int, word_hi: int) -> np.ndarray:
        """Packed exhaustive sweep words ``[word_lo, word_hi)``, one row
        per primary input in netlist order."""
        if self.n_free > MAX_EXHAUSTIVE_INPUTS:
            raise SimulationError(
                f"exhaustive sweep over {self.n_free} free inputs is too large"
            )
        return self._expand(exhaustive_word_range(self.n_free, word_lo, word_hi))

    def _nonzero_mask(self, rows: np.ndarray) -> Optional[np.ndarray]:
        if self.nonzero_field is None:
            return None
        lo, hi = self.nonzero_field
        field_rows = [
            rows[i]
            for i, (is_free, value) in enumerate(self._plan)
            if is_free and lo <= value < hi
        ]
        return np.bitwise_or.reduce(np.stack(field_rows), axis=0)

    def valid_words(
        self, word_lo: int, word_hi: int, rows: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        """Valid-lane masks for sweep words ``[word_lo, word_hi)``.

        ``None`` means every lane is a real vector.  Callers already
        holding the range's :meth:`input_rows` pass it as ``rows`` so the
        non-zero-field mask derives from it instead of regenerating the
        sweep.
        """
        tail = self.tail_mask
        tail_hit = tail != ALL_ONES and word_hi == self.n_words
        if self.nonzero_field is None and not tail_hit:
            return None
        if rows is None:
            rows = self.input_rows(word_lo, word_hi)
        masks = self._nonzero_mask(rows)
        if masks is None:
            masks = np.full(word_hi - word_lo, ALL_ONES, dtype=np.uint64)
        else:
            masks = masks.copy()
        if tail_hit and masks.size:
            masks[-1] &= tail
        return masks

    def valid_count(self, word_lo: int, word_hi: int) -> int:
        """Number of real vectors in sweep words ``[word_lo, word_hi)``."""
        masks = self.valid_words(word_lo, word_hi)
        if masks is None:
            return (word_hi - word_lo) * LANES
        return int(popcount_words(masks))

    def random_rows(
        self, rng: np.random.Generator, n_words: int
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``n_words * 64`` random vectors as packed input rows plus the
        valid-lane masks (``None`` when unconstrained)."""
        free = rng.integers(
            0,
            np.iinfo(np.uint64).max,
            size=(self.n_free, n_words),
            dtype=np.uint64,
            endpoint=True,
        )
        rows = self._expand(free)
        return rows, self._nonzero_mask(rows)

    # ------------------------------------------------------------------
    def bits_from_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Input bit table ``(len(indices), n_inputs)`` for universe
        vectors, in netlist input order (constants filled in)."""
        idx = np.asarray(list(indices), dtype=np.uint64)
        bits = np.empty((idx.shape[0], len(self.netlist.primary_inputs)), dtype=np.uint8)
        for i, (is_free, value) in enumerate(self._plan):
            if is_free:
                bits[:, i] = ((idx >> np.uint64(value)) & np.uint64(1)).astype(np.uint8)
            else:
                bits[:, i] = value
        return bits


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
    #: Name of the execution backend that built the detection rows
    #: (recorded in ``.npz`` persistence; empty for legacy files).
    backend: str = ""

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
    @classmethod
    def merge(cls, parts: Sequence["FaultDictionary"]) -> "FaultDictionary":
        """Merge word-range shards back into one dictionary.

        Parts must cover contiguous vector ranges of the same fault
        universe, in order, each non-final part word-aligned; rows
        concatenate along the word axis, so the merge is bit-identical
        for any shard count.
        """
        if not parts:
            raise SimulationError("cannot merge zero dictionary shards")
        head = parts[0]
        base = head.vector_base + head.n_vectors
        backends = {p.backend for p in parts if p.backend}
        for part in parts[1:]:
            # Parts may arrive from anywhere -- live builds, ``.npz``
            # files, the result store -- so identity, not freshness, is
            # what the merge validates: same netlist, same fault list
            # (tuple equality over the frozen fault dataclasses), same
            # collapsing.  Backends may legitimately differ (rows are
            # bit-identical across the registry); a mixed merge records
            # ``"mixed"`` instead of silently claiming the head's.
            if part.netlist_name != head.netlist_name:
                raise SimulationError(
                    f"dictionary shards disagree on the netlist: "
                    f"{head.netlist_name!r} vs {part.netlist_name!r}"
                )
            if part.faults != head.faults:
                raise SimulationError("dictionary shards disagree on the fault list")
            if part.groups != head.groups:
                raise SimulationError(
                    "dictionary shards disagree on the equivalence groups"
                )
            if part.vector_base != base:
                raise SimulationError(
                    f"dictionary shards are not contiguous: expected vector "
                    f"base {base}, got {part.vector_base}"
                )
            if base % LANES != 0:
                raise SimulationError(
                    "non-final dictionary shards must cover whole words"
                )
            base += part.n_vectors
        return cls(
            netlist_name=head.netlist_name,
            faults=head.faults,
            groups=head.groups,
            words=np.hstack([np.ascontiguousarray(p.words) for p in parts]),
            n_vectors=base - head.vector_base,
            vector_base=head.vector_base,
            backend=(backends.pop() if len(backends) == 1 else
                     "mixed" if backends else head.backend),
        )

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist to ``.npz`` (compressed; faults stored field-wise)."""
        nets, gates, pins, values = [], [], [], []
        for fault in self.faults:
            nets.append(fault.site.net)
            if fault.site.is_stem:
                gates.append("")
                pins.append(-1)
            else:
                gate, pin = fault.site.branch
                gates.append(gate)
                pins.append(pin)
            values.append(fault.value)
        offsets = np.cumsum([0] + [len(g) for g in self.groups])
        members = np.array(
            [i for g in self.groups for i in g] or [], dtype=np.int64
        )
        np.savez_compressed(
            path,
            netlist_name=np.array(self.netlist_name),
            backend=np.array(self.backend),
            words=self.words,
            n_vectors=np.array(self.n_vectors, dtype=np.int64),
            vector_base=np.array(self.vector_base, dtype=np.int64),
            fault_nets=np.array(nets),
            fault_gates=np.array(gates),
            fault_pins=np.array(pins, dtype=np.int64),
            fault_values=np.array(values, dtype=np.uint8),
            group_offsets=offsets.astype(np.int64),
            group_members=members,
        )

    @classmethod
    def load(cls, path) -> "FaultDictionary":
        """Inverse of :meth:`save`."""
        with np.load(path) as data:
            faults = tuple(
                StuckAtFault(
                    FaultSite(
                        str(net), None if pin < 0 else (str(gate), int(pin))
                    ),
                    int(value),
                )
                for net, gate, pin, value in zip(
                    data["fault_nets"],
                    data["fault_gates"],
                    data["fault_pins"],
                    data["fault_values"],
                )
            )
            offsets = data["group_offsets"]
            members = data["group_members"]
            groups = tuple(
                tuple(int(i) for i in members[lo:hi])
                for lo, hi in zip(offsets[:-1], offsets[1:])
            )
            return cls(
                netlist_name=str(data["netlist_name"]),
                faults=faults,
                groups=groups,
                words=data["words"],
                n_vectors=int(data["n_vectors"]),
                vector_base=int(data["vector_base"]),
                backend=(
                    str(data["backend"]) if "backend" in data.files else ""
                ),
            )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _resolve_universe(
    netlist: Netlist,
    faults: Optional[Sequence[StuckAtFault]],
    collapse: Union[bool, str],
) -> Tuple[Tuple[StuckAtFault, ...], Tuple[Tuple[int, ...], ...]]:
    """Fault list + equivalence groups, matching the campaign defaults.

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
    if faults is None:
        fault_seq = default_fault_universe(netlist)
        groups = (
            default_equivalence_groups(netlist)
            if mode == "equivalence"
            else tuple((i,) for i in range(len(fault_seq)))
        )
    else:
        fault_seq = tuple(faults)
        groups = (
            structural_equivalence_groups(netlist, fault_seq)
            if mode == "equivalence"
            else tuple((i,) for i in range(len(fault_seq)))
        )
    return fault_seq, groups


def _detection_rows(
    netlist: Netlist,
    groups: Tuple[Tuple[int, ...], ...],
    fault_seq: Tuple[StuckAtFault, ...],
    rows_of,
    n_words: int,
    word_lo: int,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Core kernel: per-fault detection words over a packed word range.

    ``rows_of(lo, hi)`` yields ``(input rows, valid masks)`` for sweep
    words ``[lo, hi)`` relative to ``word_lo``; one representative per
    equivalence class rides the fault matrix against the shared golden
    row, and the per-vector output difference words are broadcast to the
    whole class.
    """
    engine = engine_for(netlist, backend)
    reps = [fault_seq[g[0]] for g in groups]
    group_words = np.zeros((len(reps), n_words), dtype=np.uint64)
    fault_chunk = DICT_FAULT_CHUNK
    row_cells = engine.compiled.n_nets * (min(fault_chunk, max(1, len(reps))) + 1)
    word_chunk = matrix_word_chunk(row_cells, DICT_WORD_CHUNK)
    for lo in range(0, n_words, word_chunk):
        hi = min(lo + word_chunk, n_words)
        rows, valid = rows_of(word_lo + lo, word_lo + hi)
        for flo in range(0, len(reps), fault_chunk):
            fhi = min(flo + fault_chunk, len(reps))
            diff = engine.detect_words(rows, reps[flo:fhi])
            if valid is not None:
                diff &= valid
            group_words[flo:fhi, lo:hi] = diff
    words = np.empty((len(fault_seq), n_words), dtype=np.uint64)
    for group, row in zip(groups, group_words):
        for fi in group:
            words[fi] = row
    return words


def _dictionary_shard(
    netlist: Netlist,
    space: TestSpace,
    faults: Optional[Tuple[StuckAtFault, ...]],
    collapse: Union[bool, str],
    word_lo: int,
    word_hi: int,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Shard worker: detection words for sweep words [word_lo, word_hi).

    ``backend`` arrives pre-resolved from the parent so every worker
    re-selects the same execution backend.
    """
    fault_seq, groups = _resolve_universe(netlist, faults, collapse)

    def rows_of(lo: int, hi: int):
        rows = space.input_rows(lo, hi)
        return rows, space.valid_words(lo, hi, rows=rows)

    return _detection_rows(
        netlist, groups, fault_seq, rows_of,
        word_hi - word_lo, word_lo, backend,
    )


def build_fault_dictionary(
    netlist: Netlist,
    space: Optional[TestSpace] = None,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    store=None,
) -> FaultDictionary:
    """Exhaustive fault dictionary of ``netlist`` over ``space``.

    ``space`` defaults to the unconstrained universe over every primary
    input; ``faults`` to the full stem+branch universe (in campaign
    order, so dictionary rows line up with
    :func:`~repro.gates.engine.run_stuck_at_campaign` verdicts).
    ``workers`` shards the vector universe by word range across
    processes -- merges are bit-identical for any worker count -- and
    ``backend`` selects the execution backend, recorded on the
    dictionary (and in its ``.npz`` persistence) for provenance.
    Masked lanes (a non-zero field, the tail of a sub-word universe)
    are never counted as detecting.  With a result store active
    (``store=``/``REPRO_STORE``) the finished dictionary memoises under
    a content key and every word-range shard checkpoints as it
    completes, so a killed build resumes from its surviving shards.
    """
    with obs_span("fault_dictionary", netlist=netlist.name):
        return _build_fault_dictionary_impl(
            netlist, space, faults, collapse, workers, backend, store
        )


def _build_fault_dictionary_impl(
    netlist: Netlist,
    space: Optional[TestSpace],
    faults: Optional[Iterable[StuckAtFault]],
    collapse: Union[bool, str],
    workers: Optional[int],
    backend: Optional[str],
    store,
) -> FaultDictionary:
    if space is None:
        space = TestSpace.full(netlist)
    elif space.netlist is not netlist:
        raise SimulationError("test space was built for a different netlist")
    fault_tuple = tuple(faults) if faults is not None else None
    fault_seq, groups = _resolve_universe(netlist, fault_tuple, collapse)
    n_words = space.n_words
    # Sharded workers receive the resolved name, not the environment.
    backend = resolve_backend_name(backend)
    store = resolve_store(store)
    key = None
    if store is not None:
        key = CacheKey(
            kind="dictionary",
            netlist=digest_netlist(netlist),
            universe=digest_faults(fault_seq),
            space=digest_test_space(space),
            method="dictionary",
            backend=backend,
            params=digest_params(collapse=resolve_collapse_mode(collapse)),
        )
        cached = store.get(key)
        if cached is not None:
            return cached
    n_workers = resolve_workers(
        workers, n_words, cost=len(groups) * space.n_vectors
    )
    bounds = shard_bounds(n_words, n_workers)
    arg_tuples = [
        (netlist, space, fault_tuple, collapse, lo, hi, backend)
        for lo, hi in bounds
    ]
    if store is not None:
        slices = run_checkpointed(
            _dictionary_shard,
            arg_tuples,
            [key.with_shard(lo, hi) for lo, hi in bounds],
            store,
        )
    else:
        slices = run_sharded(_dictionary_shard, arg_tuples)
    result = FaultDictionary(
        netlist_name=netlist.name,
        faults=fault_seq,
        groups=groups,
        words=np.hstack(slices) if slices else np.zeros((len(fault_seq), 0), np.uint64),
        n_vectors=space.n_vectors,
        vector_base=0,
        backend=backend,
    )
    if store is not None:
        store.put(key, result, {"workers": n_workers, "shards": len(bounds)})
    return result


def dictionary_for_vectors(
    netlist: Netlist,
    bits: np.ndarray,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
    backend: Optional[str] = None,
    store=None,
) -> FaultDictionary:
    """Fault dictionary over an explicit test table.

    ``bits`` is ``(n_tests, n_inputs)`` 0/1 in netlist input order (the
    layout ATPG and compact test sets carry); the dictionary's vector
    ``t`` is row ``t`` of the table.  This is the *replay* primitive:
    building it for a compact set and comparing ``detected`` against the
    set's claim is the end-to-end validation the tests pin down.
    """
    fault_tuple = tuple(faults) if faults is not None else None
    fault_seq, groups = _resolve_universe(netlist, fault_tuple, collapse)
    bits = np.asarray(bits, dtype=np.uint8)
    n_tests = bits.shape[0]
    backend = resolve_backend_name(backend)
    store = resolve_store(store)
    key = None
    if store is not None:
        key = CacheKey(
            kind="dictionary",
            netlist=digest_netlist(netlist),
            universe=digest_faults(fault_seq),
            space=digest_vector_table(bits),
            method="table",
            backend=backend,
            params=digest_params(collapse=resolve_collapse_mode(collapse)),
        )
        cached = store.get(key)
        if cached is not None:
            return cached
    if n_tests and bits.shape[1] != len(netlist.primary_inputs):
        raise SimulationError(
            f"test table has {bits.shape[1]} input columns, netlist has "
            f"{len(netlist.primary_inputs)}"
        )
    if n_tests == 0:
        return FaultDictionary(
            netlist_name=netlist.name,
            faults=fault_seq,
            groups=groups,
            words=np.zeros((len(fault_seq), 0), dtype=np.uint64),
            n_vectors=0,
            backend=backend,
        )
    packed = np.stack([pack_bits(bits[:, k]) for k in range(bits.shape[1])])
    n_words = packed.shape[1]
    rem = n_tests % LANES
    tail = ALL_ONES if rem == 0 else np.uint64((1 << rem) - 1)

    def rows_of(lo: int, hi: int):
        rows = packed[:, lo:hi]
        if tail != ALL_ONES and hi == n_words:
            valid = np.full(hi - lo, ALL_ONES, dtype=np.uint64)
            valid[-1] = tail
            return rows, valid
        return rows, None

    words = _detection_rows(
        netlist, groups, fault_seq, rows_of,
        n_words, 0, backend,
    )
    result = FaultDictionary(
        netlist_name=netlist.name,
        faults=fault_seq,
        groups=groups,
        words=words,
        n_vectors=n_tests,
        backend=backend,
    )
    if store is not None:
        store.put(key, result)
    return result


def replay_detected(
    netlist: Netlist,
    bits: np.ndarray,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Per-fault detection of an explicit test table, via the campaign path.

    Runs :func:`repro.faults.injector.run_sharded_stuck_at_campaign`
    with the table's per-input vector arrays -- a different code path
    from the dictionary kernel -- and returns its boolean ``detected``
    array.  Agreement between the two is the subsystem's bit-for-bit
    acceptance criterion.
    """
    from repro.faults.injector import run_sharded_stuck_at_campaign

    bits = np.asarray(bits, dtype=np.uint8)
    fault_tuple = tuple(faults) if faults is not None else None
    if bits.shape[0] == 0:
        fault_seq, _ = _resolve_universe(netlist, fault_tuple, collapse)
        return np.zeros(len(fault_seq), dtype=bool)
    raw = run_sharded_stuck_at_campaign(
        netlist,
        vectors=inputs_from_bits(netlist, bits),
        faults=fault_tuple,
        collapse=collapse,
        workers=workers,
        backend=backend,
    )
    return np.asarray(raw.detected, dtype=bool)
