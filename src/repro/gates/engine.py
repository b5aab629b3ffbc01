"""Bit-parallel gate-level simulation and batched fault campaigns.

This is the execution layer on top of :mod:`repro.gates.compile`.  Test
vectors are packed 64 per ``uint64`` word (vector ``v`` lives in bit
``v % 64`` of word ``v // 64``), so one word-wide bitwise operation
evaluates a gate for 64 vectors at once -- the classical bit-parallel
acceleration that makes exhaustive stuck-at evaluation tractable.

Three levels of service:

* :meth:`BitParallelEngine.run_words` -- fault-free (or single-fault)
  evaluation of every net over a packed vector set;
* :meth:`BitParallelEngine.truth_tables` -- faulty truth tables for many
  faults in one pass (the faulty cell-library builder uses this);
* :meth:`BitParallelEngine.campaign` /
  :func:`run_stuck_at_campaign` -- a batched fault campaign: the whole
  stuck-at universe is simulated as a *fault-major matrix* (``n_nets x
  n_faults x n_words``) against one shared golden run, with structural
  fault collapsing (only one representative per equivalence class is
  simulated), cone scheduling (each fault batch walks only its union
  fan-out cone, :mod:`repro.gates.sparse`) and fault dropping (detected
  faults leave the schedule between escalating vector slabs).

Campaigns, fault dictionaries (:mod:`repro.tpg.dictionary`) and ATPG
(:mod:`repro.tpg.generate`) share one cone-scheduled detection sweep:
each cone batch carries its own plan and reaches the backend's
``run_detect`` with its cone.  The Table 1/2 coverage sweeps inject
*multi-site fault groups* (one cell-level fault replicated into the
nominal and checking copies of a functional unit,
:mod:`repro.arch.testbench`) and are cone-scheduled too: they hand each
schedule batch's plan and cone to the backend's ``run_outputs``, which
walks only that union fan-out cone and returns outputs outside it
golden.

Streaming wide sweeps: :func:`exhaustive_word_range` materialises any
word slice of an arbitrarily wide exhaustive vector set, a
:class:`TestSpace` pins constant inputs and masks out excluded vectors
(the divider's zero divisors), :func:`sweep_chunks` streams such a
universe -- or an explicit packed test table -- in budget-clamped word
chunks, and :func:`popcount_words` reduces packed classification masks
to exact vector counts, so coverage sweeps, fault dictionaries and
ATPG run in O(chunk) memory.

Fault semantics match the reference interpreter
(:class:`repro.gates.simulate.ReferenceSimulator`): a *stem* fault
overrides the net value seen by all readers and by primary outputs; a
*branch* fault overrides the value seen by one specific gate input pin
only.

Execution itself sits behind the backend protocol
(:mod:`repro.gates.backends`): the engine binds one backend per
instance, the levelized ``fused`` backend the library runs.  The
verbatim ``python_loop`` and the ``reference`` interpreter are the
oracles differential tests swap in (by patching
:data:`~repro.gates.backends.DEFAULT_BACKEND`); all backends are
bit-identical on every path.

Two kernel-call geometries serve the consumers of the fault matrix.
Campaigns, fault dictionaries and ATPG run at most
:data:`SWEEP_FAULT_CHUNK` fault rows per call over at most
:data:`SWEEP_WORD_CHUNK` words; the Table 1/2 gate sweeps, which drop
no faults and order no tests, run at most :data:`TABLE_FAULT_CHUNK`
fault groups per call over at most :data:`TABLE_WORD_CHUNK` words:
tighter cone batches walk fewer rows, and wider chunks amortise the
per-row cost of broadcasting golden rows.  Either word chunk is clamped
(:func:`matrix_word_chunk`) so the call fits the backends' one matrix
byte cap, which also bounds the ``fused`` workspace.  Chunk sizes are
module constants, not options: they never change a count or a verdict
(only the order in which ATPG records its tests, see
:mod:`repro.tpg.generate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.errors import SimulationError
from repro.gates.backends import (
    GATE_MATRIX_BUDGET_MAX,
    Backend,
    OverridePlan,
    create_backend,
    resolve_backend_name,
)
from repro.gates.compile import CompiledNetlist, compile_netlist
from repro.gates.faults import (
    StuckAtFault,
    default_equivalence_groups,
    fault_classes,
    resolve_collapse_mode,
)
from repro.gates.memo import identity_memo
from repro.gates.netlist import Netlist
from repro.obs import events as obs_events
from repro.obs.trace import span as obs_span

if TYPE_CHECKING:  # pragma: no cover - imported lazily, off the import path
    from repro.gates.sparse import SparseBatch

Value = Union[int, np.ndarray]

LANES = 64
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_SHIFTS = np.arange(LANES, dtype=np.uint64)

#: Exhaustive packing refuses input counts beyond this (2**24 vectors).
MAX_EXHAUSTIVE_INPUTS = 24


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 1-d 0/1 array into uint64 words, 64 vectors per word."""
    bits = np.asarray(bits, dtype=np.uint64)
    n = bits.shape[0]
    n_words = (n + LANES - 1) // LANES
    if n_words * LANES != n:
        bits = np.concatenate(
            [bits, np.zeros(n_words * LANES - n, dtype=np.uint64)]
        )
    if n_words == 0:
        return np.zeros(0, dtype=np.uint64)
    lanes = bits.reshape(n_words, LANES) << _SHIFTS
    return np.bitwise_or.reduce(lanes, axis=1)


def unpack_bits(words: np.ndarray, n_vectors: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; works on any leading shape.

    The last axis holds packed words; the result replaces it with the
    first ``n_vectors`` lanes as uint8 0/1 (lane ``v % 64`` of word
    ``v // 64``).  The words are viewed as little-endian bytes so
    ``np.unpackbits(bitorder="little")`` yields lanes in order on any
    host byte order.
    """
    words = np.ascontiguousarray(words, dtype="<u8")
    n = min(n_vectors, words.shape[-1] * LANES)
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little")


@dataclass(frozen=True)
class PackedVectors:
    """A packed test-vector set: one word row per primary input.

    ``words[k]`` holds the bit stream of the ``k``-th primary input (in
    compiled/declared order) across all vectors.
    """

    words: np.ndarray  # (n_inputs, n_words) uint64
    n_vectors: int

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    @property
    def tail_mask(self) -> np.uint64:
        """Mask of valid bits in the final word."""
        rem = self.n_vectors % LANES
        if rem == 0:
            return ALL_ONES
        return np.uint64((1 << rem) - 1)

    def word_slice(self, lo: int, hi: int) -> "PackedVectors":
        """Sub-range of whole words ``[lo, hi)`` as a new packed set."""
        hi = min(hi, self.n_words)
        n = min(self.n_vectors - lo * LANES, (hi - lo) * LANES)
        return PackedVectors(self.words[:, lo:hi], n)

    # The sweep-source interface of :func:`sweep_chunks`, shared with
    # :class:`TestSpace`.
    def input_rows(self, word_lo: int, word_hi: int) -> np.ndarray:
        return self.words[:, word_lo:word_hi]

    def valid_words(self, word_lo: int, word_hi: int, rows=None) -> Optional[np.ndarray]:
        return _tail_words(self.n_vectors, self.n_words, word_lo, word_hi)


def _tail_words(
    n_vectors: int, n_words: int, word_lo: int, word_hi: int
) -> Optional[np.ndarray]:
    """Valid-lane masks of words ``[word_lo, word_hi)`` of an
    ``n_words``-word sweep over ``n_vectors`` vectors: ``None`` unless
    the range ends in a partially filled final word."""
    rem = n_vectors % LANES
    if not rem or word_hi != n_words or word_hi == word_lo:
        return None
    masks = np.full(word_hi - word_lo, ALL_ONES, dtype=np.uint64)
    masks[-1] = np.uint64((1 << rem) - 1)
    return masks


def exhaustive_words(n_inputs: int) -> PackedVectors:
    """All ``2**n_inputs`` combinations, packed, without materialising
    per-vector uint8 arrays.

    Vector ``v`` assigns bit ``k`` of ``v`` to input ``k`` -- the same
    convention as ``NetlistSimulator.truth_table``.
    """
    if n_inputs > MAX_EXHAUSTIVE_INPUTS:
        raise SimulationError(
            f"exhaustive packing of {n_inputs} inputs is too large"
        )
    n_vectors = 1 << n_inputs
    n_words = max(1, n_vectors >> 6)
    return PackedVectors(exhaustive_word_range(n_inputs, 0, n_words), n_vectors)


def exhaustive_word_range(n_inputs: int, word_lo: int, word_hi: int) -> np.ndarray:
    """Words ``[word_lo, word_hi)`` of the exhaustive sweep, one row per input.

    The full exhaustive set over ``n_inputs`` primary inputs spans
    ``max(1, 2**(n_inputs - 6))`` uint64 words; this produces any
    contiguous slice of it without materialising the rest, which is what
    lets wide sweeps (e.g. the 2**32-vector n = 16 operand space) stream
    through a fixed-size working set.  Bit conventions match
    :func:`exhaustive_words`: vector ``v`` assigns bit ``k`` of ``v`` to
    input ``k``; when ``n_inputs < 6`` the lanes beyond ``2**n_inputs``
    are phantom vectors the caller must mask off (see
    :attr:`PackedVectors.tail_mask`).
    """
    total_words = max(1, (1 << n_inputs) >> 6) if n_inputs < 63 else 1 << (n_inputs - 6)
    if not (0 <= word_lo <= word_hi <= total_words):
        raise SimulationError(
            f"word range [{word_lo}, {word_hi}) outside the "
            f"{total_words}-word exhaustive sweep of {n_inputs} inputs"
        )
    n_words = word_hi - word_lo
    rows = np.empty((n_inputs, n_words), dtype=np.uint64)
    lane = np.arange(LANES, dtype=np.uint64)
    idx = np.arange(word_lo, word_hi, dtype=np.uint64)
    for k in range(n_inputs):
        if k < 6:
            pattern = np.bitwise_or.reduce(
                ((lane >> np.uint64(k)) & np.uint64(1)) << lane
            )
            rows[k] = pattern
        else:
            rows[k] = np.where(
                (idx >> np.uint64(k - 6)) & np.uint64(1) == 1, ALL_ONES, np.uint64(0)
            )
    return rows


# 8-bit popcount lookup, the fallback when NumPy lacks ``bitwise_count``
# (added in NumPy 2.0).
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Total set bits along the last axis of a uint64 word array.

    One packed word row (64 vectors per word) reduces to an exact vector
    count, which is how the batched coverage sweeps turn per-vector
    classification masks into situation tallies without ever unpacking.
    Returns int64 counts with the last axis summed away.
    """
    words = np.asarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return _POP8[as_bytes].sum(axis=-1, dtype=np.int64)


def first_hits(
    diff: np.ndarray, tail_mask: np.uint64 = ALL_ONES, base_vector: int = 0
) -> List[Tuple[int, int]]:
    """Earliest set vector of every row of a detection-word matrix.

    ``diff`` is ``(n_rows, n_words)`` packed detection words; lanes of
    the last word outside ``tail_mask`` are phantom vectors and are
    cleared in place.  Returns ``(row, vector)`` pairs, row-ascending,
    for rows with any set bit, where ``vector`` is ``base_vector`` plus
    the index of the row's lowest set lane -- the single first-witness
    reduction shared by campaigns, dictionaries and ATPG.
    """
    if tail_mask != ALL_ONES:
        diff[:, -1] &= tail_mask
    nonzero = diff != 0
    hit_rows = np.nonzero(nonzero.any(axis=1))[0]
    if not hit_rows.size:
        return []
    word_idx = np.argmax(nonzero[hit_rows], axis=1)
    word = diff[hit_rows, word_idx]
    # Lowest set bit; exact via float64 log2 of a power of 2.
    low = word & (np.uint64(0) - word)
    bit = np.log2(low.astype(np.float64)).astype(np.int64)
    vectors = base_vector + word_idx * LANES + bit
    return list(zip(hit_rows.tolist(), vectors.tolist()))


@dataclass(frozen=True)
class TestSpace:
    """A (possibly constrained) exhaustive vector universe over a
    netlist's inputs -- the one description of every swept universe.

    ``free_inputs`` sweep -- vector ``v`` assigns bit ``k`` of ``v`` to
    the ``k``-th free input, matching :func:`exhaustive_word_range` --
    while ``constants`` pins the remaining primary inputs to 0/1 (a test
    architecture's constant rails).  ``nonzero_field`` names a
    ``[lo, hi)`` range of *free-input indices* whose bits must not all
    be zero (the divider's ``b != 0``); vectors violating it are masked
    out of every sweep and every random phase.  The Table 2
    architectures (:attr:`repro.arch.testbench._Table2ArchitectureBase.space`),
    the per-unit ATPG universes and the fault dictionaries all stream
    their sweeps from one of these through :func:`sweep_chunks`.
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
        """Packed words spanning the sweep."""
        return max(1, self.n_vectors >> 6)

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
        """OR of the non-zero field's rows: the lanes whose field is set."""
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
        tail = _tail_words(self.n_vectors, self.n_words, word_lo, word_hi)
        if self.nonzero_field is None:
            return tail
        if rows is None:
            rows = self.input_rows(word_lo, word_hi)
        masks = self._nonzero_mask(rows)
        return masks if tail is None else masks & tail

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


#: Chunk geometry of the fault-matrix kernel calls of fault
#: dictionaries, the ATPG residue sweep, the campaign slabs and
#: ``truth_tables``: vector words per chunk (clamped by
#: :func:`matrix_word_chunk`) and fault groups per call.  Chunking never
#: changes a count, a verdict or a dictionary bit; it fixes the order in
#: which ATPG records its tests, so the ATPG store key hashes the word
#: chunk.  Campaigns measured slower with 16-row batches (32 was within
#: noise), so they keep 64.
SWEEP_WORD_CHUNK = 256
SWEEP_FAULT_CHUNK = 64

#: Chunk geometry of the Table 1/2 gate sweeps
#: (:func:`repro.coverage.engine._gate_case_counts`).  Those sweeps
#: drop no faults and order nothing, and every row of a prefix walk up
#: to the deepest tainted one is evaluated, so 16-group cone batches
#: (tighter union cones) over 512-word chunks (fewer per-row golden
#: broadcasts per element) do less work than the pair above.
TABLE_WORD_CHUNK = 512
TABLE_FAULT_CHUNK = 16


def matrix_word_chunk(row_cells: int, word_chunk: int) -> int:
    """Clamp ``word_chunk`` so a matrix of ``row_cells`` uint64 cells
    per word column fits :data:`GATE_MATRIX_BUDGET_MAX`; the clamp stops
    at 8 words, so a netlist too wide for the cap still streams."""
    return min(word_chunk, max(8, GATE_MATRIX_BUDGET_MAX // (8 * max(1, row_cells))))


def _chunk_words(
    compiled: CompiledNetlist, n_groups: int, word_chunk: int, fault_chunk: int
) -> int:
    """Words per kernel call over ``n_groups`` fault groups: at most
    ``word_chunk``, clamped for ``rows = min(fault_chunk, n_groups)``
    group rows plus the golden row.

    The clamp charges ``n_nets x (rows + 1)`` cells per word column.
    The fused walk's workspace holds live-net slots only, so that is a
    conservative bound that also covers the ``n_nets``-row golden run.
    """
    rows = min(fault_chunk, max(1, n_groups)) + 1
    return matrix_word_chunk(compiled.n_nets * rows, word_chunk)


#: A sweep source: a :class:`TestSpace` (rows built per chunk) or an
#: explicit :class:`PackedVectors` table.
SweepSource = Union[TestSpace, PackedVectors]


def sweep_chunks(
    engine: "BitParallelEngine",
    n_groups: int,
    source: SweepSource,
    word_chunk: Optional[int] = None,
    fault_chunk: Optional[int] = None,
) -> Iterator[Tuple[int, int, np.ndarray, Optional[np.ndarray]]]:
    """Stream ``source`` in word chunks as ``(lo, hi, rows, valid)``.

    ``rows`` are the packed input words ``[lo, hi)`` and ``valid`` their
    valid-lane masks (``None`` when every lane is real).  The chunk is
    ``word_chunk`` clamped so one kernel call over ``n_groups`` fault
    groups -- at most ``fault_chunk`` per call, plus the golden row --
    fits the one matrix byte cap.  The pair defaults to
    :data:`SWEEP_WORD_CHUNK` / :data:`SWEEP_FAULT_CHUNK`; the Table
    sweeps pass :data:`TABLE_WORD_CHUNK` / :data:`TABLE_FAULT_CHUNK`.
    """
    step = _chunk_words(
        engine.compiled,
        n_groups,
        SWEEP_WORD_CHUNK if word_chunk is None else word_chunk,
        SWEEP_FAULT_CHUNK if fault_chunk is None else fault_chunk,
    )
    n_words = source.n_words
    for lo in range(0, n_words, step):
        hi = min(lo + step, n_words)
        rows = source.input_rows(lo, hi)
        yield lo, hi, rows, source.valid_words(lo, hi, rows=rows)


#: Entries each engine keeps per plan cache (``_rounds``, ``_sweeps``).
PLAN_CACHE_ENTRIES = 32


def fifo_put(cache: Dict[Any, Any], key: Any, value: Any) -> None:
    """Store ``value`` under ``key``, evicting the oldest entries so
    ``cache`` holds at most :data:`PLAN_CACHE_ENTRIES`."""
    while len(cache) >= PLAN_CACHE_ENTRIES:
        del cache[next(iter(cache))]
    cache[key] = value


class _DetectSweep:
    """The one cone-scheduled detection loop over a fault-class list.

    Campaigns, fault dictionaries and ATPG simulate one representative
    fault per class.  Called with packed input words and the active
    class ids, the sweep yields ``(class ids, detection words)`` for
    every cone batch of at most :data:`SWEEP_FAULT_CHUNK` classes
    (:func:`repro.gates.sparse.build_schedule`); each batch carries its
    own plan and cone, and the schedule is rebuilt only when the active
    set changes.  Batches whose sites reach no primary output are
    provably undetectable: no kernel runs for them, and they yield
    nothing.

    Schedules of the memoised default partition are cached on the
    engine: dropping is deterministic, so repeated campaigns replay
    their rounds, and a fault dictionary or an ATPG first round
    schedules every class -- the campaign's first-round key.
    """

    def __init__(
        self,
        engine: "BitParallelEngine",
        fault_seq: Sequence[StuckAtFault],
        groups: Tuple[Tuple[int, ...], ...],
    ) -> None:
        self._engine = engine
        self._groups = groups
        self._reps = [fault_seq[g[0]] for g in groups]
        # The memoised tuple stays alive, so its id cannot be recycled.
        default = groups is default_equivalence_groups(engine.compiled.source)
        self._rounds = engine._rounds if default else None
        self._active: Optional[Tuple[int, ...]] = None
        self._batches: Tuple[SparseBatch, ...] = ()

    def _schedule(self, active: Tuple[int, ...]) -> Tuple[SparseBatch, ...]:
        from repro.analysis.cones import analyze_cones, analyze_gate_cones
        from repro.gates import sparse

        key = (id(self._groups), active, SWEEP_FAULT_CHUNK)
        rounds = self._rounds
        if rounds is not None and key in rounds:
            return rounds[key]
        compiled = self._engine.compiled
        batches = sparse.build_schedule(
            compiled, [self._reps[g] for g in active], SWEEP_FAULT_CHUNK,
            analyze_gate_cones(compiled.source, store=False),
            analyze_cones(compiled.source, store=False),
        ).batches
        if rounds is not None:
            fifo_put(rounds, key, batches)
        return batches

    def __call__(
        self, words: np.ndarray, active: Sequence[int]
    ) -> Iterator[Tuple[List[int], np.ndarray]]:
        active = tuple(active)
        if active != self._active:
            self._active, self._batches = active, self._schedule(active)
        run_detect = self._engine.backend.run_detect
        for batch in self._batches:
            if batch.out_ids:
                # The backend folds a shared golden run into the
                # detection words: no separate fault-free pass.
                yield [active[m] for m in batch.members], run_detect(
                    words, batch.plan, len(batch.members), batch.gates, batch.out_ids
                )


@dataclass
class StuckAtCampaignResult:
    """Outcome of a batched stuck-at campaign.

    ``detected[i]`` / ``first_detected[i]`` refer to ``faults[i]``;
    ``first_detected`` is the 0-based index of the earliest detecting
    vector, ``-1`` for undetected faults.  ``groups`` are the structural
    equivalence classes (tuples of fault indices), each represented by
    a single fault -- simulated directly, or (under dominance
    collapsing) inferred from its dominated predecessors, in which case
    ``first_detected`` is a valid detecting vector but not necessarily
    the earliest one.
    """

    netlist_name: str
    faults: Tuple[StuckAtFault, ...]
    detected: np.ndarray
    first_detected: np.ndarray
    n_vectors: int
    n_simulated_runs: int
    groups: Tuple[Tuple[int, ...], ...]

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @property
    def detected_count(self) -> int:
        return int(np.sum(self.detected))

    @property
    def coverage(self) -> float:
        """Detected fraction of the fault universe."""
        return self.detected_count / self.n_faults if self.n_faults else 1.0

    def classification(self, index: int) -> str:
        return "detected" if self.detected[index] else "undetected"

    def classifications(self) -> List[str]:
        return [self.classification(i) for i in range(self.n_faults)]

    def detected_faults(self) -> List[StuckAtFault]:
        return [f for f, d in zip(self.faults, self.detected) if d]

    def undetected_faults(self) -> List[StuckAtFault]:
        return [f for f, d in zip(self.faults, self.detected) if not d]

    def summary(self) -> str:
        return (
            f"{self.netlist_name}: {self.detected_count}/{self.n_faults} faults "
            f"detected over {self.n_vectors} vectors "
            f"({100.0 * self.coverage:.2f}% coverage, "
            f"{len(self.groups)} equivalence groups, "
            f"{self.n_simulated_runs} simulated fault runs)"
        )


class BitParallelEngine:
    """Word-parallel evaluator bound to one :class:`CompiledNetlist`.

    Evaluation itself is delegated to the execution backend
    :func:`~repro.gates.backends.resolve_backend_name` names when the
    engine is built (:mod:`repro.gates.backends`).
    """

    def __init__(self, compiled: CompiledNetlist) -> None:
        self.compiled = compiled
        self.backend: Backend = create_backend(None, compiled)
        self._input_ids = [int(i) for i in compiled.input_ids]
        self._output_ids = [int(i) for i in compiled.output_ids]
        self._exhaustive: Optional[PackedVectors] = None
        # Detection-sweep schedule cache (see _DetectSweep): (id(groups),
        # active classes, rows-per-batch) -> batches, each carrying its
        # plan; default-universe rounds only, FIFO-bounded.
        self._rounds: Dict[Tuple[int, Tuple[int, ...], int], Tuple] = {}
        # Table-sweep plan cache (repro.coverage.engine._gate_case_counts):
        # (cell netlist, case span, rows-per-batch) -> the span's case
        # layout and cone batches; FIFO-bounded like _rounds.
        self._sweeps: Dict[Tuple[str, int, int, int], Tuple] = {}

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def pack_inputs(self, inputs: Mapping[str, Value]) -> Tuple[PackedVectors, bool]:
        """Validate, broadcast and pack an input assignment.

        Returns ``(packed, scalar)`` where ``scalar`` is True when every
        input was 0-d (callers unpack results back to 0-d arrays).
        """
        arrays: List[np.ndarray] = []
        length: Optional[int] = None
        names = self.compiled.source.primary_inputs
        for name in names:
            if name not in inputs:
                raise SimulationError(f"missing assignment for primary input {name!r}")
            arr = np.asarray(inputs[name], dtype=np.uint8)
            if arr.ndim > 1:
                raise SimulationError(
                    f"input {name!r} must be scalar or 1-d, got shape {arr.shape}"
                )
            if np.any(arr > 1):
                raise SimulationError(f"input {name!r} contains non-binary values")
            if arr.ndim == 1:
                if length is None:
                    length = arr.shape[0]
                elif arr.shape[0] != length:
                    raise SimulationError(
                        f"input {name!r} length {arr.shape[0]} != {length}"
                    )
            arrays.append(arr)
        scalar = length is None
        n_vectors = 1 if scalar else length
        n_words = (n_vectors + LANES - 1) // LANES
        words = np.empty((len(arrays), n_words), dtype=np.uint64)
        for k, arr in enumerate(arrays):
            if arr.ndim == 0:
                words[k] = ALL_ONES if int(arr) else np.uint64(0)
            else:
                words[k] = pack_bits(arr)
        return PackedVectors(words, n_vectors), scalar

    def exhaustive(self) -> PackedVectors:
        """Packed exhaustive vector set over the primary inputs.

        Cached per engine, but only while its golden run fits
        :data:`GATE_MATRIX_BUDGET_MAX` -- the rule the ``fused`` golden
        cache applies: wide-netlist engines held by the per-netlist
        simulator cache would otherwise pin arrays far larger than any
        evaluation chunk.  Oversized sets are rebuilt per call instead
        (the builder is a cheap streaming kernel).
        """
        if self._exhaustive is not None:
            return self._exhaustive
        packed = exhaustive_words(self.compiled.n_inputs)
        if self.compiled.n_nets * packed.n_words * 8 <= GATE_MATRIX_BUDGET_MAX:
            self._exhaustive = packed
        return packed

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def run_words(
        self, packed: PackedVectors, fault: Optional[StuckAtFault] = None
    ) -> np.ndarray:
        """Evaluate every net; returns a ``(n_nets, n_words)`` matrix."""
        if fault is not None:
            plan = OverridePlan(self.compiled, [fault])
            return self.backend.run_matrix(packed.words, plan, 1)[:, 0, :]
        return self.backend.run_words(packed.words)

    def output_words(
        self, packed: PackedVectors, fault: Optional[StuckAtFault] = None
    ) -> np.ndarray:
        """Primary-output rows only, ``(n_outputs, n_words)``."""
        return self.run_words(packed, fault)[self._output_ids]

    def truth_tables(self, faults: Sequence[StuckAtFault]) -> np.ndarray:
        """Exhaustive faulty truth tables, ``(n_faults, 2**n, n_outputs)``.

        One fault-matrix pass per chunk replaces ``n_faults`` separate
        interpreter walks; column order matches ``primary_outputs``.
        """
        packed = self.exhaustive()
        out_ids = self._output_ids
        tables = np.empty(
            (len(faults), packed.n_vectors, len(out_ids)), dtype=np.uint8
        )
        for lo in range(0, len(faults), SWEEP_FAULT_CHUNK):
            batch = faults[lo : lo + SWEEP_FAULT_CHUNK]
            plan = OverridePlan(self.compiled, batch)
            out = self.backend.run_outputs(packed.words, plan, len(batch))
            bits = unpack_bits(out, packed.n_vectors)  # (n_out, B, V)
            tables[lo : lo + len(batch)] = np.transpose(bits, (1, 2, 0))
        return tables

    # ------------------------------------------------------------------
    # Batched fault campaign
    # ------------------------------------------------------------------
    def campaign(
        self,
        packed: Optional[PackedVectors] = None,
        faults: Optional[Sequence[StuckAtFault]] = None,
        collapse: Union[bool, str] = True,
        fault_dropping: bool = True,
    ) -> StuckAtCampaignResult:
        """Simulate a stuck-at universe against one shared golden run.

        ``packed`` defaults to the exhaustive vector set; ``faults`` to
        the full stem+branch universe.  ``collapse`` selects the static
        collapsing mode (:func:`repro.gates.faults.resolve_collapse_mode`):
        ``"equivalence"`` / ``True`` (default) simulates one
        representative per structural equivalence class and broadcasts
        its verdict; ``"dominance"`` further skips dominated gate-output
        classes up front (:mod:`repro.analysis.collapse`), infers their
        detection from their predecessors' verdicts and residually
        simulates only those whose predecessors all came back
        undetected; ``"none"`` / ``False`` simulates every fault.  The
        ``detected`` array and every classification are bit-identical
        across all three modes; dominance only weakens
        ``first_detected`` for *inferred* classes to "a valid detecting
        vector" rather than the earliest one.

        The sweep is cone-scheduled (:mod:`repro.gates.sparse`): fault
        classes are clustered by fan-out cone similarity and the
        backend walks only the union cone of each batch, at most
        :data:`SWEEP_FAULT_CHUNK` classes per kernel call.  With
        ``fault_dropping`` (default) the vector space advances in word
        slabs that start at :data:`~repro.gates.sparse.SPARSE_WORD_SUBCHUNK`
        words and double each step up to the sweeps' word chunk
        (:data:`SWEEP_WORD_CHUNK` clamped to the matrix byte cap), and
        detected classes leave the schedule between slabs; without it
        the sweep streams full word chunks over every class.  Neither
        changes any classification.
        """
        with obs_span(
            "campaign",
            netlist=self.compiled.source.name,
            backend=self.backend.name,
        ):
            result = self._campaign_impl(
                packed=packed,
                faults=faults,
                collapse=collapse,
                fault_dropping=fault_dropping,
            )
            obs_events.emit(
                obs_events.CAMPAIGN_COMPLETED,
                netlist=result.netlist_name,
                backend=self.backend.name,
                n_faults=len(result.faults),
                n_vectors=result.n_vectors,
                n_simulated_runs=result.n_simulated_runs,
            )
        return result

    def _campaign_impl(
        self,
        packed: Optional[PackedVectors],
        faults: Optional[Sequence[StuckAtFault]],
        collapse: Union[bool, str],
        fault_dropping: bool,
    ) -> StuckAtCampaignResult:
        from repro.gates import sparse

        mode = resolve_collapse_mode(collapse)
        netlist = self.compiled.source
        if packed is None:
            packed = self.exhaustive()
        fault_seq, groups = fault_classes(netlist, faults, mode)
        cmap = None
        if mode == "dominance":
            from repro.analysis.collapse import collapse_faults

            cmap = collapse_faults(
                netlist, faults=None if faults is None else fault_seq, mode=mode,
                store=False,
            )
        n_faults = len(fault_seq)

        detected = np.zeros(n_faults, dtype=bool)
        first_detected = np.full(n_faults, -1, dtype=np.int64)
        n_runs = 0
        n_words = packed.n_words
        detect = _DetectSweep(self, fault_seq, groups)

        def sweep(class_ids: List[int]) -> int:
            """Run the cone-scheduled slab sweep over ``class_ids``,
            updating ``detected``/``first_detected``; returns the number
            of representative runs.

            Under fault dropping the first slab is narrow and each next
            one twice as wide: most faults fall to the earliest vectors,
            so the cheap first slab retires the bulk of the universe and
            every wider slab re-schedules only the surviving classes,
            whose union cones tighten as the shallow fault sites drop
            out.  Slabs advance in vector order, so the first hit of a
            class is its earliest detecting vector.
            """
            active = list(class_ids)
            runs = 0
            # No slab is wider than one kernel call's word chunk, so
            # every call fits the matrix byte cap.  Without fault
            # dropping no class ever retires, so slab escalation buys
            # nothing: stream plain word chunks.
            word_chunk = _chunk_words(
                self.compiled, len(active), SWEEP_WORD_CHUNK, SWEEP_FAULT_CHUNK
            )
            slab = word_chunk
            if fault_dropping:
                slab = min(sparse.SPARSE_WORD_SUBCHUNK, word_chunk)
            lo = 0
            while lo < max(n_words, 1) and active:
                hi = min(lo + slab, n_words)
                if lo == 0 and hi >= n_words:
                    part = packed
                else:
                    part = packed.word_slice(lo, hi)
                if part.n_words == 0:
                    break
                mask = part.tail_mask
                base_vector = lo * LANES
                for batch_ids, diff in detect(part.words, active):
                    runs += len(batch_ids)
                    for row, vector in first_hits(diff, mask, base_vector):
                        for fi in groups[batch_ids[row]]:
                            # Without fault dropping a fault can re-detect
                            # in later slabs; keep the earliest vector.
                            if not detected[fi]:
                                detected[fi] = True
                                first_detected[fi] = vector
                if fault_dropping:
                    active = [g for g in active if not detected[groups[g][0]]]
                    slab = min(slab * 2, word_chunk)
                lo = hi
            return runs

        if cmap is None:
            n_runs += sweep(list(range(len(groups))))
        else:
            n_runs += sweep(sorted(cmap.kept))
            # Resolve the dominated-away classes in topological waves:
            # detected as soon as any predecessor is (with the earliest
            # predecessor witness as the detecting vector), residually
            # simulated when every predecessor came back undetected.
            status: Dict[int, bool] = {
                ci: bool(detected[groups[ci][0]]) for ci in cmap.kept
            }
            pending = list(cmap.dropped)
            while pending:
                to_sim: List[int] = []
                deferred: List[int] = []
                for ci in pending:
                    preds = cmap.implied_by[ci]
                    if any(p not in status for p in preds):
                        deferred.append(ci)
                        continue
                    witnesses = [
                        int(first_detected[groups[p][0]])
                        for p in preds
                        if status[p]
                    ]
                    if witnesses:
                        status[ci] = True
                        vector = min(witnesses)
                        for fi in groups[ci]:
                            detected[fi] = True
                            first_detected[fi] = vector
                    else:
                        to_sim.append(ci)
                wave = sorted(to_sim) if to_sim else sorted(deferred)
                if to_sim or (deferred and not to_sim):
                    if not to_sim:
                        deferred = []  # defensive: cannot happen on a DAG
                    n_runs += sweep(wave)
                    for ci in wave:
                        status[ci] = bool(detected[groups[ci][0]])
                pending = deferred

        return StuckAtCampaignResult(
            netlist_name=netlist.name,
            faults=tuple(fault_seq),
            detected=detected,
            first_detected=first_detected,
            n_vectors=packed.n_vectors,
            n_simulated_runs=n_runs,
            groups=groups,
        )


# A CompiledNetlist is immutable, so identity alone keys the engine
# caches (empty fingerprint); compile_netlist already maps a netlist
# version to one live compiled object.  One cache per backend name, so
# a test that swaps in an oracle backend never gets (or evicts) the
# default backend's warm engines.
_ENGINE_CACHES: Dict[str, Callable[[CompiledNetlist], BitParallelEngine]] = {}


def engine_for(netlist: Netlist) -> BitParallelEngine:
    """Cached :class:`BitParallelEngine` for ``netlist``.

    Piggybacks on the compiled-netlist cache: one engine per live
    :class:`CompiledNetlist` (and backend name), so repeated campaigns
    share the cached schedules and the packed exhaustive vector set.
    """
    name = resolve_backend_name()
    cache = _ENGINE_CACHES.get(name)
    if cache is None:
        cache = identity_memo(lambda _compiled: ())(BitParallelEngine)
        _ENGINE_CACHES[name] = cache
    return cache(compile_netlist(netlist))


def run_stuck_at_campaign(
    netlist: Netlist,
    inputs: Optional[Mapping[str, Value]] = None,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
    fault_dropping: bool = True,
) -> StuckAtCampaignResult:
    """One-call batched campaign over ``netlist``'s stuck-at universe.

    ``inputs`` maps primary inputs to 0/1 vectors (all the same length);
    omitted, the exhaustive vector set is used.
    """
    engine = engine_for(netlist)
    packed: Optional[PackedVectors] = None
    if inputs is not None:
        packed, _ = engine.pack_inputs(inputs)
    fault_list = list(faults) if faults is not None else None
    return engine.campaign(
        packed,
        fault_list,
        collapse=collapse,
        fault_dropping=fault_dropping,
    )
