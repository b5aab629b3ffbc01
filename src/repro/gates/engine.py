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
  faults leave the schedule between escalating vector slabs);
* :meth:`BitParallelEngine.run_fault_groups` -- the same fault-major
  matrix for *multi-site fault groups* (several stuck-ats injected
  together per row), which is how the Table 2 coverage sweep replicates
  one cell-level fault into the nominal and checking copies of a
  functional unit (:mod:`repro.arch.testbench`).

Streaming wide sweeps: :func:`exhaustive_word_range` materialises any
word slice of an arbitrarily wide exhaustive vector set, and
:func:`popcount_words` reduces packed classification masks to exact
vector counts, so coverage campaigns run in O(chunk) memory.

Fault semantics match the reference interpreter
(:class:`repro.gates.simulate.ReferenceSimulator`): a *stem* fault
overrides the net value seen by all readers and by primary outputs; a
*branch* fault overrides the value seen by one specific gate input pin
only.

Execution itself is pluggable (:mod:`repro.gates.backends`): the engine
binds one backend per instance -- the verbatim ``python_loop``, the
levelized ``fused`` default, or the ``reference`` interpreter --
selected by the ``backend=`` keyword, the ``REPRO_BACKEND`` environment
variable, or the registry default, in that order.  All backends are
bit-identical on every path.

Chunk geometry (:func:`resolve_chunking`, :func:`matrix_word_chunk`)
and the fault-matrix memory budget (:func:`resolve_matrix_budget`,
``REPRO_GATE_MATRIX_BUDGET``) are resolved here too, once for every
streaming consumer of the fault matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.gates.backends import (
    Backend,
    FaultGroup,
    OverridePlan,
    create_backend,
    resolve_backend_name,
)
from repro.gates.compile import CompiledNetlist, compile_netlist
from repro.gates.faults import (
    StuckAtFault,
    default_equivalence_groups,
    default_fault_universe,
    resolve_collapse_mode,
    structural_equivalence_groups,
)
from repro.gates.memo import identity_memo
from repro.gates.netlist import Netlist
from repro.obs import events as obs_events
from repro.obs.trace import span as obs_span

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


def exhaustive_field_mask(
    n_inputs: int, field_lo: int, field_hi: int, word_lo: int, word_hi: int
) -> np.ndarray:
    """Valid-lane masks excluding vectors whose ``[field_lo, field_hi)``
    bits are all zero.

    Returns one uint64 per word of ``[word_lo, word_hi)`` in the
    exhaustive sweep of ``n_inputs`` (conventions as
    :func:`exhaustive_word_range`): lane ``v % 64`` of word ``v // 64``
    is set iff vector ``v`` assigns a non-zero value to the input field.
    This is how masked operand sweeps restrict an exhaustive universe --
    e.g. the divider's Table 2 architecture drives ``b = v >> width``
    through inputs ``[width, 2*width)`` and must exclude zero divisors.
    The mask is simply the OR of the field's input rows, so it composes
    with :attr:`PackedVectors.tail_mask` for sub-word sweeps.
    """
    if not (0 <= field_lo < field_hi <= n_inputs):
        raise SimulationError(
            f"field [{field_lo}, {field_hi}) outside the {n_inputs} sweep inputs"
        )
    rows = exhaustive_word_range(n_inputs, word_lo, word_hi)[field_lo:field_hi]
    return np.bitwise_or.reduce(rows, axis=0)


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


#: Bounds of the auto-sized fault-matrix working-set budget (bytes).
#: The budget caps ``n_nets * (fault_chunk + 1) * word_chunk`` uint64
#: cells per evaluation chunk; chunking never changes any count, so the
#: bounds only trade worker memory against per-chunk overhead.
GATE_MATRIX_BUDGET_MIN = 4 << 20
GATE_MATRIX_BUDGET_MAX = 128 << 20
#: Word-chunk length the auto-sized budget aims to afford: big enough
#: that per-chunk Python overhead amortises, small enough to stay cache
#: friendly on the netlists that actually need chunking.
GATE_MATRIX_TARGET_WORDS = 256
#: Environment override (bytes) of the auto-sized budget.
GATE_MATRIX_BUDGET_ENV = "REPRO_GATE_MATRIX_BUDGET"


def resolve_matrix_budget(row_cells: int, budget: Optional[int] = None) -> int:
    """Fault-matrix working-set budget (bytes) for one evaluation chunk.

    ``row_cells`` is the uint64 cell count of one word column of the
    matrix -- ``n_nets * (fault_chunk + 1)`` -- so the budget scales
    with the netlist instead of pinning every netlist to one fixed
    constant: small netlists stop over-allocating, the big unrolled
    mul/div architectures get chunks long enough to amortise per-chunk
    overhead.  Resolution order: explicit ``budget`` argument, then the
    ``REPRO_GATE_MATRIX_BUDGET`` environment variable (bytes), then the
    auto size ``row_cells * 8 * GATE_MATRIX_TARGET_WORDS`` clamped to
    ``[GATE_MATRIX_BUDGET_MIN, GATE_MATRIX_BUDGET_MAX]``.
    """
    if budget is None:
        env = os.environ.get(GATE_MATRIX_BUDGET_ENV)
        if env:
            try:
                budget = int(env)
            except ValueError:
                raise SimulationError(
                    f"{GATE_MATRIX_BUDGET_ENV}={env!r} is not a byte count"
                ) from None
            if budget <= 0:
                raise SimulationError(
                    f"{GATE_MATRIX_BUDGET_ENV}={env!r} must be a positive byte count"
                )
    if budget is not None:
        return max(1, int(budget))
    auto = int(row_cells) * 8 * GATE_MATRIX_TARGET_WORDS
    return min(GATE_MATRIX_BUDGET_MAX, max(GATE_MATRIX_BUDGET_MIN, auto))


#: Campaign chunk defaults: vector words and fault classes per kernel
#: call of the campaign sweep.
DEFAULT_WORD_CHUNK = 512
DEFAULT_FAULT_CHUNK = 64


def resolve_chunking(
    word_chunk: Optional[int] = None,
    fault_chunk: Optional[int] = None,
    *,
    default_word_chunk: int = DEFAULT_WORD_CHUNK,
    default_fault_chunk: int = DEFAULT_FAULT_CHUNK,
) -> Tuple[int, int]:
    """The single chunk-geometry resolution rule of the whole stack.

    Every streaming consumer of the fault matrix -- campaigns, coverage
    sweeps, fault dictionaries, ATPG -- resolves its chunks here.  Per
    knob: explicit keyword, else the caller's default (campaigns pass
    512/64, the coverage and dictionary builders 256/64), clamped to at
    least one.  Chunking never changes any result, only memory traffic
    and per-chunk overhead.
    """
    if word_chunk is None:
        word_chunk = default_word_chunk
    if fault_chunk is None:
        fault_chunk = default_fault_chunk
    return max(1, int(word_chunk)), max(1, int(fault_chunk))


def matrix_word_chunk(
    row_cells: int, word_chunk: int, budget: Optional[int] = None
) -> int:
    """Clamp a requested ``word_chunk`` to the resolved matrix budget."""
    resolved = resolve_matrix_budget(row_cells, budget)
    return max(8, min(max(1, word_chunk), resolved // (8 * max(1, row_cells))))


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

    Evaluation itself is delegated to a pluggable execution backend
    (:mod:`repro.gates.backends`): ``backend=`` selects one by name,
    falling back to the ``REPRO_BACKEND`` environment variable and
    then the registry default.  All backends are bit-identical, so the
    choice only affects speed.
    """

    def __init__(
        self, compiled: CompiledNetlist, backend: Optional[str] = None
    ) -> None:
        self.compiled = compiled
        self.backend_name = resolve_backend_name(backend)
        self.backend: Backend = create_backend(self.backend_name, compiled)
        self._input_ids = [int(i) for i in compiled.input_ids]
        self._output_ids = [int(i) for i in compiled.output_ids]
        self._exhaustive: Optional[PackedVectors] = None
        # Campaign schedule cache: (id(groups), active classes,
        # rows-per-batch) -> (batches, plans).  Only default-universe
        # rounds are cached (their groups tuple is memoised and alive,
        # so the id cannot be recycled); FIFO-bounded.
        self._rounds: Dict[
            Tuple[int, Tuple[int, ...], int], Tuple[List, List[OverridePlan]]
        ] = {}

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

        Cached per engine, but only while the packed set fits the
        netlist's auto-sized matrix budget
        (:func:`resolve_matrix_budget`): wide-netlist engines held by
        the per-netlist simulator cache would otherwise pin arrays far
        larger than any evaluation chunk.  Oversized sets are rebuilt
        per call instead (the builder is a cheap streaming kernel).
        """
        if self._exhaustive is not None:
            return self._exhaustive
        packed = exhaustive_words(self.compiled.n_inputs)
        if packed.words.nbytes <= resolve_matrix_budget(self.compiled.n_nets):
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

    def truth_tables(
        self, faults: Sequence[StuckAtFault], fault_chunk: int = 128
    ) -> np.ndarray:
        """Exhaustive faulty truth tables, ``(n_faults, 2**n, n_outputs)``.

        One fault-matrix pass per chunk replaces ``n_faults`` separate
        interpreter walks; column order matches ``primary_outputs``.
        """
        packed = self.exhaustive()
        out_ids = self._output_ids
        tables = np.empty(
            (len(faults), packed.n_vectors, len(out_ids)), dtype=np.uint8
        )
        for lo in range(0, len(faults), fault_chunk):
            batch = faults[lo : lo + fault_chunk]
            plan = OverridePlan(self.compiled, batch)
            out = self.backend.run_outputs(packed.words, plan, len(batch))
            bits = unpack_bits(out, packed.n_vectors)  # (n_out, B, V)
            tables[lo : lo + len(batch)] = np.transpose(bits, (1, 2, 0))
        return tables

    def run_fault_groups(
        self, words: np.ndarray, groups: Sequence[FaultGroup]
    ) -> np.ndarray:
        """Primary outputs for a batch of multi-site fault groups.

        ``words`` is a packed input matrix ``(n_inputs, n_words)`` (64
        vectors per uint64 word, rows in compiled input order -- see
        :func:`exhaustive_word_range`).  Each entry of ``groups`` is one
        :class:`StuckAtFault` or a sequence of faults injected together,
        e.g. the same cell-level fault replicated into every copy of a
        functional unit in a test architecture.  Returns a
        ``(n_outputs, len(groups) + 1, n_words)`` matrix whose last row
        is the shared fault-free (golden) run; all groups advance through
        the gate program together, one word-wide NumPy op per gate.
        """
        words = self._check_input_words(words)
        plan = OverridePlan(self.compiled, groups)
        return self.backend.run_outputs(words, plan, len(groups) + 1)

    def detect_words(
        self, words: np.ndarray, groups: Sequence[FaultGroup]
    ) -> np.ndarray:
        """Detection words of a fault-group batch vs the fault-free run.

        Returns ``(len(groups), n_words)``: lane ``v % 64`` of word
        ``v // 64`` in row ``r`` is set iff some primary output differs
        from the golden run for vector ``v`` under group ``r``.  This is
        the reduction campaigns, fault dictionaries and ATPG consume;
        going through the backend kernel lets the ``fused`` backend
        evaluate only tainted row prefixes instead of the full matrix.
        """
        words = self._check_input_words(words)
        plan = OverridePlan(self.compiled, groups)
        return self.backend.run_detect(words, plan, len(groups))

    def _check_input_words(self, words: np.ndarray) -> np.ndarray:
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[0] != self.compiled.n_inputs:
            raise SimulationError(
                f"expected ({self.compiled.n_inputs}, n_words) input words, "
                f"got shape {words.shape}"
            )
        return words

    # ------------------------------------------------------------------
    # Batched fault campaign
    # ------------------------------------------------------------------
    def campaign(
        self,
        packed: Optional[PackedVectors] = None,
        faults: Optional[Sequence[StuckAtFault]] = None,
        collapse: Union[bool, str] = True,
        fault_dropping: bool = True,
        word_chunk: Optional[int] = None,
        fault_chunk: Optional[int] = None,
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
        backend walks only the union cone of each batch.  With
        ``fault_dropping`` (default) the vector space advances in word
        slabs that start at :data:`~repro.gates.sparse.SPARSE_WORD_SUBCHUNK`
        words and double each step up to ``word_chunk`` words (default
        512), and detected classes leave the schedule between slabs;
        without it the sweep streams ``word_chunk``-word slabs over
        every class.  ``fault_chunk`` (default 64) is the smallest batch
        a wide slab is split into.  Neither changes any classification.
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
                word_chunk=word_chunk,
                fault_chunk=fault_chunk,
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
        word_chunk: Optional[int],
        fault_chunk: Optional[int],
    ) -> StuckAtCampaignResult:
        from repro.analysis.cones import analyze_cones, analyze_gate_cones
        from repro.gates import sparse

        mode = resolve_collapse_mode(collapse)
        word_chunk, fault_chunk = resolve_chunking(word_chunk, fault_chunk)
        c = self.compiled
        netlist = c.source
        if packed is None:
            packed = self.exhaustive()
        cmap = None
        # Default universe/groups come back as memoised tuples, zero-copy.
        if faults is None:
            fault_seq: Sequence[StuckAtFault] = default_fault_universe(netlist)
        else:
            fault_seq = tuple(faults)
        if mode == "dominance":
            from repro.analysis.collapse import collapse_faults

            cmap = collapse_faults(
                netlist, faults=None if faults is None else fault_seq, mode=mode
            )
            groups: Sequence[Sequence[int]] = cmap.groups
        elif mode == "equivalence":
            groups = (
                default_equivalence_groups(netlist)
                if faults is None
                else structural_equivalence_groups(netlist, fault_seq)
            )
        else:
            groups = tuple((i,) for i in range(len(fault_seq)))
        n_faults = len(fault_seq)

        detected = np.zeros(n_faults, dtype=bool)
        first_detected = np.full(n_faults, -1, dtype=np.int64)
        n_runs = 0
        n_words = packed.n_words
        gate_cones = analyze_gate_cones(netlist)
        po_cones = analyze_cones(netlist)
        full_default = faults is None and mode == "equivalence"

        def schedule(
            active: List[int], rows: int
        ) -> Tuple[List, List[OverridePlan]]:
            """Cone-clustered batches and their plans for ``active``,
            one row per class simulating its representative fault (the
            members of a structural equivalence class share one faulty
            function); default-universe rounds are cached on the engine
            (dropping is deterministic, so repeated campaigns replay
            them)."""
            key = (id(groups), tuple(active), rows)
            cached = self._rounds.get(key) if full_default else None
            if cached is not None:
                return cached
            sched_groups = [fault_seq[groups[g][0]] for g in active]
            batches = list(
                sparse.build_schedule(
                    c, sched_groups, rows, gate_cones, po_cones
                ).batches
            )
            plans = [
                OverridePlan(c, [sched_groups[m] for m in b.members])
                for b in batches
            ]
            if full_default:
                while len(self._rounds) >= 32:
                    del self._rounds[next(iter(self._rounds))]
                self._rounds[key] = (batches, plans)
            return batches, plans

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
            sched_for: Optional[List[int]] = None
            rows_for = 0
            batches: List = []
            plans: List[OverridePlan] = []
            # Without fault dropping no class ever retires, so slab
            # escalation buys nothing: stream plain word chunks.  Either
            # way no slab exceeds ``word_chunk`` words, which bounds the
            # detect matrix on large vector sets.
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
                # Rows per kernel call: narrow slabs take every active
                # class in one batch (the probe most faults die in),
                # wide slabs fall back toward the campaign fault chunk
                # to bound the matrix footprint.
                rows = max(
                    fault_chunk, sparse.SPARSE_CELL_BUDGET // max(1, part.n_words)
                )
                if sched_for != active or rows_for != rows:
                    sched_for, rows_for = list(active), rows
                    batches, plans = schedule(sched_for, rows)
                mask = part.tail_mask
                base_vector = lo * LANES
                for batch, plan in zip(batches, plans):
                    # Batches whose sites reach no primary output are
                    # provably undetectable: no kernel runs at all.
                    if not batch.out_ids:
                        continue
                    if fault_dropping and all(
                        detected[groups[sched_for[m]][0]] for m in batch.members
                    ):
                        continue
                    n_batch = len(batch.members)
                    # The backend folds a shared golden run into the
                    # detection words -- no separate fault-free pass needed.
                    diff = self.backend.run_detect(
                        part.words, plan, n_batch, batch.gates, batch.out_ids
                    )
                    runs += n_batch
                    for row, vector in first_hits(diff, mask, base_vector):
                        for fi in groups[sched_for[batch.members[row]]]:
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
            groups=groups
            if isinstance(groups, tuple)
            else tuple(tuple(g) for g in groups),
        )


# A CompiledNetlist is immutable, so identity alone keys the engine
# caches (empty fingerprint); compile_netlist already maps a netlist
# version to one live compiled object.  One cache per backend name, so
# switching backends never evicts another backend's warm engines.
_ENGINE_CACHES: Dict[str, Callable[[CompiledNetlist], BitParallelEngine]] = {}


def _engine_cache(name: str) -> Callable[[CompiledNetlist], BitParallelEngine]:
    cache = _ENGINE_CACHES.get(name)
    if cache is None:
        cache = identity_memo(lambda _compiled: ())(
            lambda compiled: BitParallelEngine(compiled, backend=name)
        )
        _ENGINE_CACHES[name] = cache
    return cache


def engine_for(netlist: Netlist, backend: Optional[str] = None) -> BitParallelEngine:
    """Cached :class:`BitParallelEngine` for ``netlist``.

    Piggybacks on the compiled-netlist cache: one engine per live
    :class:`CompiledNetlist` *per backend*, so repeated campaigns share
    the resolved backend schedule and the packed exhaustive vector set.
    ``backend`` resolves through the standard precedence (keyword >
    ``REPRO_BACKEND`` env > default).
    """
    name = resolve_backend_name(backend)
    return _engine_cache(name)(compile_netlist(netlist))


def run_stuck_at_campaign(
    netlist: Netlist,
    inputs: Optional[Mapping[str, Value]] = None,
    faults: Optional[Iterable[StuckAtFault]] = None,
    collapse: Union[bool, str] = True,
    fault_dropping: bool = True,
    word_chunk: Optional[int] = None,
    fault_chunk: Optional[int] = None,
    backend: Optional[str] = None,
) -> StuckAtCampaignResult:
    """One-call batched campaign over ``netlist``'s stuck-at universe.

    ``inputs`` maps primary inputs to 0/1 vectors (all the same length);
    omitted, the exhaustive vector set is used.  ``backend`` selects the
    execution backend; classifications are bit-identical across all of
    them.
    """
    engine = engine_for(netlist, backend)
    packed: Optional[PackedVectors] = None
    if inputs is not None:
        packed, _ = engine.pack_inputs(inputs)
    fault_list = list(faults) if faults is not None else None
    return engine.campaign(
        packed,
        fault_list,
        collapse=collapse,
        fault_dropping=fault_dropping,
        word_chunk=word_chunk,
        fault_chunk=fault_chunk,
    )
