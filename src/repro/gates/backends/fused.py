"""Tainted-prefix execution backend -- the default.

:class:`FusedBackend` inherits the per-gate loop of
:mod:`repro.gates.backends.python_loop` unchanged: golden runs,
``run_words`` and ``run_matrix`` are that one loop.  On top of it, the
derived kernels (:meth:`FusedBackend.run_detect` /
:meth:`run_outputs`) never materialise the full fault-major matrix.

**Tainted-prefix fault evaluation.**  Every net carries only a
*tainted prefix* of rows -- the high-water mark ``hw[net]``, one past
the deepest row that may differ from the fault-free run -- with the
shared golden row standing in for everything beyond.  Each gate folds
its operands segment by segment (matrix x matrix where both prefixes
reach, matrix x broadcast-golden between the marks), and a
branch-overridden gate folds overridden pin copies, as the reference
loop does.  Rows are walked in the caller's order; correctness never
depends on it, but a row cannot differ from the fault-free run below
the level of its shallowest site (:func:`repro.gates.sparse._site_level`),
so rows ascending in that level keep every prefix short.  The cone
schedule emits its batches in that order, and the arithmetic volume
drops to the tainted fraction of the matrix -- about 0.7 of it on the
RCA-8 campaign, 0.5 on the 8-bit array multiplier.  Results are
bit-identical to the reference loop: untainted rows *are* the golden
run.  Given one batch of a cone schedule, both derived kernels further
restrict the walk to the batch's union fan-out cone:
:meth:`FusedBackend.run_detect` reduces only the reachable outputs,
and :meth:`FusedBackend.run_outputs` (the Table 1/2 sweeps) returns
outputs outside the cone as their golden rows.  Every
detect call the library makes is one such batch: campaigns, fault
dictionaries and ATPG share one cone-scheduled detection sweep
(:mod:`repro.gates.engine`).

The walk's workspace holds live nets only.  Each program it runs (the
whole netlist or one cone batch) gets a static slot map, computed once
in program order (:meth:`FusedBackend._slot_map`): level-0 nets keep
fixed slots, each gate output takes a slot from a free list, and a
net's slot is released after its last reader; primary outputs stay
pinned for the caller.  The workspace is live-net slots x rows x words
rather than one row block per net: the campaign batches of the 471-net
``div`` n = 7 unit need at most 58 slots.

One workspace per thread backs the prefix walks of every fused backend
that thread drives.  It is capped at
:data:`~repro.gates.backends.base.GATE_MATRIX_BUDGET_MAX`, the same
byte cap every campaign slab and sweep chunk is clamped to, so every
kernel call the library makes reuses it instead of paying the
allocate/fault/trim cycle of a fresh multi-megabyte matrix, and the
engines cached per netlist pin no workspace of their own; only a
hand-built call past the cap gets a transient one.  Both derived
kernels copy their results out, so no caller holds a workspace view.
One golden run per packed vector set serves every word slab a sweep
streams through it, and is released when that vector set dies.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.gates.backends.base import GATE_MATRIX_BUDGET_MAX
from repro.gates.backends.plan import OverridePlan
from repro.gates.backends.python_loop import PythonLoopBackend
from repro.gates.compile import CompiledNetlist

# Work counters of cone-scheduled walks (always live, surfaced in
# the telemetry snapshot and the BENCH_*.json records).  Resolved lazily so
# importing the backend never touches the metrics registry.
_SPARSE_HANDLES = None

# The prefix-walk workspace of the current thread (``.buf``), shared by
# every fused backend the thread drives.
_WORKSPACE = threading.local()


def _drop_workspace() -> None:
    _WORKSPACE.__dict__.pop("buf", None)


# A forked child allocates its own workspace: writing into the
# inherited one would copy it page by page (NumPy backs large arrays
# with huge pages, and copy-on-write splits them), about 5x the page
# faults of a fresh buffer on the Table 1 n = 8 sweeps.
os.register_at_fork(after_in_child=_drop_workspace)


def _note_sparse(evaluated: int, skipped: int) -> None:
    global _SPARSE_HANDLES
    if _SPARSE_HANDLES is None:
        from repro.obs import metrics

        _SPARSE_HANDLES = (
            metrics.counter_handle("repro_sparse_gates_evaluated_total"),
            metrics.counter_handle("repro_sparse_gates_skipped_total"),
        )
    if evaluated:
        _SPARSE_HANDLES[0].inc(evaluated)
    if skipped:
        _SPARSE_HANDLES[1].inc(skipped)


def _column_offset(block: np.ndarray, words: np.ndarray) -> Optional[int]:
    """First column of ``words`` inside ``block`` when ``words`` is a
    column-range view of it (or ``block`` itself), else None."""
    if words is block:
        return 0
    if (
        not isinstance(block, np.ndarray)
        or words.base is not (block if block.base is None else block.base)
        or block.ndim != 2
        or words.shape[0] != block.shape[0]
        or words.strides != block.strides
    ):
        return None
    delta = words.ctypes.data - block.ctypes.data
    off, rem = divmod(delta, block.strides[1])
    if rem or off < 0 or off + words.shape[1] > block.shape[1]:
        return None
    return off


def _block_ref(backend: "FusedBackend", block: np.ndarray) -> "weakref.ref[np.ndarray]":
    """Weak reference to ``block`` that drops ``backend``'s golden-run
    cache entry when the block dies.  The callback holds the backend
    weakly too, so no reference cycle keeps the run alive."""
    owner = weakref.ref(backend)

    def release(ref: "weakref.ref[np.ndarray]") -> None:
        backend = owner()
        if backend is not None and backend._golden_cache is not None:
            if backend._golden_cache[0] is ref:
                backend._golden_cache = None

    return weakref.ref(block, release)


#: A walk program's slot map: ``(slot per net id, number of slots)``.
_Slots = Tuple[List[int], int]


def _top(idx) -> int:
    """One past the deepest row of an override entry's row index."""
    return idx.stop if isinstance(idx, slice) else max(idx) + 1


class FusedBackend(PythonLoopBackend):
    """The per-gate loop plus tainted-prefix fault walks."""

    name = "fused"

    def __init__(self, compiled: CompiledNetlist) -> None:
        super().__init__(compiled)
        # Per-gate dispatch tagged with the compiled gate index for the
        # prefix walk, where gates are sliced individually by high-water
        # mark.
        self._flat_program = [(g, *op) for g, op in enumerate(self._program)]
        self._flat_slots = self._slot_map(self._flat_program)
        # Fault-free run of the most recent vector block (see _golden):
        # campaigns call the detect kernel once per fault batch and word
        # slab, and the golden evaluation is shared.  Holds (weak block
        # reference, block snapshot, golden): the entry is dropped when
        # the block dies, and the snapshot detects in-place mutation by
        # callers.
        self._golden_cache: Optional[
            Tuple["weakref.ref[np.ndarray]", np.ndarray, np.ndarray]
        ] = None
        # Cone-restricted sub-programs with their slot maps, keyed on the
        # schedule's gate index bytes; campaigns reuse one schedule
        # across many word sub-chunks, so the slicing happens once per
        # batch shape.
        self._sparse_programs: Dict[bytes, Tuple[list, frozenset, _Slots]] = {}
        self._driver_of: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _workspace(self, n_slots: int, n_rows: int, n_words: int) -> np.ndarray:
        need = n_slots * n_rows * n_words
        # Bigger evaluations fall back to transient allocations, so the
        # thread's workspace never outgrows the cap.
        if need * 8 > GATE_MATRIX_BUDGET_MAX:
            return np.empty((n_slots, n_rows, n_words), dtype=np.uint64)
        ws = getattr(_WORKSPACE, "buf", None)
        if ws is None or ws.size < need:
            ws = _WORKSPACE.buf = np.empty(need, dtype=np.uint64)
        return ws[:need].reshape(n_slots, n_rows, n_words)

    def _slot_map(self, program: list) -> _Slots:
        """Workspace slot of every net a walk of ``program`` writes.

        Returns ``(slot, n_slots)``: ``slot[net]`` is the net's row
        block in the workspace, -1 for nets the program never writes
        (they stay golden).  Level-0 nets, which stem overrides
        materialise before the walk, get fixed slots.  Each gate output
        takes a slot from a free list, allocated before its operands
        are released, because the multi-operand fold reads later
        operands after writing the output.  A produced net's slot is
        released after its last reader in ``program`` (or right away if
        it has none); primary outputs stay pinned for the caller, and
        nets produced outside ``program`` are never released.
        """
        levels = self.compiled.net_levels
        slot = [-1] * self.compiled.n_nets
        level0 = np.flatnonzero(levels == 0).tolist()
        for s, nid in enumerate(level0):
            slot[nid] = s
        n_slots = len(level0)
        last_read: Dict[int, int] = {}
        for i, entry in enumerate(program):
            for nid in entry[3]:
                last_read[nid] = i
        pinned = set(self._output_ids)
        produced = set()
        free: List[int] = []
        for i, (_, _, _, operand_ids, out_id) in enumerate(program):
            if free:
                slot[out_id] = free.pop()
            else:
                slot[out_id] = n_slots
                n_slots += 1
            produced.add(out_id)
            for nid in set(operand_ids):
                if last_read[nid] == i and nid in produced and nid not in pinned:
                    free.append(slot[nid])
            if out_id not in last_read and out_id not in pinned:
                free.append(slot[out_id])
        return slot, n_slots

    # ------------------------------------------------------------------
    # Tainted-prefix walk and the derived kernels built on it
    # ------------------------------------------------------------------
    def _golden(self, words: np.ndarray) -> np.ndarray:
        """Fault-free run of ``words``, cached per vector block.

        Campaigns stream word slabs of one packed vector set through
        many fault batches.  On a miss the whole parent block of a
        column-slice view is evaluated once (when its golden run fits
        :data:`GATE_MATRIX_BUDGET_MAX`), so every later slab of the set
        -- and every repeated campaign over it -- slices the cached run
        instead of re-evaluating the netlist.  The cache holds the block
        weakly: when the caller drops it (a Table sweep's chunk, a
        campaign's vector set), the cached run is released with it
        instead of staying pinned to the engine.  A content snapshot
        guards the hit: a caller mutating its buffer in place gets a
        fresh golden run, not a stale one.  The snapshot compare covers
        only the requested columns, O(words) -- far below the run it
        saves.
        """
        cached = self._golden_cache
        if cached is not None:
            ref, snapshot, golden = cached
            off = _column_offset(ref(), words)
            if off is not None:
                hi = off + words.shape[1]
                if np.array_equal(words, snapshot[:, off:hi]):
                    return golden[:, off:hi]
        block = words
        parent = words.base
        if (
            parent is not None
            and _column_offset(parent, words) is not None
            and self.compiled.n_nets * parent.shape[1] * 8 <= GATE_MATRIX_BUDGET_MAX
        ):
            block = parent
        golden = self.run_words(block)
        self._golden_cache = (_block_ref(self, block), block.copy(), golden)
        off = _column_offset(block, words)
        return golden[:, off : off + words.shape[1]]

    def _prefix_walk(
        self,
        words: np.ndarray,
        plan: OverridePlan,
        n_rows: int,
        program: list,
        slots: _Slots,
    ):
        """Evaluate only the tainted row prefix of every net.

        Rows are walked in the order the caller gives them; returns
        ``(vals, slot, hw, golden)`` where ``vals[slot[net]][:hw[net]]``
        holds the tainted rows and everything beyond equals
        ``golden[net]``.  ``vals`` holds one row block per workspace
        slot, not per net (:meth:`_slot_map`): a net's block is reused
        once its last reader has run, so only primary outputs and
        level-0 nets are still readable after the walk.

        The walk is the per-gate reference loop sliced to each gate's
        high-water mark: operands whose mark lags are first topped up
        with golden rows, untainted operands broadcast their golden row
        through the ufunc, and a branch-overridden gate recomputes its
        prefix from overridden pin copies, as ``run_matrix`` does.  Row
        order only affects cost: rows ascending in first-divergence
        level keep every prefix short, and the cone schedule emits
        every batch that way.  Override entries on contiguous rows
        index by slice.

        ``program`` is the whole netlist's program or a cone sub-program
        (ascending compiled order) and ``slots`` its slot map; gates
        outside a cone are provably golden under ``plan``, which the
        cone schedule guarantees.
        """
        stems = plan.stem
        branches = plan.branch_by_gate
        slot, n_slots = slots
        golden = self._golden(words)
        n_words = words.shape[1]
        vals = self._workspace(n_slots, n_rows, n_words)
        hw = [0] * self.compiled.n_nets
        for nid, (idx, consts) in stems.items():
            if not self.compiled.net_levels[nid]:
                # Stem on a primary input (or level-0 net): materialise
                # up to the deepest overridden row, golden in between.
                top = _top(idx)
                rows = vals[slot[nid]]
                rows[:top] = golden[nid]
                rows[idx] = consts
                hw[nid] = top
        for g, ufunc, invert, operand_ids, out_id in program:
            gate_branches = branches.get(g)
            m_in = 0
            for nid in operand_ids:
                h = hw[nid]
                if h > m_in:
                    m_in = h
            if gate_branches is not None:
                # Branch-overridden rows must be evaluated even when no
                # operand is tainted yet.
                for idx, _ in gate_branches.values():
                    top = _top(idx)
                    if top > m_in:
                        m_in = top
            out_rows = vals[slot[out_id]]
            if m_in:
                # Operands with a lagging tainted prefix are topped up
                # with golden rows; fully golden operands broadcast
                # their single golden row through the ufunc instead.
                pins = []
                for nid in operand_ids:
                    h = hw[nid]
                    if not h:
                        pins.append(golden[nid])
                        continue
                    rows = vals[slot[nid]]
                    if h < m_in:
                        rows[h:m_in] = golden[nid]
                        hw[nid] = m_in
                    pins.append(rows[:m_in])
                if gate_branches is not None:
                    for pin, (pidx, consts) in gate_branches.items():
                        pv = np.empty((m_in, n_words), dtype=np.uint64)
                        pv[...] = pins[pin]
                        pv[pidx] = consts
                        pins[pin] = pv
                out_seg = out_rows[:m_in]
                if ufunc is None:
                    if invert:
                        np.invert(pins[0], out=out_seg)
                    else:
                        np.copyto(out_seg, pins[0])
                else:
                    ufunc(pins[0], pins[1], out=out_seg)
                    for pv in pins[2:]:
                        ufunc(out_seg, pv, out=out_seg)
                    if invert:
                        np.invert(out_seg, out=out_seg)
            stem_entry = stems.get(out_id)
            if stem_entry is not None:
                sidx, consts = stem_entry
                top = _top(sidx)
                if top > m_in:
                    out_rows[m_in:top] = golden[out_id]
                    m_in = top
                out_rows[sidx] = consts
            hw[out_id] = m_in
        return vals, slot, hw, golden

    def _sparse_program(self, gates: np.ndarray) -> Tuple[list, frozenset, _Slots]:
        """Cone-restricted sub-program for one schedule batch, its gate
        set and its slot map, cached."""
        key = gates.tobytes()
        cached = self._sparse_programs.get(key)
        if cached is None:
            if len(self._sparse_programs) >= 256:
                self._sparse_programs.clear()
            program = [self._flat_program[int(g)] for g in gates]
            cached = (
                program, frozenset(int(g) for g in gates), self._slot_map(program)
            )
            self._sparse_programs[key] = cached
        return cached

    def _check_sparse_plan(self, plan: OverridePlan, gate_set: frozenset) -> None:
        """Guard the schedule invariants a sparse walk relies on.

        Every branch-site gate and every non-input stem's driver gate
        must be inside the batch cone; :func:`repro.gates.sparse.build_
        schedule` guarantees this, the check catches hand-built calls.
        """
        for g in plan.branch_by_gate:
            if g not in gate_set:
                raise SimulationError(
                    f"sparse schedule does not cover branch-override gate {g}"
                )
        if plan.stem:
            if self._driver_of is None:
                driver = np.full(self.compiled.n_nets, -1, dtype=np.int64)
                driver[self.compiled.gate_output_ids] = np.arange(
                    self.compiled.n_gates, dtype=np.int64
                )
                self._driver_of = driver
            for nid in plan.stem:
                if self.compiled.net_levels[nid] and (
                    int(self._driver_of[nid]) not in gate_set
                ):
                    raise SimulationError(
                        f"sparse schedule does not cover the driver of "
                        f"stem-override net {nid}"
                    )

    def _cone_program(
        self, plan: OverridePlan, gates: np.ndarray
    ) -> Tuple[list, _Slots]:
        """The checked cone sub-program of one schedule batch and its
        slot map."""
        program, gate_set, slots = self._sparse_program(gates)
        self._check_sparse_plan(plan, gate_set)
        return program, slots

    def run_detect(
        self,
        words: np.ndarray,
        plan: OverridePlan,
        n_rows: int,
        gates: Optional[np.ndarray] = None,
        out_ids: Optional[Tuple[int, ...]] = None,
    ) -> np.ndarray:
        n_words = words.shape[1]
        program, slots = self._flat_program, self._flat_slots
        outs = self._output_ids if out_ids is None else list(out_ids)
        if gates is not None:
            if not outs:
                # No primary output is reachable from the batch's sites:
                # nothing can detect, nothing needs evaluating.
                _note_sparse(0, self.compiled.n_gates)
                return np.zeros((n_rows, n_words), dtype=np.uint64)
            program, slots = self._cone_program(plan, gates)
            _note_sparse(len(program), self.compiled.n_gates - len(program))
        vals, slot, hw, golden = self._prefix_walk(words, plan, n_rows, program, slots)
        diff = np.zeros((n_rows, n_words), dtype=np.uint64)
        scratch = np.empty((n_rows, n_words), dtype=np.uint64)
        for out_id in outs:
            h = hw[out_id]
            if h:
                np.bitwise_xor(vals[slot[out_id]][:h], golden[out_id], out=scratch[:h])
                np.bitwise_or(diff[:h], scratch[:h], out=diff[:h])
        return diff

    def run_outputs(
        self,
        words: np.ndarray,
        plan: OverridePlan,
        n_rows: int,
        gates: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        program, slots = self._flat_program, self._flat_slots
        if gates is not None:
            program, slots = self._cone_program(plan, gates)
            _note_sparse(len(program), self.compiled.n_gates - len(program))
        # Outputs outside the cone keep an empty tainted prefix (and no
        # slot), so they come back as their golden rows.
        vals, slot, hw, golden = self._prefix_walk(words, plan, n_rows, program, slots)
        n_words = words.shape[1]
        res = np.empty((len(self._output_ids), n_rows, n_words), dtype=np.uint64)
        for i, out_id in enumerate(self._output_ids):
            h = hw[out_id]
            if h:
                res[i, :h] = vals[slot[out_id]][:h]
            res[i, h:] = golden[out_id]
        return res
