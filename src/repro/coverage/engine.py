"""Exact / Monte-Carlo worst-case fault-coverage evaluation (Table 2).

For every (faulty cell behaviour, cell location) case of a unit, the
engine computes the nominal operation and its checking operation(s) on
the *same* faulty unit over a set of operand pairs, then classifies each
situation:

* *covered*: the result is correct, or a check fired (the paper's fault
  coverage definition);
* *observable error*: the result is wrong (regardless of detection);
* *detected while correct*: the result is right but a check fired --
  the early-detection property the paper highlights for the 2-bit adder
  (352/384/428 of 1024 situations).

Evaluation methods
------------------

Each evaluator picks (or is told) one of four methods, recorded in
:attr:`CoverageStats.method` so reports can state exactly how every
Table 2 cell was computed:

``"gate"`` (provenance ``gate-sweep``)
    The batched path for every operator: the whole test architecture --
    nominal unit, on-unit checking replicas (the divider's unrolled
    iterations) and fault-free comparators -- is lowered once through
    :class:`~repro.gates.compile.CompiledNetlist` and every collapsed
    fault case is simulated as a multi-site fault group by the
    bit-parallel engine over word-packed exhaustive operand sweeps,
    streamed in vector chunks (:mod:`repro.arch.testbench`).  Masked
    universes (the divider's zero-divisor exclusion) apply valid-lane
    words before counting.  Exact; the default whenever the operand
    space fits ``exhaustive_limit`` (chain operators) or the array cap
    ``DEFAULT_ARRAY_GATE_LIMIT`` (``mul``/``div``, n <= 8).

``"transfer"``
    The carry-state transfer-matrix dynamic program
    (:mod:`repro.coverage.transfer`): exact situation counts for any
    width in microseconds, which is how n = 16 (a ``2**32``-pair operand
    space no sweep can touch) is evaluated *exactly* instead of sampled.
    Default for wide chain operators.

``"functional"``
    The seed LUT-splicing evaluators -- one vectorised NumPy pass per
    fault case over explicit operand arrays.  Exact when the space fits
    ``exhaustive_limit``; kept as the differential-testing reference
    for every operator.

``"sampled"``
    The legacy seeded Monte-Carlo estimate, demoted to an explicit
    cross-check: it only runs on explicit ``samples=`` opt-in or when
    no exact method exists at all (``mul``/``div`` beyond the array
    cap, whose architectures have no chain decomposition for the
    transfer DP).  Because the operand sample is reseeded per shard
    from the same ``seed``, sampled runs are shard-invariant too.

Sharding: every method computes exact integer counts per fault case
(or deterministic seeded counts, for the sampled estimator), so
campaigns shard across a ``ProcessPoolExecutor`` (``workers=``,
auto-selected by universe size) with bit-identical results for any
worker count; the gate sweep additionally tiles big operand spaces by
*word range* (:func:`repro.faults.sharding.shard_grid`) when workers
outnumber fault cases -- see :mod:`repro.faults.sharding`.

:func:`evaluate_gate_level` complements the functional-level evaluators
with a structural one: the raw stuck-at detectability of a gate-level
netlist under a vector set, computed by the batched bit-parallel engine
(:mod:`repro.gates.engine`) in one pass over the whole fault universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.arch.adders import RippleCarryAdderUnit
from repro.arch.bitops import mask_of
from repro.arch.cell import DEFAULT_CELL_NETLIST, collapsed_cell_library
from repro.arch.divider import RestoringDividerUnit
from repro.arch.multiplier import ArrayMultiplierUnit
from repro.arch.testbench import (
    CHAIN_OPERATORS,
    GATE_OPERATORS,
    table2_architecture,
)
from repro.coverage import situations as situation_counts
from repro.coverage.transfer import case_flag_counts
from repro.errors import SimulationError
from repro.faults.sharding import (
    resolve_workers,
    run_sharded,
    shard_bounds,
    shard_grid,
)
from repro.faults.universe import (
    adder_fault_cases,
    divider_fault_cases,
    multiplier_fault_cases,
)
from repro.gates.backends import resolve_backend_name
from repro.gates.engine import (
    StuckAtCampaignResult,
    engine_for,
    matrix_word_chunk,
    popcount_words,
)
from repro.gates.netlist import Netlist
from repro.obs.trace import span as obs_span
from repro.store import (
    CacheKey,
    ResultStore,
    digest_cell_library,
    digest_netlist,
    digest_params,
    resolve_store,
    run_checkpointed,
)

#: Widths up to this operand-space size are enumerated exhaustively.
DEFAULT_EXHAUSTIVE_LIMIT = 1 << 20
#: Auto-selection cap of the gate sweep for the 2-D array operators
#: (``mul``/``div``): their test architectures grow quadratically /
#: as the unrolled iteration count, so the default sweep stops at
#: ``4**8`` operand pairs (n = 8, the paper's widest published mul/div
#: row).  Explicit ``method="gate"`` ignores the cap.
DEFAULT_ARRAY_GATE_LIMIT = 1 << 16
#: Sample count used when the sampled estimator runs without an explicit
#: ``samples=`` (wide multiplier/divider cases, which have no exact path).
DEFAULT_SAMPLES = 4096
DEFAULT_SEED = 20050307  # DATE'05 conference date

#: Streaming chunk sizes of the gate-level sweep: vectors move through
#: the fault matrix ``GATE_WORD_CHUNK`` words (x64 vectors) at a time,
#: fault groups ``GATE_FAULT_CHUNK`` rows at a time (the word chunk
#: clamped to the netlist's matrix budget,
#: :func:`repro.gates.engine.matrix_word_chunk`).  Chunking never
#: changes a count.
GATE_WORD_CHUNK = 256
GATE_FAULT_CHUNK = 64

#: Recognised ``method=`` values of the Table 2 evaluators.
EVALUATION_METHODS = ("auto", "gate", "transfer", "functional", "sampled")


@dataclass
class CoverageStats:
    """Aggregated coverage statistics for one (operator, technique, width).

    ``exhaustive`` states whether the full operand space was enumerated;
    ``method`` names the evaluation path that produced the numbers (see
    the module docstring), so every reported cell carries its
    provenance.
    """

    operator: str
    technique: str
    width: int
    situations: int
    covered: int
    observable_errors: int
    detected_while_correct: int
    per_case_min: float
    per_case_max: float
    exhaustive: bool
    method: str = "functional"

    @property
    def coverage(self) -> float:
        """Fraction of situations that are covered (correct or flagged)."""
        return self.covered / self.situations if self.situations else 1.0

    @property
    def coverage_percent(self) -> float:
        return 100.0 * self.coverage

    @property
    def provenance(self) -> str:
        """Human-readable evaluation mode, e.g. ``exhaustive/gate-sweep``."""
        mode = "exhaustive" if self.exhaustive else "sampled"
        detail = "gate-sweep" if self.method == "gate" else self.method
        if detail == mode:
            return mode
        return f"{mode}/{detail}"

    def describe(self) -> str:
        return (
            f"{self.operator}/{self.technique} n={self.width} "
            f"({self.provenance}): "
            f"{self.coverage_percent:.2f}% of {self.situations} situations, "
            f"{self.observable_errors} observable errors, "
            f"{self.detected_while_correct} detected-while-correct"
        )


class _Accumulator:
    """Per-technique running tallies across fault cases.

    All tallies are integers; the two entry points -- boolean vectors
    (:meth:`update`) and pre-reduced counts (:meth:`update_counts`) --
    produce identical state, which is what makes the functional, gate
    and transfer evaluators bit-identical and the sharded merges exact.
    """

    def __init__(self, names: Iterable[str]) -> None:
        self.names = tuple(names)
        self.situations = 0
        self.observable = 0
        self.covered = {name: 0 for name in self.names}
        self.detected_correct = {name: 0 for name in self.names}
        self.case_min = {name: 1.0 for name in self.names}
        self.case_max = {name: 0.0 for name in self.names}

    def update(self, correct: np.ndarray, detections: Dict[str, np.ndarray]) -> None:
        """Fold in one fault case given per-situation boolean vectors."""
        per_name = {}
        for name in self.names:
            det = detections[name]
            per_name[name] = (
                int(np.sum(correct | det)),
                int(np.sum(correct & det)),
            )
        self.update_counts(correct.size, int(np.sum(correct)), per_name)

    def update_counts(
        self,
        count: int,
        n_correct: int,
        per_name: Mapping[str, Tuple[int, int]],
        repeat: int = 1,
    ) -> None:
        """Fold in one fault case given exact (covered, detected-correct)
        counts per technique; ``repeat`` broadcasts a collapsed case's
        verdict to its whole equivalence class."""
        self.situations += count * repeat
        self.observable += (count - n_correct) * repeat
        for name in self.names:
            covered, det_correct = per_name[name]
            self.covered[name] += covered * repeat
            self.detected_correct[name] += det_correct * repeat
            frac = covered / count
            self.case_min[name] = min(self.case_min[name], frac)
            self.case_max[name] = max(self.case_max[name], frac)

    def stats(
        self, operator: str, width: int, exhaustive: bool, method: str
    ) -> Dict[str, CoverageStats]:
        return {
            name: CoverageStats(
                operator=operator,
                technique=name,
                width=width,
                situations=self.situations,
                covered=self.covered[name],
                observable_errors=self.observable,
                detected_while_correct=self.detected_correct[name],
                per_case_min=self.case_min[name],
                per_case_max=self.case_max[name],
                exhaustive=exhaustive,
                method=method,
            )
            for name in self.names
        }


def _operand_pairs(
    width: int,
    exhaustive_limit: int,
    samples: Optional[int],
    seed: int,
    exclude_zero_divisor: bool = False,
    force_sampled: bool = False,
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Operand vectors: exhaustive when affordable, else seeded samples."""
    space = 1 << (2 * width)
    mask = mask_of(width)
    if space <= exhaustive_limit and not force_sampled:
        combos = np.arange(space, dtype=np.uint64)
        a = combos & np.uint64(mask)
        b = (combos >> np.uint64(width)) & np.uint64(mask)
        exhaustive = True
        if exclude_zero_divisor:
            keep = b != 0
            a, b = a[keep], b[keep]
    else:
        n_samples = samples if samples is not None else DEFAULT_SAMPLES
        rng = np.random.default_rng(seed)
        a = rng.integers(0, mask + 1, size=n_samples, dtype=np.uint64)
        low = 1 if exclude_zero_divisor else 0
        b = rng.integers(low, mask + 1, size=n_samples, dtype=np.uint64)
        exhaustive = False
    return a, b, exhaustive


# ----------------------------------------------------------------------
# Functional (LUT-splicing) per-operator kernels
# ----------------------------------------------------------------------
_CaseStream = Iterator[Tuple[np.ndarray, Dict[str, np.ndarray]]]


def _adder_cases(
    width: int, cell_netlist: str, a: np.ndarray, b: np.ndarray,
    case_lo: int, case_hi: int,
) -> _CaseStream:
    mask = np.uint64(mask_of(width))
    golden = (a + b) & mask
    for case in adder_fault_cases(width, cell_netlist)[case_lo:case_hi]:
        unit = RippleCarryAdderUnit(width, case.cell, case.position)
        ris, _ = unit.add(a, b)
        correct = ris == golden
        check1, _ = unit.sub(ris, a)  # op2' = ris - op1
        check2, _ = unit.sub(ris, b)  # op1' = ris - op2
        det1 = check1 != b
        det2 = check2 != a
        yield correct, {"tech1": det1, "tech2": det2, "both": det1 | det2}


def _subtractor_cases(
    width: int, cell_netlist: str, a: np.ndarray, b: np.ndarray,
    case_lo: int, case_hi: int,
) -> _CaseStream:
    mask = np.uint64(mask_of(width))
    golden = (a - b) & mask
    for case in adder_fault_cases(width, cell_netlist)[case_lo:case_hi]:
        unit = RippleCarryAdderUnit(width, case.cell, case.position)
        ris, _ = unit.sub(a, b)
        correct = ris == golden
        check1, _ = unit.add(ris, b)  # op1' = ris + op2 (same unit)
        det1 = check1 != a
        ris2, _ = unit.sub(b, a)  # ris' = op2 - op1 (same unit)
        det2 = ((ris + ris2) & mask) != 0
        yield correct, {"tech1": det1, "tech2": det2, "both": det1 | det2}


def _multiplier_cases(
    width: int, cell_netlist: str, a: np.ndarray, b: np.ndarray,
    case_lo: int, case_hi: int,
) -> _CaseStream:
    mask = np.uint64(mask_of(width))
    golden = (a * b) & mask
    neg_a = (np.uint64(0) - a) & mask
    neg_b = (np.uint64(0) - b) & mask
    for case in multiplier_fault_cases(width, cell_netlist)[case_lo:case_hi]:
        unit = ArrayMultiplierUnit(width, case.cell, case.row, case.column)
        ris = unit.mul(a, b)
        correct = ris == golden
        ris1 = unit.mul(neg_a, b)  # (-op1) * op2, same unit
        ris2 = unit.mul(a, neg_b)  # op1 * (-op2), same unit
        det1 = ((ris + ris1) & mask) != 0
        det2 = ((ris + ris2) & mask) != 0
        yield correct, {"tech1": det1, "tech2": det2, "both": det1 | det2}


def _divider_cases(
    width: int, cell_netlist: str, a: np.ndarray, b: np.ndarray,
    case_lo: int, case_hi: int,
) -> _CaseStream:
    mask = np.uint64(mask_of(width))
    golden_q = a // b
    golden_r = a % b
    for case in divider_fault_cases(width, cell_netlist)[case_lo:case_hi]:
        unit = RestoringDividerUnit(width, case.cell, case.position)
        q, r = unit.divmod(a, b)
        correct = (q == golden_q) & (r == golden_r)
        det1 = ((q * b + r) & mask) != a
        det2 = det1 | (r >= b)
        yield correct, {"tech1": det1, "tech2": det2}


@dataclass(frozen=True)
class _OperatorSpec:
    names: Tuple[str, ...]
    kernel: Callable[..., _CaseStream]
    case_list: Callable[[int, str], list]
    exclude_zero_divisor: bool = False


_SPECS: Dict[str, _OperatorSpec] = {
    "add": _OperatorSpec(("tech1", "tech2", "both"), _adder_cases, adder_fault_cases),
    "sub": _OperatorSpec(("tech1", "tech2", "both"), _subtractor_cases, adder_fault_cases),
    "mul": _OperatorSpec(("tech1", "tech2", "both"), _multiplier_cases, multiplier_fault_cases),
    "div": _OperatorSpec(
        ("tech1", "tech2"), _divider_cases, divider_fault_cases, exclude_zero_divisor=True
    ),
}

#: Per-case exact counts, picklable for shard merges:
#: (multiplicity, situation count, correct count, {technique: (covered,
#: detected-while-correct)}).
_CaseCounts = Tuple[int, int, int, Dict[str, Tuple[int, int]]]


def _functional_case_counts(
    operator: str,
    width: int,
    cell_netlist: str,
    exhaustive_limit: int,
    samples: Optional[int],
    seed: int,
    force_sampled: bool,
    case_lo: int,
    case_hi: int,
) -> Tuple[bool, List[_CaseCounts]]:
    """Shard worker: functional counts for fault cases [case_lo, case_hi)."""
    spec = _SPECS[operator]
    a, b, exhaustive = _operand_pairs(
        width, exhaustive_limit, samples, seed, spec.exclude_zero_divisor, force_sampled
    )
    out: List[_CaseCounts] = []
    for correct, dets in spec.kernel(width, cell_netlist, a, b, case_lo, case_hi):
        per = {
            name: (
                int(np.sum(correct | dets[name])),
                int(np.sum(correct & dets[name])),
            )
            for name in spec.names
        }
        out.append((1, correct.size, int(np.sum(correct)), per))
    return exhaustive, out


def _run_functional(
    operator: str,
    width: int,
    cell_netlist: str,
    exhaustive_limit: int,
    samples: Optional[int],
    seed: int,
    workers: Optional[int],
    force_sampled: bool,
    store: Optional[ResultStore] = None,
) -> Dict[str, CoverageStats]:
    spec = _SPECS[operator]
    n_cases = len(spec.case_list(width, cell_netlist))
    space = 1 << (2 * width)
    exhaustive = space <= exhaustive_limit and not force_sampled
    per_case = (
        space if exhaustive
        else (samples if samples is not None else DEFAULT_SAMPLES)
    )
    method = "functional" if exhaustive else "sampled"
    key = None
    if store is not None:
        key = CacheKey(
            kind="coverage",
            netlist=digest_params(operator=operator, width=width),
            universe=digest_cell_library(cell_netlist),
            space=(
                digest_params(exhaustive=True)
                if exhaustive
                else digest_params(samples=per_case, seed=seed)
            ),
            method=method,
            backend="numpy",
        )
        cached = store.get(key)
        if cached is not None:
            return cached
    n_workers = resolve_workers(workers, n_cases, cost=n_cases * per_case)
    shards = run_sharded(
        _functional_case_counts,
        [
            (operator, width, cell_netlist, exhaustive_limit, samples, seed,
             force_sampled, lo, hi)
            for lo, hi in shard_bounds(n_cases, n_workers)
        ],
    )
    acc = _Accumulator(spec.names)
    for _, chunk in shards:
        for repeat, count, n_correct, per in chunk:
            acc.update_counts(count, n_correct, per, repeat=repeat)
    result = acc.stats(operator, width, exhaustive, method)
    if store is not None:
        store.put(key, result, {"n_cases": n_cases, "workers": n_workers})
    return result


# ----------------------------------------------------------------------
# Batched gate-level sweep (every operator with a test architecture)
# ----------------------------------------------------------------------
#: Word sweeps at least this long shard the (case x word) grid by *word
#: range first*: every tile spans all fault cases over one word slice,
#: whose cost is uniform (per-case cost is not -- reference classes are
#: free), so wide explicit ``method="gate"`` runs balance across
#: workers even when cases outnumber them.  2**12 words = n >= 9 for
#: the chain operators' ``2**(2n-6)``-word sweeps.
GATE_GRID_WORD_FIRST = 1 << 12


def _gate_case_counts(
    operator: str,
    width: int,
    cell_netlist: str,
    case_lo: int,
    case_hi: int,
    word_lo: int,
    word_hi: int,
    backend: Optional[str] = None,
) -> List[_CaseCounts]:
    """Shard worker: sweep counts for collapsed cases [case_lo, case_hi)
    over sweep words [word_lo, word_hi).

    Rebuilds the (cached) test architecture and compiled engine locally,
    then streams the word-packed operand sweep through the fault-group
    matrix chunk by chunk, reducing packed classification masks to
    counts via popcount -- vectors are never unpacked.  Masked universes
    (the divider's zero-divisor exclusion) apply the architecture's
    valid-lane words before counting, so partial word ranges produce
    exact partial counts the caller sums back together.
    """
    arch = table2_architecture(operator, width, cell_netlist)
    engine = engine_for(arch.netlist, backend)
    names = _SPECS[operator].names
    rep_cases = [
        (group, position)
        for group in collapsed_cell_library(cell_netlist)
        for position in arch.positions
    ][case_lo:case_hi]
    range_count = arch.valid_count(word_lo, word_hi)
    results: List[Optional[_CaseCounts]] = [None] * len(rep_cases)
    sim_indices: List[int] = []
    fault_groups = []
    for k, (group, position) in enumerate(rep_cases):
        if group.is_reference:
            # LUT identical to the fault-free cell: every situation is
            # correct and no check fires.  No simulation needed.
            per = {name: (range_count, 0) for name in names}
            results[k] = (group.multiplicity, range_count, range_count, per)
        else:
            sim_indices.append(k)
            fault_groups.append(
                arch.fault_group(group.representative.fault.fault, position)
            )
    n_result = arch.n_result_rows
    detect_names = list(arch.detect_rows)
    # correct, then (covered, detected-while-correct) per technique.
    tallies = np.zeros((len(sim_indices), 1 + 2 * len(names)), dtype=np.int64)
    fault_chunk = GATE_FAULT_CHUNK
    row_cells = engine.compiled.n_nets * (min(fault_chunk, max(1, len(fault_groups))) + 1)
    word_chunk = matrix_word_chunk(row_cells, GATE_WORD_CHUNK)
    for chunk_lo in range(word_lo, word_hi, word_chunk):
        chunk_hi = min(chunk_lo + word_chunk, word_hi)
        rows = arch.input_rows(chunk_lo, chunk_hi)
        valid = arch.valid_words(chunk_lo, chunk_hi, rows=rows)
        for lo in range(0, len(fault_groups), fault_chunk):
            hi = min(lo + fault_chunk, len(fault_groups))
            out = engine.run_fault_groups(rows, fault_groups[lo:hi])
            ris = out[:n_result, :-1, :]
            golden = out[:n_result, -1:, :]
            correct = ~np.bitwise_or.reduce(ris ^ golden, axis=0)
            dets = {name: out[row, :-1, :] for name, row in arch.detect_rows.items()}
            if valid is not None:
                correct = correct & valid
                dets = {name: det & valid for name, det in dets.items()}
            for name in names:
                if name not in dets:
                    # Derived flag (``both``): OR of the emitted ones.
                    dets[name] = np.bitwise_or.reduce(
                        [dets[d] for d in detect_names], axis=0
                    )
            block = tallies[lo:hi]
            block[:, 0] += popcount_words(correct)
            for j, name in enumerate(names):
                det = dets[name]
                block[:, 1 + 2 * j] += popcount_words(correct | det)
                block[:, 2 + 2 * j] += popcount_words(correct & det)
    for row, k in enumerate(sim_indices):
        group, _ = rep_cases[k]
        counts = [int(v) for v in tallies[row]]
        per = {
            name: (counts[1 + 2 * j], counts[2 + 2 * j])
            for j, name in enumerate(names)
        }
        results[k] = (group.multiplicity, range_count, counts[0], per)
    # Every slot is filled (reference cases inline, simulated ones just
    # above); the merge relies on positional alignment with the case
    # range, so return the list as-is.
    return results


def _merge_gate_shards(
    grid: List[Tuple[int, int, int, int]], shards: List[List[_CaseCounts]]
) -> List[_CaseCounts]:
    """Merge grid-sharded sweep counts back into one entry per case.

    Counts from word-range tiles of the same fault case sum (they are
    exact integer counts over disjoint vector ranges); the result is in
    global case order, so the merge is bit-identical for any grid shape.
    """
    merged: Dict[int, List] = {}
    for (case_lo, case_hi, _, _), chunk in zip(grid, shards):
        if len(chunk) != case_hi - case_lo:
            raise SimulationError(
                f"gate shard returned {len(chunk)} case counts for range "
                f"[{case_lo}, {case_hi}); merge would misalign"
            )
        for k, (repeat, count, n_correct, per) in zip(range(case_lo, case_hi), chunk):
            entry = merged.get(k)
            if entry is None:
                merged[k] = [repeat, count, n_correct, dict(per)]
            else:
                entry[1] += count
                entry[2] += n_correct
                for name, (covered, det_correct) in per.items():
                    prev_cov, prev_dc = entry[3][name]
                    entry[3][name] = (prev_cov + covered, prev_dc + det_correct)
    return [
        (repeat, count, n_correct, per)
        for repeat, count, n_correct, per in (merged[k] for k in sorted(merged))
    ]


def _run_gate(
    operator: str,
    width: int,
    cell_netlist: str,
    workers: Optional[int],
    backend: Optional[str] = None,
    store: Optional[ResultStore] = None,
) -> Dict[str, CoverageStats]:
    if operator not in GATE_OPERATORS:
        raise SimulationError(
            f"the gate-level sweep covers {GATE_OPERATORS}, not {operator!r}"
        )
    arch = table2_architecture(operator, width, cell_netlist)
    n_cases = len(collapsed_cell_library(cell_netlist)) * len(arch.positions)
    # Workers receive the resolved name, not the environment.
    backend = resolve_backend_name(backend)
    key = None
    if store is not None:
        # The final key covers everything that determines the numbers
        # -- but *not* the worker count, grid shape or chunk geometry,
        # none of which changes a count, so any sharding reuses the
        # same entry.
        key = CacheKey(
            kind="coverage",
            netlist=digest_netlist(arch.netlist),
            universe=digest_cell_library(cell_netlist),
            space=digest_params(exhaustive=True),
            method="gate",
            backend=backend,
        )
        cached = store.get(key)
        if cached is not None:
            return cached
    n_workers = resolve_workers(workers, n_cases, cost=n_cases * arch.n_vectors)
    grid = shard_grid(
        n_cases,
        arch.n_words,
        n_workers,
        word_first=arch.n_words >= GATE_GRID_WORD_FIRST,
    )
    arg_tuples = [
        (operator, width, cell_netlist, case_lo, case_hi, word_lo, word_hi,
         backend)
        for case_lo, case_hi, word_lo, word_hi in grid
    ]
    if store is not None:
        shards = run_checkpointed(
            _gate_case_counts,
            arg_tuples,
            [key.with_shard(*span) for span in grid],
            store,
        )
    else:
        shards = run_sharded(_gate_case_counts, arg_tuples)
    acc = _Accumulator(_SPECS[operator].names)
    for repeat, count, n_correct, per in _merge_gate_shards(grid, shards):
        acc.update_counts(count, n_correct, per, repeat=repeat)
    result = acc.stats(operator, width, True, "gate")
    if store is not None:
        store.put(key, result, {"grid": len(grid), "workers": n_workers})
    return result


# ----------------------------------------------------------------------
# Transfer-matrix exact wide widths (chain operators)
# ----------------------------------------------------------------------
def _run_transfer(
    operator: str, width: int, cell_netlist: str,
    store: Optional[ResultStore] = None,
) -> Dict[str, CoverageStats]:
    if operator not in CHAIN_OPERATORS:
        raise SimulationError(
            f"transfer evaluation covers {CHAIN_OPERATORS}, not {operator!r}"
        )
    key = None
    if store is not None:
        key = CacheKey(
            kind="coverage",
            netlist=digest_params(operator=operator, width=width),
            universe=digest_cell_library(cell_netlist),
            space=digest_params(exhaustive=True),
            method="transfer",
            backend="numpy",
        )
        cached = store.get(key)
        if cached is not None:
            return cached
    acc = _Accumulator(_SPECS[operator].names)
    space = 1 << (2 * width)
    for group in collapsed_cell_library(cell_netlist):
        cell = group.representative
        for position in range(width):
            flags = case_flag_counts(
                operator, width, position, cell.sum_lut, cell.carry_lut
            )
            # flags index: correct | d1 << 1 | d2 << 2.
            n_correct = int(flags[1::2].sum())
            per = {
                "tech1": (space - int(flags[0] + flags[4]), int(flags[3] + flags[7])),
                "tech2": (space - int(flags[0] + flags[2]), int(flags[5] + flags[7])),
                "both": (space - int(flags[0]), int(flags[3] + flags[5] + flags[7])),
            }
            acc.update_counts(space, n_correct, per, repeat=group.multiplicity)
    result = acc.stats(operator, width, True, "transfer")
    if store is not None:
        store.put(key, result)
    return result


# ----------------------------------------------------------------------
# Method resolution and the public evaluators
# ----------------------------------------------------------------------
def _evaluate(
    operator: str,
    width: int,
    cell_netlist: str,
    exhaustive_limit: int,
    samples: Optional[int],
    seed: int,
    method: str,
    workers: Optional[int],
    backend: Optional[str] = None,
    store=None,
) -> Dict[str, CoverageStats]:
    if method not in EVALUATION_METHODS:
        raise SimulationError(
            f"unknown method {method!r}; choose from {EVALUATION_METHODS}"
        )
    store = resolve_store(store)
    space = 1 << (2 * width)
    if method == "auto":
        if operator in CHAIN_OPERATORS:
            if space <= exhaustive_limit:
                method = "gate"
            elif samples is None:
                method = "transfer"
            else:
                method = "sampled"
        elif space <= min(exhaustive_limit, DEFAULT_ARRAY_GATE_LIMIT):
            method = "gate"
        else:
            method = "sampled"
    with obs_span(
        "coverage_evaluate", operator=operator, width=width, method=method
    ):
        if method == "gate":
            return _run_gate(
                operator, width, cell_netlist, workers, backend, store
            )
        if method == "transfer":
            return _run_transfer(operator, width, cell_netlist, store)
        return _run_functional(
            operator,
            width,
            cell_netlist,
            exhaustive_limit,
            samples,
            seed,
            workers,
            force_sampled=method == "sampled",
            store=store,
        )


def evaluate_adder(
    width: int,
    cell_netlist: str = DEFAULT_CELL_NETLIST,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    method: str = "auto",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    store=None,
) -> Dict[str, CoverageStats]:
    """Worst-case coverage of the overloaded ``+`` (Table 2).

    The nominal ``ris = op1 + op2`` and both checking subtractions run
    through the same faulty adder chain; every 32-fault x ``width``-
    position case is classified over the operand space.  By default the
    evaluation is *exact at every width*: the batched gate-level sweep
    when ``4**width`` fits ``exhaustive_limit``, the transfer-matrix DP
    beyond (n = 8 and 16 included).  Sampling only happens on explicit
    ``samples=`` opt-in.  ``workers`` shards fault cases across
    processes (auto by universe size) with bit-identical results.
    Returns one :class:`CoverageStats` per technique
    (``tech1``/``tech2``/``both``).
    """
    return _evaluate(
        "add", width, cell_netlist, exhaustive_limit, samples, seed,
        method, workers, backend, store,
    )


def evaluate_subtractor(
    width: int,
    cell_netlist: str = DEFAULT_CELL_NETLIST,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    method: str = "auto",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    store=None,
) -> Dict[str, CoverageStats]:
    """Worst-case coverage of the overloaded ``-``.

    ``ris = op1 - op2`` through the faulty chain; Tech 1 re-adds
    (``op1' = ris + op2``), Tech 2 computes the reversed difference
    (``ris' = op2 - op1``) on the same unit and tests ``ris + ris' == 0``
    (final summation fault-free, as it maps onto the comparator).
    Method selection, sharding and return type as for
    :func:`evaluate_adder`.
    """
    return _evaluate(
        "sub", width, cell_netlist, exhaustive_limit, samples, seed,
        method, workers, backend, store,
    )


def evaluate_multiplier(
    width: int,
    cell_netlist: str = DEFAULT_CELL_NETLIST,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    method: str = "auto",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    store=None,
) -> Dict[str, CoverageStats]:
    """Worst-case coverage of the overloaded ``*``.

    Fixed-width products: the identity ``op1*op2 + (-op1)*op2 == 0``
    holds modulo ``2**width``, so the checking product runs through the
    same faulty array and the final summation/comparison is fault-free.
    By default the batched gate-level sweep evaluates the truncated
    ripple-row array *exactly* up to n = 8
    (``DEFAULT_ARRAY_GATE_LIMIT``); the 2-D array has no chain
    decomposition for the transfer DP, so wider widths fall back to the
    seeded sampled estimate (``method`` records which).  Sharding as
    for :func:`evaluate_adder`.
    """
    if width < 2:
        raise SimulationError("multiplier coverage needs width >= 2")
    return _evaluate(
        "mul", width, cell_netlist, exhaustive_limit, samples, seed,
        method, workers, backend, store,
    )


def evaluate_divider(
    width: int,
    cell_netlist: str = DEFAULT_CELL_NETLIST,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    method: str = "auto",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    store=None,
) -> Dict[str, CoverageStats]:
    """Worst-case coverage of the overloaded ``/``.

    The quotient and remainder both come from the faulty divider; the
    reconstruction check ``ris*op2 + rem == op1`` uses fault-free
    multiply/add (different unit classes).  Tech 2 additionally enforces
    the remainder range ``rem < op2`` -- the paper's "precision of the
    inverse operation" concern; see :mod:`repro.coverage.techniques`.
    Zero divisors are excluded from the operand space (the gate sweep
    masks them out of the packed vector words).  By default the
    unrolled gate-level sweep is exact up to n = 8; like the
    multiplier, wider widths use the sampled estimate.
    """
    return _evaluate(
        "div", width, cell_netlist, exhaustive_limit, samples, seed,
        method, workers, backend, store,
    )


@dataclass
class GateLevelCoverage:
    """Stuck-at detectability of one netlist under a vector set.

    ``detected``/``total`` count the (uncollapsed) fault universe;
    ``equivalence_groups`` and ``simulated_runs`` report how much work
    the structural collapsing and fault dropping actually saved.
    """

    netlist: str
    total: int
    detected: int
    n_vectors: int
    exhaustive: bool
    equivalence_groups: int
    simulated_runs: int

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.total else 1.0

    @property
    def coverage_percent(self) -> float:
        return 100.0 * self.coverage

    def describe(self) -> str:
        mode = "exhaustive" if self.exhaustive else "sampled"
        return (
            f"{self.netlist} gate-level ({mode}): "
            f"{self.detected}/{self.total} stuck-at faults detected "
            f"({self.coverage_percent:.2f}%) over {self.n_vectors} vectors"
        )


def evaluate_gate_level(
    netlist: Netlist,
    vectors: Optional[Mapping[str, Union[int, np.ndarray]]] = None,
    collapse: Union[bool, str] = True,
    fault_dropping: bool = True,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    store=None,
) -> Tuple[GateLevelCoverage, StuckAtCampaignResult]:
    """Batched stuck-at coverage of a gate-level netlist.

    The entire stem+branch fault universe is simulated in one
    bit-parallel pass against a shared golden run; by default the
    vector set is exhaustive over the primary inputs (the paper's
    full-adder universe is 32 faults against 8 vectors).  ``collapse``
    accepts any mode of
    :func:`~repro.gates.faults.resolve_collapse_mode` --
    ``"dominance"`` simulates fewer representatives and expands
    detection back bit-identically, so the coverage stats never change,
    only ``simulated_runs``.  ``workers`` shards the fault list across
    processes (auto by universe size) and ``backend`` selects the
    execution backend, both bit-identically.  Returns the aggregate
    stats plus the raw campaign result.
    """
    from repro.faults.injector import run_sharded_stuck_at_campaign

    raw = run_sharded_stuck_at_campaign(
        netlist,
        vectors=vectors,
        collapse=collapse,
        fault_dropping=fault_dropping,
        workers=workers,
        backend=backend,
        store=store,
    )
    stats = GateLevelCoverage(
        netlist=netlist.name,
        total=raw.n_faults,
        detected=raw.detected_count,
        n_vectors=raw.n_vectors,
        exhaustive=vectors is None,
        equivalence_groups=len(raw.groups),
        simulated_runs=raw.n_simulated_runs,
    )
    return stats, raw


_EVALUATORS = {
    "add": evaluate_adder,
    "sub": evaluate_subtractor,
    "mul": evaluate_multiplier,
    "div": evaluate_divider,
}


def evaluate_operator(
    operator: str,
    width: int,
    cell_netlist: str = DEFAULT_CELL_NETLIST,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    method: str = "auto",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    store=None,
) -> Dict[str, CoverageStats]:
    """Dispatch to the per-operator evaluator by name.

    Accepts the same method/sharding knobs as the individual evaluators
    and returns their per-technique :class:`CoverageStats` dict.
    """
    try:
        evaluator = _EVALUATORS[operator]
    except KeyError:
        raise SimulationError(
            f"unknown operator {operator!r}; choose from {sorted(_EVALUATORS)}"
        ) from None
    return evaluator(
        width,
        cell_netlist=cell_netlist,
        exhaustive_limit=exhaustive_limit,
        samples=samples,
        seed=seed,
        method=method,
        workers=workers,
        backend=backend,
        store=store,
    )


def theoretical_situations(operator: str, width: int) -> int:
    """The paper-style situation count formula for ``operator``."""
    if operator == "add":
        return situation_counts.adder_situations(width)
    if operator == "sub":
        return situation_counts.subtractor_situations(width)
    if operator == "mul":
        return situation_counts.multiplier_situations(width)
    if operator == "div":
        return situation_counts.divider_situations(width)
    raise SimulationError(f"unknown operator {operator!r}")
