"""Exact worst-case fault-coverage evaluation (Table 2).

For every (faulty cell behaviour, cell location) case of a unit, the
engine computes the nominal operation and its checking operation(s) on
the *same* faulty unit over the whole operand space, then classifies
each situation:

* *covered*: the result is correct, or a check fired (the paper's fault
  coverage definition);
* *observable error*: the result is wrong (regardless of detection);
* *detected while correct*: the result is right but a check fired --
  the early-detection property the paper highlights for the 2-bit adder
  (352/384/428 of 1024 situations).

Evaluation methods
------------------

Each evaluator picks (or is told) one of three exact methods, recorded
in :attr:`CoverageStats.method` so reports can state exactly how every
Table 2 cell was computed:

``"gate"`` (provenance ``gate-sweep``)
    The batched path for every operator: the whole test architecture --
    nominal unit, on-unit checking replicas (the divider's unrolled
    iterations) and fault-free comparators -- is lowered once through
    :class:`~repro.gates.compile.CompiledNetlist` and every collapsed
    fault case is simulated as a multi-site fault group by the
    bit-parallel engine over the architecture's word-packed operand
    universe (``arch.space``, :mod:`repro.arch.testbench`), streamed in
    vector chunks.  The fault groups are cone-scheduled
    (:mod:`repro.gates.sparse`): each batch walks only its union
    fan-out cone, and outputs outside it are golden.  Masked universes
    (the divider's zero-divisor exclusion) apply valid-lane words
    before counting.  The ``"auto"`` choice whenever the operand space
    fits ``DEFAULT_EXHAUSTIVE_LIMIT`` (chain operators) or the array cap
    ``DEFAULT_ARRAY_GATE_LIMIT`` (``mul``/``div``, n <= 8).  Wider
    ``mul``/``div`` widths need an explicit ``method="gate"``; the 2-D
    arrays have no chain decomposition for the transfer DP, so
    ``"auto"`` raises there instead of picking a sweep that large.

``"transfer"``
    The carry-state transfer-matrix dynamic program
    (:mod:`repro.coverage.transfer`): exact situation counts for any
    width up to ``MAX_TRANSFER_WIDTH`` (30) in microseconds, which is how
    n = 16 (a ``2**32``-pair operand space no sweep can touch) is
    evaluated exactly.  The ``"auto"`` choice for wide chain operators.

``"functional"``
    The seed LUT-splicing evaluators -- one vectorised NumPy pass per
    fault case over explicit operand arrays, up to
    ``DEFAULT_EXHAUSTIVE_LIMIT`` operand pairs; kept as the
    differential-testing reference of the gate sweep for every operator.

Execution: every method computes exact integer counts per fault case,
so the gate and functional sweeps share one scaffold (:func:`_run_cases`)
that runs the whole collapsed case range as one span in the calling
process, checkpointed into an open result store.  Adjacent case spans
concatenate to the counts of their union, the merge property the
store's checkpoint runtime relies on (:mod:`repro.faults.sharding`).
The gate sweep plans once: each span's fault-group layout and cone
batches stay on the architecture's engine (:func:`_sweep_plan`), so
regenerating a table again in one process skips every schedule build.

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
from repro.arch.bitops import check_width, mask_of
from repro.arch.cell import DEFAULT_CELL_NETLIST, collapsed_cell_library
from repro.arch.divider import RestoringDividerUnit
from repro.arch.multiplier import ArrayMultiplierUnit
from repro.arch.testbench import (
    CHAIN_OPERATORS,
    GATE_OPERATORS,
    table2_architecture,
)
from repro.coverage import situations as situation_counts
from repro.coverage.transfer import MAX_TRANSFER_WIDTH, case_flag_counts
from repro.errors import SimulationError
from repro.faults.universe import (
    adder_fault_cases,
    divider_fault_cases,
    multiplier_fault_cases,
)
from repro.gates.engine import (
    TABLE_FAULT_CHUNK,
    TABLE_WORD_CHUNK,
    StuckAtCampaignResult,
    engine_for,
    fifo_put,
    popcount_words,
    sweep_chunks,
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

#: Operand-space cap of the chain operators' gate sweep under ``"auto"``
#: (transfer DP beyond it) and of the functional method.
DEFAULT_EXHAUSTIVE_LIMIT = 1 << 20
#: Auto-selection cap of the gate sweep for the 2-D array operators
#: (``mul``/``div``): their test architectures grow quadratically /
#: as the unrolled iteration count, so the default sweep stops at
#: ``4**8`` operand pairs (n = 8, the paper's widest published mul/div
#: row).  Explicit ``method="gate"`` ignores the cap.
DEFAULT_ARRAY_GATE_LIMIT = 1 << 16

#: Recognised ``method=`` values of the Table 2 evaluators.
EVALUATION_METHODS = ("auto", "gate", "transfer", "functional")


@dataclass
class CoverageStats:
    """Aggregated coverage statistics for one (operator, technique, width).

    Every count is exact over the whole operand space; ``method`` names
    the evaluation path that produced it (see the module docstring), so
    every reported cell carries its provenance.
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
        detail = "gate-sweep" if self.method == "gate" else self.method
        return f"exhaustive/{detail}"

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

    All tallies are integers and every evaluator folds its fault cases
    through one entry point, :meth:`update_counts`, which is what makes
    the functional, gate and transfer evaluators bit-identical and the
    span merges exact.
    """

    def __init__(self, names: Iterable[str]) -> None:
        self.names = tuple(names)
        self.situations = 0
        self.observable = 0
        self.covered = {name: 0 for name in self.names}
        self.detected_correct = {name: 0 for name in self.names}
        self.case_min = {name: 1.0 for name in self.names}
        self.case_max = {name: 0.0 for name in self.names}

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

    def stats(self, operator: str, width: int, method: str) -> Dict[str, CoverageStats]:
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
                method=method,
            )
            for name in self.names
        }


def _operand_pairs(width: int, exclude_zero_divisor: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Every operand pair of the ``4**width`` space (nonzero divisors)."""
    combos = np.arange(1 << (2 * width), dtype=np.uint64)
    mask = np.uint64(mask_of(width))
    a = combos & mask
    b = (combos >> np.uint64(width)) & mask
    if exclude_zero_divisor:
        keep = b != 0
        a, b = a[keep], b[keep]
    return a, b


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

#: Per-case exact counts, concatenated across spans and checkpointed:
#: (multiplicity, situation count, correct count, {technique: (covered,
#: detected-while-correct)}).
_CaseCounts = Tuple[int, int, int, Dict[str, Tuple[int, int]]]


def _functional_case_counts(
    operator: str,
    width: int,
    cell_netlist: str,
    case_lo: int,
    case_hi: int,
) -> List[_CaseCounts]:
    """Functional counts for fault cases [case_lo, case_hi)."""
    spec = _SPECS[operator]
    a, b = _operand_pairs(width, spec.exclude_zero_divisor)
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
    return out


def _run_cases(
    operator: str,
    width: int,
    worker: Callable[..., List[_CaseCounts]],
    args: Tuple,
    n_cases: int,
    method: str,
    key: Optional[CacheKey],
    store: Optional[ResultStore],
) -> Dict[str, CoverageStats]:
    """The one scaffold of the gate and functional sweeps.

    ``worker(*args, case_lo, case_hi)`` returns one :data:`_CaseCounts`
    per fault case of its range.  The whole collapsed range
    ``[0, n_cases)`` runs as one span in this process through
    :func:`~repro.store.run_checkpointed` (checkpointed under
    ``key.with_shard(0, n_cases)`` when a store is open), and the
    per-case counts fold in case order into one :class:`_Accumulator`.
    ``key`` (``None`` without a store) is the final key.
    """
    if store is not None:
        cached = store.get(key)
        if cached is not None:
            return cached
    span = (0, n_cases)
    (counts,) = run_checkpointed(
        worker,
        [args + span],
        None if store is None else [key.with_shard(*span)],
        store,
    )
    acc = _Accumulator(_SPECS[operator].names)
    for repeat, count, n_correct, per in counts:
        acc.update_counts(count, n_correct, per, repeat=repeat)
    result = acc.stats(operator, width, method)
    if store is not None:
        store.put(key, result, {"n_cases": n_cases})
    return result


def _run_functional(
    operator: str,
    width: int,
    cell_netlist: str,
    store: Optional[ResultStore] = None,
) -> Dict[str, CoverageStats]:
    n_cases = len(_SPECS[operator].case_list(width, cell_netlist))
    key = None
    if store is not None:
        key = CacheKey(
            kind="coverage",
            netlist=digest_params(operator=operator, width=width),
            universe=digest_cell_library(cell_netlist),
            space=digest_params(exhaustive=True),
            method="functional",
        )
    return _run_cases(
        operator, width, _functional_case_counts, (operator, width, cell_netlist),
        n_cases, "functional", key, store,
    )


# ----------------------------------------------------------------------
# Batched gate-level sweep (every operator with a test architecture)
# ----------------------------------------------------------------------
def _sweep_plan(
    arch, engine, cell_netlist: str, case_lo: int, case_hi: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple]:
    """The case span's layout and cone batches, planned once per engine.

    Returns ``(multiplicities, sim_indices, batches)``: each collapsed
    case's class size, the span offsets of the cases that need
    simulation (reference-LUT cases need none), and their fault groups
    clustered into cone batches of at most
    :data:`~repro.gates.engine.TABLE_FAULT_CHUNK` groups -- the Table
    sweeps' own batch size, not the campaigns' -- each with its override
    plan (:func:`~repro.gates.sparse.build_schedule`).  The plan is kept
    on the architecture's engine under a key that holds that batch size,
    FIFO-bounded like the campaigns' rounds, so a repeated sweep skips
    the fault-group translation, both cone analyses and the schedule
    build.
    """
    key = (cell_netlist, case_lo, case_hi, TABLE_FAULT_CHUNK)
    plan = engine._sweeps.get(key)
    if plan is not None:
        return plan
    from repro.analysis.cones import analyze_cones, analyze_gate_cones
    from repro.gates.sparse import build_schedule

    rep_cases = [
        (group, position)
        for group in collapsed_cell_library(cell_netlist)
        for position in arch.positions
    ][case_lo:case_hi]
    # A reference group's LUT is identical to the fault-free cell: every
    # situation is correct and no check fires, so it needs no simulation.
    sim_indices = tuple(
        k for k, (group, _) in enumerate(rep_cases) if not group.is_reference
    )
    fault_groups = [
        arch.fault_group(rep_cases[k][0].representative.fault.fault, rep_cases[k][1])
        for k in sim_indices
    ]
    # The analyses are memoised in-process only, so a sweep never
    # writes to a store its caller did not open.
    batches = build_schedule(
        engine.compiled, fault_groups, TABLE_FAULT_CHUNK,
        analyze_gate_cones(arch.netlist, store=False),
        analyze_cones(arch.netlist, store=False),
    ).batches
    plan = (tuple(group.multiplicity for group, _ in rep_cases), sim_indices, batches)
    fifo_put(engine._sweeps, key, plan)
    return plan


def _output_counts(
    arch, names: Tuple[str, ...], valid: Optional[np.ndarray], out: np.ndarray
) -> np.ndarray:
    """Per-group tallies of one ``run_outputs`` call of the gate sweep.

    ``out`` is ``(n_outputs, n_groups + 1, n_words)``, the last row the
    ride-along golden row.  Returns ``(n_groups, 1 + 2 * len(names))``
    counts: correct, then (covered, detected-while-correct) per
    technique, over the lanes ``valid`` keeps.  The result rows precede
    the detection rows, so they hold their own difference from the
    golden row in place.
    """
    n_result = arch.n_result_rows
    ris = out[:n_result, :-1, :]
    np.bitwise_xor(ris, out[:n_result, -1:, :], out=ris)
    correct = ~np.bitwise_or.reduce(ris, axis=0)
    dets = {name: out[row, :-1, :] for name, row in arch.detect_rows.items()}
    if valid is not None:
        correct = correct & valid
        dets = {name: det & valid for name, det in dets.items()}
    for name in names:
        if name not in dets:
            # Derived flag (``both``): OR of the emitted ones.
            dets[name] = np.bitwise_or.reduce(
                [dets[d] for d in arch.detect_rows], axis=0
            )
    counts = np.empty((out.shape[1] - 1, 1 + 2 * len(names)), dtype=np.int64)
    counts[:, 0] = popcount_words(correct)
    for j, name in enumerate(names):
        det = dets[name]
        counts[:, 1 + 2 * j] = popcount_words(correct | det)
        counts[:, 2 + 2 * j] = popcount_words(correct & det)
    return counts


def _gate_case_counts(
    operator: str,
    width: int,
    cell_netlist: str,
    case_lo: int,
    case_hi: int,
) -> List[_CaseCounts]:
    """Sweep counts for collapsed cases [case_lo, case_hi).

    Fetches the (cached) test architecture, its engine and the span's
    plan (:func:`_sweep_plan`), then streams the architecture's operand
    universe (``arch.space``) through each cone batch's plan chunk by
    chunk (:func:`~repro.gates.engine.sweep_chunks` with the Table pair
    :data:`~repro.gates.engine.TABLE_WORD_CHUNK` /
    :data:`~repro.gates.engine.TABLE_FAULT_CHUNK`), reducing packed
    classification masks to counts via popcount -- vectors are never
    unpacked.  Each chunk's input rows die with the chunk, and with them
    the backend's cached golden run of that chunk.  Masked universes
    (the divider's zero-divisor exclusion) apply the space's valid-lane
    words before counting.  Adjacent spans concatenate to the counts of
    their union.
    """
    arch = table2_architecture(operator, width, cell_netlist)
    space = arch.space
    engine = engine_for(arch.netlist)
    names = _SPECS[operator].names
    multiplicities, sim_indices, batches = _sweep_plan(
        arch, engine, cell_netlist, case_lo, case_hi
    )
    n_valid = space.valid_count(0, space.n_words)
    # correct, then (covered, detected-while-correct) per technique.
    tallies = np.zeros((len(sim_indices), 1 + 2 * len(names)), dtype=np.int64)
    chunks = sweep_chunks(
        engine, len(sim_indices), space,
        word_chunk=TABLE_WORD_CHUNK, fault_chunk=TABLE_FAULT_CHUNK,
    )
    for _, _, rows, valid in chunks:
        for batch in batches:
            # No name holds a call's outputs past its reduction, so the
            # next call never runs with the previous outputs still alive.
            tallies[list(batch.members)] += _output_counts(
                arch, names, valid,
                engine.backend.run_outputs(
                    rows, batch.plan, len(batch.members) + 1, batch.gates
                ),
            )
    # Reference cases first, then the simulated ones over them, in case
    # order: the merge concatenates span lists.
    results: List[_CaseCounts] = [
        (multiplicity, n_valid, n_valid, {name: (n_valid, 0) for name in names})
        for multiplicity in multiplicities
    ]
    for row, k in enumerate(sim_indices):
        counts = [int(v) for v in tallies[row]]
        per = {
            name: (counts[1 + 2 * j], counts[2 + 2 * j])
            for j, name in enumerate(names)
        }
        results[k] = (multiplicities[k], n_valid, counts[0], per)
    return results


def _run_gate(
    operator: str,
    width: int,
    cell_netlist: str,
    store: Optional[ResultStore] = None,
) -> Dict[str, CoverageStats]:
    if operator not in GATE_OPERATORS:
        raise SimulationError(
            f"the gate-level sweep covers {GATE_OPERATORS}, not {operator!r}"
        )
    arch = table2_architecture(operator, width, cell_netlist)
    n_cases = len(collapsed_cell_library(cell_netlist)) * len(arch.positions)
    key = None
    if store is not None:
        key = CacheKey(
            kind="coverage",
            netlist=digest_netlist(arch.netlist),
            universe=digest_cell_library(cell_netlist),
            space=digest_params(exhaustive=True),
            method="gate",
        )
    return _run_cases(
        operator, width, _gate_case_counts, (operator, width, cell_netlist),
        n_cases, "gate", key, store,
    )


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
        )
        cached = store.get(key)
        if cached is not None:
            return cached
    acc = _Accumulator(_SPECS[operator].names)
    space = 1 << (2 * width)
    for group in collapsed_cell_library(cell_netlist):
        cell = group.representative
        # One row per fault position; index correct | d1 << 1 | d2 << 2.
        for flags in case_flag_counts(operator, width, cell.sum_lut, cell.carry_lut):
            n_correct = int(flags[1::2].sum())
            per = {
                "tech1": (space - int(flags[0] + flags[4]), int(flags[3] + flags[7])),
                "tech2": (space - int(flags[0] + flags[2]), int(flags[5] + flags[7])),
                "both": (space - int(flags[0]), int(flags[3] + flags[5] + flags[7])),
            }
            acc.update_counts(space, n_correct, per, repeat=group.multiplicity)
    result = acc.stats(operator, width, "transfer")
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
    method: str,
    store=None,
) -> Dict[str, CoverageStats]:
    if method not in EVALUATION_METHODS:
        raise SimulationError(
            f"unknown method {method!r}; choose from {EVALUATION_METHODS}"
        )
    # Check width and method reach up front, so a store hit cannot skip
    # a check and no architecture is built for a width that must raise.
    width = check_width(width)
    if operator == "mul" and width < 2:
        raise SimulationError(f"multiplier coverage needs width= >= 2, got {width}")
    space = 1 << (2 * width)
    if method == "auto":
        if operator in CHAIN_OPERATORS:
            method = "gate" if space <= DEFAULT_EXHAUSTIVE_LIMIT else "transfer"
        elif space <= DEFAULT_ARRAY_GATE_LIMIT:
            method = "gate"
        else:
            raise SimulationError(
                f"{operator} at width={width} exceeds the default gate-sweep "
                f"cap of {DEFAULT_ARRAY_GATE_LIMIT} operand pairs and has no "
                'transfer DP; pass method="gate" to sweep it anyway'
            )
    elif method == "functional" and space > DEFAULT_EXHAUSTIVE_LIMIT:
        raise SimulationError(
            "functional evaluation enumerates at most "
            f"{DEFAULT_EXHAUSTIVE_LIMIT} operand pairs, width={width} has "
            f'{space}; use method="gate"'
        )
    if method == "transfer" and width > MAX_TRANSFER_WIDTH:
        raise SimulationError(
            f"transfer evaluation reaches width={MAX_TRANSFER_WIDTH} at most, "
            f"got width={width}"
        )
    store = resolve_store(store)
    with obs_span(
        "coverage_evaluate", operator=operator, width=width, method=method
    ):
        if method == "gate":
            return _run_gate(operator, width, cell_netlist, store)
        if method == "transfer":
            return _run_transfer(operator, width, cell_netlist, store)
        return _run_functional(operator, width, cell_netlist, store)


def evaluate_adder(
    width: int,
    cell_netlist: str = DEFAULT_CELL_NETLIST,
    method: str = "auto",
    store=None,
) -> Dict[str, CoverageStats]:
    """Worst-case coverage of the overloaded ``+`` (Table 2).

    The nominal ``ris = op1 + op2`` and both checking subtractions run
    through the same faulty adder chain; every 32-fault x ``width``-
    position case is classified over the whole operand space.  The
    evaluation is exact at every width: by default the batched
    gate-level sweep while ``4**width`` fits
    ``DEFAULT_EXHAUSTIVE_LIMIT``, the transfer-matrix DP beyond (n = 16
    included).  The sweep runs in the calling process and keeps its plan
    on the architecture's engine, so a repeated call skips the planning.
    Returns one :class:`CoverageStats` per technique
    (``tech1``/``tech2``/``both``).
    """
    return _evaluate("add", width, cell_netlist, method, store)


def evaluate_subtractor(
    width: int,
    cell_netlist: str = DEFAULT_CELL_NETLIST,
    method: str = "auto",
    store=None,
) -> Dict[str, CoverageStats]:
    """Worst-case coverage of the overloaded ``-``.

    ``ris = op1 - op2`` through the faulty chain; Tech 1 re-adds
    (``op1' = ris + op2``), Tech 2 computes the reversed difference
    (``ris' = op2 - op1``) on the same unit and tests ``ris + ris' == 0``
    (final summation fault-free, as it maps onto the comparator).
    Method selection and return type as for :func:`evaluate_adder`.
    """
    return _evaluate("sub", width, cell_netlist, method, store)


def evaluate_multiplier(
    width: int,
    cell_netlist: str = DEFAULT_CELL_NETLIST,
    method: str = "auto",
    store=None,
) -> Dict[str, CoverageStats]:
    """Worst-case coverage of the overloaded ``*``.

    Fixed-width products: the identity ``op1*op2 + (-op1)*op2 == 0``
    holds modulo ``2**width``, so the checking product runs through the
    same faulty array and the final summation/comparison is fault-free.
    By default the batched gate-level sweep evaluates the truncated
    ripple-row array exactly up to n = 8 (``DEFAULT_ARRAY_GATE_LIMIT``);
    the 2-D array has no chain decomposition for the transfer DP, so a
    wider width raises unless ``method="gate"`` asks for the sweep.
    Needs ``width >= 2``.
    """
    return _evaluate("mul", width, cell_netlist, method, store)


def evaluate_divider(
    width: int,
    cell_netlist: str = DEFAULT_CELL_NETLIST,
    method: str = "auto",
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
    multiplier, a wider width needs an explicit ``method="gate"``.
    """
    return _evaluate("div", width, cell_netlist, method, store)


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
        mode = "exhaustive" if self.exhaustive else "supplied"
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
    only ``simulated_runs``.  The campaign runs in the calling process.
    Returns the aggregate stats plus the raw campaign result.
    """
    from repro.faults.injector import run_sharded_stuck_at_campaign

    raw = run_sharded_stuck_at_campaign(
        netlist,
        vectors=vectors,
        collapse=collapse,
        fault_dropping=fault_dropping,
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
    method: str = "auto",
    store=None,
) -> Dict[str, CoverageStats]:
    """Dispatch to the per-operator evaluator by name.

    Accepts the same ``method=``/``store=`` knobs as the individual
    evaluators and returns their per-technique :class:`CoverageStats`
    dict.
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
        method=method,
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
