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

Execution: every method computes one int64 count matrix with a row per
fault case -- its correct situations, then covered and
detected-while-correct per technique -- plus each case's equivalence
class size and the shared situation count (:data:`_CaseMatrix`).  One
fold (:func:`_fold`) turns any method's matrix into the
:class:`CoverageStats`, which is what makes the three methods
bit-identical.  A sweep runs whole in the calling process, and with a
result store open, :func:`_evaluate` looks its one ``coverage`` entry up
before computing and writes it once after.  The gate sweep plans once:
its fault-group layout and cone batches stay on the architecture's
engine, one plan per cell netlist (:func:`_sweep_plan`), so
regenerating a table again in one process skips every schedule build.

:func:`evaluate_gate_level` complements the functional-level evaluators
with a structural one: the raw stuck-at detectability of a gate-level
netlist under a vector set, computed by the batched bit-parallel engine
(:mod:`repro.gates.engine`) in one pass over the whole fault universe.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from repro.arch.adders import RippleCarryAdderUnit
from repro.arch.bitops import check_width, mask_of
from repro.arch.cell import DEFAULT_CELL_NETLIST, collapsed_cell_library
from repro.arch.divider import RestoringDividerUnit
from repro.arch.multiplier import ArrayMultiplierUnit
from repro.arch.testbench import (
    CHAIN_OPERATORS,
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
    popcount_words,
    sweep_chunks,
)
from repro.gates.netlist import Netlist
from repro.obs.trace import span as obs_span
from repro.store import (
    CacheKey,
    digest_cell_library,
    digest_netlist,
    digest_params,
    resolve_store,
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


def _adder_cases(width: int, cell_netlist: str, a: np.ndarray, b: np.ndarray) -> _CaseStream:
    mask = np.uint64(mask_of(width))
    golden = (a + b) & mask
    for case in adder_fault_cases(width, cell_netlist):
        unit = RippleCarryAdderUnit(width, case.cell, case.position)
        ris, _ = unit.add(a, b)
        correct = ris == golden
        check1, _ = unit.sub(ris, a)  # op2' = ris - op1
        check2, _ = unit.sub(ris, b)  # op1' = ris - op2
        det1 = check1 != b
        det2 = check2 != a
        yield correct, {"tech1": det1, "tech2": det2, "both": det1 | det2}


def _subtractor_cases(
    width: int, cell_netlist: str, a: np.ndarray, b: np.ndarray
) -> _CaseStream:
    mask = np.uint64(mask_of(width))
    golden = (a - b) & mask
    for case in adder_fault_cases(width, cell_netlist):
        unit = RippleCarryAdderUnit(width, case.cell, case.position)
        ris, _ = unit.sub(a, b)
        correct = ris == golden
        check1, _ = unit.add(ris, b)  # op1' = ris + op2 (same unit)
        det1 = check1 != a
        ris2, _ = unit.sub(b, a)  # ris' = op2 - op1 (same unit)
        det2 = ((ris + ris2) & mask) != 0
        yield correct, {"tech1": det1, "tech2": det2, "both": det1 | det2}


def _multiplier_cases(
    width: int, cell_netlist: str, a: np.ndarray, b: np.ndarray
) -> _CaseStream:
    mask = np.uint64(mask_of(width))
    golden = (a * b) & mask
    neg_a = (np.uint64(0) - a) & mask
    neg_b = (np.uint64(0) - b) & mask
    for case in multiplier_fault_cases(width, cell_netlist):
        unit = ArrayMultiplierUnit(width, case.cell, case.row, case.column)
        ris = unit.mul(a, b)
        correct = ris == golden
        ris1 = unit.mul(neg_a, b)  # (-op1) * op2, same unit
        ris2 = unit.mul(a, neg_b)  # op1 * (-op2), same unit
        det1 = ((ris + ris1) & mask) != 0
        det2 = ((ris + ris2) & mask) != 0
        yield correct, {"tech1": det1, "tech2": det2, "both": det1 | det2}


def _divider_cases(width: int, cell_netlist: str, a: np.ndarray, b: np.ndarray) -> _CaseStream:
    mask = np.uint64(mask_of(width))
    golden_q = a // b
    golden_r = a % b
    for case in divider_fault_cases(width, cell_netlist):
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
    exclude_zero_divisor: bool = False


_SPECS: Dict[str, _OperatorSpec] = {
    "add": _OperatorSpec(("tech1", "tech2", "both"), _adder_cases),
    "sub": _OperatorSpec(("tech1", "tech2", "both"), _subtractor_cases),
    "mul": _OperatorSpec(("tech1", "tech2", "both"), _multiplier_cases),
    "div": _OperatorSpec(("tech1", "tech2"), _divider_cases, exclude_zero_divisor=True),
}

#: What every exact method computes: ``(multiplicities, situations,
#: counts)``.  Row ``k`` of the int64 ``counts`` matrix is fault case
#: ``k``: its correct situations, then (covered, detected-while-correct)
#: per technique of :data:`_SPECS`; ``multiplicities[k]`` is the size of
#: the equivalence class the case stands for.  Every case of one
#: evaluation classifies the same operand space, so ``situations`` is
#: one count for all of them.
_CaseMatrix = Tuple[np.ndarray, int, np.ndarray]


def _fold(operator: str, width: int, method: str, matrix: _CaseMatrix) -> Dict[str, CoverageStats]:
    """The one reduction of a :data:`_CaseMatrix` to per-technique stats.

    The class-weighted column sums are taken over Python integers: a
    transfer-DP case at n = 30 counts up to ``4**30`` situations, so the
    totals outgrow int64.  Dividing by the shared situation count is
    monotone, so each per-case extreme is its column's extreme count
    divided once, exactly as every case's own fraction would round.
    """
    multiplicities, situations, counts = matrix
    weighted = [int(v) for v in multiplicities.astype(object) @ counts.astype(object)]
    total = int(multiplicities.sum()) * situations
    lowest, highest = counts.min(axis=0), counts.max(axis=0)
    return {
        name: CoverageStats(
            operator=operator,
            technique=name,
            width=width,
            situations=total,
            covered=weighted[1 + 2 * j],
            observable_errors=total - weighted[0],
            detected_while_correct=weighted[2 + 2 * j],
            per_case_min=int(lowest[1 + 2 * j]) / situations,
            per_case_max=int(highest[1 + 2 * j]) / situations,
            method=method,
        )
        for j, name in enumerate(_SPECS[operator].names)
    }


def _functional_case_counts(operator: str, width: int, cell_netlist: str) -> _CaseMatrix:
    """Functional counts of every (uncollapsed) fault case."""
    spec = _SPECS[operator]
    a, b = _operand_pairs(width, spec.exclude_zero_divisor)
    rows = []
    for correct, dets in spec.kernel(width, cell_netlist, a, b):
        row = [np.count_nonzero(correct)]
        for name in spec.names:
            row += [np.count_nonzero(correct | dets[name]), np.count_nonzero(correct & dets[name])]
        rows.append(row)
    counts = np.array(rows, dtype=np.int64)
    return np.ones(len(counts), dtype=np.int64), a.size, counts


# ----------------------------------------------------------------------
# Batched gate-level sweep (every operator with a test architecture)
# ----------------------------------------------------------------------
def _sweep_plan(arch, engine, cell_netlist: str) -> Tuple[np.ndarray, np.ndarray, Tuple]:
    """The sweep's case layout and cone batches, planned once per engine.

    Returns ``(multiplicities, sim_indices, batches)``: each collapsed
    case's class size, the indices of the cases that need simulation
    (reference-LUT cases need none), and their fault groups clustered
    into cone batches of at most
    :data:`~repro.gates.engine.TABLE_FAULT_CHUNK` groups -- the Table
    sweeps' own batch size, not the campaigns' -- each with its override
    plan (:func:`~repro.gates.sparse.build_schedule`).  The plan is kept
    on the architecture's engine, one per cell netlist, so a repeated
    sweep skips the fault-group translation, both cone analyses and the
    schedule build.
    """
    plan = engine._sweeps.get(cell_netlist)
    if plan is not None:
        return plan
    from repro.analysis.cones import analyze_cones, analyze_gate_cones
    from repro.gates.sparse import build_schedule

    rep_cases = [
        (group, position)
        for group in collapsed_cell_library(cell_netlist)
        for position in arch.positions
    ]
    # A reference group's LUT is identical to the fault-free cell: every
    # situation is correct and no check fires, so it needs no simulation.
    sim_indices = np.array(
        [k for k, (group, _) in enumerate(rep_cases) if not group.is_reference],
        dtype=np.int64,
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
    multiplicities = np.array([group.multiplicity for group, _ in rep_cases], dtype=np.int64)
    plan = engine._sweeps[cell_netlist] = (multiplicities, sim_indices, batches)
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


def _gate_case_counts(operator: str, width: int, cell_netlist: str) -> _CaseMatrix:
    """Sweep counts of every collapsed fault case.

    Fetches the (cached) test architecture, its engine and its plan
    (:func:`_sweep_plan`), then streams the architecture's operand
    universe (``arch.space``) through each cone batch's plan chunk by
    chunk (:func:`~repro.gates.engine.sweep_chunks` with the Table pair
    :data:`~repro.gates.engine.TABLE_WORD_CHUNK` /
    :data:`~repro.gates.engine.TABLE_FAULT_CHUNK`), reducing packed
    classification masks to counts via popcount -- vectors are never
    unpacked.  Each chunk's input rows die with the chunk, and with them
    the backend's cached golden run of that chunk.  Masked universes
    (the divider's zero-divisor exclusion) apply the space's valid-lane
    words before counting.
    """
    arch = table2_architecture(operator, width, cell_netlist)
    space = arch.space
    engine = engine_for(arch.netlist)
    names = _SPECS[operator].names
    multiplicities, sim_indices, batches = _sweep_plan(arch, engine, cell_netlist)
    n_valid = space.valid_count(0, space.n_words)
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
    # A reference case is correct and covered everywhere and never
    # detected; the simulated cases overwrite their rows.
    counts = np.full((len(multiplicities), tallies.shape[1]), n_valid, dtype=np.int64)
    counts[:, 2::2] = 0
    counts[sim_indices] = tallies
    return multiplicities, n_valid, counts


# ----------------------------------------------------------------------
# Transfer-matrix exact wide widths (chain operators)
# ----------------------------------------------------------------------
def _transfer_case_counts(operator: str, width: int, cell_netlist: str) -> _CaseMatrix:
    """Transfer-DP counts of every collapsed fault case.

    :func:`~repro.coverage.transfer.case_flag_counts` gives one row per
    fault position, indexed ``correct | d1 << 1 | d2 << 2``.
    """
    space = 1 << (2 * width)
    groups = collapsed_cell_library(cell_netlist)
    flags = np.concatenate([
        case_flag_counts(
            operator, width, group.representative.sum_lut, group.representative.carry_lut
        )
        for group in groups
    ])
    counts = np.column_stack([
        flags[:, 1::2].sum(axis=1),
        space - flags[:, 0] - flags[:, 4], flags[:, 3] + flags[:, 7],  # tech1
        space - flags[:, 0] - flags[:, 2], flags[:, 5] + flags[:, 7],  # tech2
        space - flags[:, 0], flags[:, 3] + flags[:, 5] + flags[:, 7],  # both
    ])
    multiplicities = np.repeat([group.multiplicity for group in groups], width)
    return multiplicities.astype(np.int64), space, counts


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
    if method == "transfer" and operator not in CHAIN_OPERATORS:
        raise SimulationError(
            f"transfer evaluation covers {CHAIN_OPERATORS}, not {operator!r}"
        )
    store = resolve_store(store)
    with obs_span(
        "coverage_evaluate", operator=operator, width=width, method=method
    ):
        key = None
        if store is not None:
            if method == "gate":
                # The sweep is keyed by its architecture's structure.
                unit = digest_netlist(table2_architecture(operator, width, cell_netlist).netlist)
            else:
                unit = digest_params(operator=operator, width=width)
            key = CacheKey(
                kind="coverage",
                netlist=unit,
                universe=digest_cell_library(cell_netlist),
                space=digest_params(exhaustive=True),
                method=method,
            )
            cached = store.get(key)
            if cached is not None:
                return cached
        if method == "gate":
            matrix = _gate_case_counts(operator, width, cell_netlist)
        elif method == "transfer":
            matrix = _transfer_case_counts(operator, width, cell_netlist)
        else:
            matrix = _functional_case_counts(operator, width, cell_netlist)
        result = _fold(operator, width, method, matrix)
        if store is not None:
            store.put(key, result, {"n_cases": len(matrix[2])})
        return result


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
