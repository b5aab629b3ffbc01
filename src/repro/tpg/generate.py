"""Simulation-based test-pattern generation (ATPG) on the batched engine.

The classical two-phase loop, run entirely through the bit-parallel
fault matrix:

1. **Seeded random phases with fault dropping** -- each phase draws a
   word-packed batch of random vectors, simulates every *still
   undetected* equivalence-class representative against the shared
   golden row, and keeps the first detecting vector of every newly
   detected class.  Detected classes drop out of later phases; phases
   stop after :data:`STALE_PHASES` consecutive batches detect nothing
   new (random vectors saturate quickly -- the residue is the
   hard-fault tail).
2. **Exhaustive word-range sweeps over the residue** -- the remaining
   classes stream through the *whole* constrained universe in the
   word chunks of :func:`repro.gates.engine.sweep_chunks` (masked lanes
   excluded), so every detectable fault ends up with a test and
   everything still undetected is *proven* redundant within the space.

The discovered test table is then re-simulated into a fault dictionary
over the full universe ordering (:func:`~repro.tpg.dictionary.dictionary_for_vectors`)
and greedily compacted (:func:`~repro.tpg.compaction.greedy_cover`).
Everything is deterministic for a given ``seed``: the RNG stream, the
class iteration order and the tie-breaks are all fixed -- the property
``tests/test_tpg.py`` pins down.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.gates.builders import (
    restoring_divider,
    ripple_borrow_subtractor,
    ripple_carry_adder,
    truncated_array_multiplier,
)
from repro.gates.engine import (
    LANES,
    MAX_EXHAUSTIVE_INPUTS,
    SWEEP_WORD_CHUNK,
    TestSpace,
    _DetectSweep,
    engine_for,
    first_hits,
    popcount_words,
    sweep_chunks,
)
from repro.gates.faults import (
    StuckAtFault,
    default_fault_universe,
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
    resolve_store,
)
from repro.tpg.compaction import CompactTestSet, compact_from_dictionary, greedy_cover
from repro.tpg.dictionary import (
    FaultDictionary,
    build_fault_dictionary,
    dictionary_for_vectors,
)

#: Default ATPG seed (the DATE'05 conference date, like the coverage
#: engine's sampling seed).
TPG_SEED = 20050307

#: Words (x64 vectors) per random phase.
PHASE_WORDS = 8
#: Hard cap on random phases (the stale rule normally stops earlier).
MAX_PHASES = 64
#: Consecutive no-new-detection phases before the random stage stops.
STALE_PHASES = 2

#: ``compact_test_set(method="auto")`` builds the full dictionary up to
#: this many universe vectors and runs ATPG beyond.
DEFAULT_DICTIONARY_LIMIT = 1 << 16

#: Target orderings accepted by :func:`generate_tests`.  ``"index"`` is
#: the historical universe order; ``"testability"`` targets the SCOAP
#: hardest-to-test classes first (see :mod:`repro.analysis.testability`).
TPG_ORDERS = ("index", "testability")

#: Units with a gate-level netlist builder for per-unit test sets.
UNIT_OPERATORS = ("add", "sub", "mul", "div")

_UNIT_BUILDERS: Dict[str, Callable[[int], Netlist]] = {
    "add": ripple_carry_adder,
    "sub": ripple_borrow_subtractor,
    "mul": truncated_array_multiplier,
    "div": restoring_divider,
}


@functools.lru_cache(maxsize=None)
def unit_netlist(unit: str, width: int) -> Netlist:
    """Cached gate-level netlist of one :mod:`repro.arch` unit class.

    ``add``/``sub`` are the ripple chains (carry-in swept as a real
    input), ``mul`` the truncated ripple-row array, ``div`` the unrolled
    restoring divider -- the same structural lowerings the Table 2
    architectures replicate.
    """
    try:
        builder = _UNIT_BUILDERS[unit]
    except KeyError:
        raise SimulationError(
            f"unknown unit {unit!r}; choose from {UNIT_OPERATORS}"
        ) from None
    return builder(width)


@functools.lru_cache(maxsize=None)
def unit_space(unit: str, width: int) -> TestSpace:
    """Constrained TPG universe of one unit netlist.

    Operand (and carry) bits sweep; the ``zero``/``one`` constant rails
    of the array units are pinned, and the divider's divisor field is
    required non-zero, exactly as in the coverage sweeps.
    """
    netlist = unit_netlist(unit, width)
    constants = tuple(
        (name, 1 if name == "one" else 0)
        for name in netlist.primary_inputs
        if name in ("zero", "one")
    )
    free = tuple(
        name for name in netlist.primary_inputs if name not in ("zero", "one")
    )
    nonzero = (width, 2 * width) if unit == "div" else None
    return TestSpace(netlist, free, constants, nonzero)


@dataclass
class TPGResult:
    """Everything one ATPG run produced.

    ``tests`` is the raw discovery-ordered test table; ``dictionary``
    the fault dictionary over exactly those tests; ``compact`` the
    greedy-compacted set with provenance; ``undetected`` the faults no
    vector of the (constrained) universe detects -- proven redundant
    when the residual sweep ran exhaustively.
    """

    netlist_name: str
    space: TestSpace
    tests: np.ndarray  # (n_tests, n_inputs) uint8, discovery order
    dictionary: FaultDictionary
    compact: CompactTestSet
    undetected: Tuple[StuckAtFault, ...]
    vectors_tried: int
    random_phases: int
    exhausted: bool
    seed: int

    @property
    def n_tests(self) -> int:
        return self.tests.shape[0]

    def summary(self) -> str:
        proven = "proven-redundant" if self.exhausted else "unresolved"
        return (
            f"{self.netlist_name}: {self.n_tests} ATPG tests "
            f"({self.random_phases} random phases, {self.vectors_tried} "
            f"vectors tried) -> {self.compact.n_tests} compact tests, "
            f"{len(self.undetected)} {proven} faults"
        )


def generate_tests(
    netlist: Netlist,
    space: Optional[TestSpace] = None,
    seed: int = TPG_SEED,
    phase_words: int = PHASE_WORDS,
    max_phases: int = MAX_PHASES,
    stale_phases: int = STALE_PHASES,
    faults: Optional[Tuple[StuckAtFault, ...]] = None,
    collapse: Union[bool, str] = True,
    order: str = "index",
    store=None,
) -> TPGResult:
    """Run the two-phase ATPG loop over ``netlist``.

    Deterministic for a given ``seed``: the RNG stream, class iteration
    order and first-detect tie-breaks are all fixed, so two runs return
    identical test tables and compact sets.  When the free-input count
    exceeds the exhaustive-packing cap the residual sweep is skipped and
    surviving faults stay ``unresolved`` instead of proven redundant
    (``TPGResult.exhausted`` records which).

    ``collapse="dominance"`` restricts the generation targets to the
    dominance-kept classes (:func:`repro.analysis.collapse.collapse_faults`):
    any test of a dominated pin fault also detects its dominating
    output fault, so covering the kept classes covers the full universe
    whenever every kept class is detectable.  The reported dictionary
    and compact set are always built with equivalence collapsing, so
    detection data stays exact per fault; the only caveat is a
    dominated class whose dominators are all redundant -- its (possible)
    test is never searched for and it is reported undetected.

    ``order="testability"`` targets the SCOAP hardest-to-test classes
    first (descending :func:`repro.analysis.testability.fault_efforts`
    of the class representatives, universe order breaking ties), which
    biases the recorded witnesses toward the hard-fault tail;
    ``order="index"`` keeps the historical universe order.

    A result store memoises only the ``atpg`` discovery table; a hit
    rebuilds the table dictionary and the compact set from it.
    """
    with obs_span("atpg", netlist=netlist.name, order=order, seed=seed):
        return _generate_tests_impl(
            netlist, space, seed, phase_words, max_phases, stale_phases,
            faults, collapse, order, store,
        )


def _generate_tests_impl(
    netlist: Netlist,
    space: Optional[TestSpace],
    seed: int,
    phase_words: int,
    max_phases: int,
    stale_phases: int,
    faults: Optional[Tuple[StuckAtFault, ...]],
    collapse: Union[bool, str],
    order: str,
    store,
) -> TPGResult:
    if space is None:
        space = TestSpace.full(netlist)
    elif space.netlist is not netlist:
        raise SimulationError("test space was built for a different netlist")
    mode = resolve_collapse_mode(collapse)
    if order not in TPG_ORDERS:
        raise SimulationError(
            f"unknown order {order!r}; choose from {TPG_ORDERS}"
        )
    fault_seq, groups = fault_classes(netlist, faults, mode)
    targets = list(range(len(groups)))
    if mode == "dominance":
        from repro.analysis.collapse import collapse_faults

        cmap = collapse_faults(
            netlist, faults=None if faults is None else fault_seq, mode=mode,
            store=False,
        )
        targets = sorted(cmap.kept)
    if order == "testability":
        from repro.analysis.testability import fault_efforts

        efforts = fault_efforts(
            netlist,
            faults=[fault_seq[groups[g][0]] for g in targets],
            constants=dict(space.constants) or None,
        )
        targets = [
            g for _, g in sorted(zip(efforts.tolist(), targets), key=lambda p: (-p[0], p[1]))
        ]
    store = resolve_store(store)
    cache_key = None
    table: Optional[np.ndarray] = None
    if store is not None:
        # Only the raw discovery table memoises: the table dictionary
        # and the compact set are rebuilt from it on every call.
        cache_key = CacheKey(
            kind="atpg",
            netlist=digest_netlist(netlist),
            universe=digest_faults(fault_seq),
            space=digest_test_space(space),
            method="atpg",
            params=digest_params(
                seed=seed,
                phase_words=phase_words,
                max_phases=max_phases,
                stale_phases=stale_phases,
                collapse=mode,
                order=order,
                # Phase 2 records a residue class's test when its word
                # chunk reaches it, so the word chunk fixes the order of
                # the test table and is part of the key.  Each round
                # records in class order, so the fault chunk orders
                # nothing.
                word_chunk=SWEEP_WORD_CHUNK,
            ),
        )
        cached = store.get(cache_key)
        if cached is not None:
            table = np.asarray(cached["arrays"]["tests"], dtype=np.uint8)
            vectors_tried = int(cached["vectors_tried"])
            phases = int(cached["random_phases"])
            exhausted = bool(cached["exhausted"])

    if table is None:
        engine = engine_for(netlist)
        detect = _DetectSweep(engine, fault_seq, groups)
        rng = np.random.default_rng(seed)

        active = list(targets)
        tests: List[np.ndarray] = []
        seen: set = set()
        vectors_tried = 0
        phases = 0
        stale = 0

        def record_vector(rows: np.ndarray, vector: int) -> None:
            word, lane = divmod(vector, LANES)
            bits = ((rows[:, word] >> np.uint64(lane)) & np.uint64(1)).astype(np.uint8)
            key = bits.tobytes()
            if key not in seen:
                seen.add(key)
                tests.append(bits)

        def run_round(rows: np.ndarray, valid: Optional[np.ndarray]) -> int:
            """Simulate the active classes over one packed batch; returns
            how many classes the batch newly detected.  Each class's
            first hit is recorded in the round's class order, so the
            test table does not depend on how the cone schedule batches
            the classes."""
            round_ids = list(active)
            hits: Dict[int, int] = {}
            for class_ids, diff in detect(rows, round_ids):
                if valid is not None:
                    diff &= valid
                for row, vector in first_hits(diff):
                    hits[class_ids[row]] = vector
            for g in round_ids:
                if g in hits:
                    record_vector(rows, hits[g])
            active[:] = [g for g in round_ids if g not in hits]
            return len(hits)

        # Phase 1: seeded random batches with fault dropping.
        while active and phases < max_phases and stale < stale_phases:
            rows, valid = space.random_rows(rng, max(1, phase_words))
            phases += 1
            vectors_tried += (
                rows.shape[1] * LANES if valid is None else int(popcount_words(valid))
            )
            stale = 0 if run_round(rows, valid) else stale + 1

        # Phase 2: exhaustive word-range sweep over the residue.
        exhausted = space.n_free <= MAX_EXHAUSTIVE_INPUTS
        if active and exhausted:
            for lo, hi, rows, valid in sweep_chunks(engine, len(active), space):
                vectors_tried += (
                    (hi - lo) * LANES if valid is None else int(popcount_words(valid))
                )
                run_round(rows, valid)
                if not active:
                    break

        table = (
            np.stack(tests)
            if tests
            else np.zeros((0, len(netlist.primary_inputs)), dtype=np.uint8)
        )
        if store is not None:
            store.put(
                cache_key,
                {
                    "arrays": {"tests": table},
                    "vectors_tried": vectors_tried,
                    "random_phases": phases,
                    "exhausted": exhausted,
                },
            )
    # A few dozen tests: rebuilt on every call, never stored.
    dictionary = dictionary_for_vectors(
        netlist, table, faults=faults,
        collapse="equivalence" if mode == "dominance" else mode,
        store=False,
    )
    cover = greedy_cover(dictionary)
    compact = CompactTestSet(
        netlist_name=netlist.name,
        input_names=tuple(netlist.primary_inputs),
        vectors=table[list(cover.order)],
        faults=dictionary.faults,
        detected=cover.detected,
        marginal=cover.marginal,
        source="atpg+greedy",
    )
    return TPGResult(
        netlist_name=netlist.name,
        space=space,
        tests=table,
        dictionary=dictionary,
        compact=compact,
        undetected=tuple(dictionary.undetected_faults()),
        vectors_tried=vectors_tried,
        random_phases=phases,
        exhausted=exhausted,
        seed=seed,
    )


def compact_test_set(
    netlist: Netlist,
    space: Optional[TestSpace] = None,
    method: str = "auto",
    seed: int = TPG_SEED,
    dictionary_limit: int = DEFAULT_DICTIONARY_LIMIT,
    collapse: Union[bool, str] = True,
    store=None,
) -> CompactTestSet:
    """One-call compact test set for a netlist.

    ``method="dictionary"`` builds the full fault dictionary over the
    (constrained) universe and greedy-covers it -- exact, RNG-free,
    affordable while ``space.n_vectors`` is small; ``method="atpg"``
    runs the two-phase generation loop and compacts its discoveries;
    ``"auto"`` picks the dictionary up to ``dictionary_limit`` vectors
    and ATPG beyond.  Both paths end in the same greedy cover, and both
    claims replay bit-identically through the campaign engine.  With a
    result store active only the finished set memoises (one ``compact``
    entry); the dictionary/ATPG work behind it runs with ``store=False``.

    ``collapse="dominance"`` forces the ATPG path (the dictionary
    builder needs exact per-vector detection words, which dominance
    does not preserve), where it prunes the generation targets to the
    dominance-kept classes -- see :func:`generate_tests`.
    """
    if space is None:
        space = TestSpace.full(netlist)
    mode = resolve_collapse_mode(collapse)
    if method == "auto":
        method = (
            "dictionary"
            if mode != "dominance" and space.n_vectors <= dictionary_limit
            else "atpg"
        )
    if method == "dictionary" and mode == "dominance":
        raise SimulationError(
            "method='dictionary' needs exact per-vector detection words; "
            "collapse='dominance' only preserves detection verdicts -- use "
            "method='atpg' (or 'auto') with dominance"
        )
    store = resolve_store(store)
    key = None
    if store is not None:
        fault_seq = default_fault_universe(netlist)
        key = CacheKey(
            kind="compact",
            netlist=digest_netlist(netlist),
            universe=digest_faults(fault_seq),
            space=digest_test_space(space),
            method=method,
            params=digest_params(
                seed=seed if method == "atpg" else None, collapse=mode
            ),
        )
        cached = store.get(key, faults=fault_seq)
        if cached is not None:
            return cached
    if method == "dictionary":
        dictionary = build_fault_dictionary(
            netlist, space, collapse=collapse, store=False
        )
        result = compact_from_dictionary(dictionary, space)
    elif method == "atpg":
        result = generate_tests(
            netlist, space, seed=seed, collapse=collapse, store=False
        ).compact
    else:
        raise SimulationError(
            f"unknown method {method!r}; choose from ('auto', 'dictionary', 'atpg')"
        )
    if store is not None:
        store.put(key, result)
    return result


def unit_test_set(
    unit: str,
    width: int,
    method: str = "auto",
    seed: int = TPG_SEED,
    store=None,
) -> CompactTestSet:
    """Compact test set of one :mod:`repro.arch` unit class."""
    return compact_test_set(
        unit_netlist(unit, width),
        unit_space(unit, width),
        method=method,
        seed=seed,
        store=store,
    )

