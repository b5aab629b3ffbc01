"""Differential suite over the execution-backend registry.

The library runs one backend, ``fused``; ``python_loop`` and
``reference`` are the oracles it must be *bit-identical* to on every
evaluation path: exhaustive campaigns under every collapse mode,
fault-group output matrices, detection words, coverage sweeps,
dictionary builds, compact test sets and incremental campaigns.  Whole-
stack cases select a backend through the ``use_backend`` fixture
(``tests/conftest.py``), with ``store=False``;
kernel-level cases construct the backends directly.  Tests enumerate
:func:`repro.gates.backends.list_backends` instead of hand-listing
oracles.
"""

import inspect
import multiprocessing
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.arch.cell import DEFAULT_CELL_NETLIST, collapsed_cell_library
from repro.coverage.engine import _Accumulator, _gate_case_counts, evaluate_operator
from repro.errors import SimulationError
from repro.faults.incremental import incremental_stuck_at_campaign
from repro.gates import builders
from repro.gates import engine as gate_engine
from repro.gates.backends import (
    DEFAULT_BACKEND,
    create_backend,
    list_backends,
    resolve_backend_name,
)
from repro.gates.backends import fused as fused_module
from repro.gates.backends.fused import FusedBackend
from repro.gates.backends.plan import OverridePlan
from repro.gates.cells import CellType
from repro.gates.compile import compile_netlist
from repro.gates.engine import (
    BitParallelEngine,
    engine_for,
    exhaustive_words,
    run_stuck_at_campaign,
)
from repro.gates.faults import default_fault_universe
from repro.gates.sparse import _site_level
from repro.tpg.dictionary import build_fault_dictionary
from repro.tpg.generate import unit_netlist, unit_space, unit_test_set
from repro.arch.testbench import table2_architecture

ALL_BACKENDS = list_backends()
#: The packed word-parallel backends (the interpreting oracle is
#: exercised separately on the smaller cases to keep runtime sane).
FAST_BACKENDS = tuple(n for n in ALL_BACKENDS if n != "reference")

UNITS = ("add", "sub", "mul", "div")


def _outputs(backend, words, groups):
    """Whole-netlist output matrix of ``groups`` plus the golden row."""
    plan = OverridePlan(backend.compiled, groups)
    return backend.run_outputs(words, plan, len(groups) + 1)


def _detect(backend, words, groups):
    """Whole-netlist detection words of ``groups``."""
    plan = OverridePlan(backend.compiled, groups)
    return backend.run_detect(words, plan, len(groups))


def _fused_and_loop(netlist):
    """Fresh ``fused`` and ``python_loop`` backends bound to ``netlist``."""
    compiled = compile_netlist(netlist)
    return create_backend("fused", compiled), create_backend("python_loop", compiled)


def _per_backend(use_backend, names, run):
    """``{name: run()}`` with the stack switched to each backend."""
    results = {}
    for name in names:
        use_backend(name)
        results[name] = run()
    return results


def _campaign_fields(result):
    return (
        result.faults,
        result.groups,
        result.detected.tobytes(),
        result.first_detected.tobytes(),
        result.n_vectors,
        result.n_simulated_runs,
    )


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
class TestRegistry:
    def test_core_backends_registered(self):
        assert "python_loop" in ALL_BACKENDS
        assert "fused" in ALL_BACKENDS
        assert "reference" in ALL_BACKENDS

    def test_default_resolution(self):
        assert DEFAULT_BACKEND == "fused"
        assert resolve_backend_name() == DEFAULT_BACKEND

    def test_unknown_backend_errors(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            resolve_backend_name("no_such_backend")

    def test_unavailable_backend_has_clear_error(self):
        # A tier that is not registered fails at selection with the
        # list of backends that can run, not at import or mid-campaign.
        with pytest.raises(SimulationError, match="available backends"):
            resolve_backend_name("numba")

    def test_engine_records_backend(self, use_backend):
        netlist = builders.full_adder()
        default = engine_for(netlist)
        assert default.backend.name == DEFAULT_BACKEND
        for name in ALL_BACKENDS:
            use_backend(name)
            engine = engine_for(netlist)
            assert engine.backend.name == name
            # One engine cache per name: switching never evicts another.
            assert engine_for(netlist) is engine
        use_backend(DEFAULT_BACKEND)
        assert engine_for(netlist) is default

    def test_explicit_backend_passes_through(self, use_backend):
        use_backend("reference")
        assert resolve_backend_name("python_loop") == "python_loop"
        compiled = compile_netlist(builders.full_adder())
        assert create_backend("python_loop", compiled).name == "python_loop"
        assert BitParallelEngine(compiled).backend.name == "reference"


@pytest.mark.parametrize(
    "name",
    ["auto", "threaded", "numba", "cupy"],
    ids=["backend=auto", "backend=threaded", "backend=numba", "backend=cupy"],
)
def test_unregistered_backend_rejected(name):
    # The former ``"auto"`` sentinel and the removed threaded/numba/cupy
    # tiers fail at selection, naming the selection and the backends
    # that are registered.
    compiled = compile_netlist(builders.full_adder())
    for resolve in (
        lambda: resolve_backend_name(name),
        lambda: create_backend(name, compiled),
    ):
        with pytest.raises(SimulationError) as info:
            resolve()
        message = str(info.value)
        assert repr(name) in message
        assert str(list(list_backends())) in message


# ----------------------------------------------------------------------
# Bit-identity: campaigns
# ----------------------------------------------------------------------
class TestCampaignEquivalence:
    @pytest.mark.parametrize("width", (3, 4))
    @pytest.mark.parametrize("unit", UNITS)
    def test_exhaustive_campaigns_bit_identical(self, unit, width, use_backend):
        netlist = unit_netlist(unit, width)
        results = _per_backend(
            use_backend, FAST_BACKENDS, lambda: run_stuck_at_campaign(netlist)
        )
        baseline = results["python_loop"]
        for name, result in results.items():
            assert np.array_equal(result.detected, baseline.detected), name
            assert np.array_equal(
                result.first_detected, baseline.first_detected
            ), name

    @pytest.mark.parametrize("unit", UNITS)
    def test_reference_backend_campaign(self, unit, use_backend):
        # The interpreting oracle, through the same campaign machinery.
        netlist = unit_netlist(unit, 3)
        results = _per_backend(
            use_backend, ("reference", "python_loop"),
            lambda: run_stuck_at_campaign(netlist),
        )
        got, want = results["reference"], results["python_loop"]
        assert np.array_equal(got.detected, want.detected)
        assert np.array_equal(got.first_detected, want.first_detected)

    def test_campaign_without_collapsing_or_dropping(self, use_backend):
        netlist = builders.ripple_carry_adder(3)
        results = _per_backend(
            use_backend, FAST_BACKENDS,
            lambda: run_stuck_at_campaign(
                netlist, collapse=False, fault_dropping=False
            ),
        )
        baseline = results["python_loop"]
        for name, result in results.items():
            assert np.array_equal(result.detected, baseline.detected), name
            assert np.array_equal(
                result.first_detected, baseline.first_detected
            ), name

    def test_big_fault_batches_bit_identical(self, monkeypatch, use_backend):
        # One batch carrying the whole universe exercises the fused
        # prefix walk's permutation on every site class at once.
        monkeypatch.setattr(gate_engine, "SWEEP_FAULT_CHUNK", 512)
        netlist = builders.ripple_carry_adder(8)
        results = _per_backend(
            use_backend, FAST_BACKENDS, lambda: run_stuck_at_campaign(netlist)
        )
        baseline = results["python_loop"]
        for name, result in results.items():
            assert np.array_equal(result.detected, baseline.detected), name
            assert np.array_equal(
                result.first_detected, baseline.first_detected
            ), name


# ----------------------------------------------------------------------
# Whole-stack parity: every consumer of the engine, on every backend
# ----------------------------------------------------------------------
class TestStackParity:
    """The campaign collapse modes, compact test sets and incremental
    campaigns equal the ``fused`` result on every oracle -- every field,
    work counters included."""

    @pytest.mark.parametrize("fault_dropping", (True, False), ids=("drop", "keep"))
    @pytest.mark.parametrize("collapse", ("none", "equivalence", "dominance"))
    @pytest.mark.parametrize("unit", ("mul", "div"))
    def test_campaign_modes(self, unit, collapse, fault_dropping, use_backend):
        netlist = unit_netlist(unit, 3)
        results = _per_backend(
            use_backend, ALL_BACKENDS,
            lambda: run_stuck_at_campaign(
                netlist, collapse=collapse, fault_dropping=fault_dropping
            ),
        )
        want = _campaign_fields(results["fused"])
        for name, result in results.items():
            assert _campaign_fields(result) == want, name

    @pytest.mark.parametrize("unit", UNITS)
    def test_unit_test_sets(self, unit, use_backend):
        results = _per_backend(
            use_backend, ALL_BACKENDS, lambda: unit_test_set(unit, 3, store=False)
        )
        want = results["fused"]
        for name, got in results.items():
            assert got.vectors.tobytes() == want.vectors.tobytes(), name
            assert np.array_equal(got.detected, want.detected), name
            assert got.marginal == want.marginal, name
            assert got.faults == want.faults, name

    def test_incremental_edit(self, use_backend):
        old = builders.ripple_carry_adder(3)
        new = old.copy()
        new.replace_gate("fa1_x2", cell_type=CellType.XNOR)

        def run():
            base = run_stuck_at_campaign(old)
            return incremental_stuck_at_campaign(old, new, base, store=False)

        results = _per_backend(use_backend, ALL_BACKENDS, run)
        want = results["fused"]
        assert not want.scratch and want.n_reused_classes > 0
        for name, got in results.items():
            assert _campaign_fields(got.result) == _campaign_fields(want.result), name
            assert got.reason == want.reason, name


# ----------------------------------------------------------------------
# Bit-identity: fault-group matrices (the Table 2 path)
# ----------------------------------------------------------------------
class TestFaultGroupEquivalence:
    @pytest.mark.parametrize("operator", UNITS)
    def test_table2_architecture_matrices(self, operator, use_backend):
        arch = table2_architecture(operator, 3, "xor3_majority")
        space = arch.space
        rows = space.input_rows(0, space.n_words)
        # A handful of multi-site fault groups spanning the replicas.
        from repro.arch.cell import collapsed_cell_library

        groups = []
        for group in collapsed_cell_library("xor3_majority"):
            if group.is_reference:
                continue
            groups.append(
                arch.fault_group(group.representative.fault.fault, arch.positions[0])
            )
            if len(groups) >= 6:
                break
        engines = _per_backend(
            use_backend, FAST_BACKENDS, lambda: engine_for(arch.netlist).backend
        )
        outs = {
            name: _outputs(eng, rows, groups) for name, eng in engines.items()
        }
        detects = {
            name: _detect(eng, rows, groups) for name, eng in engines.items()
        }
        base_out = outs["python_loop"]
        base_det = detects["python_loop"]
        for name in FAST_BACKENDS:
            assert np.array_equal(outs[name], base_out), name
            assert np.array_equal(detects[name], base_det), name

    def test_reference_backend_fault_groups(self):
        netlist = builders.ripple_carry_adder(3)
        compiled = compile_netlist(netlist)
        faults = default_fault_universe(netlist)
        groups = [faults[0], (faults[1], faults[7]), (faults[2], faults[9])]
        words = engine_for(netlist).exhaustive().words
        plan = OverridePlan(compiled, groups)
        want = create_backend("python_loop", compiled).run_outputs(
            words, plan, len(groups) + 1
        )
        got = create_backend("reference", compiled).run_outputs(
            words, plan, len(groups) + 1
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cell", ("xor3_majority", "two_xor"))
    @pytest.mark.parametrize("operator", UNITS)
    def test_gate_case_counts_across_backends(self, operator, cell, use_backend):
        # fused walks each batch's cone; python_loop and reference
        # evaluate the full matrix.  Two uneven case ranges give each
        # range its own cone schedule.
        arch = table2_architecture(operator, 3, cell)
        n_cases = len(collapsed_cell_library(cell)) * len(arch.positions)
        cut = n_cases // 3
        use_backend("python_loop")
        whole = _gate_case_counts(operator, 3, cell, 0, n_cases)
        for name in ALL_BACKENDS:
            use_backend(name)
            split = _gate_case_counts(
                operator, 3, cell, 0, cut
            ) + _gate_case_counts(operator, 3, cell, cut, n_cases)
            assert split == whole, name

    @pytest.mark.parametrize("width", (3, 4))
    def test_coverage_sweep_bit_identical(self, width, use_backend):
        baseline = None
        for name in FAST_BACKENDS:
            use_backend(name)
            stats = evaluate_operator(
                "add", width, method="gate", store=False
            )
            key = {
                tech: (s.situations, s.covered, s.detected_while_correct)
                for tech, s in stats.items()
            }
            if baseline is None:
                baseline = key
            else:
                assert key == baseline, name


# ----------------------------------------------------------------------
# Sharding invariance against an oracle backend
# ----------------------------------------------------------------------
class TestShardingInvariance:
    def test_sharded_gate_sweep_matches_unsharded(self, use_backend):
        # The evaluator sweeps one span on the default backend; three
        # spans on the oracle, folded the way the evaluator folds its
        # one span, give the same stats.
        lone = evaluate_operator("add", 4, method="gate", store=False)
        use_backend("python_loop")
        arch = table2_architecture("add", 4)
        n_cases = len(collapsed_cell_library()) * len(arch.positions)
        acc = _Accumulator(lone)
        for lo, hi in ((0, n_cases // 3), (n_cases // 3, n_cases - 1), (n_cases - 1, n_cases)):
            for repeat, count, n_correct, per in _gate_case_counts(
                "add", 4, DEFAULT_CELL_NETLIST, lo, hi
            ):
                acc.update_counts(count, n_correct, per, repeat=repeat)
        assert acc.stats("add", 4, "gate") == lone


# ----------------------------------------------------------------------
# Dictionaries
# ----------------------------------------------------------------------
class TestDictionaryBackendRecording:
    def test_dictionaries_bit_identical_across_backends(self, use_backend):
        netlist = unit_netlist("div", 3)
        space = unit_space("div", 3)
        words = _per_backend(
            use_backend, FAST_BACKENDS,
            lambda: build_fault_dictionary(netlist, space, store=False).words,
        )
        base = words["python_loop"]
        for name, got in words.items():
            assert np.array_equal(got, base), name


# ----------------------------------------------------------------------
# The exhaustive-set cache guard
# ----------------------------------------------------------------------
class TestExhaustiveCacheGuard:
    def test_small_sets_are_cached(self):
        engine = BitParallelEngine(compile_netlist(builders.full_adder()))
        first = engine.exhaustive()
        assert engine.exhaustive() is first

    def test_oversized_sets_are_not_cached(self, monkeypatch):
        netlist = builders.ripple_carry_adder(8)
        compiled = compile_netlist(netlist)
        packed = exhaustive_words(compiled.n_inputs)
        monkeypatch.setattr(gate_engine, "GATE_MATRIX_BUDGET_MAX", packed.words.nbytes - 1)
        # The golden run (every net over every word) misses the cap.
        assert compiled.n_nets * packed.n_words * 8 > gate_engine.GATE_MATRIX_BUDGET_MAX
        engine = BitParallelEngine(compiled)
        first = engine.exhaustive()
        second = engine.exhaustive()
        assert first is not second  # rebuilt, not pinned
        assert np.array_equal(first.words, second.words)

    def test_guard_preserves_results(self, monkeypatch):
        netlist = builders.ripple_carry_adder(4)
        want = run_stuck_at_campaign(netlist)
        monkeypatch.setattr(gate_engine, "GATE_MATRIX_BUDGET_MAX", 1)
        engine = BitParallelEngine(compile_netlist(netlist))
        got = engine.campaign()
        assert np.array_equal(got.detected, want.detected)
        assert np.array_equal(got.first_detected, want.first_detected)


# ----------------------------------------------------------------------
# Single-fault simulation across backends
# ----------------------------------------------------------------------
class TestSimulatorEquivalence:
    def test_per_fault_truth_tables(self, use_backend):
        netlist = builders.full_adder()
        faults = default_fault_universe(netlist)
        tables = _per_backend(
            use_backend, ALL_BACKENDS,
            lambda: engine_for(netlist).truth_tables(list(faults)),
        )
        base = tables["python_loop"]
        for name, got in tables.items():
            assert np.array_equal(got, base), name

    def test_backend_instances_run_words_agree(self):
        netlist = builders.ripple_carry_adder(3)
        compiled = compile_netlist(netlist)
        packed = engine_for(netlist).exhaustive()
        outs = {}
        for name in ALL_BACKENDS:
            backend = create_backend(name, compiled)
            outs[name] = np.array(backend.run_words(packed.words))
        base = outs["python_loop"]
        for name, got in outs.items():
            assert np.array_equal(got, base), name

    def test_inplace_word_mutation_invalidates_golden_cache(self):
        # The fused backend caches the golden run per words buffer; a
        # caller mutating its buffer in place must get fresh results.
        netlist = builders.ripple_carry_adder(4)
        faults = default_fault_universe(netlist)
        reps = list(faults[:8])
        packed = engine_for(netlist).exhaustive()
        words = packed.words.copy()
        fused, loop = _fused_and_loop(netlist)
        first = _detect(fused, words, reps)
        assert np.array_equal(first, _detect(loop, words, reps))
        words[:] = np.roll(words, 3, axis=1)
        assert np.array_equal(_detect(fused, words, reps), _detect(loop, words, reps))

    def test_slab_views_share_one_golden_run(self, monkeypatch):
        # Column-slab views of one vector block (how campaigns stream
        # their word slabs) share a single golden run of the block; an
        # in-place edit of the block between slabs invalidates it.
        netlist = builders.ripple_carry_adder(8)
        reps = list(default_fault_universe(netlist)[:20])
        words = engine_for(netlist).exhaustive().words.copy()
        fused, loop = _fused_and_loop(netlist)
        shapes = []
        run_words = fused.run_words

        def counting(block):
            shapes.append(block.shape)
            return run_words(block)

        monkeypatch.setattr(fused, "run_words", counting)
        for lo, hi in ((0, 512), (512, 1280), (1280, 2048)):
            slab = words[:, lo:hi]
            assert np.array_equal(_detect(fused, slab, reps), _detect(loop, slab, reps))
        assert shapes == [words.shape]
        words[:, 1280:] = np.roll(words[:, 1280:], 5, axis=1)
        slab = words[:, 1280:]
        assert np.array_equal(_detect(fused, slab, reps), _detect(loop, slab, reps))
        assert len(shapes) == 2

    def test_scattered_site_rows_stay_a_row_list(self):
        # A site overridden on non-adjacent rows keeps its row list;
        # adjacent rows collapse to a slice.  Both index every backend
        # identically, at every detect-call size.
        netlist = builders.ripple_carry_adder(8)
        compiled = compile_netlist(netlist)
        universe = default_fault_universe(netlist)
        by_site = {}
        for fault in universe:
            by_site.setdefault(fault.site, []).append(fault)
        pairs = [fs for fs in by_site.values() if len(fs) == 2][:12]
        # Row order: each site's two faults 12 rows apart.
        groups = [fs[0] for fs in pairs] + [fs[1] for fs in pairs]
        plan = OverridePlan(compiled, groups)
        entries = list(plan.stem.values()) + [
            e for pins in plan.branch_by_gate.values() for e in pins.values()
        ]
        assert all(isinstance(idx, list) for idx, _ in entries)
        adjacent = OverridePlan(compiled, [f for fs in pairs for f in fs])
        assert all(isinstance(idx, slice) for idx, _ in adjacent.stem.values())
        words = engine_for(netlist).exhaustive().words
        fused, loop = _fused_and_loop(netlist)
        for n_words in (4, 2048):
            part = words[:, :n_words]
            for faults in (groups, [f for fs in pairs for f in fs]):
                got = _detect(fused, part, faults)
                want = _detect(loop, part, faults)
                assert np.array_equal(got, want)

    def test_workspace_reuse_does_not_corrupt(self):
        # Back-to-back fused derived-kernel calls share the prefix-walk
        # workspace; a later call must not corrupt the caller-owned
        # results of an earlier one.
        netlist = builders.ripple_carry_adder(3)
        compiled = compile_netlist(netlist)
        fused = create_backend("fused", compiled)
        loop = create_backend("python_loop", compiled)
        words = engine_for(netlist).exhaustive().words
        faults = default_fault_universe(netlist)
        plan_a = OverridePlan(compiled, list(faults[:12]))
        plan_b = OverridePlan(compiled, list(faults[-12:]))
        outs_a = fused.run_outputs(words, plan_a, 12)
        det_a = fused.run_detect(words, plan_a, 12)
        kept = (outs_a.copy(), det_a.copy())
        det_b = fused.run_detect(words, plan_b, 12)
        outs_b = fused.run_outputs(words, plan_b, 12)
        assert np.array_equal(outs_a, kept[0])
        assert np.array_equal(det_a, kept[1])
        assert np.array_equal(fused.run_outputs(words, plan_a, 12), kept[0])
        assert np.array_equal(fused.run_detect(words, plan_a, 12), kept[1])
        assert np.array_equal(outs_a, loop.run_outputs(words, plan_a, 12))
        assert np.array_equal(det_b, loop.run_detect(words, plan_b, 12))
        assert np.array_equal(outs_b, loop.run_outputs(words, plan_b, 12))
        assert not np.array_equal(det_a, det_b)


def _holds_workspace():
    return hasattr(fused_module._WORKSPACE, "buf")


class TestFusedWorkspace:
    """One prefix-walk workspace per thread, shared by every fused
    backend the thread drives."""

    def test_live_workspace_bounded_across_netlists(self, monkeypatch):
        # Engines are cached per netlist, so a workspace per backend
        # would keep one buffer alive per netlist ever simulated: under
        # a 4 MiB cap, about 3.6 + 3.9 + 1.8 MiB for these three.  Fresh
        # netlists give fresh engines, so every buffer they keep is
        # allocated under tracing.
        cap = 4 << 20
        monkeypatch.setattr(gate_engine, "GATE_MATRIX_BUDGET_MAX", cap)
        monkeypatch.setattr(fused_module, "GATE_MATRIX_BUDGET_MAX", cap)
        lines, start = inspect.getsourcelines(FusedBackend._workspace)
        body = range(start, start + len(lines))
        tracemalloc.start()
        try:
            for netlist in (
                builders.truncated_array_multiplier(6),
                builders.restoring_divider(5),
                builders.ripple_carry_adder(8),
            ):
                run_stuck_at_campaign(netlist)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        live = sum(
            trace.size
            for trace in snapshot.traces
            if trace.traceback[0].filename == fused_module.__file__
            and trace.traceback[0].lineno in body
        )
        assert live <= cap

    def test_forked_worker_starts_without_a_workspace(self):
        compiled = compile_netlist(builders.ripple_carry_adder(3))
        faults = list(default_fault_universe(compiled.source))
        words = exhaustive_words(compiled.n_inputs).words
        FusedBackend(compiled).run_detect(
            words, OverridePlan(compiled, faults), len(faults)
        )
        assert _holds_workspace()
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            assert pool.submit(_holds_workspace).result(timeout=60) is False

    def test_interleaved_backends_match_fresh_runs(self):
        # Two fused backends on different netlists take turns on the
        # shared workspace; every result, including ones taken before
        # the other backend's calls, equals an oracle run.
        cases = []
        for netlist in (builders.ripple_carry_adder(4), unit_netlist("mul", 4)):
            compiled = compile_netlist(netlist)
            faults = list(default_fault_universe(netlist)[:40])
            cases.append((
                FusedBackend(compiled),
                create_backend("python_loop", compiled),
                exhaustive_words(compiled.n_inputs).words,
                OverridePlan(compiled, faults),
                len(faults),
            ))
        got = []
        for kernel in ("run_detect", "run_outputs", "run_detect"):
            for fused, _, words, plan, n in cases:
                got.append(getattr(fused, kernel)(words, plan, n))
        want = [
            getattr(loop, kernel)(words, plan, n)
            for kernel in ("run_detect", "run_outputs", "run_detect")
            for _, loop, words, plan, n in cases
        ]
        for result, expected in zip(got, want):
            assert np.array_equal(result, expected)


def _pi_stem_faults(netlist, faults):
    inputs = set(netlist.primary_inputs)
    return [f for f in faults if f.site.is_stem and f.site.net in inputs]


def _small_call_case(case):
    """``(netlist, fault groups)`` for one small prefix-walk call shape."""
    if case == "sub_word_universe":
        # 3 inputs: 8 real vectors, lanes 8..63 of the one word phantom.
        netlist = builders.full_adder()
        return netlist, list(default_fault_universe(netlist))
    netlist = builders.ripple_carry_adder(4)
    faults = default_fault_universe(netlist)
    if case == "primary_input_stems":
        return netlist, _pi_stem_faults(netlist, faults)
    if case == "rows_out_of_level_order":
        return netlist, list(faults)[::-1]
    assert case == "two_pins_one_row"
    # A row stuck on both pins of the deepest gate with two branch
    # sites, behind 20 shallow primary-input stem rows.
    branch = {f.site.branch: f for f in faults if f.site.branch and f.value}
    gate = next(
        g.name
        for g in reversed(netlist.topological_gates())
        if (g.name, 0) in branch and (g.name, 1) in branch
    )
    pin0, pin1 = branch[(gate, 0)], branch[(gate, 1)]
    return netlist, _pi_stem_faults(netlist, faults)[:20] + [(pin0, pin1)]


class TestSmallCallDifferential:
    """Fused prefix walks on tiny calls (under 8192 row x word cells)
    agree with the interpreting oracle on every derived kernel, across
    the walk's special cases."""

    @pytest.mark.parametrize(
        "case",
        (
            "sub_word_universe",
            "primary_input_stems",
            "rows_out_of_level_order",
            "two_pins_one_row",
        ),
    )
    def test_fused_matches_reference(self, case):
        netlist, groups = _small_call_case(case)
        compiled = compile_netlist(netlist)
        words = engine_for(netlist).exhaustive().words
        plan = OverridePlan(compiled, groups)
        n = len(groups)
        assert n * words.shape[1] < 1 << 13
        if case == "sub_word_universe":
            assert 1 << compiled.n_inputs < 64
        elif case == "primary_input_stems":
            assert not any(compiled.net_levels[nid] for nid in plan.stem)
        elif case == "rows_out_of_level_order":
            levels = [_site_level(compiled, fault)[0] for fault in groups]
            assert any(b < a for a, b in zip(levels, levels[1:]))
        else:
            (pins,) = plan.branch_by_gate.values()
            assert [idx for idx, _ in pins.values()] == [slice(n - 1, n)] * 2
        fused = create_backend("fused", compiled)
        oracle = create_backend("reference", compiled)
        detect = fused.run_detect(words, plan, n)
        assert np.array_equal(detect, oracle.run_detect(words, plan, n))
        assert detect.any()
        assert np.array_equal(
            fused.run_outputs(words, plan, n), oracle.run_outputs(words, plan, n)
        )


# ----------------------------------------------------------------------
# Differential cache: cold vs warm store runs across the registry
# ----------------------------------------------------------------------
class TestStoreDifferential:
    """The result store must be invisible in the numbers: a warm run
    (every artifact served from the store) returns results bit-identical
    to the cold run that populated it, and to a store-free run, for all
    four units -- whose gate sweeps simulate the Table 2 test
    architectures -- on every available backend."""

    WIDTHS = (3, 4)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_cold_vs_warm_bit_identical(self, tmp_path, backend, use_backend):
        from repro.store import ResultStore

        use_backend(backend)
        store = ResultStore(tmp_path)
        cold = {
            (unit, width): evaluate_operator(unit, width, store=store)
            for unit in UNITS
            for width in self.WIDTHS
        }
        after_cold = store.stats.snapshot()
        assert after_cold["puts"] > 0

        warm = {
            (unit, width): evaluate_operator(unit, width, store=store)
            for unit in UNITS
            for width in self.WIDTHS
        }
        after_warm = store.stats.snapshot()
        # The second run is all hits: no new puts, no new misses.
        assert after_warm["puts"] == after_cold["puts"]
        assert after_warm["misses"] == after_cold["misses"]
        assert after_warm["hits"] > after_cold["hits"]
        assert warm == cold

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_warm_matches_store_free_run(self, tmp_path, backend, use_backend):
        from repro.store import ResultStore

        use_backend(backend)
        store = ResultStore(tmp_path)
        for unit in UNITS:
            plain = evaluate_operator(unit, 3, store=False)
            evaluate_operator(unit, 3, store=store)
            warm = evaluate_operator(unit, 3, store=store)
            assert warm == plain

    def test_warm_dictionary_round_trip_via_store(self, tmp_path):
        from repro.store import ResultStore

        arch = table2_architecture("add", 3)
        netlist, space = arch.netlist, arch.space
        store = ResultStore(tmp_path)
        cold = build_fault_dictionary(netlist, space=space, store=store)
        store.clear_lru()  # force the warm run through the filesystem
        warm = build_fault_dictionary(netlist, space=space, store=store)
        assert warm.words.tobytes() == cold.words.tobytes()
        assert warm.faults == cold.faults
        assert warm.groups == cold.groups
