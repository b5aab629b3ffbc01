"""Differential suite over the execution-backend registry.

Every registered backend must be *bit-identical* on every evaluation
path: exhaustive campaigns, fault-group output matrices, detection
words, coverage sweeps and dictionary builds.  Tests enumerate
:func:`repro.gates.backends.list_backends` instead of hand-listing
oracles, so a newly registered backend is differentially tested for
free.
"""

import numpy as np
import pytest

from repro.arch.cell import collapsed_cell_library
from repro.coverage.engine import _gate_case_counts, evaluate_operator
from repro.errors import SimulationError
from repro.gates import builders
from repro.gates import engine as gate_engine
from repro.gates.backends import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    create_backend,
    list_backends,
    resolve_backend_name,
)
from repro.gates.backends.plan import OverridePlan
from repro.gates.compile import compile_netlist
from repro.gates.engine import (
    BitParallelEngine,
    engine_for,
    exhaustive_words,
    run_stuck_at_campaign,
)
from repro.gates.faults import default_fault_universe
from repro.faults.injector import run_sharded_stuck_at_campaign
from repro.tpg.dictionary import FaultDictionary, build_fault_dictionary
from repro.tpg.generate import unit_netlist, unit_space
from repro.arch.testbench import table2_architecture

ALL_BACKENDS = list_backends()
#: The packed word-parallel backends (the interpreting oracle is
#: exercised separately on the smaller cases to keep runtime sane).
FAST_BACKENDS = tuple(n for n in ALL_BACKENDS if n != "reference")

UNITS = ("add", "sub", "mul", "div")


def _unit_netlists(width):
    return [unit_netlist(unit, width) for unit in UNITS]


def _outputs(engine, words, groups):
    """Whole-netlist output matrix of ``groups`` plus the golden row."""
    plan = OverridePlan(engine.compiled, groups)
    return engine.backend.run_outputs(words, plan, len(groups) + 1)


def _detect(engine, words, groups):
    """Whole-netlist detection words of ``groups``."""
    plan = OverridePlan(engine.compiled, groups)
    return engine.backend.run_detect(words, plan, len(groups))


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
class TestRegistry:
    def test_core_backends_registered(self):
        assert "python_loop" in ALL_BACKENDS
        assert "fused" in ALL_BACKENDS
        assert "reference" in ALL_BACKENDS

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend_name() == DEFAULT_BACKEND

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python_loop")
        assert resolve_backend_name() == "python_loop"

    def test_keyword_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python_loop")
        assert resolve_backend_name("fused") == "fused"

    def test_unknown_backend_errors(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            resolve_backend_name("no_such_backend")

    def test_unknown_env_backend_errors(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "no_such_backend")
        with pytest.raises(SimulationError, match=BACKEND_ENV):
            resolve_backend_name()

    def test_unavailable_backend_has_clear_error(self):
        # A tier that is not registered fails at selection with the
        # list of backends that can run, not at import or mid-campaign.
        with pytest.raises(SimulationError, match="available backends"):
            resolve_backend_name("numba")

    def test_engine_records_backend(self):
        netlist = builders.full_adder()
        for name in ALL_BACKENDS:
            assert engine_for(netlist, name).backend_name == name

    def test_env_switches_engine_default(self, monkeypatch):
        netlist = builders.full_adder()
        monkeypatch.setenv(BACKEND_ENV, "python_loop")
        assert engine_for(netlist).backend_name == "python_loop"

    def test_explicit_backend_passes_through(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fused")
        engine = engine_for(builders.full_adder(), "python_loop")
        assert engine.backend_name == "python_loop"
        assert engine.backend.name == "python_loop"


@pytest.mark.parametrize(
    "source, name",
    [
        ("backend=", "auto"),
        ("backend=", "threaded"),
        ("backend=", "numba"),
        ("backend=", "cupy"),
        (f"{BACKEND_ENV}=", "threaded"),
    ],
    ids=[
        "backend=auto",
        "backend=threaded",
        "backend=numba",
        "backend=cupy",
        f"{BACKEND_ENV}=threaded",
    ],
)
def test_unregistered_backend_rejected(source, name, monkeypatch):
    # The former ``"auto"`` sentinel and the removed threaded/numba/cupy
    # tiers fail at selection, naming the selection's source and the
    # backends that are registered.
    if source == "backend=":
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        selection = name
    else:
        monkeypatch.setenv(BACKEND_ENV, name)
        selection = None
    for resolve in (
        lambda: resolve_backend_name(selection),
        lambda: engine_for(builders.full_adder(), selection),
    ):
        with pytest.raises(SimulationError) as info:
            resolve()
        message = str(info.value)
        assert f"{source}{name!r}" in message
        assert str(list(list_backends())) in message


# ----------------------------------------------------------------------
# Bit-identity: campaigns
# ----------------------------------------------------------------------
class TestCampaignEquivalence:
    @pytest.mark.parametrize("width", (3, 4))
    @pytest.mark.parametrize("unit", UNITS)
    def test_exhaustive_campaigns_bit_identical(self, unit, width):
        netlist = unit_netlist(unit, width)
        results = {
            name: run_stuck_at_campaign(netlist, backend=name)
            for name in FAST_BACKENDS
        }
        baseline = results["python_loop"]
        for name, result in results.items():
            assert np.array_equal(result.detected, baseline.detected), name
            assert np.array_equal(
                result.first_detected, baseline.first_detected
            ), name

    @pytest.mark.parametrize("unit", UNITS)
    def test_reference_backend_campaign(self, unit):
        # The interpreting oracle, through the same campaign machinery.
        netlist = unit_netlist(unit, 3)
        got = run_stuck_at_campaign(netlist, backend="reference")
        want = run_stuck_at_campaign(netlist, backend="python_loop")
        assert np.array_equal(got.detected, want.detected)
        assert np.array_equal(got.first_detected, want.first_detected)

    def test_campaign_without_collapsing_or_dropping(self):
        netlist = builders.ripple_carry_adder(3)
        for name in FAST_BACKENDS:
            result = run_stuck_at_campaign(
                netlist, backend=name, collapse=False, fault_dropping=False
            )
            baseline = run_stuck_at_campaign(
                netlist, backend="python_loop", collapse=False, fault_dropping=False
            )
            assert np.array_equal(result.detected, baseline.detected), name
            assert np.array_equal(
                result.first_detected, baseline.first_detected
            ), name

    def test_big_fault_batches_bit_identical(self, monkeypatch):
        # One batch carrying the whole universe exercises the fused
        # prefix walk's permutation on every site class at once.
        monkeypatch.setattr(gate_engine, "SWEEP_FAULT_CHUNK", 512)
        netlist = builders.ripple_carry_adder(8)
        baseline = run_stuck_at_campaign(netlist, backend="python_loop")
        for name in FAST_BACKENDS:
            result = run_stuck_at_campaign(netlist, backend=name)
            assert np.array_equal(result.detected, baseline.detected), name
            assert np.array_equal(
                result.first_detected, baseline.first_detected
            ), name


# ----------------------------------------------------------------------
# Bit-identity: fault-group matrices (the Table 2 path)
# ----------------------------------------------------------------------
class TestFaultGroupEquivalence:
    @pytest.mark.parametrize("operator", UNITS)
    def test_table2_architecture_matrices(self, operator):
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
        engines = {
            name: engine_for(arch.netlist, name) for name in FAST_BACKENDS
        }
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
        faults = default_fault_universe(netlist)
        groups = [faults[0], (faults[1], faults[7]), (faults[2], faults[9])]
        packed = engine_for(netlist).exhaustive()
        want = _outputs(engine_for(netlist, "python_loop"), packed.words, groups)
        got = _outputs(engine_for(netlist, "reference"), packed.words, groups)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cell", ("xor3_majority", "two_xor"))
    @pytest.mark.parametrize("operator", UNITS)
    def test_gate_case_counts_across_backends(self, operator, cell):
        # fused walks each batch's cone; python_loop and reference
        # evaluate the full matrix.  Two uneven case ranges give each
        # range its own cone schedule.
        arch = table2_architecture(operator, 3, cell)
        n_cases = len(collapsed_cell_library(cell)) * len(arch.positions)
        cut = n_cases // 3
        whole = _gate_case_counts(operator, 3, cell, "python_loop", 0, n_cases)
        for name in ALL_BACKENDS:
            split = _gate_case_counts(
                operator, 3, cell, name, 0, cut
            ) + _gate_case_counts(operator, 3, cell, name, cut, n_cases)
            assert split == whole, name

    @pytest.mark.parametrize("width", (3, 4))
    def test_coverage_sweep_bit_identical(self, width):
        baseline = None
        for name in FAST_BACKENDS:
            stats = evaluate_operator(
                "add", width, method="gate", workers=1, backend=name
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
# Sharding invariance under a non-default backend
# ----------------------------------------------------------------------
class TestShardingInvariance:
    def test_sharded_gate_sweep_matches_unsharded(self):
        non_default = next(
            n for n in FAST_BACKENDS if n != resolve_backend_name()
        )
        lone = evaluate_operator(
            "add", 4, method="gate", workers=1, backend=non_default, store=False
        )
        sharded = evaluate_operator(
            "add", 4, method="gate", workers=3, backend=non_default, store=False
        )
        assert lone == sharded


# ----------------------------------------------------------------------
# Dictionary provenance
# ----------------------------------------------------------------------
class TestDictionaryBackendRecording:
    def test_builder_backend_recorded_and_persisted(self, tmp_path):
        netlist = unit_netlist("add", 3)
        dictionary = build_fault_dictionary(
            netlist, unit_space("add", 3), backend="python_loop"
        )
        assert dictionary.backend == "python_loop"
        path = tmp_path / "add3.npz"
        dictionary.save(path)
        loaded = FaultDictionary.load(path)
        assert loaded.backend == "python_loop"
        assert np.array_equal(loaded.words, dictionary.words)

    def test_dictionaries_bit_identical_across_backends(self):
        netlist = unit_netlist("div", 3)
        space = unit_space("div", 3)
        words = {
            name: build_fault_dictionary(netlist, space, backend=name).words
            for name in FAST_BACKENDS
        }
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
    def test_per_fault_truth_tables(self):
        netlist = builders.full_adder()
        faults = default_fault_universe(netlist)
        tables = {}
        for name in ALL_BACKENDS:
            engine = engine_for(netlist, name)
            tables[name] = engine.truth_tables(list(faults))
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
        fused = engine_for(netlist, "fused")
        loop = engine_for(netlist, "python_loop")
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
        fused = engine_for(netlist, "fused")
        loop = engine_for(netlist, "python_loop")
        shapes = []
        run_words = fused.backend.run_words

        def counting(block):
            shapes.append(block.shape)
            return run_words(block)

        monkeypatch.setattr(fused.backend, "run_words", counting)
        fused.backend._golden_cache = None
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
        for n_words in (4, 2048):
            part = words[:, :n_words]
            for faults in (groups, [f for fs in pairs for f in fs]):
                got = _detect(engine_for(netlist, "fused"), part, faults)
                want = _detect(engine_for(netlist, "python_loop"), part, faults)
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
    # sites, behind enough shallow rows that the walk fixes it up
    # sparsely.
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
        levels = plan.row_levels
        if case == "sub_word_universe":
            assert 1 << compiled.n_inputs < 64
        elif case == "primary_input_stems":
            assert not any(compiled.net_levels[nid] for nid in plan.stem)
        elif case == "rows_out_of_level_order":
            assert (levels[1:] < levels[:-1]).any()
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
    def test_cold_vs_warm_bit_identical(self, tmp_path, backend):
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        cold = {
            (unit, width): evaluate_operator(
                unit, width, workers=1, backend=backend, store=store
            )
            for unit in UNITS
            for width in self.WIDTHS
        }
        after_cold = store.stats.snapshot()
        assert after_cold["puts"] > 0

        warm = {
            (unit, width): evaluate_operator(
                unit, width, workers=1, backend=backend, store=store
            )
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
    def test_warm_matches_store_free_run(self, tmp_path, backend):
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        for unit in UNITS:
            plain = evaluate_operator(
                unit, 3, workers=1, backend=backend, store=False
            )
            evaluate_operator(unit, 3, workers=1, backend=backend, store=store)
            warm = evaluate_operator(unit, 3, workers=1, backend=backend, store=store)
            assert warm == plain

    def test_backends_do_not_share_cache_entries(self, tmp_path):
        from repro.store import ResultStore

        first, second = FAST_BACKENDS[:2]
        store = ResultStore(tmp_path)
        a = run_sharded_stuck_at_campaign(
            builders.ripple_carry_adder(3), backend=first, store=store
        )
        puts = store.stats.puts
        # A different backend must key -- and compute -- its own entry.
        b = run_sharded_stuck_at_campaign(
            builders.ripple_carry_adder(3), backend=second, store=store
        )
        assert store.stats.puts > puts
        assert np.array_equal(np.asarray(a.detected), np.asarray(b.detected))

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
