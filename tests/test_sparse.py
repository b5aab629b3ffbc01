"""The cone-sparse execution tier: schedules, kernels, campaigns.

Three layers of bit-identity, differentially against the dense paths:

* structural -- gate cones match brute-force reachability, and every
  sparse schedule covers each member fault's full cone with an
  ascending (topological) gate list;
* kernel -- ``run_detect_sparse`` equals ``run_detect`` element-wise on
  every registered backend, for every batch of a real schedule;
* campaign -- ``sparse=True`` campaigns equal dense campaigns in every
  verdict field (``n_simulated_runs`` is a work counter and is the one
  field allowed to differ), across backends, collapse modes, the four
  paper units and the Table 2 test architectures.

Plus the decision layer: :func:`repro.gates.tune.resolve_sparse`
precedence (keyword > ``REPRO_SPARSE`` env > cone-density heuristic)
and the skip/early-exit observability counters.
"""

import numpy as np
import pytest

from repro.analysis.cones import analyze_cones, analyze_gate_cones
from repro.arch.testbench import table2_architecture
from repro.errors import SimulationError
from repro.gates import builders
from repro.gates.backends import create_backend, list_backends
from repro.gates.backends.plan import OverridePlan
from repro.gates.compile import compile_netlist
from repro.gates.engine import exhaustive_words, run_stuck_at_campaign
from repro.gates.faults import default_fault_universe
from repro.gates.sparse import build_schedule, fault_cone_mask
from repro.gates.tune import (
    SPARSE_DENSITY_MAX,
    SPARSE_ENV,
    SPARSE_MIN_WORDS,
    backend_supports_sparse,
    resolve_sparse,
)
from repro.obs import registry
from repro.tpg.dictionary import build_fault_dictionary
from repro.tpg.generate import unit_netlist, unit_test_set

ALL_BACKENDS = list_backends()
FAST_BACKENDS = tuple(n for n in ALL_BACKENDS if n != "reference")
UNITS = ("add", "sub", "mul", "div")


def _assert_same_verdicts(dense, sparse):
    """Every campaign field except the n_simulated_runs work counter."""
    assert dense.netlist_name == sparse.netlist_name
    assert dense.faults == sparse.faults
    assert np.array_equal(dense.detected, sparse.detected)
    assert np.array_equal(dense.first_detected, sparse.first_detected)
    assert dense.n_vectors == sparse.n_vectors
    assert dense.groups == sparse.groups


# ----------------------------------------------------------------------
# Gate-cone analysis
# ----------------------------------------------------------------------
def _brute_cone(netlist, start_net):
    """Gate names transitively reading ``start_net``, by graph walk."""
    reach = set()
    frontier = [start_net]
    while frontier:
        net = frontier.pop()
        for reader, _pin in netlist.fanout(net):
            if reader.name not in reach:
                reach.add(reader.name)
                frontier.append(reader.output)
    return reach


class TestGateCones:
    @pytest.mark.parametrize(
        "make",
        [
            builders.full_adder,
            lambda: builders.ripple_carry_adder(4),
            lambda: builders.carry_lookahead_adder(3),
        ],
    )
    def test_gate_cones_match_brute_force(self, make):
        netlist = make()
        cones = analyze_gate_cones(netlist)
        for gate in netlist.gates:
            assert set(cones.cone_of(gate.name)) == _brute_cone(
                netlist, gate.output
            )

    def test_net_cones_include_readers(self):
        netlist = builders.ripple_carry_adder(3)
        cones = analyze_gate_cones(netlist)
        for net in netlist.nets:
            readers = {g.name for g, _pin in netlist.fanout(net)}
            cone = set(cones.net_cone(net))
            assert readers <= cone
            assert cone == readers | _brute_cone(netlist, net)

    def test_ranking_and_density(self):
        netlist = builders.ripple_carry_adder(4)
        cones = analyze_gate_cones(netlist)
        ranked = cones.ranking()
        assert len(ranked) == cones.n_gates
        sizes = [
            int(cones.gate_cone_sizes[list(cones.gate_names).index(n)])
            for n in ranked
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert 0.0 < cones.mean_cone_fraction < 1.0

    def test_store_roundtrip(self, tmp_path):
        from repro.store import ResultStore

        netlist = builders.ripple_carry_adder(3)
        store = ResultStore(str(tmp_path))
        first = analyze_gate_cones(netlist, store=store)
        # The in-process memo is identity-keyed; a structural copy misses
        # it, so the second call must come back through the store.
        second = analyze_gate_cones(netlist.copy(), store=store)
        assert np.array_equal(first.gate_masks, second.gate_masks)
        assert np.array_equal(first.net_cone_masks, second.net_cone_masks)
        assert first.mean_cone_fraction == second.mean_cone_fraction


# ----------------------------------------------------------------------
# Schedule invariants
# ----------------------------------------------------------------------
class TestSchedule:
    @pytest.mark.parametrize("fault_chunk", [4, 16, 1000])
    def test_covers_every_cone_ascending(self, fault_chunk):
        netlist = unit_netlist("add", 4)
        compiled = compile_netlist(netlist)
        gate_cones = analyze_gate_cones(netlist)
        cones = analyze_cones(netlist)
        universe = default_fault_universe(netlist)
        sched = build_schedule(
            compiled, list(universe), fault_chunk, gate_cones, cones
        )
        assert sched.n_groups == len(universe)
        assert sched.n_gates == compiled.n_gates
        seen = set()
        for batch in sched.batches:
            assert len(batch.members) <= fault_chunk
            gates = batch.gates
            assert np.all(np.diff(gates) > 0)  # ascending == topological
            gate_set = {int(g) for g in gates}
            for m in batch.members:
                assert m not in seen
                seen.add(m)
                mask = fault_cone_mask(compiled, gate_cones, universe[m])
                bits = np.unpackbits(mask.view(np.uint8), bitorder="little")
                member_cone = {
                    int(i)
                    for i in np.nonzero(bits)[0]
                    if i < compiled.n_gates
                }
                assert member_cone <= gate_set
        assert seen == set(range(len(universe)))

    def test_out_ids_are_reachable_outputs(self):
        netlist = unit_netlist("add", 3)
        compiled = compile_netlist(netlist)
        gate_cones = analyze_gate_cones(netlist)
        cones = analyze_cones(netlist)
        universe = default_fault_universe(netlist)
        sched = build_schedule(compiled, list(universe), 8, gate_cones, cones)
        all_outputs = {int(i) for i in compiled.output_ids}
        for batch in sched.batches:
            assert set(batch.out_ids) <= all_outputs
        # Without reach restriction every batch reduces over all outputs.
        full = build_schedule(compiled, list(universe), 8, gate_cones, None)
        for batch in full.batches:
            assert set(batch.out_ids) == all_outputs

    def test_density_matches_analysis_scale(self):
        netlist = builders.ripple_carry_adder(4)
        compiled = compile_netlist(netlist)
        gate_cones = analyze_gate_cones(netlist)
        universe = default_fault_universe(netlist)
        sched = build_schedule(compiled, list(universe), 16, gate_cones, None)
        assert 0.0 < sched.cone_density < 1.0


# ----------------------------------------------------------------------
# Kernel-level bit-identity across the registry
# ----------------------------------------------------------------------
class TestKernelDifferential:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("unit", UNITS)
    def test_run_detect_sparse_equals_dense(self, backend, unit):
        netlist = unit_netlist(unit, 3)
        compiled = compile_netlist(netlist)
        impl = create_backend(backend, compiled)
        packed = exhaustive_words(compiled.n_inputs)
        universe = default_fault_universe(netlist)
        gate_cones = analyze_gate_cones(netlist)
        cones = analyze_cones(netlist)
        sched = build_schedule(compiled, list(universe), 16, gate_cones, cones)
        for batch in sched.batches:
            faults = [universe[m] for m in batch.members]
            plan = OverridePlan(compiled, faults)
            dense = impl.run_detect(packed.words, plan, len(faults))
            sparse = impl.run_detect_sparse(
                packed.words, plan, len(faults), batch.gates, batch.out_ids
            )
            assert np.array_equal(dense, sparse)

    def test_base_fallback_on_unsupported_backend(self):
        # python_loop has no sparse kernels: the base-class default must
        # still accept a schedule and produce dense-identical words.
        assert not backend_supports_sparse("python_loop")
        netlist = builders.full_adder()
        compiled = compile_netlist(netlist)
        impl = create_backend("python_loop", compiled)
        packed = exhaustive_words(compiled.n_inputs)
        universe = default_fault_universe(netlist)
        gate_cones = analyze_gate_cones(netlist)
        sched = build_schedule(compiled, list(universe), 8, gate_cones, None)
        batch = sched.batches[0]
        faults = [universe[m] for m in batch.members]
        plan = OverridePlan(compiled, faults)
        assert np.array_equal(
            impl.run_detect(packed.words, plan, len(faults)),
            impl.run_detect_sparse(
                packed.words, plan, len(faults), batch.gates, batch.out_ids
            ),
        )


# ----------------------------------------------------------------------
# Campaign-level bit-identity
# ----------------------------------------------------------------------
class TestCampaignEquivalence:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("unit", UNITS)
    def test_unit_campaigns(self, backend, unit):
        netlist = unit_netlist(unit, 3)
        dense = run_stuck_at_campaign(netlist, backend=backend, sparse=False)
        sparse = run_stuck_at_campaign(netlist, backend=backend, sparse=True)
        _assert_same_verdicts(dense, sparse)

    @pytest.mark.parametrize("unit", ("add", "sub"))
    def test_unit_campaigns_width4(self, unit):
        netlist = unit_netlist(unit, 4)
        _assert_same_verdicts(
            run_stuck_at_campaign(netlist, sparse=False),
            run_stuck_at_campaign(netlist, sparse=True),
        )

    @pytest.mark.parametrize("collapse", ["equivalence", "none", "dominance"])
    def test_collapse_modes(self, collapse):
        netlist = builders.ripple_carry_adder(4)
        _assert_same_verdicts(
            run_stuck_at_campaign(netlist, collapse=collapse, sparse=False),
            run_stuck_at_campaign(netlist, collapse=collapse, sparse=True),
        )

    def test_no_fault_dropping(self):
        netlist = builders.carry_lookahead_adder(3)
        _assert_same_verdicts(
            run_stuck_at_campaign(netlist, fault_dropping=False, sparse=False),
            run_stuck_at_campaign(netlist, fault_dropping=False, sparse=True),
        )

    @pytest.mark.parametrize("operator", UNITS)
    def test_table2_architectures(self, operator):
        arch = table2_architecture(operator, 3)
        _assert_same_verdicts(
            run_stuck_at_campaign(arch.netlist, sparse=False),
            run_stuck_at_campaign(arch.netlist, sparse=True),
        )

    def test_odd_chunk_geometry(self):
        netlist = builders.ripple_carry_adder(5)
        for word_chunk, fault_chunk in ((1, 3), (2, 7), (512, 1)):
            _assert_same_verdicts(
                run_stuck_at_campaign(
                    netlist,
                    word_chunk=word_chunk,
                    fault_chunk=fault_chunk,
                    sparse=False,
                ),
                run_stuck_at_campaign(
                    netlist,
                    word_chunk=word_chunk,
                    fault_chunk=fault_chunk,
                    sparse=True,
                ),
            )

    def test_partial_vector_set(self):
        netlist = builders.ripple_carry_adder(4)
        rng = np.random.default_rng(11)
        inputs = {
            name: rng.integers(0, 2, 97, dtype=np.uint8)
            for name in netlist.primary_inputs
        }
        _assert_same_verdicts(
            run_stuck_at_campaign(netlist, inputs=inputs, sparse=False),
            run_stuck_at_campaign(netlist, inputs=inputs, sparse=True),
        )


class TestSparseEnvForcing:
    """REPRO_SPARSE=1 must be a safe global lever on every build path."""

    def test_dictionary_bit_identical(self, monkeypatch):
        netlist = unit_netlist("add", 3)
        monkeypatch.delenv(SPARSE_ENV, raising=False)
        base = build_fault_dictionary(netlist)
        monkeypatch.setenv(SPARSE_ENV, "1")
        forced = build_fault_dictionary(netlist)
        assert base.faults == forced.faults
        assert np.array_equal(base.words, forced.words)
        assert base.groups == forced.groups

    def test_compact_test_set_identical(self, monkeypatch):
        monkeypatch.delenv(SPARSE_ENV, raising=False)
        base = unit_test_set("add", 3)
        monkeypatch.setenv(SPARSE_ENV, "1")
        forced = unit_test_set("add", 3)
        assert len(base.vectors) == len(forced.vectors)
        for left, right in zip(base.vectors, forced.vectors):
            assert np.array_equal(left, right)
        assert np.array_equal(base.detected, forced.detected)


# ----------------------------------------------------------------------
# The sparse/dense decision
# ----------------------------------------------------------------------
class TestResolveSparse:
    def test_backend_support_flags(self):
        assert backend_supports_sparse("fused")
        assert not backend_supports_sparse("threaded")  # not registered
        assert not backend_supports_sparse("python_loop")
        assert not backend_supports_sparse("reference")

    def test_heuristic_prefers_sparse_on_low_density(self, monkeypatch):
        monkeypatch.delenv(SPARSE_ENV, raising=False)
        netlist = builders.ripple_carry_adder(8)
        plan = resolve_sparse(netlist, "fused")
        assert plan.sparse
        assert plan.source == "sparse-model"
        assert plan.cone_density is not None
        assert plan.cone_density <= SPARSE_DENSITY_MAX
        assert "cone fraction" in plan.reason

    def test_heuristic_dense_on_small_vector_space(self, monkeypatch):
        # RCA-4 has 9 inputs -> 8 words: the slab early exit has no
        # word-dimension room, so the model must stay dense.
        monkeypatch.delenv(SPARSE_ENV, raising=False)
        plan = resolve_sparse(builders.ripple_carry_adder(4), "fused")
        assert not plan.sparse
        assert plan.source == "sparse-model"
        assert f"< {SPARSE_MIN_WORDS}" in plan.reason
        big = resolve_sparse(
            builders.ripple_carry_adder(4), "fused", n_words=SPARSE_MIN_WORDS
        )
        assert big.sparse

    def test_heuristic_dense_without_kernels(self, monkeypatch):
        monkeypatch.delenv(SPARSE_ENV, raising=False)
        plan = resolve_sparse(builders.ripple_carry_adder(4), "python_loop")
        assert not plan.sparse
        assert "no sparse kernels" in plan.reason

    def test_env_beats_heuristic(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV, "1")
        plan = resolve_sparse(builders.ripple_carry_adder(4), "python_loop")
        assert plan.sparse and plan.source == "sparse-env"
        monkeypatch.setenv(SPARSE_ENV, "0")
        plan = resolve_sparse(builders.ripple_carry_adder(4), "fused")
        assert not plan.sparse and plan.source == "sparse-env"

    def test_keyword_beats_env(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV, "0")
        plan = resolve_sparse(
            builders.ripple_carry_adder(4), "fused", sparse=True
        )
        assert plan.sparse and plan.source == "sparse-explicit"

    def test_invalid_env_errors(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV, "maybe")
        with pytest.raises(SimulationError, match=SPARSE_ENV):
            resolve_sparse(builders.ripple_carry_adder(4), "fused")

    def test_forced_sparse_on_unsupported_backend_still_correct(self):
        # The tier is an optimisation: forcing it where no sparse
        # kernels exist must degrade to dense, not break.
        netlist = builders.ripple_carry_adder(3)
        _assert_same_verdicts(
            run_stuck_at_campaign(netlist, backend="python_loop", sparse=False),
            run_stuck_at_campaign(netlist, backend="python_loop", sparse=True),
        )


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestSparseObservability:
    def test_skip_counter_advances(self):
        # RCA-8 is wide enough that the post-probe slabs re-schedule
        # the surviving faults under tighter union cones -- those calls
        # must report skipped gates.
        reg = registry()
        before = reg.counter_total("repro_sparse_gates_skipped_total")
        run_stuck_at_campaign(
            builders.ripple_carry_adder(8), backend="fused", sparse=True
        )
        after = reg.counter_total("repro_sparse_gates_skipped_total")
        assert after > before

    def test_decision_is_logged(self):
        from repro.gates.tune import clear_plan_log, plan_log

        clear_plan_log()
        run_stuck_at_campaign(builders.full_adder(), sparse=True)
        sparse_plans = [
            p for p in plan_log() if p.source.startswith("sparse")
        ]
        assert sparse_plans
        assert sparse_plans[-1].sparse
        assert sparse_plans[-1].cone_density is not None
