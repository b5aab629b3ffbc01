"""Differential tests: compiled bit-parallel engine vs the reference
interpreter.

The compiled engine (:mod:`repro.gates.compile` +
:mod:`repro.gates.engine`) must be bit-identical to
:class:`~repro.gates.simulate.ReferenceSimulator` -- on random netlists,
random vectors, and every stem/branch stuck-at fault, including the
paper's 32-fault full-adder universe.  Also covers the satellite
behaviours: netlist index invalidation, simulator caching, iterative
topological sort depth, and structural collapsing soundness.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gates import builders
from repro.gates import engine as gate_engine
from repro.gates.cells import CellType
from repro.gates.compile import compile_netlist
from repro.gates.engine import (
    exhaustive_words,
    pack_bits,
    run_stuck_at_campaign,
    unpack_bits,
)
from repro.gates.faults import (
    full_fault_list,
    structural_equivalence_groups,
)
from repro.gates.netlist import Netlist
from repro.gates.simulate import (
    NetlistSimulator,
    ReferenceSimulator,
    get_simulator,
    simulate,
)

_GATE_CHOICES = [
    (CellType.AND, 2),
    (CellType.AND, 3),
    (CellType.OR, 2),
    (CellType.XOR, 2),
    (CellType.XOR, 3),
    (CellType.NAND, 2),
    (CellType.NOR, 3),
    (CellType.XNOR, 2),
    (CellType.NOT, 1),
    (CellType.BUF, 1),
]


def random_netlist(seed: int, n_inputs: int = 4, n_gates: int = 12) -> Netlist:
    """A random acyclic netlist; every declared net is driven."""
    rng = random.Random(seed)
    nl = Netlist(f"rand{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        cell, arity = rng.choice(_GATE_CHOICES)
        ins = [rng.choice(nets) for _ in range(arity)]
        out = f"n{g}"
        nl.add_gate(cell, ins, out)
        nets.append(out)
    # Observe a random sample of nets plus the final one so no gate
    # cone is trivially empty.
    outs = set(rng.sample(nets[n_inputs:], k=max(1, n_gates // 3)))
    outs.add(nets[-1])
    for net in sorted(outs):
        nl.mark_output(net)
    return nl


def random_vectors(nl: Netlist, seed: int, n: int = 100) -> dict:
    rng = np.random.default_rng(seed)
    return {
        name: rng.integers(0, 2, size=n, dtype=np.uint8)
        for name in nl.primary_inputs
    }


class TestPacking:
    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_roundtrip(self, n, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)
        assert (unpack_bits(pack_bits(bits), n) == bits).all()

    @pytest.mark.parametrize("n_inputs", [0, 1, 3, 6, 8])
    def test_exhaustive_words_match_convention(self, n_inputs):
        packed = exhaustive_words(n_inputs)
        combos = np.arange(1 << n_inputs, dtype=np.uint32)
        for k in range(n_inputs):
            expected = ((combos >> k) & 1).astype(np.uint8)
            assert (unpack_bits(packed.words[k], packed.n_vectors) == expected).all()


class TestRandomNetlistEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_fault_free_random_vectors(self, seed):
        nl = random_netlist(seed)
        vectors = random_vectors(nl, seed)
        ref = ReferenceSimulator(nl).run(vectors)
        got = NetlistSimulator(nl).run(vectors)
        assert set(got) == set(ref)
        for net in ref:
            assert (got[net] == ref[net]).all(), net

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_every_stuck_at_fault_matches(self, seed):
        nl = random_netlist(seed, n_gates=8)
        sim = NetlistSimulator(nl)
        ref = ReferenceSimulator(nl)
        for fault in full_fault_list(nl):
            assert (
                sim.truth_table(fault) == ref.truth_table(fault)
            ).all(), fault.describe()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_campaign_matches_per_fault_loop(self, seed):
        nl = random_netlist(seed, n_gates=10)
        ref = ReferenceSimulator(nl)
        golden = ref.truth_table()
        faults = full_fault_list(nl)
        expected = [bool((ref.truth_table(f) != golden).any()) for f in faults]
        result = run_stuck_at_campaign(nl, faults=faults)
        assert result.classifications() == [
            "detected" if hit else "undetected" for hit in expected
        ]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_collapsing_and_dropping_do_not_change_verdicts(self, seed):
        nl = random_netlist(seed, n_gates=10)
        baseline = run_stuck_at_campaign(nl, collapse=False, fault_dropping=False)
        for collapse in (True, False):
            for word_chunk in (1, 512):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(gate_engine, "CAMPAIGN_WORD_CHUNK", word_chunk)
                    result = run_stuck_at_campaign(nl, collapse=collapse)
                assert (result.detected == baseline.detected).all()
                assert (result.first_detected == baseline.first_detected).all()
                assert result.n_simulated_runs <= baseline.n_simulated_runs


class TestFullAdderUniverse:
    @pytest.mark.parametrize("builder", [builders.full_adder, builders.full_adder_xor3])
    def test_all_32_faults_bit_identical(self, builder):
        nl = builder()
        faults = full_fault_list(nl)
        assert len(faults) == 32
        sim = NetlistSimulator(nl)
        ref = ReferenceSimulator(nl)
        engine_tables = sim.engine.truth_tables(faults)
        for fault, table in zip(faults, engine_tables):
            expected = ref.truth_table(fault)
            assert (table == expected).all(), fault.describe()
            assert (sim.truth_table(fault) == expected).all(), fault.describe()

    @pytest.mark.parametrize("builder", [builders.full_adder, builders.full_adder_xor3])
    def test_campaign_classifications_match_reference(self, builder):
        nl = builder()
        ref = ReferenceSimulator(nl)
        golden = ref.truth_table()
        faults = full_fault_list(nl)
        expected = np.array(
            [bool((ref.truth_table(f) != golden).any()) for f in faults]
        )
        result = run_stuck_at_campaign(nl)
        assert (result.detected == expected).all()
        assert result.n_vectors == 8
        assert result.n_faults == 32

    @pytest.mark.parametrize("builder", [builders.full_adder, builders.full_adder_xor3])
    def test_structural_groups_are_behaviorally_identical(self, builder):
        nl = builder()
        ref = ReferenceSimulator(nl)
        faults = full_fault_list(nl)
        groups = structural_equivalence_groups(nl, faults)
        assert sorted(i for g in groups for i in g) == list(range(len(faults)))
        assert len(groups) < len(faults)  # collapsing actually collapses
        for group in groups:
            signatures = {ref.behavior_signature(faults[i]) for i in group}
            assert len(signatures) == 1, [faults[i].describe() for i in group]


class TestAdapterSemantics:
    def test_scalar_inputs_yield_scalar_outputs(self):
        nl = builders.half_adder()
        outs = NetlistSimulator(nl).outputs({"a": 1, "b": 1})
        assert outs["s"].shape == ()
        assert int(outs["cout"]) == 1

    def test_mixed_scalar_vector_broadcasts(self):
        nl = builders.half_adder()
        a = np.array([0, 1, 0, 1], dtype=np.uint8)
        got = NetlistSimulator(nl).outputs({"a": a, "b": 1})
        ref = ReferenceSimulator(nl).outputs({"a": a, "b": 1})
        assert got["s"].shape == (4,)
        assert (got["s"] == ref["s"]).all()
        assert (got["cout"] == ref["cout"]).all()

    def test_long_vector_crosses_word_boundary(self):
        nl = builders.ripple_carry_adder(3)
        vectors = random_vectors(nl, seed=7, n=257)  # 5 words, partial tail
        got = NetlistSimulator(nl).run(vectors)
        ref = ReferenceSimulator(nl).run(vectors)
        for net in ref:
            assert (got[net] == ref[net]).all(), net


class TestBatchedEntryPoints:
    def test_injector_gate_level_campaign(self):
        from repro.faults.injector import run_gate_level_campaign

        nl = builders.full_adder()
        result, raw = run_gate_level_campaign(nl)
        assert result.total == 32
        assert result.count("detected") == raw.detected_count
        assert result.count("escaped") == raw.n_faults - raw.detected_count
        # Exhaustive vectors detect the whole full-adder universe.
        assert result.count("detected") == 32
        assert "detected" in result.summary()

    def test_injector_campaign_with_partial_vectors(self):
        from repro.faults.injector import run_gate_level_campaign

        nl = builders.full_adder()
        # A single all-zero vector cannot detect every fault.
        vectors = {name: np.zeros(1, dtype=np.uint8) for name in nl.primary_inputs}
        result, raw = run_gate_level_campaign(nl, vectors=vectors)
        assert raw.n_vectors == 1
        assert 0 < result.count("detected") < 32
        ref = ReferenceSimulator(nl)
        zeros = {name: 0 for name in nl.primary_inputs}
        golden = ref.outputs(zeros)
        for fault, hit in zip(raw.faults, raw.detected):
            faulty = ref.outputs(zeros, fault)
            expected = any(
                int(faulty[k]) != int(golden[k]) for k in golden
            )
            assert bool(hit) == expected, fault.describe()

    def test_coverage_gate_level_stats(self):
        from repro.coverage.engine import evaluate_gate_level

        nl = builders.full_adder_xor3()
        stats, raw = evaluate_gate_level(nl)
        assert stats.total == 32
        assert stats.detected == raw.detected_count
        assert stats.exhaustive
        assert stats.equivalence_groups == len(raw.groups)
        assert stats.simulated_runs <= stats.total
        assert 0.0 <= stats.coverage <= 1.0
        assert "gate-level" in stats.describe()

    def test_first_detected_vector_is_a_real_detection(self):
        nl = builders.full_adder()
        ref = ReferenceSimulator(nl)
        golden = ref.truth_table()
        result = run_stuck_at_campaign(nl)
        for fault, hit, vec in zip(
            result.faults, result.detected, result.first_detected
        ):
            if not hit:
                assert vec == -1
                continue
            table = ref.truth_table(fault)
            diffs = np.nonzero((table != golden).any(axis=1))[0]
            assert vec == diffs[0], fault.describe()

    def test_first_detected_earliest_across_chunks_without_dropping(
        self, monkeypatch
    ):
        # Multi-word exhaustive set (9 inputs -> 512 vectors, 8 words):
        # re-detection in later chunks must not overwrite the earliest
        # detecting vector when fault dropping is off.
        nl = builders.ripple_carry_adder(4)
        ref = ReferenceSimulator(nl)
        golden = ref.truth_table()
        monkeypatch.setattr(gate_engine, "CAMPAIGN_WORD_CHUNK", 1)
        result = run_stuck_at_campaign(nl, fault_dropping=False, collapse=False)
        for fault, hit, vec in zip(
            result.faults, result.detected, result.first_detected
        ):
            if not hit:
                assert vec == -1
                continue
            diffs = np.nonzero((ref.truth_table(fault) != golden).any(axis=1))[0]
            assert vec == diffs[0], fault.describe()


class TestCachesAndIndices:
    def test_simulate_reuses_cached_simulator(self):
        nl = builders.full_adder()
        simulate(nl, {"a": 0, "b": 0, "cin": 0})
        first = get_simulator(nl)
        simulate(nl, {"a": 1, "b": 0, "cin": 0})
        assert get_simulator(nl) is first

    def test_mutation_invalidates_simulator_cache(self):
        nl = builders.half_adder()
        before = get_simulator(nl)
        nl.add_gate(CellType.NOT, ["s"], "ns")
        nl.mark_output("ns")
        after = get_simulator(nl)
        assert after is not before
        assert simulate(nl, {"a": 1, "b": 0})["ns"] == 0

    def test_compile_cache_hit_and_invalidation(self):
        nl = builders.full_adder()
        first = compile_netlist(nl)
        assert compile_netlist(nl) is first
        nl.add_gate(CellType.NOT, ["s"], "ns")
        assert compile_netlist(nl) is not first

    def test_indices_track_add_gate(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate(CellType.AND, ["a", "b"], "x")
        assert nl.fanout_count("a") == 1
        assert nl.driver_of("x").cell_type is CellType.AND
        nl.add_gate(CellType.OR, ["a", "x"], "y")
        assert nl.fanout_count("a") == 2
        assert nl.driver_of("y").cell_type is CellType.OR
        assert [pin for _, pin in nl.fanout("a")] == [0, 0]

    def test_deep_chain_does_not_hit_recursion_limit(self):
        nl = Netlist("deep")
        net = nl.add_input("a")
        for k in range(5000):
            nxt = f"n{k}"
            nl.add_gate(CellType.NOT, [net], nxt)
            net = nxt
        nl.mark_output(net)
        order = nl.topological_gates()
        assert len(order) == 5000
        # A 5000-deep inverter chain: output = input for even length.
        assert simulate(nl, {"a": 1})[net] == 1

    def test_cycle_error_names_a_gate_on_the_cycle(self):
        from repro.errors import NetlistError
        from repro.gates.netlist import Gate

        nl = Netlist("cyc")
        nl.add_input("a")
        # Downstream consumer declared first; the cycle is x <-> y.
        nl.gates.append(Gate("downstream", CellType.AND, ("a", "x"), "z"))
        nl.gates.append(Gate("gx", CellType.AND, ("a", "y"), "x"))
        nl.gates.append(Gate("gy", CellType.NOT, ("x",), "y"))
        with pytest.raises(NetlistError) as err:
            nl.topological_gates()
        assert "'gx'" in str(err.value) or "'gy'" in str(err.value)

    def test_compiled_fanout_csr_matches_netlist(self):
        nl = builders.full_adder()
        compiled = compile_netlist(nl)
        for net in nl.nets:
            expected = sorted(
                (compiled.gate_names.index(g.name), pin) for g, pin in nl.fanout(net)
            )
            assert sorted(compiled.fanout_of(net)) == expected
