"""Test-generation subsystem: dictionaries, compaction, ATPG, emission.

The load-bearing properties:

* dictionary rows agree with the campaign engine and the reference
  simulator (differential);
* word-range sharding and merging are bit-identical;
* ATPG is deterministic per seed;
* every unit's compact set, replayed through the campaign engine,
  detects exactly the faults its dictionary claims -- bit for bit --
  at n = 3 and 4, for the raw unit netlists and the Table 2
  architectures;
* the coverage-engine satellites (word-first grid sharding, auto-sized
  matrix budget) change nothing about the numbers, and ATPG's test
  order depends on its chunk constants only, never on the environment.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.arch.alu import FaultableALU
from repro.arch.cell import faulty_cell_library, reference_cell
from repro.arch.testbench import table2_architecture
from repro.coverage.engine import evaluate_adder, evaluate_multiplier
from repro.errors import SimulationError
from repro.faults.sharding import shard_grid
from repro.coverage import engine as coverage_engine
from repro.gates import builders
from repro.gates import engine as gate_engine
from repro.gates.compile import compile_netlist
from repro.gates.engine import (
    GATE_MATRIX_BUDGET_MAX,
    GATE_MATRIX_BUDGET_MIN,
    matrix_word_chunk,
    pack_bits,
    resolve_matrix_budget,
    run_stuck_at_campaign,
)
from repro.gates.simulate import ReferenceSimulator
from repro.store import open_store
from repro.tpg import dictionary as tpg_dictionary
from repro.tpg import generate as tpg_generate
from repro.tpg import (
    CompactTestSet,
    FaultDictionary,
    TestSpace,
    build_fault_dictionary,
    compact_from_dictionary,
    compact_test_set,
    emit_alu_self_test,
    emit_self_test_verilog,
    emit_self_test_vhdl,
    emit_vm_self_test,
    generate_tests,
    greedy_cover,
    render_tpg_report,
    replay_detected,
    reverse_compact,
    unit_netlist,
    unit_space,
    unit_test_set,
)

UNITS = ("add", "sub", "mul", "div")


# ----------------------------------------------------------------------
# TestSpace
# ----------------------------------------------------------------------
class TestTestSpace:
    def test_full_space_covers_every_input(self):
        nl = builders.full_adder()
        space = TestSpace.full(nl)
        assert space.n_free == 3
        assert space.n_vectors == 8
        rows = space.input_rows(0, space.n_words)
        assert rows.shape == (3, 1)

    def test_unknown_input_rejected(self):
        nl = builders.full_adder()
        with pytest.raises(SimulationError):
            TestSpace(nl, ("a", "b"))  # cin neither swept nor pinned
        with pytest.raises(SimulationError):
            TestSpace(nl, ("a", "b", "cin", "bogus"))

    def test_free_inputs_must_follow_netlist_order(self):
        nl = builders.full_adder()
        with pytest.raises(SimulationError):
            TestSpace(nl, ("b", "a", "cin"))

    def test_constants_are_pinned_in_rows(self):
        nl = builders.truncated_array_multiplier(2)
        space = TestSpace(nl, tuple(nl.primary_inputs[:4]), (("zero", 0),))
        rows = space.input_rows(0, space.n_words)
        assert rows[4].max() == 0  # the zero rail never rises

    def test_nonzero_field_masks_lanes(self):
        nl = builders.restoring_divider(2)
        space = TestSpace(
            nl, tuple(nl.primary_inputs[:4]), (("zero", 0), ("one", 1)), (2, 4)
        )
        # 16-vector universe, 4 of them have b == 0.
        assert space.valid_count(0, space.n_words) == 12

    def test_bits_from_indices_roundtrip(self):
        nl = builders.full_adder()
        space = TestSpace.full(nl)
        bits = space.bits_from_indices([5])  # 0b101 -> a=1, b=0, cin=1
        assert bits.tolist() == [[1, 0, 1]]


# ----------------------------------------------------------------------
# Fault dictionaries
# ----------------------------------------------------------------------
class TestFaultDictionary:
    def test_full_adder_dictionary_matches_campaign(self):
        nl = builders.full_adder()
        d = build_fault_dictionary(nl)
        raw = run_stuck_at_campaign(nl)
        assert d.faults == raw.faults
        assert np.array_equal(d.detected, raw.detected)
        # The campaign's first detecting vector is set in every row.
        for i, first in enumerate(raw.first_detected):
            if first >= 0:
                assert d.column_bits(int(first))[i] == 1

    def test_rows_match_reference_simulator(self):
        nl = builders.ripple_carry_adder(2)
        d = build_fault_dictionary(nl)
        ref = ReferenceSimulator(nl)
        golden = ref.truth_table()
        for fi in (0, 7, len(d.faults) // 2, len(d.faults) - 1):
            faulty = ref.truth_table(d.faults[fi])
            expect = (faulty != golden).any(axis=1)
            got = np.array(
                [d.column_bits(v)[fi] for v in range(d.n_vectors)], dtype=bool
            )
            assert np.array_equal(got, expect)

    def test_worker_sharding_is_bit_identical(self):
        nl = builders.ripple_carry_adder(3)
        base = build_fault_dictionary(nl, workers=1)
        sharded = build_fault_dictionary(nl, workers=3)
        assert np.array_equal(base.words, sharded.words)
        assert base.faults == sharded.faults

    def test_word_range_merge_is_bit_identical(self):
        nl = builders.ripple_carry_adder(3)  # 7 inputs -> 2 words
        full = build_fault_dictionary(nl)
        parts = [
            FaultDictionary(
                netlist_name=full.netlist_name,
                faults=full.faults,
                groups=full.groups,
                words=full.words[:, lo:hi],
                n_vectors=(hi - lo) * 64,
                vector_base=lo * 64,
            )
            for lo, hi in ((0, 1), (1, 2))
        ]
        merged = FaultDictionary.merge(parts)
        assert np.array_equal(merged.words, full.words)
        assert merged.n_vectors == full.n_vectors

    def test_merge_rejects_gaps(self):
        nl = builders.full_adder()
        d = build_fault_dictionary(nl)
        shifted = FaultDictionary(
            d.netlist_name, d.faults, d.groups, d.words, d.n_vectors, vector_base=128
        )
        with pytest.raises(SimulationError):
            FaultDictionary.merge([d, shifted])

    def test_npz_roundtrip(self, tmp_path):
        nl = builders.ripple_carry_adder(2)
        d = build_fault_dictionary(nl)
        path = tmp_path / "rca2.npz"
        d.save(path)
        loaded = FaultDictionary.load(path)
        assert loaded.netlist_name == d.netlist_name
        assert loaded.faults == d.faults
        assert loaded.groups == d.groups
        assert np.array_equal(loaded.words, d.words)
        assert loaded.n_vectors == d.n_vectors

    def test_masked_lanes_never_detect(self):
        space = unit_space("div", 2)
        d = build_fault_dictionary(space.netlist, space)
        # Vectors with b == 0 (free bits 2..3 clear) are masked out.
        for v in range(d.n_vectors):
            if (v >> 2) & 0b11 == 0:
                assert d.column_bits(v).max() == 0


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def _dictionary_from_bits(bits: np.ndarray, vector_base: int = 0) -> FaultDictionary:
    """A dictionary with the given ``(n_faults, n_vectors)`` detection bits."""
    template = build_fault_dictionary(builders.ripple_carry_adder(3))
    n_faults, n_vectors = bits.shape
    words = np.array(
        [pack_bits(row) for row in bits], dtype=np.uint64
    ).reshape(n_faults, (n_vectors + 63) // 64)
    return dataclasses.replace(
        template,
        faults=template.faults[:n_faults],
        groups=(),
        words=words,
        n_vectors=n_vectors,
        vector_base=vector_base,
    )


def _oracle_cover(d: FaultDictionary):
    """Brute-force greedy: rescore every vector every round."""
    columns = [d.column_bits(d.vector_base + v).astype(bool) for v in range(d.n_vectors)]
    remaining = d.detected.copy()
    order, marginal = [], []
    while remaining.any():
        scores = [int(np.sum(col & remaining)) for col in columns]
        best = scores.index(max(scores))  # lowest index among the maxima
        order.append(d.vector_base + best)
        marginal.append(scores[best])
        remaining &= ~columns[best]
    detected = np.zeros(d.n_faults, dtype=bool)
    for v in order:
        detected |= columns[v - d.vector_base]
    return tuple(order), tuple(marginal), detected


def _assert_cover_matches_oracle(d: FaultDictionary):
    cover = greedy_cover(d)
    order, marginal, detected = _oracle_cover(d)
    assert cover.order == order
    assert cover.marginal == marginal
    assert np.array_equal(cover.detected, detected)
    assert np.array_equal(cover.detected, d.detected)
    return cover


class TestCompaction:
    def test_greedy_covers_everything_detectable(self):
        nl = builders.ripple_carry_adder(2)
        d = build_fault_dictionary(nl)
        cover = greedy_cover(d)
        assert np.array_equal(cover.detected, d.detected)
        assert sum(cover.marginal) == d.detected_count
        # Marginal gains are non-increasing for greedy set cover.
        assert all(a >= b for a, b in zip(cover.marginal, cover.marginal[1:]))

    def test_greedy_is_much_smaller_than_the_universe(self):
        nl = builders.ripple_carry_adder(4)
        d = build_fault_dictionary(nl)
        cover = greedy_cover(d)
        assert len(cover.order) * 10 <= d.n_vectors

    def test_reverse_compact_preserves_coverage(self):
        nl = builders.ripple_carry_adder(2)
        d = build_fault_dictionary(nl)
        kept = reverse_compact(d)
        assert len(kept) < d.n_vectors
        assert np.array_equal(d.covered_by(kept), d.detected)

    def test_reverse_compact_full_universe_stays_cheap(self):
        # A 2**11-vector universe: columns are read one vector at a
        # time from the fault-major words.
        nl = builders.ripple_carry_adder(5)
        d = build_fault_dictionary(nl)
        kept = reverse_compact(d)
        assert np.array_equal(d.covered_by(kept), d.detected)
        # Explicit sub-orders agree with the generic counting path.
        sub = reverse_compact(d, order=list(kept))
        assert np.array_equal(d.covered_by(sub), d.covered_by(kept))

    def test_reverse_compact_rejects_repeated_vectors(self):
        d = build_fault_dictionary(builders.full_adder())
        with pytest.raises(SimulationError, match="vector 0 appears more than once"):
            reverse_compact(d, order=list(range(8)) * 2)

    def test_reverse_compact_rejects_out_of_range_vectors(self):
        d = build_fault_dictionary(builders.full_adder())
        with pytest.raises(SimulationError, match="outside dictionary range"):
            reverse_compact(d, order=[-1, 3])
        with pytest.raises(SimulationError, match="outside dictionary range"):
            reverse_compact(d, order=[8])

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_matches_oracle_on_random_dictionaries(self, seed):
        rng = np.random.default_rng(seed)
        n_vectors = (1, 37, 63, 65, 130, 201)[seed]
        density = (0.4, 0.02, 0.1)[seed % 3]
        d = _dictionary_from_bits(
            rng.random((int(rng.integers(1, 60)), n_vectors)) < density,
            vector_base=(0, 5, 192)[seed % 3],
        )
        _assert_cover_matches_oracle(d)

    def test_greedy_matches_oracle_on_ties_and_undetected_faults(self):
        bits = np.zeros((5, 6), dtype=bool)
        bits[0:2, [1, 2, 4]] = True  # faults 0-1: vectors 1, 2 and 4
        bits[2:4, [3, 5]] = True  # faults 2-3: vectors 3 and 5
        # Fault 4 is undetected; every round is a tie.
        cover = _assert_cover_matches_oracle(_dictionary_from_bits(bits, vector_base=64))
        assert cover.order == (65, 67)
        assert cover.marginal == (2, 2)
        assert not cover.detected[4]

    def test_greedy_matches_oracle_on_zero_vector_dictionary(self):
        _assert_cover_matches_oracle(_dictionary_from_bits(np.zeros((3, 0), dtype=bool)))

    @pytest.mark.parametrize("unit", ["mul", "div"])
    def test_greedy_matches_oracle_on_unit_dictionaries(self, unit):
        space = unit_space(unit, 4)
        _assert_cover_matches_oracle(build_fault_dictionary(space.netlist, space))

    def test_greedy_memory_stays_bounded(self):
        # 550 faults x 4096 vectors: scoring must not build a transposed
        # copy of the dictionary (tens of megabytes here).
        space = unit_space("mul", 6)
        d = build_fault_dictionary(space.netlist, space)
        tracemalloc.start()
        try:
            greedy_cover(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_reverse_compact_respects_given_order(self):
        nl = builders.full_adder()
        res = generate_tests(nl, seed=3)
        kept = reverse_compact(res.dictionary)
        assert set(kept) <= set(range(res.dictionary.n_vectors))
        assert np.array_equal(
            res.dictionary.covered_by(kept), res.dictionary.detected
        )

    def test_compact_from_dictionary_replays(self):
        nl = builders.full_adder()
        space = TestSpace.full(nl)
        d = build_fault_dictionary(nl, space)
        cs = compact_from_dictionary(d, space)
        assert isinstance(cs, CompactTestSet)
        assert np.array_equal(replay_detected(nl, cs.vectors), cs.detected)


# ----------------------------------------------------------------------
# ATPG generation
# ----------------------------------------------------------------------
class TestGeneration:
    def test_same_seed_same_compact_set(self):
        nl = builders.ripple_carry_adder(3)
        a = generate_tests(nl, seed=11)
        b = generate_tests(nl, seed=11)
        assert np.array_equal(a.tests, b.tests)
        assert np.array_equal(a.compact.vectors, b.compact.vectors)
        assert a.compact.marginal == b.compact.marginal
        assert np.array_equal(a.dictionary.words, b.dictionary.words)

    def test_residual_faults_are_proven_redundant(self):
        space = unit_space("mul", 3)
        res = generate_tests(space.netlist, space, seed=5)
        assert res.exhausted
        # Nothing the exhaustive sweep of the constrained space can
        # detect is left: the full dictionary agrees.
        full = build_fault_dictionary(space.netlist, space)
        assert np.array_equal(res.dictionary.detected, full.detected)

    def test_compact_never_worse_than_generated(self):
        nl = builders.ripple_carry_adder(3)
        res = generate_tests(nl, seed=2)
        assert res.compact.n_tests <= res.n_tests
        assert np.array_equal(res.compact.detected, res.dictionary.detected)

    def test_method_dispatch(self):
        nl = builders.full_adder()
        by_dict = compact_test_set(nl, method="dictionary")
        by_atpg = compact_test_set(nl, method="atpg")
        assert by_dict.source == "greedy-dictionary"
        assert by_atpg.source == "atpg+greedy"
        assert np.array_equal(by_dict.detected, by_atpg.detected)
        with pytest.raises(SimulationError):
            compact_test_set(nl, method="bogus")


# ----------------------------------------------------------------------
# End-to-end: replay == dictionary claim, every unit, n = 3 and 4
# ----------------------------------------------------------------------
class TestReplayMatchesClaim:
    @pytest.mark.parametrize("unit", UNITS)
    @pytest.mark.parametrize("width", (3, 4))
    @pytest.mark.parametrize("method", ("dictionary", "atpg"))
    def test_unit_compact_set_replays_bit_identically(self, unit, width, method):
        netlist = unit_netlist(unit, width)
        ts = unit_test_set(unit, width, method=method)
        replay = replay_detected(netlist, ts.vectors)
        assert np.array_equal(replay, ts.detected)
        # And the claim is complete: no vector of the constrained
        # universe detects anything the compact set misses.
        full = build_fault_dictionary(netlist, unit_space(unit, width))
        assert np.array_equal(ts.detected, full.detected)

    @pytest.mark.parametrize("operator", UNITS)
    def test_table2_architecture_compact_set_replays(self, operator):
        arch = table2_architecture(operator, 3)
        space = arch.test_space()
        ts = compact_test_set(arch.netlist, space, method="atpg")
        replay = replay_detected(arch.netlist, ts.vectors)
        assert np.array_equal(replay, ts.detected)
        if operator == "div":
            b_cols = ts.vectors[:, arch.width : 2 * arch.width]
            assert (b_cols.sum(axis=1) > 0).all()


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------
class TestEmission:
    def test_vhdl_and_verilog_benches_carry_the_set(self):
        nl = builders.full_adder()
        cs = compact_test_set(nl)
        vhdl = emit_self_test_vhdl(nl, cs)
        vlog = emit_self_test_verilog(nl, cs)
        assert f"constant TEST_COUNT : natural := {cs.n_tests};" in vhdl
        assert f"localparam TEST_COUNT = {cs.n_tests};" in vlog
        assert "entity fa_selftest is" in vhdl
        assert "module fa_selftest(clk, ok, done);" in vlog
        # The structural DUT rides along.
        assert "architecture structural of fa is" in vhdl
        assert "module fa(" in vlog

    def test_single_test_vhdl_uses_named_association(self):
        # A one-entry positional aggregate is illegal VHDL.
        nl = builders.full_adder()
        cs = compact_test_set(nl)
        single = CompactTestSet(
            cs.netlist_name,
            cs.input_names,
            cs.vectors[:1],
            cs.faults,
            cs.detected,
            cs.marginal[:1],
            cs.source,
        )
        vhdl = emit_self_test_vhdl(nl, single)
        assert '0 => "' in vhdl
        assert "0 => " not in emit_self_test_vhdl(nl, cs)  # positional for real sets

    def test_vm_emission_rejects_missing_operand_columns(self):
        ts = unit_test_set("add", 3)
        with pytest.raises(SimulationError):
            emit_vm_self_test(ts, "add", 4)  # needs a3/b3 columns

    def test_empty_set_refuses_to_emit(self):
        nl = builders.full_adder()
        cs = compact_test_set(nl)
        empty = CompactTestSet(
            cs.netlist_name,
            cs.input_names,
            cs.vectors[:0],
            cs.faults,
            np.zeros(len(cs.faults), dtype=bool),
            (),
            "greedy-dictionary",
        )
        with pytest.raises(SimulationError):
            emit_self_test_vhdl(nl, empty)

    def test_vm_self_test_passes_fault_free_and_flags_faults(self):
        width = 4
        ts = unit_test_set("add", width)
        prog = emit_vm_self_test(ts, "add", width)
        assert prog.run() is False
        cells = [
            c for c in faulty_cell_library() if c.differs_from(reference_cell())
        ]
        flagged = 0
        for cell in cells[:6]:
            alu = FaultableALU(width)
            alu.inject_fault("adder", cell, 1)
            flagged += prog.run(alu)
        assert flagged > 0

    def test_alu_self_test_covers_every_unit(self):
        width = 3
        sets = {u: unit_test_set(u, width) for u in UNITS}
        prog = emit_alu_self_test(sets, width)
        assert prog.run() is False
        cells = [
            c for c in faulty_cell_library() if c.differs_from(reference_cell())
        ]
        for unit, args in (
            ("adder", ()),
            ("multiplier", (0,)),
            ("divider", ()),
        ):
            alu = FaultableALU(width)
            alu.inject_fault(unit, cells[0], 1, *args)
            assert prog.run(alu) is True, unit

    def test_report_renders_all_units(self):
        text = render_tpg_report(width=3)
        for unit in UNITS:
            assert f"\n{unit} " in text
        assert "compact" in text


# ----------------------------------------------------------------------
# Coverage-engine satellites
# ----------------------------------------------------------------------
class TestShardGridWordFirst:
    def test_word_first_spans_all_cases(self):
        tiles = shard_grid(10, 64, 4, word_first=True)
        assert len(tiles) == 4
        assert all(c_lo == 0 and c_hi == 10 for c_lo, c_hi, _, _ in tiles)
        covered = sorted((w_lo, w_hi) for _, _, w_lo, w_hi in tiles)
        assert covered[0][0] == 0 and covered[-1][1] == 64
        assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))

    def test_word_first_falls_back_when_words_are_scarce(self):
        assert shard_grid(10, 2, 4, word_first=True) == shard_grid(10, 2, 4)

    def test_word_first_gate_sweep_is_bit_identical(self, monkeypatch):
        import repro.coverage.engine as ce

        def key(stats):
            return {
                name: (s.situations, s.covered, s.observable_errors,
                       s.detected_while_correct)
                for name, s in stats.items()
            }

        base = evaluate_adder(3, method="gate")
        monkeypatch.setattr(ce, "GATE_GRID_WORD_FIRST", 1)
        forced = evaluate_adder(3, method="gate", workers=2)
        assert key(base) == key(forced)


class TestMatrixBudget:
    def test_auto_budget_scales_with_row_cells(self):
        assert resolve_matrix_budget(1) == GATE_MATRIX_BUDGET_MIN
        assert resolve_matrix_budget(1 << 30) == GATE_MATRIX_BUDGET_MAX
        mid = 50_000
        assert resolve_matrix_budget(mid) == mid * 8 * 256

    def test_word_chunk_clamped_to_budget(self, monkeypatch):
        row_cells = compile_netlist(builders.ripple_carry_adder(4)).n_nets * 9
        assert matrix_word_chunk(row_cells, 32) == 32
        # A budget too small for the request clamps the word chunk.
        monkeypatch.setattr(gate_engine, "GATE_MATRIX_BUDGET_MAX", 8 * row_cells)
        assert 8 <= matrix_word_chunk(row_cells, 32) < 32

    def test_small_budget_changes_nothing_about_the_numbers(self, monkeypatch):
        # n = 5 sweeps 16 words: the tiny budget clamps the word chunk
        # to 8, and an odd fault chunk splits the case rows unevenly.
        # ``store=False`` keeps a warm store from serving the second run.
        def key(stats):
            return {
                name: (s.situations, s.covered, s.observable_errors,
                       s.detected_while_correct)
                for name, s in stats.items()
            }

        base = evaluate_multiplier(5, method="gate", store=False)
        monkeypatch.setattr(gate_engine, "GATE_MATRIX_BUDGET_MAX", 1)
        monkeypatch.setattr(coverage_engine, "GATE_FAULT_CHUNK", 7)
        tiny = evaluate_multiplier(5, method="gate", store=False)
        assert key(base) == key(tiny)

    def test_dictionary_small_budget_is_bit_identical(self, monkeypatch):
        # 11 inputs = 32 words, swept 8 words at a time under the tiny
        # budget, with the classes split 7 rows at a time.
        nl = builders.ripple_carry_adder(5)
        base = build_fault_dictionary(nl, store=False)
        monkeypatch.setattr(gate_engine, "GATE_MATRIX_BUDGET_MAX", 1)
        monkeypatch.setattr(tpg_dictionary, "DICT_FAULT_CHUNK", 7)
        tiny = build_fault_dictionary(nl, store=False)
        assert np.array_equal(base.words, tiny.words)


class TestATPGChunkGeometry:
    def test_environment_does_not_change_the_test_order(self, monkeypatch):
        # The phase-2 sweep records tests in chunk order.  The chunk
        # once read a budget variable from the environment that the
        # ATPG store key did not hash, so a store filled under one
        # setting served tables another setting would not produce.
        def run():
            res = generate_tests(
                unit_netlist("mul", 6), unit_space("mul", 6),
                max_phases=0, store=False,
            )
            return res.tests, res.compact.vectors

        tests, vectors = run()
        monkeypatch.setenv("REPRO_GATE_MATRIX_BUDGET", "1")
        again_tests, again_vectors = run()
        assert np.array_equal(tests, again_tests)
        assert np.array_equal(vectors, again_vectors)

    def test_store_key_hashes_the_chunk_constants(self, tmp_path, monkeypatch):
        store = open_store(tmp_path / "store")
        nl = builders.ripple_carry_adder(3)
        generate_tests(nl, store=store)
        before = store.stats.snapshot()
        generate_tests(nl, store=store)
        warm = store.stats.snapshot()
        assert warm["puts"] == before["puts"]
        monkeypatch.setattr(tpg_generate, "TPG_WORD_CHUNK", 8)
        generate_tests(nl, store=store)
        assert store.stats.snapshot()["puts"] > warm["puts"]
