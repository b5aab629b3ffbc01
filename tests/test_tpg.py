"""Test-generation subsystem: dictionaries, compaction, ATPG, emission.

The load-bearing properties:

* dictionary rows agree with the campaign engine and the reference
  simulator (differential);
* ATPG is deterministic per seed;
* every unit's compact set, replayed through the campaign engine,
  detects exactly the faults its dictionary claims -- bit for bit --
  at n = 3 and 4, for the raw unit netlists and the Table 2
  architectures;
* every kernel call fits the one matrix byte cap, a budget small
  enough to clamp the chunks changes nothing about the numbers, and
  ATPG's test order depends on its chunk constants only, never on the
  environment.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.arch.alu import FaultableALU
from repro.arch.cell import collapsed_cell_library, faulty_cell_library, reference_cell
from repro.arch.testbench import table2_architecture
from repro.coverage.engine import evaluate_multiplier, evaluate_operator
from repro.errors import SimulationError
from repro.coverage import engine as coverage_engine
from repro.gates import builders
from repro.gates import engine as gate_engine
from repro.gates.backends import fused as fused_backend
from repro.gates import sparse
from repro.gates.backends.plan import OverridePlan
from repro.gates.compile import compile_netlist
from repro.gates.engine import (
    GATE_MATRIX_BUDGET_MAX,
    matrix_word_chunk,
    pack_bits,
    run_stuck_at_campaign,
    unpack_bits,
)
from repro.gates.simulate import ReferenceSimulator
from repro.store import open_store
from repro.tpg import compaction as tpg_compaction
from repro.tpg import dictionary as tpg_dictionary
from repro.tpg import generate as tpg_generate
from repro.tpg import (
    CompactTestSet,
    FaultDictionary,
    TestSpace,
    build_fault_dictionary,
    compact_from_dictionary,
    compact_test_set,
    dictionary_for_vectors,
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

    @pytest.mark.parametrize("unit, width", [("mul", 6), ("div", 4)])
    def test_row_counts_equal_int64_sums(self, unit, width):
        # Blocks are summed in uint16: exact, since a block holds at
        # most 256 rows.
        space = unit_space(unit, width)
        d = build_fault_dictionary(space.netlist, space)
        rows = np.flatnonzero(d.detected)
        assert len(rows) > tpg_compaction._FAULT_BLOCK
        want = unpack_bits(d.words[rows], d.n_vectors).sum(axis=0, dtype=np.int64)
        assert np.array_equal(tpg_compaction._row_counts(d, rows), want)
        # Full blocks of rows all detecting every vector.
        full = _dictionary_from_bits(np.ones((600, 3), dtype=bool))
        assert tpg_compaction._row_counts(full, np.arange(600)).tolist() == [600] * 3

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
        ts = compact_test_set(arch.netlist, arch.space, method="atpg")
        replay = replay_detected(arch.netlist, ts.vectors)
        assert np.array_equal(replay, ts.detected)
        if operator == "div":
            b_cols = ts.vectors[:, arch.width : 2 * arch.width]
            assert (b_cols.sum(axis=1) > 0).all()


class TestReplayTableValidation:
    """Both replay paths accept and reject the same explicit tables
    (RCA-2 has 5 primary inputs)."""

    @pytest.mark.parametrize(
        "replay", (dictionary_for_vectors, replay_detected), ids=("dictionary", "campaign")
    )
    @pytest.mark.parametrize(
        "table, problem",
        (
            (np.array([0, 1, 0, 1, 1]), "2-D"),
            (np.full((3, 5), 2), "non-binary"),
            (np.zeros((2, 6), dtype=np.uint8), "6 input columns"),
        ),
        ids=("one-d", "non-binary", "extra-column"),
    )
    def test_malformed_table_rejected(self, replay, table, problem):
        with pytest.raises(SimulationError, match=problem):
            replay(builders.ripple_carry_adder(2), table)

    def test_validation_precedes_the_store_key(self, tmp_path):
        store = open_store(tmp_path / "store")
        with pytest.raises(SimulationError, match="non-binary"):
            dictionary_for_vectors(
                builders.ripple_carry_adder(2), np.full((3, 5), 2), store=store
            )
        assert store.stats.snapshot()["misses"] == 0


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
class TestMatrixBudget:
    def test_one_cap_for_sweeps_and_the_fused_workspace(self):
        # One definition, read by the sweep budget and the workspace.
        assert GATE_MATRIX_BUDGET_MAX is fused_backend.GATE_MATRIX_BUDGET_MAX

    @pytest.mark.parametrize("cell", ("xor3_majority", "two_xor"))
    @pytest.mark.parametrize("operator", ("add", "sub", "mul", "div"))
    def test_table_sweep_matrix_fits_the_cap(self, operator, cell):
        # A sweep chunk bigger than the cap misses the fused workspace,
        # so every kernel call allocates and page-faults a fresh matrix
        # (the mul/div n = 8 sweeps once did, ~100 MB per call).
        # The Table sweeps stream with their own pair.
        word_chunk = gate_engine.TABLE_WORD_CHUNK
        fault_chunk = gate_engine.TABLE_FAULT_CHUNK
        arch = table2_architecture(operator, 8, cell)
        engine = gate_engine.engine_for(arch.netlist)
        step = max(
            hi - lo
            for lo, hi, _, _ in gate_engine.sweep_chunks(
                engine, 1000, arch.space, word_chunk=word_chunk, fault_chunk=fault_chunk
            )
        )
        n_nets = engine.compiled.n_nets
        matrix = step * (fault_chunk + 1) * n_nets * 8
        # The largest matrix the fused backend keeps a workspace for.
        assert matrix <= fused_backend.GATE_MATRIX_BUDGET_MAX
        # Netlists under the cap at the full chunk keep the full chunk.
        if word_chunk * matrix // step <= GATE_MATRIX_BUDGET_MAX:
            assert step == word_chunk

    def test_campaigns_and_table_sweeps_fit_the_workspace(self, monkeypatch):
        # Every kernel call of the default unit campaigns and the Table 1
        # n = 8 mul/div sweeps fits the fused workspace (the 471-net div
        # n = 7 campaign once allocated a fresh 123 MB matrix per call),
        # and the sweeps plan each cone batch once, not once per chunk.
        transient = []
        workspace = fused_backend.FusedBackend._workspace

        def spy(backend, n_slots, n_rows, n_words):
            cells = n_slots * n_rows * n_words
            if cells * 8 > fused_backend.GATE_MATRIX_BUDGET_MAX:
                transient.append((backend.compiled.source.name, n_rows, n_words))
            return workspace(backend, n_slots, n_rows, n_words)

        monkeypatch.setattr(fused_backend.FusedBackend, "_workspace", spy)
        for unit, width in (("add", 8), ("sub", 8), ("mul", 8), ("div", 7)):
            run_stuck_at_campaign(unit_netlist(unit, width))
        collapsed_cell_library()  # warm: its truth tables plan faults too
        plans, batches = [], []
        init = OverridePlan.__init__
        build = sparse.build_schedule
        monkeypatch.setattr(
            OverridePlan, "__init__",
            lambda plan, *a, **k: plans.append(1) or init(plan, *a, **k),
        )
        monkeypatch.setattr(
            sparse, "build_schedule",
            lambda *a, **k: batches.append(build(*a, **k)) or batches[-1],
        )
        for operator in ("mul", "div"):
            # Plan afresh: an earlier sweep may have left its plan on
            # the architecture's engine.
            gate_engine.engine_for(table2_architecture(operator, 8).netlist)._sweeps.clear()
            evaluate_operator(operator, 8, method="gate", store=False)
        assert not transient
        assert len(plans) == sum(len(s.batches) for s in batches) > 0

    def test_word_chunk_clamped_to_budget(self, monkeypatch):
        row_cells = compile_netlist(builders.ripple_carry_adder(4)).n_nets * 9
        assert matrix_word_chunk(row_cells, 32) == 32
        # A budget too small for the request clamps the word chunk.
        monkeypatch.setattr(gate_engine, "GATE_MATRIX_BUDGET_MAX", 8 * row_cells)
        assert 8 <= matrix_word_chunk(row_cells, 32) < 32

    def test_small_budget_changes_nothing_about_the_numbers(self, monkeypatch):
        # n = 5 sweeps 16 words: the tiny budget and the Table pair
        # (7, 8) clamp the word chunk to 8, and an odd fault chunk splits
        # the case rows unevenly.
        # ``store=False`` keeps a warm store from serving the second run.
        def key(stats):
            return {
                name: (s.situations, s.covered, s.observable_errors,
                       s.detected_while_correct)
                for name, s in stats.items()
            }

        base = evaluate_multiplier(5, method="gate", store=False)
        monkeypatch.setattr(gate_engine, "GATE_MATRIX_BUDGET_MAX", 1)
        monkeypatch.setattr(coverage_engine, "TABLE_FAULT_CHUNK", 7)
        monkeypatch.setattr(coverage_engine, "TABLE_WORD_CHUNK", 8)
        # Plan afresh in 7-group batches; the kept plan returns at teardown.
        engine = gate_engine.engine_for(table2_architecture("mul", 5).netlist)
        monkeypatch.setattr(engine, "_sweeps", {})
        tiny = evaluate_multiplier(5, method="gate", store=False)
        assert key(base) == key(tiny)

    def test_dictionary_small_budget_is_bit_identical(self, monkeypatch):
        # 11 inputs = 32 words, swept 8 words at a time under the tiny
        # budget, with the classes split 7 rows at a time (the detection
        # sweep reads the batch size from the engine module).
        nl = builders.ripple_carry_adder(5)
        base = build_fault_dictionary(nl, store=False)
        monkeypatch.setattr(gate_engine, "GATE_MATRIX_BUDGET_MAX", 1)
        monkeypatch.setattr(gate_engine, "SWEEP_FAULT_CHUNK", 7)
        tiny = build_fault_dictionary(nl, store=False)
        assert np.array_equal(base.words, tiny.words)

    def test_dictionaries_and_atpg_walk_cone_batches(self, monkeypatch):
        # The unit test sets (ATPG for add/sub n = 8, dictionaries for
        # mul n = 8 and div n = 7, plus ATPG's dictionary over its own
        # tests) run the campaigns' cone-scheduled detection sweep:
        # every detect call carries its batch's cone, and each batch is
        # planned once -- not once per word chunk and fault block.
        units = (("add", 8), ("sub", 8), ("mul", 8), ("div", 7))
        for unit, width in units:
            # Cold schedule caches, so every batch is planned here.
            gate_engine.engine_for(unit_netlist(unit, width))._rounds.clear()
        plans, batches, whole = [], [], []
        init = OverridePlan.__init__
        build = sparse.build_schedule
        run_detect = fused_backend.FusedBackend.run_detect

        def detect_spy(backend, words, plan, n_rows, gates=None, out_ids=None):
            if gates is None:
                whole.append(backend.compiled.source.name)
            return run_detect(backend, words, plan, n_rows, gates, out_ids)

        monkeypatch.setattr(
            OverridePlan, "__init__",
            lambda plan, *a, **k: plans.append(1) or init(plan, *a, **k),
        )
        monkeypatch.setattr(
            sparse, "build_schedule",
            lambda *a, **k: batches.append(build(*a, **k)) or batches[-1],
        )
        monkeypatch.setattr(fused_backend.FusedBackend, "run_detect", detect_spy)
        for unit, width in units:
            unit_test_set(unit, width, store=False)
        assert not whole
        assert len(plans) == sum(len(s.batches) for s in batches) > 0


class TestATPGPins:
    # sha256 of the raw discovery table and the compact vectors of the
    # default ATPG run, recorded before the ATPG rounds moved onto the
    # cone-scheduled detection sweep: the test order must not move.
    PINS = {
        ("add", 8): (
            "a9bf66f84b3a39d27f2105c7e3e308214bffca35a1e4339bcc6406fc3a82508b",
            "5d14e8abf0ac5f798d6fc985ace74252f0841632dbfba445f59a24ced33aa467",
        ),
        ("sub", 8): (
            "9cc576f8c3fb9a3282856a1327d382c08ba3b963603327604fe400d41770f5fc",
            "639615d4be2bd6a94499776fe226a9d87724d1cbd13fe4c21f353e5fa2b02bc4",
        ),
        ("mul", 8): (
            "4292a903299169a0fb5b8d7577e881e64b5676f2dbf4b9fc32757c5ea89976d0",
            "663623ed604e3228af8918030871860ecccdd92be120060388ef8be680cdc2ab",
        ),
        ("div", 7): (
            "f3f76eb7952da5e457e74b4f311dec9d4e57b0af4293a46e61f6b3febe720601",
            "f48622e0187f8d8c35449f7394032b1c4d6b7ca9fbc8dd9b1a50d2c3d573f18d",
        ),
    }

    @pytest.mark.parametrize("unit,width", sorted(PINS))
    def test_default_atpg_is_byte_identical(self, unit, width):
        res = generate_tests(
            unit_netlist(unit, width), unit_space(unit, width), store=False
        )

        def sha(array):
            return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

        assert res.tests.dtype == res.compact.vectors.dtype == np.uint8
        assert (sha(res.tests), sha(res.compact.vectors)) == self.PINS[unit, width]


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
        # The shared sweep geometry, as the sweep and the key read it.
        monkeypatch.setattr(gate_engine, "SWEEP_WORD_CHUNK", 8)
        monkeypatch.setattr(tpg_generate, "SWEEP_WORD_CHUNK", 8)
        generate_tests(nl, store=store)
        assert store.stats.snapshot()["puts"] > warm["puts"]

    def test_fault_chunk_orders_nothing(self, tmp_path, monkeypatch):
        # Each round records its tests in class order, so the fault
        # chunk -- how the cone schedule batches the classes -- changes
        # neither the phase-2 test table nor the ATPG store key.
        nl, space = unit_netlist("mul", 6), unit_space("mul", 6)
        store = open_store(tmp_path / "store")
        digests = []
        get = store.get

        def spy(key, *args, **kwargs):
            if key.kind == "atpg":
                digests.append(key.digest)
            return get(key, *args, **kwargs)

        monkeypatch.setattr(store, "get", spy)

        def run():
            res = generate_tests(nl, space, max_phases=0, store=False)
            generate_tests(nl, space, max_phases=0, store=store)
            return res.tests, res.compact.vectors

        tests, vectors = run()
        # Every module that binds the constant reads the new value.
        for module in (gate_engine, coverage_engine, tpg_dictionary, tpg_generate):
            if hasattr(module, "SWEEP_FAULT_CHUNK"):
                monkeypatch.setattr(module, "SWEEP_FAULT_CHUNK", 7)
        again_tests, again_vectors = run()
        assert np.array_equal(tests, again_tests)
        assert np.array_equal(vectors, again_vectors)
        assert len(digests) == 2 and digests[0] == digests[1]
