"""Exactness, parity and span merges of the batched Table 2 paths.

Three independent evaluators exist for the chain operators: the seed
functional LUT-splicing loop, the batched gate-level sweep (multi-site
fault groups over word-packed exhaustive vectors) and the carry-state
transfer matrix.  They model the same experiment, so their integer
situation counts must agree bit-for-bit -- these tests pin that, plus
the method resolution (exact methods only; a width no default method
reaches raises), the gate sweep's plan-once cache on each
architecture's engine, its own kernel-call geometry, and the
closed-form transfer DP against the per-position step DP it replaced.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.arch.cell import collapsed_cell_library, faulty_cell_library
from repro.arch.testbench import table2_architecture
from repro.coverage import engine as coverage_engine
from repro.coverage import transfer
from repro.coverage.engine import (
    _gate_case_counts,
    evaluate_adder,
    evaluate_divider,
    evaluate_multiplier,
    evaluate_operator,
    evaluate_subtractor,
    theoretical_situations,
)
from repro.errors import SimulationError
from repro.gates import sparse
from repro.gates.backends import fused as fused_backend
from repro.gates.engine import (
    TABLE_FAULT_CHUNK,
    TABLE_WORD_CHUNK,
    engine_for,
)


def _key(stats):
    return {
        name: (
            s.situations,
            s.covered,
            s.observable_errors,
            s.detected_while_correct,
            s.per_case_min,
            s.per_case_max,
        )
        for name, s in stats.items()
    }


_CHAIN = (evaluate_adder, evaluate_subtractor)


def _parity_cases():
    """``(width, evaluate, cell)``: every operator and both cell styles
    at n = 2..5, plus the chain operators at n = 1.  Default-style ids
    read ``width-evaluator``; the ``two_xor`` ones append the style."""
    evaluators = _CHAIN + (evaluate_multiplier, evaluate_divider)
    for cell in ("xor3_majority", "two_xor"):
        for width in (1, 2, 3, 4, 5):
            for evaluate in evaluators:
                if width == 1 and (cell == "two_xor" or evaluate not in _CHAIN):
                    continue
                suffix = "" if cell == "xor3_majority" else f"-{cell}"
                yield pytest.param(
                    width, evaluate, cell, id=f"{width}-{evaluate.__name__}{suffix}"
                )


class TestMethodParity:
    @pytest.mark.parametrize("width, evaluate, cell", _parity_cases())
    def test_three_methods_bit_identical(self, width, evaluate, cell):
        """gate == functional (== transfer for add/sub), integer for integer.

        The gate sweep streams the architecture's ``arch.space``; the
        functional evaluators enumerate operands on their own, so
        agreement pins the space to the functional universe.
        """
        gate = evaluate(width, cell_netlist=cell, method="gate")
        functional = evaluate(width, cell_netlist=cell, method="functional")
        assert _key(gate) == _key(functional)
        if evaluate in _CHAIN:
            transfer = evaluate(width, cell_netlist=cell, method="transfer")
            assert _key(gate) == _key(transfer)

    def test_gate_matches_transfer_at_n8(self):
        """The full 16.7M-situation n = 8 universe, two exact engines."""
        assert _key(evaluate_adder(8, method="gate")) == _key(
            evaluate_adder(8, method="transfer")
        )


class TestMethodResolution:
    def test_default_n8_is_exhaustive_gate_sweep(self):
        stats = evaluate_adder(8)
        assert stats["tech1"].method == "gate"
        assert stats["tech1"].situations == theoretical_situations("add", 8)

    def test_default_wide_width_is_exact_transfer(self):
        stats = evaluate_adder(16)
        assert stats["tech1"].method == "transfer"
        assert stats["tech1"].situations == 32 * 16 * (1 << 32)

    def test_widest_transfer_totals_stay_exact(self):
        # 32 * 30 * 4**30 situations outgrow int64, so the class-weighted
        # totals must be summed in Python integers.  The counts were
        # produced by the per-case Python-integer loop the fold replaced.
        width = transfer.MAX_TRANSFER_WIDTH
        stats = evaluate_adder(width, store=False)
        assert stats["both"].situations == 32 * width * 4**width
        assert {
            name: (s.covered, s.observable_errors, s.detected_while_correct)
            for name, s in stats.items()
        } == {
            "tech1": (1087204978844256698368, 384211091410231754752, 297741978564718231552),
            "tech2": (1105075262165662826496, 384211091410231754752, 332329623702923640832),
            "both": (1105363492541814538240, 384211091410231754752, 366629038463903596544),
        }

    def test_gate_method_covers_array_operators(self):
        """Since PR 3 the gate sweep serves mul/div too; only the
        transfer DP remains chain-only (no chain decomposition)."""
        stats = evaluate_multiplier(3, method="gate")
        assert stats["tech1"].method == "gate"
        with pytest.raises(SimulationError):
            evaluate_operator("div", 2, method="transfer")

    def test_default_muldiv_n8_is_gate_not_sampled(self):
        """Acceptance: wide mul/div rows no longer silently sample."""
        mul = evaluate_multiplier(8)
        div = evaluate_divider(8)
        for stats, op in ((mul, "mul"), (div, "div")):
            assert stats["tech1"].method == "gate"
            assert stats["tech1"].situations == theoretical_situations(op, 8)

    def test_unknown_method_rejected(self):
        for method in ("warp", "sampled"):
            with pytest.raises(SimulationError, match="unknown method"):
                evaluate_adder(2, method=method)

    @pytest.mark.parametrize("evaluate", (evaluate_multiplier, evaluate_divider))
    def test_wide_array_operators_need_explicit_gate(self, evaluate, monkeypatch):
        """Past the array cap no default method is exact, so ``auto``
        raises -- before any test architecture is built."""

        def no_build(*args, **kwargs):
            raise AssertionError("an architecture was built")

        monkeypatch.setattr("repro.coverage.engine.table2_architecture", no_build)
        with pytest.raises(SimulationError, match='method="gate"'):
            evaluate(9, store=False)

    def test_functional_past_its_limit_raises(self):
        with pytest.raises(SimulationError, match=str(1 << 20)):
            evaluate_adder(11, method="functional", store=False)


@pytest.fixture
def schedule_builds(monkeypatch):
    """Record every :func:`repro.gates.sparse.build_schedule` call."""
    calls = []
    real = sparse.build_schedule

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sparse, "build_schedule", spy)
    return calls


class TestPlanOnce:
    """The gate sweep keeps one plan per cell netlist on the architecture's engine."""

    def test_repeat_call_builds_no_schedule(self, schedule_builds):
        first = evaluate_operator("mul", 4, store=False)
        del schedule_builds[:]
        again = evaluate_operator("mul", 4, store=False)
        assert schedule_builds == []
        assert again == first

    def test_one_plan_per_cell_netlist(self, schedule_builds):
        engine = engine_for(table2_architecture("mul", 3, "xor3_majority").netlist)
        engine._sweeps.clear()
        whole = _gate_case_counts("mul", 3, "xor3_majority")
        assert len(schedule_builds) == 1
        again = _gate_case_counts("mul", 3, "xor3_majority")
        assert len(schedule_builds) == 1
        assert all(np.array_equal(a, b) for a, b in zip(again, whole))
        assert set(engine._sweeps) == {"xor3_majority"}
        other = engine_for(table2_architecture("mul", 3, "two_xor").netlist)
        other._sweeps.clear()
        _gate_case_counts("mul", 3, "two_xor")
        assert len(schedule_builds) == 2
        assert "two_xor" in other._sweeps


class TestCollapsingAndTranslation:
    def test_collapsed_library_spans_full_universe(self):
        groups = collapsed_cell_library()
        assert sum(g.multiplicity for g in groups) == 32
        assert len(groups) < 32  # collapsing actually helps

    def test_fault_groups_replicate_across_chains(self):
        arch = table2_architecture("add", 3)
        cell = faulty_cell_library()[0]
        group = arch.fault_group(cell.fault.fault, 1)
        # One translated site set per replica of the faulty unit.
        assert len(group) % len(arch.chains) == 0
        nets = set(arch.netlist.nets)
        for fault in group:
            assert fault.site.net in nets

    def test_fault_group_position_validated(self):
        arch = table2_architecture("add", 2)
        cell = faulty_cell_library()[0]
        with pytest.raises(SimulationError):
            arch.fault_group(cell.fault.fault, 2)


class TestGoldenRow:
    def test_golden_row_matches_reference_sum(self):
        """The sweep's shared golden row really is the fault-free unit."""
        arch = table2_architecture("add", 3)
        from repro.gates.backends import OverridePlan
        from repro.gates.engine import engine_for, unpack_bits

        engine = engine_for(arch.netlist)
        rows = arch.space.input_rows(0, arch.space.n_words)
        out = engine.backend.run_outputs(rows, OverridePlan(engine.compiled, []), 1)
        bits = unpack_bits(out[: 3, 0, :], arch.space.n_vectors)
        ris = sum(bits[i].astype(np.uint64) << np.uint64(i) for i in range(3))
        v = np.arange(arch.space.n_vectors, dtype=np.uint64)
        a, b = v & np.uint64(7), (v >> np.uint64(3)) & np.uint64(7)
        assert (ris == ((a + b) & np.uint64(7))).all()


class TestTableGeometry:
    """The Table sweeps' own chunk pair (``TABLE_FAULT_CHUNK`` groups per
    cone batch over ``TABLE_WORD_CHUNK`` words)."""

    @pytest.mark.parametrize("width", (5, 6))
    @pytest.mark.parametrize("operator", ("mul", "div"))
    def test_counts_do_not_depend_on_the_table_pair(self, monkeypatch, operator, width):
        # (groups per batch, words per chunk): the campaigns' pair, the
        # Table pair, and an odd batch over chunks narrower than the
        # n = 6 sweep (64 words), so batches and chunks both split.
        # Each pair plans afresh; the engine's own plans return at teardown.
        engine = engine_for(table2_architecture(operator, width).netlist)
        monkeypatch.setattr(engine, "_sweeps", {})
        results = []
        for fault_chunk, word_chunk in ((64, 256), (16, 512), (3, 8)):
            monkeypatch.setattr(coverage_engine, "TABLE_FAULT_CHUNK", fault_chunk)
            monkeypatch.setattr(coverage_engine, "TABLE_WORD_CHUNK", word_chunk)
            engine._sweeps.clear()
            results.append(_key(evaluate_operator(operator, width, method="gate", store=False)))
        assert results[0] == results[1] == results[2]

    def test_n8_mul_calls_run_16_groups_over_512_words(self, monkeypatch):
        # The word chunk's n_nets x (rows + 1) clamp no longer binds at
        # n = 8: every kernel call is at most 16 groups plus the golden
        # row over exactly 512 words.
        arch = table2_architecture("mul", 8)
        calls = []
        run_outputs = fused_backend.FusedBackend.run_outputs

        def spy(backend, words, plan, n_rows, gates=None):
            if backend.compiled.source is arch.netlist:
                calls.append((n_rows, words.shape[1]))
            return run_outputs(backend, words, plan, n_rows, gates)

        monkeypatch.setattr(fused_backend.FusedBackend, "run_outputs", spy)
        evaluate_operator("mul", 8, store=False)
        assert calls
        assert max(rows for rows, _ in calls) <= TABLE_FAULT_CHUNK + 1 == 17
        assert {words for _, words in calls} == {TABLE_WORD_CHUNK} == {512}

    @pytest.mark.parametrize("operator, width", (("mul", 5), ("div", 5), ("add", 4)))
    def test_no_golden_run_outlives_its_chunk(self, monkeypatch, operator, width):
        # The fused golden-run cache holds each chunk's input rows
        # weakly: once a sweep returns, every golden run it computed is
        # freed (by reference counting alone, no cycle collection).
        arch = table2_architecture(operator, width)
        backend = engine_for(arch.netlist).backend
        goldens = []
        run_words = backend.run_words

        def tracking(block):
            golden = run_words(block)
            goldens.append(weakref.ref(golden))
            return golden

        monkeypatch.setattr(backend, "run_words", tracking)
        gc.disable()
        try:
            _gate_case_counts(operator, width, "xor3_majority")
            assert goldens
            assert all(ref() is None for ref in goldens)
            assert backend._golden_cache is None
        finally:
            gc.enable()


def _step_flag_counts(operator, width, s_lut, c_lut):
    """The per-position step DP ``case_flag_counts`` replaced, kept as
    its oracle: for fault position ``p``, push the state distribution
    through ``width`` steps, the faulty table at step ``p`` only.
    Every position runs as its own row of one batched walk."""
    t = transfer
    if operator == "add":
        n_states, init, shift = t._ADDER_STATES, t._ADDER_INIT, t._ADDER_FLAG_SHIFT
    else:
        n_states, init, shift = t._SUB_STATES, t._SUB_INIT, t._SUB_FLAG_SHIFT
    table_ff = transfer._table(operator)
    table_faulty = transfer._table(operator, s_lut, c_lut)
    positions = np.arange(width)[:, None]
    counts = np.zeros((width, n_states), dtype=np.int64)
    counts[:, init] = 1
    for step in range(width):
        nxt = np.zeros_like(counts)
        for ab in range(4):
            table = np.where(positions == step, table_faulty[ab], table_ff[ab])
            np.add.at(nxt, (np.broadcast_to(positions, table.shape), table), counts)
        counts = nxt
    out = np.zeros((width, 8), dtype=np.int64)
    flags = (np.arange(n_states) >> shift) & 7
    for f in range(8):
        out[:, f] = counts[:, flags == f].sum(axis=1)
    return out


class TestClosedFormTransfer:
    @pytest.mark.parametrize("width", (1, 2, 3, 4, 5, 6, 7, 8, 16, 30))
    @pytest.mark.parametrize("operator", ("add", "sub"))
    def test_closed_form_equals_step_dp(self, operator, width):
        for cell in ("xor3_majority", "two_xor"):
            for group in collapsed_cell_library(cell):
                rep = group.representative
                got = transfer.case_flag_counts(operator, width, rep.sum_lut, rep.carry_lut)
                want = _step_flag_counts(operator, width, rep.sum_lut, rep.carry_lut)
                assert got.shape == (width, 8)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (cell, group)
                assert (got.sum(axis=1) == 4 ** width).all()

    def test_one_call_per_cell_class(self, monkeypatch):
        calls = []
        counts = transfer.case_flag_counts

        def spy(*args):
            calls.append(args)
            return counts(*args)

        monkeypatch.setattr(coverage_engine, "case_flag_counts", spy)
        evaluate_adder(16, store=False)
        assert len(calls) == len(collapsed_cell_library())
        assert {args[1] for args in calls} == {16}

    def test_bad_arguments_raise(self):
        rep = collapsed_cell_library()[0].representative
        for operator, width in (("mul", 4), ("add", 0), ("add", transfer.MAX_TRANSFER_WIDTH + 1)):
            with pytest.raises(SimulationError):
                transfer.case_flag_counts(operator, width, rep.sum_lut, rep.carry_lut)
