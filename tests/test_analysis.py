"""Static-analysis subsystem: lint rules, cones, collapsing, SCOAP.

The collapsing tests are *differential*: dominance- and
equivalence-collapsed campaigns must expand back bit-identical to the
flat (uncollapsed) run -- per-fault detection verdicts, coverage stats
and campaign classifications -- across the execution-backend registry,
while simulating measurably fewer faults.  The lint tests build
deliberately broken netlists (a combinational loop, a floating net, a
multiply-driven net, ...) and check each lands on its expected rule.
"""

import numpy as np
import pytest

from repro.analysis.collapse import CollapseMap, collapse_faults
from repro.analysis.cones import analyze_cones
from repro.analysis.lint import assert_clean, lint_netlist
from repro.analysis.testability import (
    INFINITY,
    fault_efforts,
    hardest_faults,
    scoap,
)
from repro.arch.testbench import GATE_OPERATORS, table2_architecture
from repro.coverage.engine import evaluate_gate_level
from repro.errors import FaultError, NetlistError, SimulationError
from repro.gates.builders import (
    carry_select_adder,
    full_adder,
    ripple_carry_adder,
)
from repro.gates.cells import CellType
from repro.gates.engine import engine_for, run_stuck_at_campaign
from repro.gates.faults import (
    FaultSite,
    StuckAtFault,
    default_fault_universe,
    resolve_collapse_mode,
)
from repro.gates.netlist import Gate, Netlist
from repro.store import ResultStore
from repro.tpg.dictionary import build_fault_dictionary
from repro.tpg.generate import (
    UNIT_OPERATORS,
    compact_test_set,
    generate_tests,
    unit_netlist,
)

WIDTH = 4


# ----------------------------------------------------------------------
# Lint: broken netlists hit their expected rules
# ----------------------------------------------------------------------
class TestLintRules:
    def test_combinational_loop(self):
        nl = Netlist("loopy")
        a = nl.add_input("a")
        # g1 reads g2's output before it exists; add_gate allows reading
        # not-yet-driven nets, which is exactly how a loop sneaks in.
        nl.add_gate(CellType.AND, [a, "y"], "x", name="g1")
        nl.add_gate(CellType.OR, [a, "x"], "y", name="g2")
        nl.mark_output("y")
        report = lint_netlist(nl)
        hits = report.by_rule("combinational-loop")
        assert len(hits) == 1
        assert "g1" in hits[0].message and "g2" in hits[0].message
        assert not report.ok

    def test_floating_net(self):
        nl = Netlist("floaty")
        a = nl.add_input("a")
        nl.add_gate(CellType.AND, [a, "ghost"], "y", name="g1")
        nl.mark_output("y")
        report = lint_netlist(nl)
        hits = report.by_rule("undriven-net")
        assert [i.net for i in hits] == ["ghost"]
        assert "g1" in hits[0].message

    def test_undriven_primary_output(self):
        nl = Netlist("nodrv")
        nl.add_input("a")
        nl.mark_output("nothing")
        report = lint_netlist(nl)
        assert [i.net for i in report.by_rule("undriven-net")] == ["nothing"]

    def test_multiply_driven_net(self):
        nl = Netlist("multi")
        a = nl.add_input("a")
        b = nl.add_input("b")
        nl.add_gate(CellType.AND, [a, b], "y", name="g1")
        # add_gate refuses a second driver, so corrupt the graph the way
        # a buggy builder would: append the gate record directly.
        nl.gates.append(Gate(name="g2", cell_type=CellType.OR, inputs=(a, b), output="y"))
        nl.mark_output("y")
        report = lint_netlist(nl)
        hits = report.by_rule("multiply-driven-net")
        assert [i.net for i in hits] == ["y"]
        assert "g1" in hits[0].message and "g2" in hits[0].message

    def test_gate_driving_a_primary_input_is_multiply_driven(self):
        nl = Netlist("incol")
        x = nl.add_input("x")
        nl.add_input("y")
        nl.gates.append(
            Gate(name="g", cell_type=CellType.BUF, inputs=(x,), output="y")
        )
        nl.mark_output("y")
        hits = lint_netlist(nl).by_rule("multiply-driven-net")
        assert len(hits) == 1 and "<input>" in hits[0].message

    def test_duplicate_gate_name(self):
        nl = Netlist("dups")
        a = nl.add_input("a")
        nl.add_gate(CellType.NOT, [a], "x", name="g")
        nl.gates.append(Gate(name="g", cell_type=CellType.NOT, inputs=(a,), output="y"))
        nl.mark_output("y")
        hits = lint_netlist(nl).by_rule("duplicate-gate-name")
        assert [i.gate for i in hits] == ["g"]

    def test_dangling_output_warning(self):
        nl = Netlist("dangle")
        a = nl.add_input("a")
        b = nl.add_input("b")
        nl.add_gate(CellType.AND, [a, b], "y", name="g1")
        nl.add_gate(CellType.OR, [a, b], "z", name="g2")  # nothing reads z
        nl.mark_output("y")
        report = lint_netlist(nl)
        assert report.ok  # warnings only
        assert [i.net for i in report.by_rule("dangling-output")] == ["z"]

    def test_unreachable_logic_warning(self):
        nl = Netlist("unreach")
        a = nl.add_input("a")
        b = nl.add_input("b")
        nl.add_gate(CellType.AND, [a, b], "dead", name="g1")
        nl.add_gate(CellType.NOT, ["dead"], "deader", name="g2")
        nl.add_gate(CellType.OR, [a, b], "y", name="g3")
        nl.mark_output("y")
        report = lint_netlist(nl)
        assert {i.gate for i in report.by_rule("unreachable-logic")} == {"g1"}
        assert {i.gate for i in report.by_rule("dangling-output")} == {"g2"}

    def test_unused_input_warning(self):
        nl = Netlist("unused")
        a = nl.add_input("a")
        nl.add_input("b")
        nl.add_gate(CellType.NOT, [a], "y", name="g1")
        nl.mark_output("y")
        assert [i.net for i in lint_netlist(nl).by_rule("unused-input")] == ["b"]

    def test_rail_misuse_warning(self):
        nl = Netlist("rails")
        zero = nl.add_input("zero")
        one = nl.add_input("one")
        a = nl.add_input("a")
        nl.add_gate(CellType.AND, [zero, one], "const", name="g1")
        nl.add_gate(CellType.OR, [a, "const"], "y", name="g2")
        nl.mark_output("y")
        nl.mark_output("one")
        hits = lint_netlist(nl).by_rule("rail-misuse")
        assert {i.net for i in hits} == {"const", "one"}

    def test_assert_clean_raises_on_errors_only(self):
        nl = Netlist("bad")
        a = nl.add_input("a")
        nl.add_gate(CellType.AND, [a, "ghost"], "y", name="g1")
        nl.mark_output("y")
        with pytest.raises(NetlistError, match="undriven-net"):
            assert_clean(nl)
        report = assert_clean(nl, ignore=("undriven-net",))
        assert report.ok

    def test_ignore_unknown_rule_rejected(self):
        with pytest.raises(NetlistError, match="unknown lint rule"):
            lint_netlist(ripple_carry_adder(2), ignore=("no-such-rule",))

    def test_report_render_mentions_rules(self):
        nl = Netlist("bad")
        a = nl.add_input("a")
        nl.add_gate(CellType.AND, [a, "ghost"], "y", name="g1")
        nl.mark_output("y")
        text = lint_netlist(nl).render()
        assert "undriven-net" in text and "[error]" in text


class TestLintShippedNetlists:
    @pytest.mark.parametrize("unit", UNIT_OPERATORS)
    def test_units_error_clean(self, unit):
        assert lint_netlist(unit_netlist(unit, WIDTH)).ok

    @pytest.mark.parametrize("operator", GATE_OPERATORS)
    def test_table2_architectures_error_clean(self, operator):
        assert lint_netlist(table2_architecture(operator, WIDTH).netlist).ok

    def test_carry_select_adder_fully_clean(self):
        # The rails fix: a single-section CSA no longer declares unused
        # zero/one inputs, so the builder lints clean of warnings too.
        for width, block in ((2, 2), (4, 2), (8, 4)):
            report = lint_netlist(carry_select_adder(width, block))
            assert report.ok and not report.warnings, report.render()

    def test_lint_cli_passes_on_registered_netlists(self, capsys):
        from repro.analysis.lint import main

        assert main(["--width", "3"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "FAIL" not in out


# ----------------------------------------------------------------------
# Collapsing: dominance is exact and actually smaller
# ----------------------------------------------------------------------
def _random_inputs(netlist, n_vectors, seed):
    rng = np.random.default_rng(seed)
    return {
        name: rng.integers(0, 2, size=n_vectors, dtype=np.uint8)
        for name in netlist.primary_inputs
    }


class TestCollapse:
    def test_resolve_collapse_mode(self):
        assert resolve_collapse_mode(True) == "equivalence"
        assert resolve_collapse_mode(False) == "none"
        assert resolve_collapse_mode("dominance") == "dominance"
        with pytest.raises(FaultError, match="unknown collapse mode"):
            resolve_collapse_mode("bogus")
        with pytest.raises(FaultError):
            collapse_faults(ripple_carry_adder(2), mode="none")

    def test_rca8_reduction_floor(self):
        cmap = collapse_faults(ripple_carry_adder(8), mode="dominance")
        assert cmap.n_faults == 242
        assert cmap.reduction >= 0.25, cmap.summary()
        assert cmap.n_kept < cmap.n_classes < cmap.n_faults
        # Topological order: every predecessor of a dropped class is
        # resolvable (kept, or dropped earlier).
        resolved = set(cmap.kept)
        for ci in cmap.dropped:
            assert cmap.implied_by[ci]
            resolved.add(ci)
        assert resolved == set(range(cmap.n_classes))

    def test_equivalence_map_keeps_everything(self):
        netlist = ripple_carry_adder(4)
        cmap = collapse_faults(netlist, mode="equivalence")
        assert cmap.dropped == ()
        assert cmap.kept == tuple(range(cmap.n_classes))
        assert all(not p for p in cmap.implied_by)

    @pytest.mark.parametrize("backend", ("python_loop", "fused"))
    def test_dominance_exhaustive_bit_identical(self, backend, use_backend):
        netlist = ripple_carry_adder(8)
        use_backend(backend)
        engine = engine_for(netlist)
        flat = engine.campaign(collapse=False, fault_dropping=False)
        eq = engine.campaign(collapse="equivalence", fault_dropping=False)
        dom = engine.campaign(collapse="dominance", fault_dropping=False)
        assert np.array_equal(flat.detected, eq.detected)
        assert np.array_equal(flat.detected, dom.detected)
        # Equivalence keeps first_detected exact; dominance witnesses
        # must at least be valid detecting vectors.
        assert np.array_equal(flat.first_detected, eq.first_detected)
        hit = dom.detected
        assert np.all(dom.first_detected[hit] >= 0)
        assert np.all(dom.first_detected[~hit] == -1)
        # And it must actually be cheaper: 968 -> 712 runs on RCA-8.
        assert dom.n_simulated_runs <= 0.75 * flat.n_simulated_runs

    @pytest.mark.parametrize("backend", ("python_loop", "fused"))
    @pytest.mark.parametrize("fault_dropping", (False, True))
    def test_dominance_sparse_vectors_bit_identical(
        self, backend, fault_dropping, use_backend
    ):
        # Few random vectors leave many classes undetected, forcing the
        # residual-simulation waves (dominators whose predecessors all
        # came back undetected must still be simulated directly).
        netlist = ripple_carry_adder(6)
        inputs = _random_inputs(netlist, 4, seed=7)
        use_backend(backend)
        flat = run_stuck_at_campaign(
            netlist, inputs, collapse=False, fault_dropping=fault_dropping
        )
        dom = run_stuck_at_campaign(
            netlist, inputs, collapse="dominance", fault_dropping=fault_dropping
        )
        assert np.array_equal(flat.detected, dom.detected)
        assert 0 < flat.detected.sum() < flat.detected.size

    def test_dominance_witness_vectors_actually_detect(self):
        netlist = ripple_carry_adder(4)
        engine = engine_for(netlist)
        dom = engine.campaign(collapse="dominance", fault_dropping=False)
        flat = engine.campaign(collapse=False, fault_dropping=False)
        n_vectors = 2 ** len(netlist.primary_inputs)
        for fi in np.nonzero(dom.detected)[0]:
            assert 0 <= dom.first_detected[fi] < n_vectors
        # Flat first_detected is the earliest witness; dominance may
        # report a later vector but never an earlier (impossible) one.
        hit = dom.detected
        assert np.all(dom.first_detected[hit] >= flat.first_detected[hit])

    def test_explicit_fault_subset_collapses(self):
        netlist = ripple_carry_adder(4)
        subset = tuple(default_fault_universe(netlist))[:40]
        cmap = collapse_faults(netlist, faults=subset, mode="dominance")
        assert cmap.n_faults == 40
        engine = engine_for(netlist)
        flat = engine.campaign(
            faults=subset, collapse=False, fault_dropping=False
        )
        dom = engine.campaign(
            faults=subset, collapse="dominance", fault_dropping=False
        )
        assert np.array_equal(flat.detected, dom.detected)

    def test_evaluate_gate_level_stats_identical(self):
        netlist = ripple_carry_adder(5)
        flat_cov, flat_res = evaluate_gate_level(
            netlist, collapse=False, store=False
        )
        dom_cov, dom_res = evaluate_gate_level(
            netlist, collapse="dominance", store=False
        )
        assert dom_cov.total == flat_cov.total
        assert dom_cov.detected == flat_cov.detected
        assert dom_cov.n_vectors == flat_cov.n_vectors
        assert dom_cov.simulated_runs < flat_cov.simulated_runs

    def test_dictionary_rejects_dominance(self):
        netlist = ripple_carry_adder(3)
        with pytest.raises(SimulationError, match="dominance"):
            build_fault_dictionary(netlist, collapse="dominance", store=False)
        with pytest.raises(SimulationError, match="dominance"):
            compact_test_set(
                netlist, method="dictionary", collapse="dominance", store=False
            )

    def test_generate_tests_dominance_same_verdicts(self):
        netlist = ripple_carry_adder(4)
        base = generate_tests(netlist, store=False)
        dom = generate_tests(netlist, collapse="dominance", store=False)
        assert {f.describe() for f in base.undetected} == {
            f.describe() for f in dom.undetected
        }
        assert base.dictionary.coverage == dom.dictionary.coverage

    def test_generate_tests_testability_order(self):
        netlist = ripple_carry_adder(4)
        result = generate_tests(netlist, order="testability", store=False)
        assert result.dictionary.coverage == 1.0
        with pytest.raises(SimulationError, match="unknown order"):
            generate_tests(netlist, order="bogus", store=False)


# ----------------------------------------------------------------------
# Support cones
# ----------------------------------------------------------------------
class TestCones:
    def test_rca_supports_and_reach(self):
        netlist = ripple_carry_adder(8)
        cones = analyze_cones(netlist)
        assert cones.support_of("fa3_s") == (
            "a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "cin",
        )
        assert cones.outputs_reached("a7") == ("fa7_s", "fa7_cout")
        assert cones.outputs_reached("cin") == tuple(netlist.primary_outputs)
        # A ripple adder is one cone: every PO shares the cin support.
        assert len(cones.output_partitions()) == 1

    def test_disjoint_netlists_partition(self):
        nl = Netlist("pair")
        for tag in ("u", "v"):
            a = nl.add_input(f"{tag}_a")
            b = nl.add_input(f"{tag}_b")
            nl.add_gate(CellType.XOR, [a, b], f"{tag}_y", name=f"{tag}_g")
            nl.mark_output(f"{tag}_y")
        parts = analyze_cones(nl).output_partitions()
        assert sorted(parts) == [("u_y",), ("v_y",)]

    def test_primary_input_support_is_itself(self):
        cones = analyze_cones(ripple_carry_adder(2))
        assert cones.support_of("a0") == ("a0",)


# ----------------------------------------------------------------------
# SCOAP testability
# ----------------------------------------------------------------------
class TestScoap:
    def test_full_adder_hand_values(self):
        netlist = full_adder()
        measures = scoap(netlist)
        assert measures.of("a") == (1, 1, measures.of("a")[2])
        assert measures.of("p")[:2] == (3, 3)
        assert measures.of("p")[2] == 2
        assert measures.of("g2")[:2] == (2, 5)
        assert measures.of("g1") == (2, 3, 3)

    def test_pinned_rails_are_infinite_opposite(self):
        nl = Netlist("railed")
        one = nl.add_input("one")
        a = nl.add_input("a")
        nl.add_gate(CellType.AND, [a, one], "y", name="g")
        nl.mark_output("y")
        measures = scoap(nl, constants={"one": 1})
        cc0, cc1, _ = measures.of("one")
        assert cc1 == 1 and cc0 >= INFINITY

    def test_fault_efforts_and_hardest(self):
        netlist = ripple_carry_adder(4)
        faults = default_fault_universe(netlist)
        efforts = fault_efforts(netlist)
        assert efforts.shape == (len(faults),)
        assert (efforts > 0).all()
        top = hardest_faults(netlist, limit=5)
        assert len(top) == 5
        values = [effort for _, effort in top]
        assert values == sorted(values, reverse=True)
        assert values[0] == efforts.max()

    def test_fault_efforts_unknown_net_raises(self):
        netlist = ripple_carry_adder(2)
        bogus = StuckAtFault(FaultSite("no_such_net"), 1)
        with pytest.raises(FaultError):
            fault_efforts(netlist, faults=[bogus])


# ----------------------------------------------------------------------
# Result-store round trips
# ----------------------------------------------------------------------
class TestAnalysisStore:
    def test_artifacts_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        netlist = ripple_carry_adder(4)

        cones_cold = analyze_cones(netlist, store=store)
        cmap_cold = collapse_faults(netlist, mode="dominance", store=store)
        scoap_cold = scoap(netlist, store=store)
        puts = store.stats.snapshot()["puts"]
        assert puts >= 3

        store.clear_lru()
        cones_warm = analyze_cones(netlist, store=store)
        cmap_warm = collapse_faults(netlist, mode="dominance", store=store)
        scoap_warm = scoap(netlist, store=store)
        assert store.stats.snapshot()["puts"] == puts  # pure hits

        assert cones_warm.support_of("fa3_s") == cones_cold.support_of("fa3_s")
        assert cones_warm.partitions == cones_cold.partitions
        assert isinstance(cmap_warm, CollapseMap)
        assert cmap_warm == cmap_cold
        assert scoap_warm.of("fa3_s") == scoap_cold.of("fa3_s")
        assert np.array_equal(scoap_warm.co, scoap_cold.co)
