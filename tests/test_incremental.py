"""Incremental campaign recomputation: diff, reuse proof, bit-identity.

The load-bearing property is that
:func:`repro.faults.incremental.incremental_stuck_at_campaign` over an
edited netlist equals a from-scratch
:func:`~repro.gates.engine.run_stuck_at_campaign` in every verdict
field -- ``faults`` / ``detected`` / ``first_detected`` /
``n_vectors`` / ``groups`` -- with only the ``n_simulated_runs`` work
counter allowed to shrink.  Randomised single- and multi-gate edits
(cell-type swaps and input rewiring, which changes cone membership and
even the fault-universe size) exercise that differentially.
"""

import numpy as np
import pytest

from repro.errors import NetlistError, SimulationError
from repro.faults.incremental import (
    diff_netlists,
    dirty_outputs,
    incremental_stuck_at_campaign,
)
from repro.faults.injector import run_sharded_stuck_at_campaign
from repro.gates import builders
from repro.gates.engine import run_stuck_at_campaign
from repro.gates.netlist import CellType
from repro.store import ResultStore

SWAPPABLE = (
    CellType.AND,
    CellType.OR,
    CellType.XOR,
    CellType.NAND,
    CellType.NOR,
    CellType.XNOR,
)


def _random_edit(netlist, rng, n_gates=1, rewire=False):
    """Return an edited copy: cell-type swaps, optionally one rewiring."""
    new = netlist.copy()
    two_input = [g.name for g in new.gates if len(g.inputs) == 2]
    for name in rng.choice(two_input, size=n_gates, replace=False):
        gate = next(g for g in new.gates if g.name == name)
        choices = [c for c in SWAPPABLE if c is not gate.cell_type]
        new.replace_gate(name, cell_type=choices[int(rng.integers(len(choices)))])
    if rewire:
        name = str(rng.choice(two_input))
        gate = next(g for g in new.gates if g.name == name)
        new.replace_gate(
            name, inputs=(new.primary_inputs[0], gate.inputs[1])
        )
    return new


def _gate(netlist, name):
    return next(g for g in netlist.gates if g.name == name)


def _assert_same_verdicts(scratch, merged):
    assert scratch.faults == merged.faults
    assert np.array_equal(scratch.detected, merged.detected)
    assert np.array_equal(scratch.first_detected, merged.first_detected)
    assert scratch.n_vectors == merged.n_vectors
    assert scratch.groups == merged.groups


# ----------------------------------------------------------------------
# Netlist versioning primitives
# ----------------------------------------------------------------------
class TestNetlistEditing:
    def test_copy_is_independent(self):
        base = builders.ripple_carry_adder(3)
        dup = base.copy()
        assert [g.name for g in dup.gates] == [g.name for g in base.gates]
        dup.replace_gate("fa0_x1", cell_type=CellType.AND)
        assert _gate(base, "fa0_x1").cell_type is CellType.XOR
        assert _gate(dup, "fa0_x1").cell_type is CellType.AND

    def test_copy_rename(self):
        base = builders.full_adder()
        assert base.copy("v2").name == "v2"
        assert base.copy().name == base.name

    def test_replace_gate_keeps_name_and_output(self):
        netlist = builders.full_adder()
        before = _gate(netlist, "x2")
        gate = netlist.replace_gate("x2", cell_type=CellType.XNOR)
        assert gate.name == "x2"
        assert gate.output == before.output
        assert gate.cell_type is CellType.XNOR

    def test_replace_gate_bumps_version(self):
        netlist = builders.full_adder()
        version = netlist.version
        netlist.replace_gate("x1", cell_type=CellType.OR)
        assert netlist.version != version

    def test_replace_gate_unknown_name(self):
        with pytest.raises(NetlistError, match="no gate named"):
            builders.full_adder().replace_gate("nope", cell_type=CellType.AND)

    def test_replace_gate_undriven_input(self):
        netlist = builders.full_adder()
        with pytest.raises(NetlistError, match="not driven"):
            netlist.replace_gate("x2", inputs=("ghost_net", "cin"))


# ----------------------------------------------------------------------
# Structural diff
# ----------------------------------------------------------------------
class TestDiff:
    def test_identical(self):
        base = builders.ripple_carry_adder(3)
        diff = diff_netlists(base, base.copy())
        assert diff.is_empty
        assert diff.n_changed_gates == 0
        assert diff.describe() == "identical"

    def test_modified(self):
        base = builders.ripple_carry_adder(3)
        new = base.copy()
        new.replace_gate("fa1_x2", cell_type=CellType.XNOR)
        diff = diff_netlists(base, new)
        assert diff.modified == ("fa1_x2",)
        assert not (diff.added or diff.removed or diff.io_changed)
        assert "fa1_x2" in diff.describe()

    def test_added_and_removed(self):
        old = builders.full_adder()
        new = builders.ripple_carry_adder(2)
        diff = diff_netlists(old, new)
        assert set(diff.removed) == {g.name for g in old.gates}
        assert set(diff.added) == {g.name for g in new.gates}
        assert diff.io_changed

    def test_io_change_only(self):
        old = builders.ripple_carry_adder(2)
        new = builders.ripple_carry_adder(2)
        new.primary_outputs = list(reversed(new.primary_outputs))
        assert diff_netlists(old, new).io_changed

    def test_dirty_outputs_localised(self):
        base = builders.ripple_carry_adder(4)
        new = base.copy()
        # Bit-0 sum XOR reaches only s0; the carry chain is untouched.
        new.replace_gate("fa0_x2", cell_type=CellType.XNOR)
        dirty = dirty_outputs(base, new, diff_netlists(base, new))
        assert dirty == frozenset({"fa0_s"})
        # A carry-chain edit dirties every downstream output.
        deep = base.copy()
        deep.replace_gate("fa0_o1", cell_type=CellType.NAND)
        dirty = dirty_outputs(base, deep, diff_netlists(base, deep))
        assert dirty == frozenset({"fa1_s", "fa2_s", "fa3_s", "fa3_cout"})


# ----------------------------------------------------------------------
# Bit-identity against from-scratch campaigns
# ----------------------------------------------------------------------
class TestIncrementalBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_single_gate_edits(self, seed):
        rng = np.random.default_rng(seed)
        base = builders.ripple_carry_adder(4)
        old = run_stuck_at_campaign(base)
        new = _random_edit(base, rng, n_gates=1)
        inc = incremental_stuck_at_campaign(base, new, old_result=old)
        assert not inc.scratch
        _assert_same_verdicts(run_stuck_at_campaign(new), inc.result)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_multi_gate_edits(self, seed):
        rng = np.random.default_rng(100 + seed)
        base = builders.carry_lookahead_adder(3)
        old = run_stuck_at_campaign(base)
        new = _random_edit(base, rng, n_gates=3)
        inc = incremental_stuck_at_campaign(base, new, old_result=old)
        _assert_same_verdicts(run_stuck_at_campaign(new), inc.result)

    @pytest.mark.parametrize("seed", range(3))
    def test_rewiring_changes_cone_membership(self, seed):
        # Rewiring an input both moves cones and changes the fault
        # universe itself (branch fault sites follow the connections).
        rng = np.random.default_rng(200 + seed)
        base = builders.ripple_carry_adder(4)
        old = run_stuck_at_campaign(base)
        new = _random_edit(base, rng, n_gates=1, rewire=True)
        inc = incremental_stuck_at_campaign(base, new, old_result=old)
        _assert_same_verdicts(run_stuck_at_campaign(new), inc.result)

    def test_identical_netlists_reuse_everything(self):
        base = builders.ripple_carry_adder(3)
        old = run_stuck_at_campaign(base)
        inc = incremental_stuck_at_campaign(base, base.copy(), old_result=old)
        assert inc.diff.is_empty
        assert inc.n_resimulated_faults == 0
        assert inc.reuse_fraction == 1.0
        assert inc.result.n_simulated_runs == 0
        _assert_same_verdicts(old, inc.result)

    def test_shallow_edit_reuses_most_of_the_universe(self):
        base = builders.ripple_carry_adder(4)
        old = run_stuck_at_campaign(base)
        new = base.copy()
        # Bit-0 sum XOR reaches only s0: everything not feeding s0
        # (the other stages' gates and operand bits) keeps its verdict.
        new.replace_gate("fa0_x2", cell_type=CellType.XNOR)
        inc = incremental_stuck_at_campaign(base, new, old_result=old)
        assert inc.n_reused_faults > inc.n_resimulated_faults
        assert inc.result.n_simulated_runs < old.n_simulated_runs
        assert "incremental: reused" in inc.reason
        _assert_same_verdicts(run_stuck_at_campaign(new), inc.result)

    def test_collapse_none_mode(self):
        base = builders.ripple_carry_adder(3)
        old = run_stuck_at_campaign(base, collapse="none")
        new = base.copy()
        new.replace_gate("fa1_a1", cell_type=CellType.NOR)
        inc = incremental_stuck_at_campaign(
            base, new, old_result=old, collapse="none"
        )
        assert inc.n_reused_faults > 0
        _assert_same_verdicts(
            run_stuck_at_campaign(new, collapse="none"), inc.result
        )

    def test_no_fault_dropping(self):
        base = builders.ripple_carry_adder(3)
        old = run_stuck_at_campaign(base, fault_dropping=False)
        new = base.copy()
        new.replace_gate("fa2_x1", cell_type=CellType.XNOR)
        inc = incremental_stuck_at_campaign(
            base, new, old_result=old, fault_dropping=False
        )
        _assert_same_verdicts(
            run_stuck_at_campaign(new, fault_dropping=False), inc.result
        )

    def test_sparse_remainder_path(self):
        base = builders.ripple_carry_adder(4)
        old = run_stuck_at_campaign(base)
        new = base.copy()
        new.replace_gate("fa1_x2", cell_type=CellType.XNOR)
        inc = incremental_stuck_at_campaign(base, new, old_result=old)
        _assert_same_verdicts(run_stuck_at_campaign(new), inc.result)


# ----------------------------------------------------------------------
# Scope fallbacks
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_dominance_rejected(self):
        base = builders.full_adder()
        with pytest.raises(SimulationError, match="dominance"):
            incremental_stuck_at_campaign(
                base, base.copy(), collapse="dominance"
            )

    def test_io_change_falls_back_to_scratch(self):
        old = builders.ripple_carry_adder(2)
        new = builders.ripple_carry_adder(2)
        new.primary_outputs = list(reversed(new.primary_outputs))
        inc = incremental_stuck_at_campaign(
            old, new, old_result=run_stuck_at_campaign(old)
        )
        assert inc.scratch
        assert "I/O" in inc.reason
        _assert_same_verdicts(run_stuck_at_campaign(new), inc.result)

    def test_missing_old_result_falls_back(self):
        base = builders.ripple_carry_adder(2)
        new = base.copy()
        new.replace_gate("fa0_x1", cell_type=CellType.OR)
        # store=False: a warm REPRO_STORE must not supply the old result.
        inc = incremental_stuck_at_campaign(base, new, store=False)
        assert inc.scratch
        assert "no old campaign result" in inc.reason
        _assert_same_verdicts(run_stuck_at_campaign(new), inc.result)

    def test_partial_old_result_falls_back(self):
        base = builders.ripple_carry_adder(2)
        from repro.gates.faults import default_fault_universe

        partial = run_stuck_at_campaign(
            base, faults=list(default_fault_universe(base))[:5], collapse="none"
        )
        new = base.copy()
        new.replace_gate("fa1_x1", cell_type=CellType.OR)
        inc = incremental_stuck_at_campaign(base, new, old_result=partial)
        assert inc.scratch
        assert "exhaustive default universe" in inc.reason
        _assert_same_verdicts(run_stuck_at_campaign(new), inc.result)


# ----------------------------------------------------------------------
# Store integration
# ----------------------------------------------------------------------
class TestStoreFlow:
    def test_old_result_found_in_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        base = builders.ripple_carry_adder(3)
        run_sharded_stuck_at_campaign(base, store=store)
        new = base.copy()
        new.replace_gate("fa2_x2", cell_type=CellType.XNOR)
        inc = incremental_stuck_at_campaign(base, new, store=store)
        assert not inc.scratch
        assert inc.n_reused_faults > 0
        _assert_same_verdicts(run_stuck_at_campaign(new), inc.result)

    def test_merged_result_lands_in_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        base = builders.ripple_carry_adder(3)
        run_sharded_stuck_at_campaign(base, store=store)
        new = base.copy()
        new.replace_gate("fa0_a2", cell_type=CellType.OR)
        inc = incremental_stuck_at_campaign(base, new, store=store)
        # The merged result sits under the regular campaign key: a
        # plain store-backed campaign over `new` is now a pure hit.
        hit = run_sharded_stuck_at_campaign(new, store=store)
        assert hit.n_simulated_runs == inc.result.n_simulated_runs
        _assert_same_verdicts(hit, inc.result)

    def test_incremental_chain(self, tmp_path):
        # v1 -> v2 -> v3, each step reusing the previous merged result.
        store = ResultStore(str(tmp_path))
        v1 = builders.ripple_carry_adder(3)
        run_sharded_stuck_at_campaign(v1, store=store)
        v2 = v1.copy()
        v2.replace_gate("fa0_x2", cell_type=CellType.XNOR)
        step1 = incremental_stuck_at_campaign(v1, v2, store=store)
        assert not step1.scratch
        v3 = v2.copy()
        v3.replace_gate("fa2_x2", cell_type=CellType.XNOR)
        step2 = incremental_stuck_at_campaign(v2, v3, store=store)
        assert not step2.scratch
        assert step2.n_reused_faults > 0
        _assert_same_verdicts(run_stuck_at_campaign(v3), step2.result)


class TestObservability:
    def test_event_emitted(self):
        from repro.obs import registry

        reg = registry()
        before = reg.counter_total("repro_events_total")
        base = builders.ripple_carry_adder(2)
        old = run_stuck_at_campaign(base)
        incremental_stuck_at_campaign(base, base.copy(), old_result=old)
        counters = reg.snapshot()["counters"]
        assert "repro_events_total{event=incremental_campaign}" in counters
        assert reg.counter_total("repro_events_total") > before
