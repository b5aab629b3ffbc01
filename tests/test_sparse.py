"""The cone-scheduled campaign sweep: schedules, kernels, campaigns.

Three layers of checks:

* structural -- gate cones match brute-force reachability, and every
  cone schedule covers each member fault's full cone with an
  ascending (topological) gate list;
* kernel -- ``run_detect`` given a schedule batch equals ``run_detect``
  without one, element-wise, on every fast backend, and the Table
  sweeps' cone ``run_outputs`` with a batch's own plan equals the full
  ``python_loop`` matrix, and the ``fused`` walk on live-net workspace
  slots equals the ``reference`` oracle on the cone batches of deep
  and corner-case netlists, also with rows out of level order;
* campaign -- every verdict field (``detected``, ``first_detected``,
  ``groups``; ``n_simulated_runs`` is a work counter and is not
  checked) equals a brute-force oracle built from faulty truth tables
  that never enters the campaign sweep, across backends, collapse
  modes, fault dropping, chunk geometry, the four paper units, the
  Table 2 test architectures, a 15-input exhaustive universe that
  spans several vector slabs and a partial vector set with a ragged
  tail word.

Plus the determinism and per-engine replay of campaign schedules and
the skip counter the cone walk reports.  Chunk geometry is a module
constant of :mod:`repro.gates.engine`; the seam checks patch it.
"""

import random

import numpy as np
import pytest

from repro.analysis.cones import analyze_cones, analyze_gate_cones
from repro.arch.testbench import table2_architecture
from repro.errors import SimulationError
from repro.gates import backends, builders, sparse
from repro.gates import engine as gate_engine
from repro.gates.backends import create_backend, list_backends
from repro.gates.backends.fused import FusedBackend
from repro.gates.backends.plan import OverridePlan
from repro.gates.cells import CellType
from repro.gates.compile import compile_netlist
from repro.gates.engine import (
    LANES,
    engine_for,
    exhaustive_words,
    run_stuck_at_campaign,
    unpack_bits,
)
from repro.gates.faults import (
    default_equivalence_groups,
    default_fault_universe,
    resolve_collapse_mode,
)
from repro.gates.netlist import Netlist
from repro.gates.sparse import SPARSE_WORD_SUBCHUNK, build_schedule, fault_cone_mask
from repro.obs import registry
from repro.tpg.generate import unit_netlist

ALL_BACKENDS = list_backends()
FAST_BACKENDS = tuple(n for n in ALL_BACKENDS if n != "reference")
UNITS = ("add", "sub", "mul", "div")
COLLAPSE_MODES = ("equivalence", "dominance", "none")


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

    @pytest.mark.parametrize("fault_chunk", [1, 8])
    def test_multi_site_batches_are_member_unions(self, fault_chunk):
        # Table sweep rows: several sites per group, sites shared across
        # groups, plus one empty group, against a per-fault brute force
        # (one group per batch pins every group's own cone).
        arch = table2_architecture("mul", 3, "xor3_majority")
        netlist = arch.netlist
        compiled = compile_netlist(netlist)
        gate_cones = analyze_gate_cones(netlist)
        cones = analyze_cones(netlist)
        universe = default_fault_universe(netlist)
        rng = np.random.default_rng(3)
        groups = [
            tuple(universe[i] for i in rng.choice(len(universe), k, replace=False))
            for k in rng.integers(1, 6, size=60)
        ]
        groups.insert(17, ())
        sched = build_schedule(compiled, groups, fault_chunk, gate_cones, cones)
        out_ids = [int(i) for i in compiled.output_ids]
        seen = []
        for batch in sched.batches:
            seen.extend(batch.members)
            want_gates, want_outs = set(), set()
            for m in batch.members:
                for fault in groups[m]:
                    bits = np.unpackbits(
                        fault_cone_mask(compiled, gate_cones, fault).view(np.uint8),
                        bitorder="little",
                    )
                    want_gates |= {int(g) for g in np.nonzero(bits)[0]}
                    if fault.site.is_stem:
                        reach = cones.reach_masks[compiled.net_id(fault.site.net)]
                    else:
                        gate, _ = compiled.pin_id(*fault.site.branch)
                        reach = cones.reach_masks[compiled.gate_output_ids[gate]]
                    rbits = np.unpackbits(reach.view(np.uint8), bitorder="little")
                    want_outs |= {out_ids[k] for k in np.nonzero(rbits)[0]}
            assert {int(g) for g in batch.gates} == want_gates
            assert set(batch.out_ids) == want_outs
        assert sorted(seen) == list(range(len(groups)))

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

    def test_deterministic_for_fixed_shape(self):
        # The engine replays cached schedules across campaigns, which
        # is only sound if scheduling one class list is deterministic.
        netlist = builders.ripple_carry_adder(4)
        compiled = compile_netlist(netlist)
        universe = list(default_fault_universe(netlist))
        gate_cones = analyze_gate_cones(netlist)
        cones = analyze_cones(netlist)
        first, again = (
            build_schedule(compiled, universe, 16, gate_cones, cones)
            for _ in range(2)
        )
        assert len(first.batches) == len(again.batches)
        for a, b in zip(first.batches, again.batches):
            assert a.members == b.members
            assert a.out_ids == b.out_ids
            assert (a.gates == b.gates).all()

    def test_repeated_campaign_replays_cached_schedule(self, monkeypatch):
        netlist = builders.ripple_carry_adder(5)
        first = run_stuck_at_campaign(netlist)
        calls = []
        build = sparse.build_schedule
        monkeypatch.setattr(
            sparse,
            "build_schedule",
            lambda *a, **k: calls.append(1) or build(*a, **k),
        )
        again = run_stuck_at_campaign(netlist)
        assert not calls
        assert (first.first_detected == again.first_detected).all()


# ----------------------------------------------------------------------
# Kernel-level bit-identity: a schedule never changes detection words
# ----------------------------------------------------------------------
class TestKernelDifferential:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("unit", UNITS)
    def test_run_detect_sparse_equals_dense(self, backend, unit):
        netlist = unit_netlist(unit, 3)
        compiled = compile_netlist(netlist)
        impl = create_backend(backend, compiled)
        words = exhaustive_words(compiled.n_inputs).words
        universe = default_fault_universe(netlist)
        gate_cones = analyze_gate_cones(netlist)
        cones = analyze_cones(netlist)
        sched = build_schedule(compiled, list(universe), 16, gate_cones, cones)
        for batch in sched.batches:
            faults = [universe[m] for m in batch.members]
            plan = OverridePlan(compiled, faults)
            dense = impl.run_detect(words, plan, len(faults))
            sparse = impl.run_detect(
                words, plan, len(faults), batch.gates, batch.out_ids
            )
            assert np.array_equal(dense, sparse)

    def test_base_fallback_on_unsupported_backend(self):
        # python_loop inherits the base run_detect, which must accept a
        # schedule, ignore it and produce the unscheduled words.
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
            impl.run_detect(
                packed.words, plan, len(faults), batch.gates, batch.out_ids
            ),
        )

    def test_schedule_missing_a_fault_site_rejected(self):
        netlist = builders.ripple_carry_adder(4)
        compiled = compile_netlist(netlist)
        impl = create_backend("fused", compiled)
        words = np.tile(exhaustive_words(compiled.n_inputs).words, (1, 128))
        universe = default_fault_universe(netlist)
        branch = [f for f in universe if not f.site.is_stem][:8]
        plan = OverridePlan(compiled, branch)
        with pytest.raises(SimulationError, match="does not cover"):
            impl.run_detect(
                words, plan, len(branch), np.zeros(0, dtype=np.int64), None
            )


class TestSweepCone:
    """``run_outputs(gates=)``: the cone walk of the Table 1/2 sweeps."""

    @pytest.mark.parametrize("operator", UNITS)
    def test_cone_outputs_equal_python_loop(self, operator):
        arch = table2_architecture(operator, 3, "xor3_majority")
        compiled = compile_netlist(arch.netlist)
        universe = default_fault_universe(arch.netlist)
        rng = np.random.default_rng(7)
        # Random multi-site groups of one to three stuck-ats each.
        groups = [
            tuple(universe[i] for i in rng.choice(len(universe), k, replace=False))
            for k in rng.integers(1, 4, size=40)
        ]
        sched = build_schedule(
            compiled, groups, 16, analyze_gate_cones(arch.netlist),
            analyze_cones(arch.netlist),
        )
        rows = arch.space.input_rows(0, arch.space.n_words)
        fused = create_backend("fused", compiled)
        oracle = create_backend("python_loop", compiled)
        for batch in sched.batches:
            members = [groups[m] for m in batch.members]
            n_rows = len(members) + 1
            want = oracle.run_outputs(rows, OverridePlan(compiled, members), n_rows)
            assert np.array_equal(
                fused.run_outputs(rows, batch.plan, n_rows, batch.gates), want
            )
            # The base kernel ignores the cone: still the full matrix.
            assert np.array_equal(
                oracle.run_outputs(rows, batch.plan, n_rows, batch.gates), want
            )

    def test_out_of_order_rows_in_a_cone_walk(self):
        # The sweep's call shape with its rows out of level order: the
        # ride-along golden row first, random multi-site groups, then a
        # primary-input (level-0) stem row last.  No schedule sorted
        # them; the cone and output set come from the groups' masks.
        arch = table2_architecture("add", 3, "xor3_majority")
        netlist = arch.netlist
        compiled = compile_netlist(netlist)
        universe = default_fault_universe(netlist)
        rng = np.random.default_rng(5)
        members = [
            tuple(universe[i] for i in rng.choice(len(universe), k, replace=False))
            for k in rng.integers(1, 4, size=15)
        ]
        stem = next(
            f for f in universe
            if f.site.is_stem and not compiled.net_levels[compiled.net_id(f.site.net)]
        )
        groups = [(), *members, (stem,)]
        faults = [f for group in groups for f in group]
        assert any(not f.site.is_stem for f in faults)
        levels = [
            min((sparse._site_level(compiled, f)[0] for f in group),
                default=compiled.depth + 1)
            for group in groups
        ]
        assert levels[0] > levels[-1]
        gate_cones, cones = analyze_gate_cones(netlist), analyze_cones(netlist)
        gates = sparse._mask_to_indices(
            np.bitwise_or.reduce(
                [fault_cone_mask(compiled, gate_cones, f) for f in faults]
            ),
            compiled.n_gates,
        )
        reach = np.bitwise_or.reduce(
            [sparse._fault_reach_mask(compiled, cones, f) for f in faults]
        )
        out_ids = tuple(
            int(compiled.output_ids[k])
            for k in sparse._mask_to_indices(reach, compiled.n_outputs)
        )
        assert 0 < len(gates) < compiled.n_gates
        rows = arch.space.input_rows(0, arch.space.n_words)
        plan = OverridePlan(compiled, groups)
        n = len(groups)
        fused = create_backend("fused", compiled)
        oracle = create_backend("reference", compiled)
        assert np.array_equal(
            fused.run_outputs(rows, plan, n, gates), oracle.run_outputs(rows, plan, n)
        )
        detect = fused.run_detect(rows, plan, n, gates, out_ids)
        assert np.array_equal(detect, oracle.run_detect(rows, plan, n))
        assert detect[1:].any() and not detect[0].any()

    def test_cone_missing_a_branch_site_rejected(self):
        netlist = builders.ripple_carry_adder(4)
        compiled = compile_netlist(netlist)
        impl = create_backend("fused", compiled)
        words = exhaustive_words(compiled.n_inputs).words
        branch = [f for f in default_fault_universe(netlist) if not f.site.is_stem]
        plan = OverridePlan(compiled, branch[:4])
        gate, _ = compiled.pin_id(*branch[0].site.branch)
        cone = np.array([g for g in range(compiled.n_gates) if g != gate])
        with pytest.raises(SimulationError, match="branch-override gate"):
            impl.run_outputs(words, plan, 5, cone)


# ----------------------------------------------------------------------
# Live-net workspace slots of the fused prefix walk
# ----------------------------------------------------------------------
_CHAIN_CELLS = (
    (CellType.AND, 2), (CellType.OR, 2), (CellType.XOR, 2), (CellType.NAND, 3),
    (CellType.NOR, 2), (CellType.XNOR, 3), (CellType.NOT, 1), (CellType.BUF, 1),
)


def _chain_netlist(seed=3, n_inputs=6, n_gates=90):
    """A random deep netlist: operands come from the last few nets (so
    it is chain-like), may repeat within one gate, and every fifth net
    is also a primary output read further down."""
    rng = random.Random(seed)
    nl = Netlist(f"chain{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        cell, arity = _CHAIN_CELLS[rng.randrange(len(_CHAIN_CELLS))]
        recent = nets[-8:] + [rng.choice(nets[:n_inputs])]
        nl.add_gate(cell, [rng.choice(recent) for _ in range(arity)], f"n{g}")
        nets.append(f"n{g}")
    for net in sorted(set(nets[n_inputs + 4 :: 5] + [nets[-1]])):
        nl.mark_output(net)
    return nl


def _slot_groups(compiled, universe, seed=11):
    """Single faults plus two-pin branch groups (one row overridden on
    two pins of one gate) and random multi-site groups."""
    groups = list(universe)
    by_gate = {}
    for fault in universe:
        if not fault.site.is_stem:
            gate, pin = compiled.pin_id(*fault.site.branch)
            by_gate.setdefault(gate, {}).setdefault(pin, fault)
    groups += [tuple(pins.values())[:2] for pins in by_gate.values() if len(pins) > 1]
    rng = np.random.default_rng(seed)
    groups += [
        tuple(universe[i] for i in rng.choice(len(universe), k, replace=False))
        for k in rng.integers(2, 4, size=40)
    ]
    return groups


def _assert_slot_walk_matches(compiled, groups, words, fault_chunk):
    """``fused`` equals ``reference`` on every cone batch of ``groups``
    (``run_detect`` and the sweeps' ``run_outputs`` with a ride-along
    golden row) and on the whole-netlist walk in caller row order."""
    fused = create_backend("fused", compiled)
    oracle = create_backend("reference", compiled)
    netlist = compiled.source
    sched = build_schedule(
        compiled, groups, fault_chunk, analyze_gate_cones(netlist),
        analyze_cones(netlist),
    )
    for batch in sched.batches:
        n = len(batch.members)
        want = oracle.run_detect(words, batch.plan, n)
        got = fused.run_detect(words, batch.plan, n, batch.gates, batch.out_ids)
        assert np.array_equal(got, want)
        want = oracle.run_outputs(words, batch.plan, n + 1)
        assert np.array_equal(fused.run_outputs(words, batch.plan, n + 1, batch.gates), want)
    plan = OverridePlan(compiled, groups)
    assert np.array_equal(
        fused.run_detect(words, plan, len(groups)),
        oracle.run_detect(words, plan, len(groups)),
    )
    assert np.array_equal(
        fused.run_outputs(words, plan, len(groups)),
        oracle.run_outputs(words, plan, len(groups)),
    )
    return sched


def _peak_live(program, pinned):
    """Most gate outputs live at once in ``program``: produced, and
    either pinned or read by a later gate of the program."""
    last = {nid: i for i, entry in enumerate(program) for nid in entry[3]}
    live, peak = set(), 0
    for i, (_, _, _, operand_ids, out_id) in enumerate(program):
        live.add(out_id)
        peak = max(peak, len(live))
        live -= {
            nid for nid in (*operand_ids, out_id)
            if nid not in pinned and last.get(nid, -1) <= i
        }
    return peak


class TestSlotWalk:
    """The fused walk's workspace holds one slot per *live* net; every
    result still equals the interpreting oracle."""

    def test_chain_netlist_has_every_corner(self):
        compiled = compile_netlist(_chain_netlist())
        offsets = compiled.operand_offsets
        operands = [
            compiled.operands[offsets[g] : offsets[g + 1]].tolist()
            for g in range(compiled.n_gates)
        ]
        read = {nid for ops in operands for nid in ops}
        assert any(len(set(ops)) < len(ops) for ops in operands)
        assert read & set(compiled.output_ids.tolist())
        assert compiled.depth >= 20

    @pytest.mark.parametrize("fault_chunk", (7, 64))
    def test_cone_batches_match_reference(self, fault_chunk):
        netlist = _chain_netlist()
        compiled = compile_netlist(netlist)
        words = exhaustive_words(compiled.n_inputs).words
        groups = _slot_groups(compiled, default_fault_universe(netlist))
        sched = _assert_slot_walk_matches(compiled, groups, words, fault_chunk)
        # Some cone reads a net produced by a gate outside it.
        driver = dict(zip(compiled.gate_output_ids.tolist(), range(compiled.n_gates)))
        offsets = compiled.operand_offsets
        outside = 0
        for batch in sched.batches:
            cone = set(batch.gates.tolist())
            for g in cone:
                for nid in compiled.operands[offsets[g] : offsets[g + 1]].tolist():
                    outside += nid in driver and driver[nid] not in cone
        assert outside

    def test_rdiv_chain_matches_reference(self):
        # The restoring divider at n = 6 is 100 levels deep; the
        # campaign's class representatives over the first 128 vectors.
        netlist = builders.restoring_divider(6)
        compiled = compile_netlist(netlist)
        assert compiled.depth >= 100
        universe = default_fault_universe(netlist)
        reps = [universe[g[0]] for g in default_equivalence_groups(netlist)]
        words = exhaustive_words(compiled.n_inputs).words[:, :2]
        _assert_slot_walk_matches(
            compiled, reps, words, gate_engine.SWEEP_FAULT_CHUNK
        )

    @pytest.mark.parametrize("make", (_chain_netlist, lambda: builders.restoring_divider(4)))
    def test_all_rows_and_two_rows_branch_overrides(self, make):
        netlist = make()
        compiled = compile_netlist(netlist)
        universe = default_fault_universe(netlist)
        words = exhaustive_words(compiled.n_inputs).words[:, :4]
        branches = {}
        for fault in universe:
            if not fault.site.is_stem:
                gate, pin = compiled.pin_id(*fault.site.branch)
                branches.setdefault(gate, {}).setdefault(pin, []).append(fault)
        levels = compiled.net_levels
        deep = max(
            (g for g, pins in branches.items() if len(pins) > 1),
            key=lambda g: levels[compiled.gate_output_ids[g]],
        )
        pair = tuple(faults[0] for faults in list(branches[deep].values())[:2])
        # Every row of the batch overrides the deep gate.
        every = [f for faults in branches[deep].values() for f in faults] + [pair]
        _assert_slot_walk_matches(compiled, every, words, len(every))
        # Many upstream stem rows taint the gate's prefix and only two
        # rows override it, one of them on two pins at once.
        stems = [
            f for f in universe
            if f.site.is_stem and levels[compiled.net_id(f.site.net)]
            < levels[compiled.gate_output_ids[deep]]
        ]
        assert len(stems) > 48
        two_rows = stems + [pair, branches[deep][next(iter(branches[deep]))][0]]
        sched = _assert_slot_walk_matches(compiled, two_rows, words, len(two_rows))
        assert len(sched.batches) == 1
        (batch,) = sched.batches
        pins = batch.plan.branch_by_gate[deep]
        all_rows = np.arange(batch.plan.n_rows)
        rows = [r for idx, _ in pins.values() for r in all_rows[idx].tolist()]
        assert len(set(rows)) == 2 < len(rows)

    def test_div7_workspace_holds_live_nets_only(self, monkeypatch):
        netlist = unit_netlist("div", 7)
        compiled = compile_netlist(netlist)
        fused = FusedBackend(compiled)
        level0 = int((compiled.net_levels == 0).sum())
        peak = _peak_live(fused._flat_program, set(fused._output_ids))
        # A cone program's live set at each gate is a subset of the
        # whole program's, so this bounds every campaign batch too.
        assert fused._slot_map(fused._flat_program)[1] == level0 + peak
        slots = []
        workspace = FusedBackend._workspace

        def spy(backend, n_slots, n_rows, n_words):
            if backend.compiled is compiled:
                slots.append(n_slots)
            return workspace(backend, n_slots, n_rows, n_words)

        monkeypatch.setattr(FusedBackend, "_workspace", spy)
        run_stuck_at_campaign(netlist)
        assert slots
        assert max(slots) <= level0 + peak < compiled.n_nets // 4


# ----------------------------------------------------------------------
# Brute-force oracle: faulty truth tables vs the golden truth table
# ----------------------------------------------------------------------
def _vector_ids(netlist, inputs):
    """Exhaustive-set index of every vector of a partial input set."""
    ids = np.zeros(len(next(iter(inputs.values()))), dtype=np.int64)
    for k, name in enumerate(netlist.primary_inputs):
        ids |= np.asarray(inputs[name], dtype=np.int64) << k
    return ids


def _oracle_hits(netlist, faults, inputs=None):
    """``hits[i, j]``: fault ``faults[i]`` changes some output on vector j.

    Built per fault (not per class) from
    :meth:`~repro.gates.engine.BitParallelEngine.truth_tables` on the
    independent ``python_loop`` backend against the golden truth table;
    no campaign code runs.  ``inputs`` selects a partial vector set,
    otherwise the exhaustive set is used.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "DEFAULT_BACKEND", "python_loop")
        engine = engine_for(netlist)
    packed = engine.exhaustive()
    golden = unpack_bits(engine.output_words(packed), packed.n_vectors).T
    ids = None if inputs is None else _vector_ids(netlist, inputs)
    if ids is not None:
        golden = golden[ids]
    rows = []
    for lo in range(0, len(faults), 16):
        tables = engine.truth_tables(faults[lo : lo + 16])
        if ids is not None:
            tables = tables[:, ids]
        rows.append((tables != golden).any(axis=2))
    return np.concatenate(rows)


def _expected_groups(netlist, n_faults, mode):
    if mode == "equivalence":
        return default_equivalence_groups(netlist)
    if mode == "dominance":
        from repro.analysis.collapse import collapse_faults

        return collapse_faults(netlist, mode=mode).groups
    return tuple((i,) for i in range(n_faults))


def _assert_matches_oracle(result, netlist, collapse=True, inputs=None, hits=None):
    """``result`` is the default-universe campaign over ``netlist``;
    ``hits`` its precomputed :func:`_oracle_hits`, if at hand."""
    mode = resolve_collapse_mode(collapse)
    if hits is None:
        hits = _oracle_hits(netlist, default_fault_universe(netlist), inputs)
    detected = hits.any(axis=1)
    earliest = np.where(detected, hits.argmax(axis=1), -1)
    assert result.faults == default_fault_universe(netlist)
    assert result.n_vectors == hits.shape[1]
    assert np.array_equal(result.detected, detected)
    first = result.first_detected
    if mode == "dominance":
        # Inferred classes carry a valid witness, not the earliest one.
        assert np.all(first[~detected] == -1)
        assert hits[np.nonzero(detected)[0], first[detected]].all()
    else:
        assert np.array_equal(first, earliest)
    expected = _expected_groups(netlist, len(result.faults), mode)
    assert result.groups == tuple(tuple(g) for g in expected)


# ----------------------------------------------------------------------
# Campaign verdicts against the oracle
# ----------------------------------------------------------------------
class TestCampaignEquivalence:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("unit", UNITS)
    def test_unit_campaigns(self, backend, unit, use_backend):
        netlist = unit_netlist(unit, 3)
        use_backend(backend)
        _assert_matches_oracle(run_stuck_at_campaign(netlist), netlist)

    @pytest.mark.parametrize("unit", ("add", "sub"))
    def test_unit_campaigns_width4(self, unit):
        netlist = unit_netlist(unit, 4)
        _assert_matches_oracle(run_stuck_at_campaign(netlist), netlist)

    @pytest.mark.parametrize("collapse", COLLAPSE_MODES)
    def test_collapse_modes(self, collapse):
        netlist = builders.ripple_carry_adder(4)
        _assert_matches_oracle(
            run_stuck_at_campaign(netlist, collapse=collapse), netlist, collapse
        )

    def test_no_fault_dropping(self):
        netlist = builders.carry_lookahead_adder(3)
        _assert_matches_oracle(
            run_stuck_at_campaign(netlist, fault_dropping=False), netlist
        )

    @pytest.mark.parametrize("operator", UNITS)
    def test_table2_architectures(self, operator):
        arch = table2_architecture(operator, 3)
        _assert_matches_oracle(run_stuck_at_campaign(arch.netlist), arch.netlist)

    def test_odd_chunk_geometry(self, monkeypatch):
        netlist = builders.ripple_carry_adder(5)
        hits = _oracle_hits(netlist, default_fault_universe(netlist))
        for geometry in ((1, 3), (2, 7), (512, 1)):
            _set_geometry(monkeypatch, geometry)
            _assert_matches_oracle(
                run_stuck_at_campaign(netlist), netlist, hits=hits
            )

    def test_partial_vector_set(self):
        netlist = builders.ripple_carry_adder(4)
        rng = np.random.default_rng(11)
        inputs = {
            name: rng.integers(0, 2, 97, dtype=np.uint8)
            for name in netlist.primary_inputs
        }
        _assert_matches_oracle(
            run_stuck_at_campaign(netlist, inputs=inputs), netlist, inputs=inputs
        )


def _set_geometry(monkeypatch, geometry):
    """Force campaign chunk seams: ``geometry`` is ``(word_chunk,
    fault_chunk)``, or ``(None, None)`` for the shipped constants."""
    word_chunk, fault_chunk = geometry
    if word_chunk is not None:
        monkeypatch.setattr(gate_engine, "SWEEP_WORD_CHUNK", word_chunk)
        monkeypatch.setattr(gate_engine, "SWEEP_FAULT_CHUNK", fault_chunk)


def _wide():
    # 15 inputs: 512 words, so fault dropping runs slabs [0, 64),
    # [64, 192), [192, 448) and [448, 512).  Input k first toggles at
    # vector 2**k, so faults needing cin (input 14) high are first
    # detected in the third slab.
    return builders.ripple_carry_adder(7)


def _partial(netlist):
    # 100 vectors: two words, the second with 36 valid lanes.  a0 is held
    # at 1, so a0 stuck-at-1 escapes the set, while the zero-padded
    # phantom lanes of the tail word would detect it.
    rng = np.random.default_rng(5)
    inputs = {
        name: rng.integers(0, 2, 100, dtype=np.uint8)
        for name in netlist.primary_inputs
    }
    inputs["a0"][:] = 1
    return inputs


@pytest.fixture(scope="module")
def wide_hits():
    netlist = _wide()
    return _oracle_hits(netlist, default_fault_universe(netlist))


@pytest.fixture(scope="module")
def partial_hits():
    netlist = builders.ripple_carry_adder(4)
    return _oracle_hits(netlist, default_fault_universe(netlist), _partial(netlist))


class TestCampaignOracle:
    """The full grid on two vector sets that stress slab bookkeeping."""

    def test_wide_universe_needs_late_slabs(self, wide_hits):
        first = wide_hits.argmax(axis=1)[wide_hits.any(axis=1)]
        third_slab = (SPARSE_WORD_SUBCHUNK + 2 * SPARSE_WORD_SUBCHUNK) * LANES
        assert first.max() >= third_slab

    def test_slabs_capped_at_word_chunk(self, monkeypatch):
        engine = engine_for(_wide())
        widths = []
        run_detect = engine.backend.run_detect

        def spy(words, *args):
            widths.append(words.shape[1])
            return run_detect(words, *args)

        monkeypatch.setattr(engine.backend, "run_detect", spy)
        monkeypatch.setattr(gate_engine, "SWEEP_WORD_CHUNK", 96)
        engine.campaign()
        assert widths[0] == SPARSE_WORD_SUBCHUNK
        assert max(widths) == 96

    def test_partial_set_has_phantom_only_detections(self, partial_hits):
        netlist = builders.ripple_carry_adder(4)
        assert partial_hits.shape[1] % LANES
        zero = {name: np.zeros(1, dtype=np.uint8) for name in netlist.primary_inputs}
        universe = default_fault_universe(netlist)
        phantom = _oracle_hits(netlist, universe, zero).any(axis=1)
        assert np.any(phantom & ~partial_hits.any(axis=1))

    @pytest.mark.parametrize("geometry", ((None, None), (7, 5)), ids=("default", "odd"))
    @pytest.mark.parametrize("fault_dropping", (True, False), ids=("drop", "keep"))
    @pytest.mark.parametrize("collapse", COLLAPSE_MODES)
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_exhaustive_wide(
        self, backend, collapse, fault_dropping, geometry, wide_hits, monkeypatch,
        use_backend,
    ):
        netlist = _wide()
        _set_geometry(monkeypatch, geometry)
        use_backend(backend)
        result = run_stuck_at_campaign(
            netlist, collapse=collapse, fault_dropping=fault_dropping
        )
        _assert_matches_oracle(result, netlist, collapse, hits=wide_hits)

    @pytest.mark.parametrize("geometry", ((None, None), (1, 3)), ids=("default", "odd"))
    @pytest.mark.parametrize("fault_dropping", (True, False), ids=("drop", "keep"))
    @pytest.mark.parametrize("collapse", COLLAPSE_MODES)
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_partial_ragged_tail(
        self, backend, collapse, fault_dropping, geometry, partial_hits, monkeypatch,
        use_backend,
    ):
        netlist = builders.ripple_carry_adder(4)
        _set_geometry(monkeypatch, geometry)
        use_backend(backend)
        result = run_stuck_at_campaign(
            netlist,
            inputs=_partial(netlist),
            collapse=collapse,
            fault_dropping=fault_dropping,
        )
        _assert_matches_oracle(result, netlist, collapse, hits=partial_hits)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestSparseObservability:
    def test_skip_counter_advances(self):
        # Without fault dropping every RCA-8 batch streams full
        # 256-word slabs; batches of deep fault sites have union cones
        # far smaller than the netlist, so their walks skip gates.
        reg = registry()
        before = reg.counter_total("repro_sparse_gates_skipped_total")
        run_stuck_at_campaign(builders.ripple_carry_adder(8), fault_dropping=False)
        after = reg.counter_total("repro_sparse_gates_skipped_total")
        assert after > before
