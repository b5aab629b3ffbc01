"""Chunk geometry, campaign schedules and backend selection.

Covers the chunk-resolution rule (keyword > caller default), the
budget clamp on the word chunk, the determinism and per-engine reuse
of campaign schedules, and the rejection of backend names
that are not registered -- including the former ``"auto"`` sentinel and
the removed ``threaded``/``numba``/``cupy`` tiers -- with an error
naming the selection's source and the available backends.
"""

import pytest

from repro.analysis.cones import analyze_cones, analyze_gate_cones
from repro.errors import SimulationError
from repro.gates import builders, sparse
from repro.gates.backends import BACKEND_ENV, list_backends, resolve_backend_name
from repro.gates.compile import compile_netlist
from repro.gates.engine import (
    GATE_MATRIX_BUDGET_ENV,
    engine_for,
    matrix_word_chunk,
    resolve_chunking,
    run_stuck_at_campaign,
)
from repro.gates.faults import default_fault_universe


# ----------------------------------------------------------------------
# Chunk resolution: one rule for the whole stack
# ----------------------------------------------------------------------
class TestResolveChunking:
    def test_defaults(self):
        assert resolve_chunking() == (512, 64)
        assert resolve_chunking(
            default_word_chunk=256, default_fault_chunk=32
        ) == (256, 32)

    def test_explicit_beats_default(self):
        assert resolve_chunking(64, 8) == (64, 8)
        assert resolve_chunking(word_chunk=64) == (64, 64)
        assert resolve_chunking(
            fault_chunk=8, default_word_chunk=256
        ) == (256, 8)

    def test_clamped_to_one(self):
        assert resolve_chunking(-5, -5) == (1, 1)


# ----------------------------------------------------------------------
# Campaign plans: schedules, chunk knobs and backend selection
# ----------------------------------------------------------------------
class TestResolvePlan:
    def test_deterministic_for_fixed_shape(self):
        # The engine replays cached schedules across campaigns, which
        # is only sound if scheduling one class list is deterministic.
        netlist = builders.ripple_carry_adder(4)
        compiled = compile_netlist(netlist)
        universe = list(default_fault_universe(netlist))
        gate_cones = analyze_gate_cones(netlist)
        cones = analyze_cones(netlist)
        first, again = (
            sparse.build_schedule(compiled, universe, 16, gate_cones, cones)
            for _ in range(2)
        )
        assert len(first.batches) == len(again.batches)
        for a, b in zip(first.batches, again.batches):
            assert a.members == b.members
            assert a.out_ids == b.out_ids
            assert (a.gates == b.gates).all()

    def test_explicit_backend_passes_through(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fused")
        engine = engine_for(builders.full_adder(), "python_loop")
        assert engine.backend_name == "python_loop"
        assert engine.backend.name == "python_loop"

    def test_chunk_knobs_respected(self, monkeypatch):
        monkeypatch.delenv(GATE_MATRIX_BUDGET_ENV, raising=False)
        netlist = builders.ripple_carry_adder(4)
        compiled = compile_netlist(netlist)
        row_cells = compiled.n_nets * 9
        assert matrix_word_chunk(row_cells, 32) == 32
        # A budget too small for the request clamps the word chunk.
        assert 8 <= matrix_word_chunk(row_cells, 32, budget=8 * row_cells) < 32

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
# Selections that name no registered backend
# ----------------------------------------------------------------------
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
