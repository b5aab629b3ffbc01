"""Campaign planning (:mod:`repro.gates.tune`) and backend selection.

Covers the chunk-resolution rule (keyword > caller default), the
determinism and bookkeeping of resolved plans (shape facts, chunk
knobs, the plan log and its resolution memo), and the rejection of
backend names that are not registered -- including the former
``"auto"`` sentinel and the removed ``threaded``/``numba``/``cupy``
tiers -- with an error naming the selection's source and the
available backends.
"""

import pytest

from repro.errors import SimulationError
from repro.gates import builders
from repro.gates.backends import BACKEND_ENV, list_backends, resolve_backend_name
from repro.gates.compile import compile_netlist
from repro.gates.engine import engine_for
from repro.gates.tune import (
    clear_plan_log,
    last_plan,
    plan_log,
    resolve_chunking,
    resolve_sparse,
)


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
# Plan resolution: shape facts and the plan log
# ----------------------------------------------------------------------
class TestResolvePlan:
    def test_deterministic_for_fixed_shape(self):
        netlist = builders.ripple_carry_adder(4)
        clear_plan_log()
        first = resolve_sparse(netlist)
        clear_plan_log()
        again = resolve_sparse(netlist)
        assert first == again
        assert first.source.startswith("sparse-")
        assert first.backend in list_backends()
        assert first.reason

    def test_explicit_backend_passes_through(self):
        plan = resolve_sparse(builders.full_adder(), backend="python_loop")
        assert plan.backend == "python_loop"

    def test_shape_uses_caller_universe_sizes(self):
        netlist = builders.ripple_carry_adder(4)
        plan = resolve_sparse(netlist, n_groups=7, n_words=3)
        assert plan.shape.n_faults == 7
        assert plan.shape.n_words == 3
        assert plan.shape.total_cells == 21

    def test_chunk_knobs_respected(self):
        netlist = builders.ripple_carry_adder(4)
        plan = resolve_sparse(netlist, word_chunk=32, fault_chunk=8)
        assert plan.fault_chunk == 8
        assert plan.word_chunk <= 32
        compiled = compile_netlist(netlist)
        assert plan.shape.row_cells == compiled.n_nets * 9

    def test_plan_log_records_and_memo_dedups(self):
        netlist = builders.ripple_carry_adder(3)
        clear_plan_log()
        plan = resolve_sparse(netlist)
        assert last_plan() == plan
        assert len(plan_log()) == 1
        # A repeated identical resolution is served from the memo and
        # does not grow the log.
        assert resolve_sparse(netlist) == plan
        assert len(plan_log()) == 1
        clear_plan_log()
        assert last_plan() is None


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
