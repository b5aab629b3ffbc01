"""Crash/replay hardening of the checkpointed coverage-sweep runtime.

The coverage evaluators run their whole case range as one span; these
tests cut a sweep into explicit fault-case spans and drive
:func:`repro.store.run_checkpointed` over them directly, one checkpoint
per span.  A "crash" is simulated with :func:`repro.store.shard_hook`:
the hook fires *before* each span executes, so a hook that raises after
``k`` successful calls kills the run with exactly ``k`` span checkpoints
on disk.  The replay assertions are the runtime's acceptance bar: the
resumed run loads those ``k`` spans, re-executes exactly ``n - k``, and
the merged result is byte-identical to an uninterrupted run.  A
corrupted checkpoint is detected by its payload checksum, discarded
with a :class:`StoreCorruptionWarning`, and transparently recomputed.
"""

import glob
import os

import pytest

from repro.arch.cell import DEFAULT_CELL_NETLIST, collapsed_cell_library
from repro.arch.testbench import table2_architecture
from repro.coverage.engine import (
    _SPECS,
    _functional_case_counts,
    _gate_case_counts,
    evaluate_adder,
)
from repro.store import (
    CacheKey,
    CheckpointReport,
    ResultStore,
    StoreCorruptionWarning,
    digest_params,
    last_checkpoint_report,
    run_checkpointed,
    shard_hook,
)


class Bomb(RuntimeError):
    """The simulated crash."""


def crash_after(k):
    """A shard hook that lets ``k`` shards complete, then raises."""
    state = {"completed": 0}

    def hook(index):
        if state["completed"] >= k:
            raise Bomb(f"simulated crash before shard {index}")
        state["completed"] += 1

    return hook


def counting_hook():
    """A benign hook recording which shard indices execute."""
    fired = []

    def hook(index):
        fired.append(index)

    return hook, fired


def span_sweep(method, n_spans):
    """``run(store)``: the ``add`` n = 3 sweep of ``method`` cut into
    ``n_spans`` contiguous case spans, checkpointed per span."""
    if method == "gate":
        worker = _gate_case_counts
        n_cases = len(collapsed_cell_library()) * len(
            table2_architecture("add", 3).positions
        )
    else:
        worker = _functional_case_counts
        n_cases = len(_SPECS["add"].case_list(3, DEFAULT_CELL_NETLIST))
    cuts = [n_cases * i // n_spans for i in range(n_spans + 1)]
    spans = list(zip(cuts, cuts[1:]))
    key = CacheKey(
        kind="coverage",
        netlist=digest_params(operator="add", width=3),
        universe="xor3_majority",
        space=digest_params(exhaustive=True),
        method=method,
    )

    def run(store):
        return run_checkpointed(
            worker,
            [("add", 3, DEFAULT_CELL_NETLIST) + span for span in spans],
            [key.with_shard(*span) for span in spans],
            store,
        )

    return run, worker("add", 3, DEFAULT_CELL_NETLIST, 0, n_cases)


class TestSpanCrashReplay:
    """The gate and functional sweeps share one checkpointed path."""

    @pytest.mark.parametrize("method", ["gate", "functional"])
    def test_killed_sweep_resumes_and_matches_plain_run(self, tmp_path, method):
        run, whole = span_sweep(method, 3)
        plain = run(None)
        assert sum(plain, []) == whole

        k = 1
        store = ResultStore(tmp_path)
        with shard_hook(crash_after(k)):
            with pytest.raises(Bomb):
                run(store)

        hook, fired = counting_hook()
        with shard_hook(hook):
            resumed = run(store)
        assert fired == [1, 2]  # exactly n - k spans re-execute
        assert resumed == plain
        assert last_checkpoint_report() == CheckpointReport(total=3, loaded=k, executed=2)


class TestGateSweepFinalHit:
    def test_third_run_is_a_pure_final_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        with shard_hook(crash_after(0)):
            with pytest.raises(Bomb):
                evaluate_adder(3, store=store)
        resumed = evaluate_adder(3, store=store)
        hits = store.stats.hits
        again = evaluate_adder(3, store=store)
        assert store.stats.hits == hits + 1  # final key, no span traffic
        assert again == resumed == evaluate_adder(3, store=False)


class TestCorruptedCheckpoint:
    def _corrupt_one_checkpoint(self, store, kind):
        payloads = sorted(
            glob.glob(os.path.join(store.root, "objects", kind, "*.json"))
        )
        assert payloads, "expected span checkpoints on disk"
        with open(payloads[0], "wb") as handle:
            handle.write(b"not an npz payload")
        return payloads[0]

    def test_corrupt_checkpoint_is_discarded_and_recomputed(self, tmp_path):
        run, _ = span_sweep("gate", 4)
        reference = run(None)
        store = ResultStore(tmp_path)
        k = 2
        with shard_hook(crash_after(k)):
            with pytest.raises(Bomb):
                run(store)

        corrupted = self._corrupt_one_checkpoint(store, "coverage")
        store.clear_lru()  # force the resume through the disk path

        with pytest.warns(StoreCorruptionWarning, match="corrupt"):
            resumed = run(store)
        report = last_checkpoint_report()
        # One of the k checkpoints was bad: detected, discarded, re-run.
        assert report == CheckpointReport(total=4, loaded=k - 1, executed=4 - k + 1)
        assert store.stats.corrupt == 1
        assert resumed == reference
        # The corrupt payload was replaced by the recomputed span.
        assert os.path.exists(corrupted)
        store.clear_lru()
        final = run(store)
        assert last_checkpoint_report() == CheckpointReport(total=4, loaded=4, executed=0)
        assert store.stats.corrupt == 1  # no further corruption events
        assert final == reference
