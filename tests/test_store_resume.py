"""Crash/replay hardening of the checkpointed coverage-sweep runtime.

A "crash" is simulated with :func:`repro.store.shard_hook`: the hook
fires *before* each shard executes (execution turns sequential and
in-process while one is installed), so a hook that raises after ``k``
successful calls kills the run with exactly ``k`` shard checkpoints on
disk and no final artifact.  The replay assertions are the runtime's
acceptance bar: the resumed run loads those ``k`` shards, re-executes
exactly ``n - k``, and the merged result is byte-identical to an
uninterrupted run.  A corrupted checkpoint is detected by its payload
checksum, discarded with a :class:`StoreCorruptionWarning`, and
transparently recomputed.
"""

import glob
import os

import pytest

from repro.coverage.engine import evaluate_adder
from repro.store import (
    CheckpointReport,
    ResultStore,
    StoreCorruptionWarning,
    last_checkpoint_report,
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


class TestGateSweepCrashReplay:
    """The gate and functional sweeps share one checkpointed path."""

    @pytest.mark.parametrize("method", ["gate", "functional"])
    def test_killed_evaluator_resumes_and_matches_plain_run(self, tmp_path, method):
        def run(store):
            return evaluate_adder(3, method=method, workers=2, store=store)

        plain = run(False)

        # Learn the total shard count from a clean checkpointed run.
        hook, fired = counting_hook()
        with shard_hook(hook):
            clean = run(ResultStore(tmp_path / "a"))
        total = len(fired)
        assert total >= 2
        assert clean == plain

        k = 1
        store = ResultStore(tmp_path / "b")
        with shard_hook(crash_after(k)):
            with pytest.raises(Bomb):
                run(store)

        hook, fired = counting_hook()
        with shard_hook(hook):
            resumed = run(store)
        assert len(fired) == total - k  # exactly n - k shards re-execute
        assert resumed == plain
        assert resumed["both"].method == method


class TestGateSweepFinalHit:
    def test_third_run_is_a_pure_final_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        with shard_hook(crash_after(1)):
            with pytest.raises(Bomb):
                evaluate_adder(3, workers=4, store=store)
        resumed = evaluate_adder(3, workers=4, store=store)
        hits = store.stats.hits
        again = evaluate_adder(3, workers=4, store=store)
        assert store.stats.hits == hits + 1  # final key, no shard traffic
        assert again == resumed


class TestCorruptedCheckpoint:
    def _corrupt_one_checkpoint(self, store, kind):
        payloads = sorted(
            glob.glob(os.path.join(store.root, "objects", kind, "*.json"))
        )
        assert payloads, "expected shard checkpoints on disk"
        with open(payloads[0], "wb") as handle:
            handle.write(b"not an npz payload")
        return payloads[0]

    def test_corrupt_checkpoint_is_discarded_and_recomputed(self, tmp_path):
        reference = evaluate_adder(3, workers=4, store=False)
        store = ResultStore(tmp_path)
        k = 2
        with shard_hook(crash_after(k)):
            with pytest.raises(Bomb):
                evaluate_adder(3, workers=4, store=store)

        corrupted = self._corrupt_one_checkpoint(store, "coverage")
        store.clear_lru()  # force the resume through the disk path

        with pytest.warns(StoreCorruptionWarning, match="corrupt"):
            resumed = evaluate_adder(3, workers=4, store=store)
        report = last_checkpoint_report()
        # One of the k checkpoints was bad: detected, discarded, re-run.
        assert report == CheckpointReport(total=4, loaded=k - 1, executed=4 - k + 1)
        assert store.stats.corrupt == 1
        assert resumed == reference
        # The corrupt payload was replaced by the recomputed shard.
        assert os.path.exists(corrupted)
        store.clear_lru()
        final = evaluate_adder(3, workers=4, store=store)
        assert store.stats.corrupt == 1  # no further corruption events
        assert final == reference
