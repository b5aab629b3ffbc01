"""Crash/replay hardening of the checkpoint runtime.

:func:`repro.store.run_checkpointed` runs a worker once per span and
lands each span's result in the store as it completes.  These tests cut
a computation into explicit spans and drive the runtime over them
directly, one checkpoint per span: the row spans of the gate and
functional per-case count matrices of the ``add`` n = 3 sweep, and a
synthetic one (the squares of a range, one uint64 array per span).  A "crash" is simulated with
:func:`repro.store.shard_hook`: the hook fires *before* each span
executes, so a hook that raises after ``k`` successful calls kills the
run with exactly ``k`` span checkpoints on disk.  The replay assertions
are the runtime's acceptance bar: the resumed run loads those ``k``
spans, re-executes exactly ``n - k``, and the merged result is
byte-identical to an uninterrupted run.  A corrupted checkpoint is
detected by its payload checksum, discarded with a
:class:`StoreCorruptionWarning`, and transparently recomputed.
"""

import glob
import os

import numpy as np
import pytest

from repro.arch.cell import DEFAULT_CELL_NETLIST
from repro.coverage.engine import _functional_case_counts, _gate_case_counts
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

N_ITEMS = 30


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


def span_squares(lo, hi):
    """One span's partial result: the squares of ``lo..hi-1``."""
    return np.arange(lo, hi, dtype=np.uint64) ** 2


def span_run(n_spans):
    """``run(store)``: the squares of ``range(N_ITEMS)`` cut into
    ``n_spans`` contiguous spans, checkpointed per span."""
    cuts = [N_ITEMS * i // n_spans for i in range(n_spans + 1)]
    spans = list(zip(cuts, cuts[1:]))
    key = CacheKey(
        kind="squares",
        netlist=digest_params(n_items=N_ITEMS),
        universe="u",
        space="s",
        method="span",
    )

    def run(store):
        return run_checkpointed(
            span_squares, spans, [key.with_shard(*span) for span in spans], store
        )

    return run


def merged(parts):
    return np.concatenate(parts).tobytes()


WHOLE = span_squares(0, N_ITEMS).tobytes()

_CASE_COUNTS = {"gate": _gate_case_counts, "functional": _functional_case_counts}


def count_matrix_run(method, n_spans):
    """``run(store)`` and the whole matrix: the ``add`` n = 3 per-case
    count matrix of ``method`` cut into ``n_spans`` contiguous row spans,
    checkpointed per span."""
    _, _, counts = _CASE_COUNTS[method]("add", 3, DEFAULT_CELL_NETLIST)
    n_cases = len(counts)
    cuts = [n_cases * i // n_spans for i in range(n_spans + 1)]
    spans = list(zip(cuts, cuts[1:]))
    key = CacheKey(
        kind="case_rows",
        netlist=digest_params(operator="add", width=3),
        universe="xor3_majority",
        space=digest_params(exhaustive=True),
        method=method,
    )

    def rows(lo, hi):
        return counts[lo:hi].copy()

    def run(store):
        return run_checkpointed(
            rows, spans, [key.with_shard(*span) for span in spans], store
        )

    return run, counts.tobytes()


class TestSpanCrashReplay:
    """The gate and functional count matrices share one checkpointed path."""

    @pytest.mark.parametrize("method", ["gate", "functional"])
    def test_killed_sweep_resumes_and_matches_plain_run(self, tmp_path, method):
        run, whole = count_matrix_run(method, 3)
        plain = run(None)
        assert merged(plain) == whole

        k = 1
        store = ResultStore(tmp_path)
        with shard_hook(crash_after(k)):
            with pytest.raises(Bomb):
                run(store)

        hook, fired = counting_hook()
        with shard_hook(hook):
            resumed = run(store)
        assert fired == [1, 2]  # exactly n - k spans re-execute
        assert merged(resumed) == whole
        assert last_checkpoint_report() == CheckpointReport(total=3, loaded=k, executed=2)


class TestCorruptedCheckpoint:
    def _corrupt_one_checkpoint(self, store, kind):
        payloads = sorted(
            glob.glob(os.path.join(store.root, "objects", kind, "*.npz"))
        )
        assert payloads, "expected span checkpoints on disk"
        with open(payloads[0], "wb") as handle:
            handle.write(b"not an npz payload")
        return payloads[0]

    def test_corrupt_checkpoint_is_discarded_and_recomputed(self, tmp_path):
        run = span_run(4)
        store = ResultStore(tmp_path)
        k = 2
        with shard_hook(crash_after(k)):
            with pytest.raises(Bomb):
                run(store)

        corrupted = self._corrupt_one_checkpoint(store, "squares")
        store.clear_lru()  # force the resume through the disk path

        with pytest.warns(StoreCorruptionWarning, match="corrupt"):
            resumed = run(store)
        report = last_checkpoint_report()
        # One of the k checkpoints was bad: detected, discarded, re-run.
        assert report == CheckpointReport(total=4, loaded=k - 1, executed=4 - k + 1)
        assert store.stats.corrupt == 1
        assert merged(resumed) == WHOLE
        # The corrupt payload was replaced by the recomputed span.
        assert os.path.exists(corrupted)
        store.clear_lru()
        final = run(store)
        assert last_checkpoint_report() == CheckpointReport(total=4, loaded=4, executed=0)
        assert store.stats.corrupt == 1  # no further corruption events
        assert merged(final) == WHOLE
