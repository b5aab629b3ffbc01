"""Property tests of the content-addressed result store.

Key discipline: every input that changes a campaign's numbers --
netlist structure, fault-universe order, test space, method,
parameters -- must produce a distinct key, while semantically identical
inputs (the same netlist rebuilt from scratch, the same coverage sweep
through a fresh store handle) must produce identical keys.  Artifacts round-trip
through the filesystem bit-identically.
"""

import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.coverage.engine import evaluate_adder, evaluate_operator
from repro.errors import SimulationError, StoreError
from repro.faults.incremental import incremental_stuck_at_campaign
from repro.faults.injector import run_sharded_stuck_at_campaign
from repro.gates import builders
from repro.gates import engine as gate_engine
from repro.gates.faults import default_fault_universe
from repro.store import (
    SCHEMA_VERSION,
    CacheKey,
    ResultStore,
    StoreCorruptionWarning,
    digest_faults,
    digest_netlist,
    digest_params,
    digest_test_space,
    open_store,
    resolve_store,
)
from repro.store.store import STORE_DIR_ENV, STORE_ENV
from repro.gates.engine import TestSpace
from repro.tpg.dictionary import build_fault_dictionary, dictionary_for_vectors
from repro.tpg.generate import generate_tests, unit_netlist, unit_space, unit_test_set


def _key(**overrides):
    fields = dict(
        kind="campaign",
        netlist="n" * 8,
        universe="u" * 8,
        space="s" * 8,
        method="stuck_at",
    )
    fields.update(overrides)
    return CacheKey(**fields)


def _race_campaign():
    return run_sharded_stuck_at_campaign(
        builders.ripple_carry_adder(3), store=False
    )


def _race_writer(root, n_puts):
    store = ResultStore(root, lru_size=0)
    result = _race_campaign()
    for _ in range(n_puts):
        store.put(_key(), result)


def _race_reader(root, done, report):
    store = ResultStore(root, lru_size=0)
    expected = _race_campaign()
    reads = {"missed": 0, "identical": 0, "mismatched": 0, "corrupt": 0}
    # One last read after the writers finish, so a hit is guaranteed.
    while True:
        finished = done.is_set()
        loaded = store.get(_key(), faults=expected.faults)
        if loaded is None:
            reads["missed"] += 1
        elif (
            loaded.detected.tobytes() == expected.detected.tobytes()
            and loaded.first_detected.tobytes() == expected.first_detected.tobytes()
            and loaded.groups == expected.groups
            and loaded.n_simulated_runs == expected.n_simulated_runs
        ):
            reads["identical"] += 1
        else:
            reads["mismatched"] += 1
        if finished:
            break
    reads["corrupt"] = store.stats.corrupt
    report.put(reads)


# ----------------------------------------------------------------------
# Digest properties
# ----------------------------------------------------------------------
class TestDigests:
    def test_rebuilt_netlist_digests_equal(self):
        # Content, not identity: two independent builds hash the same.
        a = builders.ripple_carry_adder(4)
        b = builders.ripple_carry_adder(4)
        assert a is not b
        assert digest_netlist(a) == digest_netlist(b)

    def test_netlist_mutation_changes_digest(self):
        # Same declared name, different structure -> different digest.
        rca = builders.ripple_carry_adder(3, name="same")
        cla = builders.carry_lookahead_adder(3, name="same")
        assert digest_netlist(rca) != digest_netlist(cla)

    def test_netlist_width_changes_digest(self):
        assert digest_netlist(builders.ripple_carry_adder(3)) != digest_netlist(
            builders.ripple_carry_adder(4)
        )

    def test_fault_universe_reorder_changes_digest(self):
        faults = default_fault_universe(builders.ripple_carry_adder(3))
        reordered = faults[1:] + faults[:1]
        assert digest_faults(faults) != digest_faults(reordered)
        assert digest_faults(faults) == digest_faults(tuple(faults))

    def test_fault_tuple_digest_is_memoised(self):
        # A tuple is hashed once; any sequence with the same faults in
        # the same order has the same digest.
        faults = default_fault_universe(builders.ripple_carry_adder(3))
        first = digest_faults(faults)
        assert digest_faults(faults) is first
        assert digest_faults(list(faults)) == first
        assert digest_faults(list(faults)) is not digest_faults(list(faults))

    def test_fault_subset_and_value_change_digests(self):
        faults = default_fault_universe(builders.ripple_carry_adder(3))
        assert digest_faults(faults) != digest_faults(faults[:-1])
        flipped = (faults[0].__class__(faults[0].site, 1 - faults[0].value),)
        assert digest_faults(faults[:1]) != digest_faults(flipped)

    def test_test_space_change_changes_digest(self):
        netlist = unit_netlist("div", 3)
        constrained = unit_space("div", 3)
        full = TestSpace.full(netlist)
        assert digest_test_space(constrained) != digest_test_space(full)
        # Dropping the non-zero-divisor constraint alone changes the key.
        relaxed = TestSpace(
            netlist, constrained.free_inputs, constrained.constants, None
        )
        assert digest_test_space(constrained) != digest_test_space(relaxed)
        # The same space rebuilt digests equal.
        again = TestSpace(
            netlist,
            constrained.free_inputs,
            constrained.constants,
            constrained.nonzero_field,
        )
        assert digest_test_space(constrained) == digest_test_space(again)

    def test_params_digest_is_order_insensitive(self):
        assert digest_params(a=1, b=2) == digest_params(b=2, a=1)
        assert digest_params(a=1) != digest_params(a=2)


class TestCacheKey:
    def test_every_field_is_load_bearing(self):
        base = _key()
        assert base.digest != _key(kind="dictionary").digest
        assert base.digest != _key(netlist="m" * 8).digest
        assert base.digest != _key(universe="v" * 8).digest
        assert base.digest != _key(space="t" * 8).digest
        assert base.digest != _key(method="other").digest
        assert base.digest != _key(params="p" * 8).digest

    def test_schema_version_invalidates(self):
        assert _key().digest != _key(schema=SCHEMA_VERSION + 1).digest

    def test_shard_scoping(self):
        base = _key()
        assert base.with_shard(0, 10).digest != base.digest
        assert base.with_shard(0, 10).digest != base.with_shard(10, 20).digest
        assert base.with_shard(0, 10) == base.with_shard(0, 10)

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError, match="netlist"):
            _key(netlist="")


# ----------------------------------------------------------------------
# Save/load round-trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_campaign_result_round_trip(self, tmp_path):
        netlist = builders.ripple_carry_adder(4)
        result = run_sharded_stuck_at_campaign(netlist)
        store = ResultStore(tmp_path)
        key = _key()
        store.put(key, result)
        store.clear_lru()  # force the disk path
        loaded = store.get(key, faults=list(result.faults))
        assert loaded is not result
        assert loaded.netlist_name == result.netlist_name
        assert loaded.faults == tuple(result.faults)
        assert loaded.groups == tuple(result.groups)
        assert np.asarray(loaded.detected).tobytes() == np.asarray(
            result.detected
        ).tobytes()
        assert np.asarray(loaded.first_detected).tobytes() == np.asarray(
            result.first_detected
        ).tobytes()
        assert loaded.n_vectors == result.n_vectors
        assert loaded.n_simulated_runs == result.n_simulated_runs

    def test_dictionary_round_trip(self, tmp_path):
        netlist = builders.ripple_carry_adder(3)
        dictionary = build_fault_dictionary(netlist)
        store = ResultStore(tmp_path)
        key = _key(kind="dictionary")
        store.put(key, dictionary)
        store.clear_lru()
        loaded = store.get(key, faults=list(dictionary.faults))
        assert loaded.faults == dictionary.faults
        assert loaded.groups == dictionary.groups
        assert loaded.words.dtype == dictionary.words.dtype
        assert loaded.words.tobytes() == dictionary.words.tobytes()
        assert loaded.vector_base == dictionary.vector_base

    def test_compact_set_round_trip(self, tmp_path):
        compact = unit_test_set("add", 3)
        store = ResultStore(tmp_path)
        key = _key(kind="compact")
        store.put(key, compact)
        store.clear_lru()
        loaded = store.get(key, faults=list(compact.faults))
        assert loaded.netlist_name == compact.netlist_name
        assert loaded.input_names == tuple(compact.input_names)
        assert np.asarray(loaded.vectors).tobytes() == np.asarray(
            compact.vectors
        ).tobytes()
        assert loaded.faults == tuple(compact.faults)
        assert np.asarray(loaded.detected).tobytes() == np.asarray(
            compact.detected
        ).tobytes()
        assert tuple(loaded.marginal) == tuple(compact.marginal)
        assert loaded.source == compact.source

    def test_coverage_stats_round_trip(self, tmp_path):
        stats = evaluate_adder(3)
        store = ResultStore(tmp_path)
        key = _key(kind="coverage")
        store.put(key, stats)
        store.clear_lru()
        loaded = store.get(key)
        assert loaded == stats
        assert list(loaded) == list(stats)  # technique order preserved

    def test_provenance_recorded(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _key()
        store.put(key, np.arange(4, dtype=np.uint64), {"n_cases": 3})
        record = store.provenance(key)
        assert record["schema"] == SCHEMA_VERSION
        assert record["key"] == key.to_dict()
        assert record["provenance"]["n_cases"] == 3
        assert record["payload_checksum"]


# ----------------------------------------------------------------------
# Grid invariance: the coverage key names no shard
# ----------------------------------------------------------------------
class TestGridInvariance:
    def test_coverage_final_key_hits_from_a_fresh_handle(self, tmp_path):
        first = ResultStore(tmp_path)
        a = evaluate_adder(3, store=first)
        # A fresh store handle must *hit* the same entry -- never
        # recompute, never re-put.
        second = ResultStore(tmp_path)
        b = evaluate_adder(3, store=second)
        assert second.stats.hits == 1
        assert second.stats.misses == 0
        assert second.stats.puts == 0
        assert a == b

    def test_store_result_matches_plain_result(self, tmp_path):
        netlist = builders.ripple_carry_adder(4)
        # store=False keeps this reference run store-free even when an
        # ambient REPRO_STORE is active (e.g. CI's warm tier-1 leg).
        plain = run_sharded_stuck_at_campaign(netlist, store=False)
        stored = run_sharded_stuck_at_campaign(netlist, store=ResultStore(tmp_path))
        assert np.asarray(plain.detected).tobytes() == np.asarray(
            stored.detected
        ).tobytes()
        assert plain.groups == stored.groups
        assert plain.n_simulated_runs == stored.n_simulated_runs


# ----------------------------------------------------------------------
# Store mechanics
# ----------------------------------------------------------------------
class TestStoreMechanics:
    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        store = ResultStore(tmp_path, lru_size=2)
        keys = [_key(netlist=f"n{i}" * 4) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, np.full(3, i, dtype=np.int64))
        assert len(store._lru) == 2
        # The evicted entry still loads (disk hit, not an LRU hit).
        lru_hits = store.stats.lru_hits
        value = store.get(keys[0])
        assert value is not None and int(value[0]) == 0
        assert store.stats.lru_hits == lru_hits

    @pytest.mark.parametrize("from_disk", [False, True], ids=["lru", "disk"])
    def test_fault_bearing_get_needs_its_universe(self, tmp_path, from_disk):
        # A missing or wrong-length universe is a caller bug: it raises,
        # and must not be mistaken for corruption (which deletes).
        result = run_sharded_stuck_at_campaign(
            builders.ripple_carry_adder(2), store=False
        )
        store = ResultStore(tmp_path)
        key = _key()
        store.put(key, result)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreCorruptionWarning)
            for wrong in (None, result.faults[:-1], result.faults + result.faults[:1]):
                if from_disk:
                    store.clear_lru()
                with pytest.raises(SimulationError, match="faults"):
                    store.get(key, faults=wrong)
        assert all(os.path.exists(path) for path in store.paths(key))
        assert store.stats.corrupt == 0
        assert store.stats.hits == store.stats.misses == 0
        store.clear_lru()
        loaded = store.get(key, faults=result.faults)
        assert loaded.detected.tobytes() == result.detected.tobytes()

    def test_same_key_write_race(self, tmp_path):
        # Two writers re-put one campaign under one key while a reader
        # polls it from disk: every read is a miss or bit-identical.
        ctx = multiprocessing.get_context("spawn")
        done = ctx.Event()
        report = ctx.Queue()
        writers = [
            ctx.Process(target=_race_writer, args=(str(tmp_path), 40))
            for _ in range(2)
        ]
        reader = ctx.Process(
            target=_race_reader, args=(str(tmp_path), done, report)
        )
        for proc in (reader, *writers):
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
        done.set()
        reads = report.get(timeout=120)
        reader.join(timeout=120)
        assert [p.exitcode for p in (reader, *writers)] == [0, 0, 0]
        assert reads["corrupt"] == 0 and reads["mismatched"] == 0, reads
        assert reads["identical"] > 0, reads

    def test_contains_and_len(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _key()
        assert key not in store
        store.put(key, np.arange(2))
        assert key in store
        assert len(store) == 1

    def test_corrupt_sidecar_is_discarded_with_warning(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _key()
        store.put(key, np.arange(8, dtype=np.uint64))
        _, json_path = store.paths(key)
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        store.clear_lru()
        with pytest.warns(StoreCorruptionWarning):
            assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(json_path)

    def test_resolve_store_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        assert resolve_store(None) is None  # off by default
        monkeypatch.setenv(STORE_ENV, "0")
        assert resolve_store(None) is None
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "by-path"))
        by_path = resolve_store(None)
        assert by_path is not None
        assert by_path.root == str(tmp_path / "by-path")
        monkeypatch.setenv(STORE_ENV, "1")
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "by-flag"))
        by_flag = resolve_store(None)
        assert by_flag.root == str(tmp_path / "by-flag")
        # An explicit store=False keeps the store off despite the env.
        assert resolve_store(False) is None

    def test_store_false_reaches_nested_layers(self, tmp_path, monkeypatch):
        # Compact sets and ATPG run their dictionary, ATPG and table
        # dictionary work with store=False whatever store they are
        # given, and the incremental scratch fallback calls memoised
        # layers and structural analyses of its own; store=False keeps
        # all of those off, so nothing is served from or written to the
        # store the environment names.  Fresh engines, so no cached cone
        # schedule skips the analyses (their cone and collapse artifacts
        # once leaked into that store).
        monkeypatch.setattr(gate_engine, "_ENGINE_CACHES", {})
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env"))
        kinds = []
        put, get = ResultStore.put, ResultStore.get
        monkeypatch.setattr(
            ResultStore, "put",
            lambda store, key, *a, **k: kinds.append(key.kind) or put(store, key, *a, **k),
        )
        monkeypatch.setattr(
            ResultStore, "get",
            lambda store, key, *a, **k: kinds.append(key.kind) or get(store, key, *a, **k),
        )
        unit_test_set("add", 3, store=False)
        unit_test_set("add", 3, method="atpg", store=False)
        rca = builders.ripple_carry_adder(3)
        assert incremental_stuck_at_campaign(rca, rca.copy(), store=False).scratch
        assert kinds == []
        assert not [p for p in (tmp_path / "env").rglob("*") if p.is_file()]

    @pytest.mark.parametrize("spelling", ("env-path", "env-flag", "env-below-file", "keyword"))
    def test_non_directory_store_names_the_setting(self, spelling, tmp_path, monkeypatch):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a store")
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        monkeypatch.delenv(STORE_ENV, raising=False)
        store, path, setting = None, str(blocker), STORE_ENV
        if spelling == "env-path":
            monkeypatch.setenv(STORE_ENV, path)
        elif spelling == "env-flag":
            monkeypatch.setenv(STORE_ENV, "1")
            monkeypatch.setenv(STORE_DIR_ENV, path)
            setting = STORE_DIR_ENV
        elif spelling == "env-below-file":
            path = str(blocker / "sub")
            monkeypatch.setenv(STORE_ENV, path)
        else:
            store, setting = path, "store"
        with pytest.raises(StoreError) as info:
            resolve_store(store)
        assert f"{setting}={path!r}" in str(info.value)

    def test_open_store_is_shared_per_path(self, tmp_path):
        a = open_store(tmp_path / "shared")
        b = open_store(tmp_path / "shared")
        assert a is b
        explicit = resolve_store(tmp_path / "shared")
        assert explicit is a


class TestOneEntryPerRequest:
    """A store-backed request writes exactly one entry, the artifact it
    returns: a compact set writes ``compact``, ATPG writes ``atpg`` and a
    Table coverage evaluation writes ``coverage``, while the
    dictionaries built on the way are not stored.  A direct dictionary
    request still memoises its own result."""

    @pytest.fixture
    def put_kinds(self, monkeypatch):
        # Fresh engines, so the cone and collapse analyses run and any
        # write of theirs would show up here.
        monkeypatch.setattr(gate_engine, "_ENGINE_CACHES", {})
        kinds = []
        put = ResultStore.put
        monkeypatch.setattr(
            ResultStore, "put",
            lambda store, key, *a, **k: kinds.append(key.kind) or put(store, key, *a, **k),
        )
        return kinds

    @staticmethod
    def _warm(store, call):
        """Call again from disk; assert it was one disk hit and no put."""
        store.clear_lru()
        before = store.stats.snapshot()
        result = call()
        after = store.stats.snapshot()
        assert after["puts"] == before["puts"]
        assert after["misses"] == before["misses"]
        assert after["lru_hits"] == before["lru_hits"]
        assert after["hits"] == before["hits"] + 1
        return result

    @pytest.mark.parametrize("unit, width, method", [("mul", 4, "auto"), ("add", 4, "atpg")])
    def test_compact_set_writes_only_its_compact_entry(
        self, unit, width, method, tmp_path, put_kinds
    ):
        store = ResultStore(tmp_path)
        call = lambda: unit_test_set(unit, width, method=method, store=store)
        cold = call()
        assert put_kinds == ["compact"]
        assert len(store) == 1
        warm = self._warm(store, call)
        assert put_kinds == ["compact"]
        assert warm.faults == cold.faults
        assert warm.vectors.tobytes() == cold.vectors.tobytes()
        assert warm.detected.tobytes() == cold.detected.tobytes()
        assert tuple(warm.marginal) == tuple(cold.marginal)
        plain = unit_test_set(unit, width, method=method, store=False)
        assert plain.vectors.tobytes() == cold.vectors.tobytes()

    @pytest.mark.parametrize("operator, width, method", [
        ("add", 4, "gate"), ("mul", 3, "gate"), ("div", 3, "gate"),
        ("add", 3, "functional"), ("add", 9, "transfer"),
    ])
    def test_coverage_evaluation_writes_one_entry(
        self, operator, width, method, tmp_path, put_kinds
    ):
        store = ResultStore(tmp_path)
        call = lambda: evaluate_operator(operator, width, method=method, store=store)
        cold = call()
        assert put_kinds == ["coverage"]
        assert len(store) == 1
        warm = self._warm(store, call)
        assert put_kinds == ["coverage"]
        assert warm == cold == evaluate_operator(operator, width, method=method, store=False)

    def test_atpg_writes_only_its_discovery_table(self, tmp_path, put_kinds):
        netlist, space = unit_netlist("mul", 4), unit_space("mul", 4)
        store = ResultStore(tmp_path)
        call = lambda: generate_tests(netlist, space, store=store)
        cold = call()
        assert put_kinds == ["atpg"]
        assert len(store) == 1
        warm = self._warm(store, call)
        assert put_kinds == ["atpg"]
        assert warm.tests.tobytes() == cold.tests.tobytes()
        assert warm.compact.vectors.tobytes() == cold.compact.vectors.tobytes()
        assert warm.dictionary.words.tobytes() == cold.dictionary.words.tobytes()
        assert warm.undetected == cold.undetected
        assert (warm.vectors_tried, warm.random_phases, warm.exhausted) == (
            cold.vectors_tried, cold.random_phases, cold.exhausted)

    @pytest.mark.parametrize("direct", ("universe", "table"))
    def test_direct_dictionary_requests_still_memoise(self, direct, tmp_path, put_kinds):
        netlist, space = unit_netlist("mul", 4), unit_space("mul", 4)
        bits = unit_test_set("mul", 4, store=False).vectors
        store = ResultStore(tmp_path)
        if direct == "universe":
            call = lambda: build_fault_dictionary(netlist, space, store=store)
        else:
            call = lambda: dictionary_for_vectors(netlist, bits, store=store)
        cold = call()
        assert put_kinds == ["dictionary"]
        warm = self._warm(store, call)
        assert put_kinds == ["dictionary"]
        assert warm.faults == cold.faults
        assert warm.groups == cold.groups
        assert warm.words.tobytes() == cold.words.tobytes()
