"""The content-addressed result store.

A :class:`ResultStore` memoises campaign artifacts on the filesystem
under a root directory, fronted by an in-process LRU.  Every entry is
addressed by its :class:`~repro.store.hashing.CacheKey` digest and
materialises as two files::

    <root>/objects/<kind>/<digest>.json   # provenance + metadata
    <root>/objects/<kind>/<digest>.npz    # array payload (when any)

The JSON sidecar is written *last* and atomically (temp file +
``os.replace``), so its presence marks a complete entry: a crash
mid-write leaves at worst an orphan payload that is never consulted.
It records the full key fields, the schema version, a checksum of the
payload bytes and the creation context -- the provenance trail that
makes a stored number auditable.

Corruption is handled by *detect, discard, recompute*: an unreadable
sidecar, a missing or tampered payload (checksum mismatch) or a
schema-version mismatch makes :meth:`ResultStore.get` warn
(:class:`StoreCorruptionWarning`), delete the entry and report a miss,
so the caller transparently recomputes.

The store is **opt-in and off by default**: every wired entry point
takes ``store=`` (a :class:`ResultStore`, a directory path, or ``None``
to consult the environment), and :func:`resolve_store` turns the
``REPRO_STORE`` environment variable into a process-wide shared store
(``REPRO_STORE=<dir>`` or ``REPRO_STORE=1`` + ``REPRO_STORE_DIR``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import warnings
import zipfile
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError, StoreError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.store import codecs
from repro.store.hashing import SCHEMA_VERSION, CacheKey

#: Enables the store process-wide: a directory path, or a truthy flag
#: (``1``/``true``/``on``/``yes``) combined with :data:`STORE_DIR_ENV`.
STORE_ENV = "REPRO_STORE"
#: Store directory used when :data:`STORE_ENV` is a bare flag.
STORE_DIR_ENV = "REPRO_STORE_DIR"
#: Fallback directory of a bare ``REPRO_STORE=1`` with no explicit dir.
DEFAULT_STORE_DIR = ".repro-store"

_TRUTHY = ("1", "true", "on", "yes")
_FALSY = ("", "0", "false", "off", "no")

#: Default size of the in-process LRU fronting the filesystem.
DEFAULT_LRU_SIZE = 128


class StoreCorruptionWarning(UserWarning):
    """A stored entry failed validation and was discarded."""


@dataclass
class StoreStats:
    """Hit/miss counters of one store instance.

    ``hits`` counts both LRU and disk hits (``lru_hits`` the fast
    subset); ``misses`` counts absent entries; ``corrupt`` counts
    entries discarded by validation (each also counted as a miss).
    """

    hits: int = 0
    lru_hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "lru_hits": self.lru_hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
        }


def _check_universe(
    key: CacheKey, n_faults: Optional[int], faults: Optional[Sequence]
) -> Optional[Tuple]:
    """The caller's fault tuple for an entry of ``n_faults`` faults
    (``None`` for an entry that carries no fault list)."""
    if n_faults is None:
        return None
    name = f"{key.kind}/{key.digest[:12]}"
    if faults is None:
        raise SimulationError(
            f"store entry {name} is row-aligned with {n_faults} faults; "
            "get() needs faults= (the sequence its universe digest covers)"
        )
    if len(faults) != n_faults:
        raise SimulationError(
            f"store entry {name} holds {n_faults} faults, "
            f"get() was given {len(faults)}"
        )
    return faults if isinstance(faults, tuple) else tuple(faults)


def _file_checksum(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class ResultStore:
    """Filesystem-backed, content-addressed artifact store with an LRU.

    Values returned by :meth:`get` (and retained after :meth:`put`) are
    shared objects: callers must treat them as immutable, the same
    contract the gate layer's memo caches already impose.
    """

    def __init__(self, root: Union[str, os.PathLike], lru_size: int = DEFAULT_LRU_SIZE) -> None:
        self.root = os.path.abspath(os.fspath(root))
        self.lru_size = max(0, int(lru_size))
        self.stats = StoreStats()
        # digest -> (value, n_faults); n_faults is None unless the
        # value is row-aligned with a fault list.
        self._lru: Dict[str, Tuple[object, Optional[int]]] = {}
        os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)

    # ------------------------------------------------------------------
    def paths(self, key: CacheKey) -> Tuple[str, str]:
        """``(payload .npz path, sidecar .json path)`` of ``key``."""
        directory = os.path.join(self.root, "objects", key.kind)
        digest = key.digest
        return (
            os.path.join(directory, f"{digest}.npz"),
            os.path.join(directory, f"{digest}.json"),
        )

    def __contains__(self, key: CacheKey) -> bool:
        return key.digest in self._lru or os.path.exists(self.paths(key)[1])

    def __len__(self) -> int:
        count = 0
        objects = os.path.join(self.root, "objects")
        for _, _, files in os.walk(objects):
            count += sum(1 for f in files if f.endswith(".json"))
        return count

    # ------------------------------------------------------------------
    def put(self, key: CacheKey, value: object, provenance: Optional[dict] = None) -> None:
        """Store ``value`` under ``key`` (atomic; overwrites silently).

        ``provenance`` extends the sidecar's provenance record (e.g.
        wall-clock build time, case count).
        """
        tag, arrays, meta = codecs.encode(value)
        npz_path, json_path = self.paths(key)
        os.makedirs(os.path.dirname(json_path), exist_ok=True)
        checksum = ""
        if arrays:
            checksum = self._write_atomic_npz(npz_path, arrays)
        elif os.path.exists(npz_path):
            os.unlink(npz_path)
        sidecar = {
            "schema": SCHEMA_VERSION,
            "tag": tag,
            "key": key.to_dict(),
            "payload_checksum": checksum,
            "meta": meta,
            "provenance": {
                "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                **(provenance or {}),
            },
        }
        self._write_atomic_text(json_path, json.dumps(sidecar, indent=1, sort_keys=True))
        self._lru_insert(key.digest, value, meta.get("n_faults"))
        self.stats.puts += 1
        obs_metrics.inc("repro_store_puts_total", kind=key.kind)

    def get(
        self, key: CacheKey, faults: Optional[Sequence] = None
    ) -> Optional[object]:
        """The stored artifact, or ``None`` (miss / discarded entry).

        Campaign results, fault dictionaries and compact test sets do
        not store their fault list: ``faults`` must be the ordered
        sequence whose digest is ``key.universe``, and the artifact
        comes back carrying it.  Omitting it for such an entry, or
        passing one of the wrong length, is a caller bug and raises
        :class:`~repro.errors.SimulationError` (the entry is kept).
        """
        digest = key.digest
        if digest in self._lru:
            entry = self._lru.pop(digest)
            self._lru[digest] = entry  # re-insert = most recently used
            value, n_faults = entry
            _check_universe(key, n_faults, faults)
            self.stats.hits += 1
            self.stats.lru_hits += 1
            obs_metrics.inc("repro_store_hits_total", path="lru")
            return value
        npz_path, json_path = self.paths(key)
        if not os.path.exists(json_path):
            self.stats.misses += 1
            obs_metrics.inc("repro_store_misses_total")
            return None
        try:
            with open(json_path, "r", encoding="utf-8") as handle:
                sidecar = json.load(handle)
            if sidecar.get("schema") != SCHEMA_VERSION:
                raise ValueError(
                    f"schema {sidecar.get('schema')!r} != {SCHEMA_VERSION}"
                )
            tag, meta = sidecar["tag"], sidecar["meta"]
            n_faults = int(meta["n_faults"]) if tag in codecs.FAULT_TAGS else None
            # Raises SimulationError, which the corrupt-entry path below
            # deliberately does not catch.
            universe = _check_universe(key, n_faults, faults)
            checksum = sidecar.get("payload_checksum", "")
            arrays: Dict[str, np.ndarray] = {}
            if checksum:
                if _file_checksum(npz_path) != checksum:
                    raise ValueError("payload checksum mismatch")
                with np.load(npz_path) as data:
                    arrays = {name: data[name] for name in data.files}
            value = codecs.decode(tag, arrays, meta, universe)
        except (OSError, ValueError, KeyError, json.JSONDecodeError,
                zipfile.BadZipFile) as exc:
            self._discard(key, json_path, npz_path, exc)
            self.stats.misses += 1
            self.stats.corrupt += 1
            obs_metrics.inc("repro_store_misses_total")
            return None
        self._lru_insert(digest, value, n_faults)
        self.stats.hits += 1
        obs_metrics.inc("repro_store_hits_total", path="disk")
        return value

    def provenance(self, key: CacheKey) -> Optional[dict]:
        """The sidecar record of ``key`` (``None`` when absent)."""
        _, json_path = self.paths(key)
        try:
            with open(json_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def clear_lru(self) -> None:
        """Drop the in-process front cache (the filesystem stays)."""
        self._lru.clear()

    # ------------------------------------------------------------------
    def _discard(self, key: CacheKey, json_path: str, npz_path: str, exc: Exception) -> None:
        warnings.warn(
            f"discarding corrupt store entry {key.kind}/{key.digest[:12]} "
            f"({exc}); it will be recomputed",
            StoreCorruptionWarning,
            stacklevel=3,
        )
        # The warning can be filtered away; the counter and trace event
        # make silent discard-and-recompute visible after the fact.
        obs_metrics.inc("repro_store_corrupt_total", kind=key.kind)
        obs_events.emit(
            obs_events.STORE_CORRUPT,
            kind=key.kind,
            digest=key.digest[:12],
            error=str(exc),
        )
        for path in (json_path, npz_path):
            try:
                os.unlink(path)
            except OSError:
                pass

    def _lru_insert(self, digest: str, value: object, n_faults: Optional[int]) -> None:
        if self.lru_size == 0:
            return
        self._lru.pop(digest, None)
        self._lru[digest] = (value, n_faults)
        while len(self._lru) > self.lru_size:
            self._lru.pop(next(iter(self._lru)))

    def _write_atomic_npz(self, path: str, arrays: Dict[str, np.ndarray]) -> str:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".npz.tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(handle, **arrays)
            checksum = _file_checksum(tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return checksum

    def _write_atomic_text(self, path: str, text: str) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".json.tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# ----------------------------------------------------------------------
# Resolution: keyword > environment > off
# ----------------------------------------------------------------------
_OPEN_STORES: Dict[str, ResultStore] = {}


def _collect_store_stats() -> Dict[str, float]:
    """Live ``StoreStats`` of every process-shared store, summed, as
    gauges on each :func:`repro.obs.metrics` snapshot (stores built
    directly from :class:`ResultStore` bypass :func:`open_store` and are
    not visible here -- they still feed the event counters above)."""
    out: Dict[str, float] = {"repro_store_open": float(len(_OPEN_STORES))}
    if not _OPEN_STORES:
        return out
    totals = StoreStats()
    for store in list(_OPEN_STORES.values()):
        for field, value in store.stats.snapshot().items():
            setattr(totals, field, getattr(totals, field) + value)
    for field, value in totals.snapshot().items():
        out[f"repro_store_stats_{field}"] = float(value)
    return out


obs_metrics.registry().register_collector("store_stats", _collect_store_stats)


def open_store(path: Union[str, os.PathLike]) -> ResultStore:
    """A process-shared :class:`ResultStore` for ``path`` (memoised per
    absolute path, so env-driven callers share one LRU and one set of
    hit/miss counters)."""
    root = os.path.abspath(os.fspath(path))
    store = _OPEN_STORES.get(root)
    if store is None:
        store = ResultStore(root)
        _OPEN_STORES[root] = store
    return store


def resolve_store(
    store: Union[ResultStore, str, os.PathLike, None, bool] = None,
) -> Optional[ResultStore]:
    """Resolve a ``store=`` keyword to an active store or ``None``.

    Precedence: an explicit :class:`ResultStore` or path wins;
    ``store=False`` forces the store off regardless of environment;
    ``store=None`` (the default everywhere) consults ``REPRO_STORE``.
    A path that cannot be opened as a store directory raises
    :class:`~repro.errors.StoreError` naming the setting that chose it.
    """
    if isinstance(store, ResultStore):
        return store
    if store is False:
        return None
    if store is not None and store is not True:
        return _open_setting("store=", store)
    env = os.environ.get(STORE_ENV, "").strip()
    if env.lower() in _FALSY:
        return None if store is None else _open_setting("store=", DEFAULT_STORE_DIR)
    if env.lower() in _TRUTHY:
        flag = os.environ.get(STORE_DIR_ENV)
        if flag:
            return _open_setting(f"{STORE_DIR_ENV}=", flag)
        return _open_setting(f"{STORE_ENV}={env}, default ", DEFAULT_STORE_DIR)
    return _open_setting(f"{STORE_ENV}=", env)


def _open_setting(setting: str, path: Union[str, os.PathLike]) -> ResultStore:
    """:func:`open_store` whose OS failures name the setting that chose
    ``path`` (a regular file, or a path below one, is no store)."""
    try:
        return open_store(path)
    except OSError as exc:
        raise StoreError(
            f"{setting}{os.fspath(path)!r} is not a usable store directory: "
            f"{exc.strerror or exc}"
        ) from None


__all__ = [
    "DEFAULT_LRU_SIZE",
    "DEFAULT_STORE_DIR",
    "ResultStore",
    "STORE_DIR_ENV",
    "STORE_ENV",
    "StoreCorruptionWarning",
    "StoreStats",
    "open_store",
    "resolve_store",
]
