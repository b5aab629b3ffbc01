"""Process-global, thread-safe metrics registry.

A :class:`MetricsRegistry` holds three metric families, all labelled:

* **counters** -- monotonically increasing floats (:meth:`MetricsRegistry.inc`);
* **gauges** -- last-write-wins values (:meth:`MetricsRegistry.set_gauge`);
* **histograms** -- duration/size observations folded into
  ``count``/``sum``/``min``/``max`` plus fixed log-decade buckets
  (:meth:`MetricsRegistry.observe`).

Storage is **lock-striped**: every ``(family, name, labels)`` series
hashes to one of :data:`N_STRIPES` independent ``(lock, dict)`` cells,
so concurrent writers -- e.g. kernels recording timings from several
threads -- only contend when they hit the same stripe, never on one
global lock.  Totals are exact under any interleaving
(``tests/test_obs.py`` hammers this from plain threads at several
thread counts).

One process-wide registry (:func:`registry`) backs the module-level
helpers :func:`inc` / :func:`set_gauge` / :func:`observe`; campaign
workers forked by the shard runner reset their inherited copy
(``os.register_at_fork``) and hand their raw series back to the parent
through the results queue, where :meth:`MetricsRegistry.merge_raw`
folds them in -- so the parent snapshot covers the whole campaign.

Exporters: :meth:`MetricsRegistry.snapshot` (plain dict, embedded into
``BENCH_*.json`` trajectories) and :meth:`MetricsRegistry.to_json`.
With the ``REPRO_METRICS`` environment variable set to a path, every
process appends one JSON line ``{"pid": ..., "metrics": ...}`` at
interpreter exit; :mod:`repro.obs.report` merges such dumps.

Kernel profiling (the ``repro_kernel_seconds`` histograms recorded by
:mod:`repro.gates.backends.base`) is gated by
:func:`kernel_profiling_enabled`: on when ``REPRO_METRICS`` or
``REPRO_TRACE`` is set, or forced either way with
:func:`set_kernel_profiling`.  Everything else in the registry is
always on -- a counter bump is a stripe-lock dict update, far below
campaign granularity.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import warnings
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: Path of the dump-on-exit JSON-lines file; unset or empty disables
#: the dump.
METRICS_ENV = "REPRO_METRICS"

#: Number of independent (lock, dict) stripes in a registry.
N_STRIPES = 16

#: Histogram bucket upper bounds (seconds-flavoured log decades); the
#: implicit final bucket is +inf.
HISTOGRAM_BUCKETS: Tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

_FAMILIES = ("counter", "gauge", "histogram")

#: (family, name, ((label, value), ...)) -- the raw series key.
SeriesKey = Tuple[str, str, Tuple[Tuple[str, str], ...]]
#: One exported series: key plus its value (float, or histogram state).
RawSeries = Tuple[str, str, Tuple[Tuple[str, str], ...], object]


def _labels_key(labels: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    # Hot path: most built-in series carry zero, one or two labels,
    # where no generator/sort (and usually no str coercion) is needed.
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((k, v if type(v) is str else str(v)),)
    if len(labels) == 2:
        (k1, v1), (k2, v2) = labels.items()
        first = (k1, v1 if type(v1) is str else str(v1))
        second = (k2, v2 if type(v2) is str else str(v2))
        return (first, second) if k1 <= k2 else (second, first)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_series(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Canonical ``name{k=v,...}`` rendering of one series."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Histogram:
    """Mutable histogram state: count/sum/min/max + bucket counts."""

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.buckets = [0] * (len(HISTOGRAM_BUCKETS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        for i, bound in enumerate(HISTOGRAM_BUCKETS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "buckets": list(self.buckets),
        }

    def merge_dict(self, other: Mapping[str, object]) -> None:
        count = int(other.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(other.get("sum", 0.0))
        self.vmin = min(self.vmin, float(other.get("min", self.vmin)))
        self.vmax = max(self.vmax, float(other.get("max", self.vmax)))
        buckets = other.get("buckets")
        if isinstance(buckets, (list, tuple)) and len(buckets) == len(self.buckets):
            self.buckets = [a + int(b) for a, b in zip(self.buckets, buckets)]


class CounterHandle:
    """Pre-resolved write handle for one counter series.

    Resolving the series key and stripe once lets hot emitting sites
    (one event per campaign) skip label canonicalisation and stripe
    hashing on every increment.  Handles never go stale: the global
    registry object is never replaced, and :meth:`MetricsRegistry.
    reset` clears stripe cells in place, so a held (lock, cell) pair
    stays the live one after test resets and fork-child resets alike.
    """

    __slots__ = ("_key", "_lock", "_cell")

    def __init__(
        self,
        key: SeriesKey,
        lock: threading.Lock,
        cell: Dict[SeriesKey, object],
    ) -> None:
        self._key = key
        self._lock = lock
        self._cell = cell

    def inc(self, value: float = 1.0) -> None:
        with self._lock:
            self._cell[self._key] = self._cell.get(self._key, 0.0) + value  # type: ignore[operator]


class HistogramHandle:
    """Pre-resolved write handle for one histogram series.

    Same lifetime story as :class:`CounterHandle`; the kernel-profiling
    wrapper holds one per (backend, kernel) so each timing observation
    skips label canonicalisation and stripe hashing.
    """

    __slots__ = ("_key", "_lock", "_cell")

    def __init__(
        self,
        key: SeriesKey,
        lock: threading.Lock,
        cell: Dict[SeriesKey, object],
    ) -> None:
        self._key = key
        self._lock = lock
        self._cell = cell

    def observe(self, value: float) -> None:
        with self._lock:
            hist = self._cell.get(self._key)
            if hist is None:
                hist = self._cell[self._key] = _Histogram()
            hist.observe(value)  # type: ignore[union-attr]


class MetricsRegistry:
    """Lock-striped registry of counters, gauges and histograms."""

    def __init__(self, n_stripes: int = N_STRIPES) -> None:
        self._stripes: Tuple[Tuple[threading.Lock, Dict[SeriesKey, object]], ...] = tuple(
            (threading.Lock(), {}) for _ in range(max(1, int(n_stripes)))
        )
        self._collectors: Dict[str, Callable[[], Mapping[str, float]]] = {}
        self._collector_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _cell(self, key: SeriesKey) -> Tuple[threading.Lock, Dict[SeriesKey, object]]:
        return self._stripes[hash(key) % len(self._stripes)]

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to the counter series ``name{labels}``."""
        key = ("counter", name, _labels_key(labels))
        lock, cell = self._cell(key)
        with lock:
            cell[key] = cell.get(key, 0.0) + value  # type: ignore[operator]

    def counter_handle(self, name: str, **labels: object) -> CounterHandle:
        """A reusable pre-resolved :class:`CounterHandle` for one series."""
        key: SeriesKey = ("counter", name, _labels_key(labels))
        lock, cell = self._cell(key)
        return CounterHandle(key, lock, cell)

    def histogram_handle(self, name: str, **labels: object) -> HistogramHandle:
        """A reusable pre-resolved :class:`HistogramHandle` for one series."""
        key: SeriesKey = ("histogram", name, _labels_key(labels))
        lock, cell = self._cell(key)
        return HistogramHandle(key, lock, cell)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge series ``name{labels}`` to ``value``."""
        key = ("gauge", name, _labels_key(labels))
        lock, cell = self._cell(key)
        with lock:
            cell[key] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Fold ``value`` into the histogram series ``name{labels}``."""
        key = ("histogram", name, _labels_key(labels))
        lock, cell = self._cell(key)
        with lock:
            hist = cell.get(key)
            if hist is None:
                hist = cell[key] = _Histogram()
            hist.observe(value)  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get_counter(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0.0 when absent)."""
        key = ("counter", name, _labels_key(labels))
        lock, cell = self._cell(key)
        with lock:
            return float(cell.get(key, 0.0))  # type: ignore[arg-type]

    def counter_total(self, name: str) -> float:
        """Sum of every series of counter ``name`` across all labels."""
        return sum(
            value  # type: ignore[misc]
            for family, series, _labels, value in self.raw_series()
            if family == "counter" and series == name
        )

    def raw_series(self) -> List[RawSeries]:
        """Every live series as ``(family, name, labels, value)``.

        Histogram values are exported as plain dicts, so the list is
        picklable -- this is the form shard workers ship back through
        the results queue for :meth:`merge_raw`.
        """
        out: List[RawSeries] = []
        for lock, cell in self._stripes:
            with lock:
                items = list(cell.items())
            for (family, name, labels), value in items:
                if family == "histogram":
                    out.append((family, name, labels, value.to_dict()))  # type: ignore[union-attr]
                else:
                    out.append((family, name, labels, value))
        out.sort(key=lambda row: (row[0], row[1], row[2]))
        return out

    def merge_raw(self, series: Iterable[RawSeries]) -> None:
        """Fold another registry's :meth:`raw_series` export into this one.

        Counters and histogram states add; gauges last-write-wins.  The
        shard runner uses this to surface worker-process metrics in the
        parent.
        """
        for family, name, labels, value in series:
            key = (family, name, tuple(tuple(pair) for pair in labels))
            lock, cell = self._cell(key)
            with lock:
                if family == "counter":
                    cell[key] = cell.get(key, 0.0) + float(value)  # type: ignore[arg-type]
                elif family == "gauge":
                    cell[key] = float(value)  # type: ignore[arg-type]
                else:
                    hist = cell.get(key)
                    if hist is None:
                        hist = cell[key] = _Histogram()
                    hist.merge_dict(value)  # type: ignore[arg-type, union-attr]

    def register_collector(
        self, name: str, collector: Optional[Callable[[], Mapping[str, float]]]
    ) -> None:
        """Register a pull-time gauge source (``None`` unregisters).

        ``collector()`` returns ``{series_name: value}``; the values
        surface under ``gauges`` in every :meth:`snapshot`.  The result
        store uses this to expose live per-store ``StoreStats`` without
        the registry having to poll it.
        """
        with self._collector_lock:
            if collector is None:
                self._collectors.pop(name, None)
            else:
                self._collectors[name] = collector

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict snapshot: ``{"counters": ..., "gauges": ..., "histograms": ...}``.

        Series keys render as ``name{k=v,...}``; registered collectors
        contribute extra gauges.  This is the object the benchmark
        harness embeds into ``BENCH_*.json`` and the dump-on-exit file
        records.
        """
        snap: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for family, name, labels, value in self.raw_series():
            snap[f"{family}s"][render_series(name, labels)] = value
        with self._collector_lock:
            collectors = list(self._collectors.values())
        for collector in collectors:
            try:
                collected = collector()
            except Exception as exc:  # a broken collector must not sink a dump
                warnings.warn(f"metrics collector failed: {exc}", stacklevel=2)
                continue
            for name, value in collected.items():
                snap["gauges"][str(name)] = float(value)
        return snap

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Drop every series (collectors stay registered)."""
        for lock, cell in self._stripes:
            with lock:
                cell.clear()


# ----------------------------------------------------------------------
# The process-global registry
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry every built-in metric lands in."""
    return _REGISTRY


def inc(name: str, value: float = 1.0, **labels: object) -> None:
    _REGISTRY.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels: object) -> None:
    _REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    _REGISTRY.observe(name, value, **labels)


def get_counter(name: str, **labels: object) -> float:
    return _REGISTRY.get_counter(name, **labels)


def counter_handle(name: str, **labels: object) -> CounterHandle:
    return _REGISTRY.counter_handle(name, **labels)


def histogram_handle(name: str, **labels: object) -> HistogramHandle:
    return _REGISTRY.histogram_handle(name, **labels)


# ----------------------------------------------------------------------
# Kernel-profiling gate
# ----------------------------------------------------------------------
_KERNEL_PROFILING: Optional[bool] = None

# ``os.environ.get`` costs microseconds (encode + MutableMapping
# machinery); the gate below runs on every kernel call, so probe the
# underlying CPython dict directly when it exists.  ``os.environ``
# mutations (including pytest's monkeypatch.setenv) write through to
# ``_data``, so the two views never diverge.
try:  # pragma: no branch
    _ENV_DATA: Optional[Mapping[object, object]] = os.environ._data  # type: ignore[attr-defined]
    _METRICS_ENV_KEY = os.environ.encodekey(METRICS_ENV)  # type: ignore[attr-defined]
    _TRACE_ENV_KEY = os.environ.encodekey("REPRO_TRACE")  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - non-CPython fallback
    _ENV_DATA = None
    _METRICS_ENV_KEY = METRICS_ENV
    _TRACE_ENV_KEY = "REPRO_TRACE"


def telemetry_env_active() -> bool:
    """Cheap truth of ``REPRO_METRICS or REPRO_TRACE`` being set."""
    if _ENV_DATA is not None:
        return bool(_ENV_DATA.get(_METRICS_ENV_KEY) or _ENV_DATA.get(_TRACE_ENV_KEY))
    return bool(os.environ.get(METRICS_ENV) or os.environ.get("REPRO_TRACE"))


def set_kernel_profiling(enabled: Optional[bool]) -> None:
    """Force kernel timing hooks on/off; ``None`` restores env gating."""
    global _KERNEL_PROFILING
    _KERNEL_PROFILING = enabled


def kernel_profiling_enabled() -> bool:
    """Whether backend kernel calls record ``repro_kernel_seconds``.

    Defaults to on exactly when a telemetry sink exists --
    ``REPRO_METRICS`` or ``REPRO_TRACE`` set -- so an uninstrumented
    run pays only this boolean check per kernel call.
    """
    if _KERNEL_PROFILING is not None:
        return _KERNEL_PROFILING
    return telemetry_env_active()


# ----------------------------------------------------------------------
# Dump-on-exit + fork hygiene
# ----------------------------------------------------------------------
def dump(path: Optional[str] = None) -> None:
    """Write the registry snapshot to ``path`` (default: ``REPRO_METRICS``).

    Appends one JSON line ``{"pid": ..., "metrics": snapshot}`` with a
    single ``O_APPEND`` write, so concurrent processes sharing one path
    never interleave partial lines.  A no-op when no path is configured
    or nothing was recorded.
    """
    path = path if path is not None else os.environ.get(METRICS_ENV, "").strip()
    if not path:
        return
    snap = _REGISTRY.snapshot()
    if not any(snap.values()):
        return
    line = json.dumps({"pid": os.getpid(), "metrics": snap}, sort_keys=True)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8") + b"\n")
        finally:
            os.close(fd)
    except OSError as exc:
        warnings.warn(f"cannot dump metrics to {path!r}: {exc}", stacklevel=2)


def load_dump(path: str) -> Dict[str, Dict[str, object]]:
    """Merge every snapshot line of a dump-on-exit file into one.

    Counters and histograms sum across processes, gauges last-write-
    wins -- the same semantics as :meth:`MetricsRegistry.merge_raw`.
    """
    merged = MetricsRegistry(n_stripes=1)
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
            merge_snapshot(merged, record.get("metrics", {}))
    return merged.snapshot()


def _parse_series(key: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    name, brace, rest = key.partition("{")
    if not brace:
        return key, ()
    pairs = []
    for part in rest.rstrip("}").split(","):
        if part:
            label, _, value = part.partition("=")
            pairs.append((label, value))
    return name, tuple(pairs)


def merge_snapshot(target: MetricsRegistry, snapshot: Mapping[str, Mapping[str, object]]) -> None:
    """Fold a :meth:`MetricsRegistry.snapshot` dict into ``target``."""
    rows: List[RawSeries] = []
    for family in _FAMILIES:
        for key, value in snapshot.get(f"{family}s", {}).items():
            name, labels = _parse_series(key)
            rows.append((family, name, labels, value))
    target.merge_raw(rows)


def _reset_in_child() -> None:
    # A forked shard worker inherits the parent's counts; they must not
    # ride back through merge_raw a second time.
    _REGISTRY.reset()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)

atexit.register(dump)


__all__ = [
    "CounterHandle",
    "HISTOGRAM_BUCKETS",
    "HistogramHandle",
    "METRICS_ENV",
    "MetricsRegistry",
    "N_STRIPES",
    "counter_handle",
    "dump",
    "get_counter",
    "histogram_handle",
    "inc",
    "kernel_profiling_enabled",
    "load_dump",
    "merge_snapshot",
    "observe",
    "registry",
    "render_series",
    "set_gauge",
    "set_kernel_profiling",
    "telemetry_env_active",
]
