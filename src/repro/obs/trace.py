"""Nestable tracing spans and JSON-lines trace emission.

:func:`span` is a context manager wrapping one unit of work::

    with span("campaign", netlist="rca8", backend="fused"):
        ...

On exit it emits one **span record** carrying a monotonic start
timestamp, duration, pid, thread name, a process-unique span id, and
the id of the enclosing span (spans nest through a thread-local stack).
:func:`emit_event` emits point-in-time **event records** attributed to
the currently open span.  Both record shapes are plain JSON objects:

* ``{"type": "span", "name": ..., "span": ..., "parent": ...,
  "pid": ..., "thread": ..., "wall": ..., "start": ..., "dur": ...,
  "attrs": {...}}`` (plus ``"error": "ExcType"`` when the body raised);
* ``{"type": "event", "name": ..., "span": ..., "pid": ...,
  "thread": ..., "wall": ..., "attrs": {...}}``;
* ``{"type": "metrics", "pid": ..., "metrics": ...}`` -- one final
  registry snapshot appended at interpreter exit when file tracing is
  active, so a single trace file is self-contained for
  :mod:`repro.obs.report`.

Records always land in an in-memory **ring buffer** (bounded deque;
overflow drops the oldest record and counts
``repro_trace_ring_dropped_total``).  When the ``REPRO_TRACE``
environment variable names a file, each record is additionally
serialized and appended with a single ``O_APPEND`` write -- atomic
enough that processes sharing the path never interleave partial
lines.  The file sink reopens its descriptor after a fork, so
children inherit the path but not a shared file offset.

Tracing never changes results: span bodies run unmodified, and the
emission cost is bench-gated under 5% of an RCA-8 campaign
(``benchmarks/bench_obs.py``).  :func:`read_trace` is the strict
JSON-lines parser the report tool and CI assertions build on.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
import warnings
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional

from . import metrics

#: Path of the JSON-lines trace file; unset or empty keeps tracing
#: in-memory only (the ring buffer is always on).
TRACE_ENV = "REPRO_TRACE"

#: Default ring-buffer capacity (records, spans and events combined).
RING_CAPACITY = 4096

_COUNTER = itertools.count(1)
_LOCAL = threading.local()

_RING: Deque[Dict[str, Any]] = deque(maxlen=RING_CAPACITY)
_RING_LOCK = threading.Lock()

# Probe the raw environ dict on the per-record fast path -- same trick
# (and same write-through guarantee) as metrics.telemetry_env_active.
try:  # pragma: no branch
    _ENV_DATA: Optional[Mapping[object, object]] = os.environ._data  # type: ignore[attr-defined]
    _TRACE_ENV_KEY: object = os.environ.encodekey(TRACE_ENV)  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - non-CPython fallback
    _ENV_DATA = None
    _TRACE_ENV_KEY = TRACE_ENV


def _json_default(value: Any) -> Any:
    # Attribute values arrive from campaign code carrying numpy scalars
    # and Paths; coerce rather than crash the trace line.
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


class _FileSink:
    """Appends JSON lines to one path with fork-safe fd handling.

    A path that cannot be opened warns once and is not retried.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._path: Optional[str] = None
        self._pid: Optional[int] = None
        self._failed: Optional[str] = None

    def write(self, record: Dict[str, Any]) -> None:
        path = os.environ.get(TRACE_ENV, "").strip()
        if not path or path == self._failed:
            return
        line = json.dumps(record, default=_json_default) + "\n"
        with self._lock:
            pid = os.getpid()
            if self._fd is None or self._path != path or self._pid != pid:
                if self._fd is not None and self._pid == pid:
                    try:
                        os.close(self._fd)
                    except OSError:
                        pass
                try:
                    self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                except OSError as exc:
                    self._fd = None
                    self._failed = path
                    warnings.warn(f"cannot trace to {TRACE_ENV}={path!r}: {exc}", stacklevel=2)
                    return
                self._path = path
                self._pid = pid
            try:
                os.write(self._fd, line.encode("utf-8"))
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._fd is not None and self._pid == os.getpid():
                try:
                    os.close(self._fd)
                except OSError:
                    pass
            self._fd = None
            self._path = None
            self._pid = None
            self._failed = None


_SINK = _FileSink()


def tracing_to_file() -> bool:
    """Whether records are being appended to a ``REPRO_TRACE`` path."""
    return bool(os.environ.get(TRACE_ENV, "").strip())


def _record(record: Dict[str, Any]) -> None:
    with _RING_LOCK:
        if len(_RING) == _RING.maxlen:
            metrics.inc("repro_trace_ring_dropped_total")
        _RING.append(record)
    # The env probe is the fast-path gate: untraced processes must pay
    # a ring append and one dict lookup per record, nothing more (the
    # per-campaign cost is part of the bench_obs overhead budget).
    if _ENV_DATA is not None:
        if not _ENV_DATA.get(_TRACE_ENV_KEY):
            return
    elif not os.environ.get(TRACE_ENV):
        return
    _SINK.write(record)


def _stack() -> List[str]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def current_span() -> Optional[str]:
    """Id of the innermost open span on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


class span:
    """Trace one unit of work; ``__enter__`` returns the span id.

    The record is emitted when the block exits (success or exception --
    a raised exception adds ``"error"`` with the exception type name
    and propagates unchanged).  Nesting is per-thread: a span opened on
    a pool thread parents to whatever that thread last opened, not to
    the submitting thread.  A hand-rolled context manager rather than
    ``@contextmanager``: spans wrap every campaign, so generator
    overhead would eat into the bench_obs budget.
    """

    __slots__ = ("_name", "_attrs", "_id", "_parent", "_wall", "_start")

    def __init__(self, name: str, **attrs: Any) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> str:
        self._id = span_id = f"{os.getpid():x}-{next(_COUNTER)}"
        stack = _stack()
        self._parent = stack[-1] if stack else None
        stack.append(span_id)
        self._wall = time.time()
        self._start = time.perf_counter()
        return span_id

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        dur = time.perf_counter() - self._start
        _stack().pop()
        record: Dict[str, Any] = {
            "type": "span",
            "name": self._name,
            "span": self._id,
            "parent": self._parent,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "wall": self._wall,
            "start": self._start,
            "dur": dur,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self._attrs:
            record["attrs"] = self._attrs
        _record(record)
        return False


def emit_event(name: str, **fields: Any) -> None:
    """Emit a point-in-time event attributed to the current span."""
    stack = getattr(_LOCAL, "stack", None)
    record: Dict[str, Any] = {
        "type": "event",
        "name": name,
        "span": stack[-1] if stack else None,
        "pid": os.getpid(),
        "thread": threading.current_thread().name,
        "wall": time.time(),
    }
    if fields:
        record["attrs"] = fields
    _record(record)


# ----------------------------------------------------------------------
# Ring-buffer access (tests, live report)
# ----------------------------------------------------------------------
def ring_records() -> List[Dict[str, Any]]:
    """Snapshot of the in-memory ring, oldest first."""
    with _RING_LOCK:
        return list(_RING)


def clear_ring(capacity: Optional[int] = None) -> None:
    """Empty the ring; with ``capacity``, also resize it (tests)."""
    global _RING
    with _RING_LOCK:
        if capacity is None:
            _RING.clear()
        else:
            _RING = deque(maxlen=max(1, int(capacity)))


def ring_capacity() -> int:
    with _RING_LOCK:
        return _RING.maxlen or 0


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def read_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSON-lines trace file strictly.

    Every non-blank line must be a JSON object with a ``type`` field;
    anything else raises ``ValueError`` naming the offending line --
    the CI observability leg leans on this to prove trace integrity.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(f"{path}:{lineno}: not a trace record: {line[:80]}")
            records.append(record)
    return records


def _flush_at_exit() -> None:
    # A trace file should be self-contained for report.py: append the
    # final metrics snapshot so store hit rates and kernel histograms
    # travel with the spans.
    if tracing_to_file():
        snap = metrics.registry().snapshot()
        if any(snap.values()):
            _SINK.write({"type": "metrics", "pid": os.getpid(), "metrics": snap})
    _SINK.close()


atexit.register(_flush_at_exit)

if hasattr(os, "register_at_fork"):
    # Children must not write through an fd whose offset bookkeeping
    # belongs to the parent; drop it and let the sink lazily reopen.
    os.register_at_fork(after_in_child=lambda: (_SINK.__init__(), clear_ring()))


__all__ = [
    "RING_CAPACITY",
    "TRACE_ENV",
    "clear_ring",
    "current_span",
    "emit_event",
    "read_trace",
    "ring_capacity",
    "ring_records",
    "span",
    "tracing_to_file",
]
