"""Identity-keyed, weakref-evicted memoisation for the gate layer.

Several derivations hang off a :class:`~repro.gates.netlist.Netlist`
(its compiled lowering, the bound simulator/engine, the fault universe
and its equivalence classes).  They all share one caching contract:
keyed on *object identity* plus a structural *fingerprint*, so mutating
the source transparently recomputes while repeated wrapping of an
unchanged object is free, and entries die with their source object via
a weakref callback.  This module is the single implementation of that
contract; keep cache-subtlety fixes here rather than per call site.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Tuple, TypeVar

_T = TypeVar("_T")
_V = TypeVar("_V")


def identity_memo(
    fingerprint: Callable[[Any], Tuple],
    maxsize: int = 256,
) -> Callable[[Callable[[Any], _V]], Callable[[Any], _V]]:
    """Decorator factory memoising a one-argument derivation.

    ``fingerprint(obj)`` must capture every structural property the
    derived value depends on; a changed fingerprint forces a recompute.
    Cached values are returned as-is -- computes must produce values
    callers treat as immutable.

    Derived values typically hold a strong reference back to their
    subject (a compiled netlist keeps its source), so the weakref alone
    cannot evict; ``maxsize`` bounds the cache with least-recently-used
    eviction to keep long-running sessions from pinning every subject
    ever seen, without evicting a subject still in use.
    """

    def decorate(compute: Callable[[Any], _V]) -> Callable[[Any], _V]:
        cache: Dict[int, Tuple[Callable[[], Any], Tuple, _V]] = {}

        def wrapper(obj: Any) -> _V:
            key = id(obj)
            stamp = fingerprint(obj)
            entry = cache.get(key)
            if entry is not None and entry[0]() is obj and entry[1] == stamp:
                # Most recently used last, so eviction takes the coldest.
                cache[key] = cache.pop(key)
                return entry[2]
            value = compute(obj)
            try:
                ref: Callable[[], Any] = weakref.ref(
                    obj, lambda _r, _k=key, _c=cache: _c.pop(_k, None)
                )
            except TypeError:  # non-weakrefable subject (a tuple): hold it
                ref = lambda: obj
            if key in cache:
                del cache[key]
            cache[key] = (ref, stamp, value)
            while len(cache) > maxsize:
                del cache[next(iter(cache))]
            return value

        return wrapper

    return decorate


def netlist_fingerprint(netlist: Any) -> Tuple[int, int, int, int]:
    """Structural fingerprint of a netlist for :func:`identity_memo`.

    ``version`` covers builder-API mutations; the lengths also catch
    direct ``gates.append`` / ``primary_outputs.append`` manipulation.
    """
    return (
        netlist.version,
        len(netlist.gates),
        len(netlist.primary_inputs),
        len(netlist.primary_outputs),
    )
