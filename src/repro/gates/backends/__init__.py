"""Pluggable execution backends for the bit-parallel engine.

The :class:`~repro.gates.backends.base.Backend` protocol separates
*what* is evaluated (the flat :class:`~repro.gates.compile.CompiledNetlist`
arrays plus :class:`~repro.gates.backends.plan.OverridePlan` fault
overrides) from *how*: every consumer of the engine -- campaigns,
coverage sweeps, fault dictionaries, ATPG -- runs unchanged on any
registered backend, and all backends are bit-identical on every path.

Registered backends:

``python_loop``
    The original per-gate NumPy ufunc loop, the one evaluation loop of
    the stack; with the base class's derived kernels it is the
    baseline the differential suites compare against
    (:mod:`.python_loop`).
``fused``
    The same loop with tainted-prefix walks for the derived kernels
    and a persistent workspace -- the default (:mod:`.fused`).
``reference``
    The cell-library interpreter under the backend protocol, so
    differential tests can enumerate the registry instead of
    hand-listing oracles (:mod:`.reference`).

Selection precedence: an explicit ``backend=`` keyword anywhere in the
stack beats the ``REPRO_BACKEND`` environment variable, which beats
:data:`DEFAULT_BACKEND`.  Worker processes of sharded campaigns receive
the already-resolved name, so one flag switches the whole stack
bit-identically.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

from repro.errors import SimulationError
from repro.gates.backends.base import GATE_MATRIX_BUDGET_MAX, Backend
from repro.gates.backends.plan import FaultGroup, OverridePlan
from repro.gates.backends.fused import FusedBackend
from repro.gates.backends.python_loop import PythonLoopBackend
from repro.gates.backends.reference import ReferenceBackend
from repro.gates.compile import CompiledNetlist

#: Environment variable naming the default backend for the process.
BACKEND_ENV = "REPRO_BACKEND"

#: Built-in default when neither a keyword nor the env var selects one.
DEFAULT_BACKEND = "fused"

#: name -> factory (insertion order = listing order).
_REGISTRY: Dict[str, Callable[[CompiledNetlist], Backend]] = {}


def register_backend(
    name: str, factory: Callable[[CompiledNetlist], Backend]
) -> None:
    """Register an execution backend under ``name``.

    ``factory(compiled)`` must return a bound :class:`Backend`.
    """
    _REGISTRY[name] = factory


def list_backends() -> Tuple[str, ...]:
    """Names of the registered backends, in registry order."""
    return tuple(_REGISTRY)


def resolve_backend_name(backend: Optional[str] = None) -> str:
    """Resolve a backend selection to a registered name.

    Precedence: the explicit ``backend`` argument, then the
    ``REPRO_BACKEND`` environment variable, then
    :data:`DEFAULT_BACKEND`.  Unknown selections raise
    :class:`~repro.errors.SimulationError` naming the source of the
    selection and the available backends.
    """
    source = "backend="
    if backend is None:
        env = os.environ.get(BACKEND_ENV)
        if env:
            backend, source = env, f"{BACKEND_ENV}="
        else:
            return DEFAULT_BACKEND
    if backend in _REGISTRY:
        return backend
    raise SimulationError(
        f"unknown backend {source}{backend!r}; "
        f"available backends: {list(list_backends())}"
    )


def create_backend(backend: Optional[str], compiled: CompiledNetlist) -> Backend:
    """Instantiate the selected backend bound to ``compiled``."""
    return _REGISTRY[resolve_backend_name(backend)](compiled)


register_backend(PythonLoopBackend.name, PythonLoopBackend)
register_backend(FusedBackend.name, FusedBackend)
register_backend(ReferenceBackend.name, ReferenceBackend)

__all__ = [
    "Backend",
    "OverridePlan",
    "FaultGroup",
    "GATE_MATRIX_BUDGET_MAX",
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "register_backend",
    "list_backends",
    "resolve_backend_name",
    "create_backend",
]
