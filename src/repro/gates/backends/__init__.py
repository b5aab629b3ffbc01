"""Execution backends for the bit-parallel engine.

The :class:`~repro.gates.backends.base.Backend` protocol separates
*what* is evaluated (the flat :class:`~repro.gates.compile.CompiledNetlist`
arrays plus :class:`~repro.gates.backends.plan.OverridePlan` fault
overrides) from *how*.  The library runs one backend, ``fused``; the
other two are the oracles the differential tests compare it against,
and all three are bit-identical on every path:

``python_loop``
    The original per-gate NumPy ufunc loop; with the base class's
    derived kernels it is the baseline the differential suites compare
    against (:mod:`.python_loop`).
``fused``
    The same loop with tainted-prefix walks for the derived kernels
    and a per-thread workspace -- the backend the library runs
    (:mod:`.fused`).
``reference``
    The cell-library interpreter under the backend protocol
    (:mod:`.reference`).

:func:`resolve_backend_name` reads :data:`DEFAULT_BACKEND` at call
time; a differential test that patches it runs the whole stack (in the
calling process) on an oracle.  Worker processes of sharded sweeps run
the default.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import SimulationError
from repro.gates.backends.base import GATE_MATRIX_BUDGET_MAX, Backend
from repro.gates.backends.plan import FaultGroup, OverridePlan
from repro.gates.backends.fused import FusedBackend
from repro.gates.backends.python_loop import PythonLoopBackend
from repro.gates.backends.reference import ReferenceBackend
from repro.gates.compile import CompiledNetlist

#: The backend the library runs.
DEFAULT_BACKEND = "fused"

#: name -> backend class (insertion order = listing order).
_REGISTRY = {
    cls.name: cls for cls in (PythonLoopBackend, FusedBackend, ReferenceBackend)
}


def list_backends() -> Tuple[str, ...]:
    """Names of the backends, in registry order."""
    return tuple(_REGISTRY)


def resolve_backend_name(backend: Optional[str] = None) -> str:
    """Resolve a backend selection to a registered name.

    ``None`` resolves to :data:`DEFAULT_BACKEND`.  Unknown names raise
    :class:`~repro.errors.SimulationError` listing the available
    backends.
    """
    if backend is None:
        return DEFAULT_BACKEND
    if backend in _REGISTRY:
        return backend
    raise SimulationError(
        f"unknown backend {backend!r}; "
        f"available backends: {list(list_backends())}"
    )


def create_backend(name: Optional[str], compiled: CompiledNetlist) -> Backend:
    """Instantiate backend ``name`` (``None``: the default) bound to
    ``compiled``."""
    return _REGISTRY[resolve_backend_name(name)](compiled)


__all__ = [
    "Backend",
    "OverridePlan",
    "FaultGroup",
    "GATE_MATRIX_BUDGET_MAX",
    "DEFAULT_BACKEND",
    "list_backends",
    "resolve_backend_name",
    "create_backend",
]
