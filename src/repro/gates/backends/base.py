"""The execution-backend protocol of the bit-parallel engine.

A backend is bound to one :class:`~repro.gates.compile.CompiledNetlist`
and implements the word-level evaluation kernels every higher layer
(campaigns, coverage sweeps, fault dictionaries, ATPG) is built on.
Words are always uint64 with 64 test vectors per word, in the layout of
:func:`repro.gates.engine.exhaustive_word_range`.

Two kernels are primitive:

* :meth:`Backend.run_words` -- fault-free evaluation of every net;
* :meth:`Backend.run_matrix` -- fault-major evaluation under an
  :class:`~repro.gates.backends.plan.OverridePlan`: row ``r`` of every
  net matrix is the behaviour under the plan's ``r``-th fault group
  (rows beyond the plan are override-free, i.e. golden).

Two more are derived with default implementations here, so a minimal
backend only writes the first two; fast backends override them:

* :meth:`Backend.run_outputs` -- primary-output rows only (the Table
  1/2 sweeps); it optionally takes one batch's union fan-out cone;
* :meth:`Backend.run_detect` -- per-row *detection words*: the OR over
  primary outputs of ``faulty XOR fault-free``, which is the single
  quantity campaigns, dictionaries and ATPG actually consume.  It
  optionally takes a cone schedule (:mod:`repro.gates.sparse`) that a
  backend may use to evaluate only the batch's union fan-out cone.

Bit-identity contract: every backend must produce bit-identical results
on every path -- ``run_matrix`` matrices equal element-wise, derived
kernels equal element-wise.  The differential suite
(``tests/test_backends.py``) enumerates the registry and asserts this.

Aliasing contract: every kernel returns a caller-owned array.  A
backend may keep a workspace between calls (``fused`` keeps one per
thread, for its prefix walks), but no kernel returns a view into it, so
a result stays valid across later kernel calls on any backend.

Profiling contract: when :func:`repro.obs.metrics.kernel_profiling_
enabled` is true (``REPRO_METRICS``/``REPRO_TRACE`` set, or forced),
every top-level kernel call records its wall time into the
``repro_kernel_seconds{backend=...,kernel=...}`` histogram.  The hook
is woven in by :meth:`Backend.__init_subclass__`, so backends get it
for free; only the *outermost* kernel on a thread records (a default
``run_detect`` delegating to ``run_matrix`` counts once).
"""

from __future__ import annotations

import functools
import threading
import time
from abc import ABC, abstractmethod
from typing import Callable, ClassVar, List, Optional, Tuple

import numpy as np

from repro.gates.backends.plan import OverridePlan
from repro.gates.compile import OP_AND, OP_OR, OP_XOR, CompiledNetlist
from repro.obs import metrics as _metrics

#: base opcode -> binary ufunc (None = copy/NOT) -- the single lowering
#: table shared by the NumPy backends, so a new base opcode only needs
#: registering here.
UFUNCS = {OP_AND: np.bitwise_and, OP_OR: np.bitwise_or, OP_XOR: np.bitwise_xor}

#: Byte cap of one fault-major matrix, ``n_nets x rows x words``
#: uint64 cells: every campaign slab and sweep chunk is clamped to it
#: (:func:`repro.gates.engine.matrix_word_chunk`) and the ``fused``
#: backend keeps one workspace of up to this size per thread alive
#: between calls, so every kernel call reuses that workspace instead of
#: allocating and page-faulting a fresh matrix.
GATE_MATRIX_BUDGET_MAX = 64 << 20

#: One resolved per-gate dispatch tuple:
#: (ufunc-or-None, invert, [operand net ids], output net id).
GateOp = Tuple[Optional[np.ufunc], bool, List[int], int]


def gate_program(compiled: CompiledNetlist) -> List[GateOp]:
    """Per-gate dispatch tuples in topological order.

    Resolved once at backend bind time so hot loops do no attribute
    lookups, slicing arithmetic or opcode branching.
    """
    offsets = compiled.operand_offsets
    return [
        (
            UFUNCS.get(int(compiled.base_ops[g])),
            bool(compiled.inverts[g]),
            [int(i) for i in compiled.operands[offsets[g] : offsets[g + 1]]],
            int(compiled.gate_output_ids[g]),
        )
        for g in range(compiled.n_gates)
    ]


#: Kernel methods eligible for timing instrumentation.
KERNEL_NAMES = ("run_words", "run_matrix", "run_outputs", "run_detect")

_PROFILE_LOCAL = threading.local()


def _profiled(kernel: str, fn: Callable) -> Callable:
    """Wrap one kernel method with the timing hook (idempotent)."""
    if getattr(fn, "_obs_profiled", False):
        return fn

    handle_attr = f"_obs_hist_{kernel}"

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not _metrics.kernel_profiling_enabled():
            return fn(self, *args, **kwargs)
        if getattr(_PROFILE_LOCAL, "depth", 0):
            # A derived kernel delegating to a primitive on the same
            # thread: the outer call owns the observation.
            return fn(self, *args, **kwargs)
        _PROFILE_LOCAL.depth = 1
        start = time.perf_counter()
        try:
            return fn(self, *args, **kwargs)
        finally:
            _PROFILE_LOCAL.depth = 0
            dur = time.perf_counter() - start
            # One pre-resolved handle per instance and kernel, so the
            # per-call cost is a lock plus a histogram fold.
            handle = self.__dict__.get(handle_attr)
            if handle is None:
                handle = self.__dict__[handle_attr] = _metrics.histogram_handle(
                    "repro_kernel_seconds", backend=self.name, kernel=kernel
                )
            handle.observe(dur)

    wrapper._obs_profiled = True  # type: ignore[attr-defined]
    return wrapper


class Backend(ABC):
    """One execution strategy bound to a compiled netlist."""

    #: Registry name; class attribute set by each implementation.
    name: ClassVar[str] = "abstract"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for kernel in KERNEL_NAMES:
            fn = cls.__dict__.get(kernel)
            if callable(fn):
                setattr(cls, kernel, _profiled(kernel, fn))

    def __init__(self, compiled: CompiledNetlist) -> None:
        self.compiled = compiled
        self._input_ids = [int(i) for i in compiled.input_ids]
        self._output_ids = [int(i) for i in compiled.output_ids]

    # ------------------------------------------------------------------
    # Primitive kernels
    # ------------------------------------------------------------------
    @abstractmethod
    def run_words(self, words: np.ndarray) -> np.ndarray:
        """Fault-free evaluation of every net.

        ``words`` is ``(n_inputs, n_words)`` packed input rows; returns
        a ``(n_nets, n_words)`` matrix indexed by compiled net id.
        """

    @abstractmethod
    def run_matrix(
        self, words: np.ndarray, plan: OverridePlan, n_rows: int
    ) -> np.ndarray:
        """Fault-major evaluation: ``(n_nets, n_rows, n_words)``.

        Row ``r`` of every net matrix is the behaviour under the
        ``r``-th fault group of ``plan``; rows ``plan.n_rows`` and
        beyond carry no overrides and evaluate to the fault-free run
        (the campaign's ride-along golden row).
        """

    # ------------------------------------------------------------------
    # Derived kernels (default implementations)
    # ------------------------------------------------------------------
    def run_outputs(
        self,
        words: np.ndarray,
        plan: OverridePlan,
        n_rows: int,
        gates: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Primary-output rows only, ``(n_outputs, n_rows, n_words)``.

        ``gates`` optionally carries the union fan-out cone of one
        cone-schedule batch, as in :meth:`run_detect`: gates outside it
        are provably golden, so a backend may skip them.  The default
        implementation ignores it and evaluates the full matrix.
        """
        return self.run_matrix(words, plan, n_rows)[self._output_ids]

    def run_detect(
        self,
        words: np.ndarray,
        plan: OverridePlan,
        n_rows: int,
        gates: Optional[np.ndarray] = None,
        out_ids: Optional[Tuple[int, ...]] = None,
    ) -> np.ndarray:
        """Detection words vs the fault-free run, ``(n_rows, n_words)``.

        Lane ``v % 64`` of word ``v // 64`` in row ``r`` is set iff some
        primary output differs from the golden run for vector ``v``
        under fault group ``r``.

        ``gates`` / ``out_ids`` optionally carry one batch of a cone
        schedule (:func:`repro.gates.sparse.build_schedule`): the
        ascending compiled gate indices of the batch's union fan-out
        cone and the primary-output net ids reachable from its sites.
        Gates and outputs outside the cone are provably golden, so a
        backend may skip them bit-identically.  The default
        implementation ignores the schedule and rides one override-free
        golden row along the full fault matrix.
        """
        vals = self.run_matrix(words, plan, n_rows + 1)
        diff: np.ndarray = np.zeros((n_rows, words.shape[1]), dtype=np.uint64)
        for out_id in self._output_ids:
            out = vals[out_id]
            diff |= out[:-1] ^ out[-1]
        return diff


# Subclass overrides are instrumented by __init_subclass__; the derived
# kernels defined on the base itself are wrapped here so backends that
# inherit them unchanged still record.
for _kernel in ("run_outputs", "run_detect"):
    setattr(Backend, _kernel, _profiled(_kernel, Backend.__dict__[_kernel]))
del _kernel
