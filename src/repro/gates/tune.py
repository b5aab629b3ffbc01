"""Campaign planning: chunk geometry and the sparse/dense decision.

Two services, both deterministic:

**Chunk resolution** (:func:`resolve_chunking`).  Every streaming
consumer of the fault matrix -- campaigns, coverage sweeps, fault
dictionaries, ATPG -- shares one rule: an explicit ``word_chunk`` /
``fault_chunk`` keyword beats the caller's default.  Chunking never
changes any result, only memory traffic and per-chunk overhead.

**Sparse/dense resolution** (:func:`resolve_sparse`).  Whether a
campaign runs the cone-sparse execution tier (:mod:`repro.gates.sparse`)
is decided from the ``sparse=`` keyword, the ``REPRO_SPARSE``
environment variable, or a cone-density heuristic over the netlist
shape.  Sparse and dense are bit-identical, so the decision only ever
changes *speed*; the differential suite enforces that.

Every resolved plan (choice + reason) is appended to a bounded
in-process log (:func:`plan_log`), which the benchmark harness records
into the ``BENCH_*.json`` trajectories so a regression in the *choice
itself* is caught, not just a regression in kernel speed.
"""

from __future__ import annotations

import os
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.gates.backends import _REGISTRY, resolve_backend_name
from repro.gates.compile import CompiledNetlist, compile_netlist
from repro.gates.netlist import Netlist
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics

#: Force the cone-sparse execution tier on ("1") or off ("0") for every
#: campaign whose caller does not pass ``sparse=`` explicitly.
SPARSE_ENV = "REPRO_SPARSE"

#: Mean cone fraction (average share of all gates a single fault can
#: perturb) above which sparse schedules stop paying: the cones cover
#: nearly the whole netlist, so the restricted walk does the dense work
#: plus scheduling overhead.
SPARSE_DENSITY_MAX = 0.75

#: Below this many gates the dense fused walk is already trivial.
SPARSE_MIN_GATES = 4

#: Below this many 64-vector words the sparse tier's slab-escalation
#: early exit has no room to work in the word dimension, so its extra
#: kernel calls cost more than the skipped gates save.
SPARSE_MIN_WORDS = 512

#: The historical campaign defaults, now defined exactly once.
DEFAULT_WORD_CHUNK = 512
DEFAULT_FAULT_CHUNK = 64

#: Capacity of the in-process plan log.  Beyond this many resolved
#: plans the oldest entries fall off (counted by the
#: ``repro_plan_log_dropped_total`` metric, so the truncation is never
#: silent); the trace stream receives *every* plan regardless.
PLAN_LOG_MAX = 256

#: Bounded log of resolved plans, newest last (see :func:`plan_log`).
_PLAN_LOG: Deque["TuningPlan"] = deque(maxlen=PLAN_LOG_MAX)

#: Resolution memo: repeated identical resolutions (the per-campaign
#: pattern in hot loops) must cost dict-lookup time, not a heuristic
#: evaluation -- and must not flood the plan log.  Keyed on the
#: compiled object's identity (weakref-checked against id reuse), every
#: explicit argument and every environment knob the resolution reads.
_PLAN_MEMO: Dict[Tuple, Tuple[weakref.ref, "TuningPlan"]] = {}
_PLAN_MEMO_MAX = 256


def _env_knobs() -> Tuple:
    """The environment state a plan resolution depends on."""
    return (
        os.environ.get("REPRO_BACKEND"),
        os.environ.get("REPRO_GATE_MATRIX_BUDGET"),
        os.environ.get(SPARSE_ENV),
    )


def _env_bool(env: str) -> Optional[bool]:
    raw = os.environ.get(env)
    if raw is None or raw == "":
        return None
    low = raw.strip().lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise SimulationError(f"{env}={raw!r} is not a boolean flag")


def resolve_chunking(
    word_chunk: Optional[int] = None,
    fault_chunk: Optional[int] = None,
    *,
    default_word_chunk: int = DEFAULT_WORD_CHUNK,
    default_fault_chunk: int = DEFAULT_FAULT_CHUNK,
) -> Tuple[int, int]:
    """The single chunk-geometry resolution rule of the whole stack.

    Per knob: explicit keyword, else the caller's default (campaigns
    pass 512/64, the coverage and dictionary builders 256/64, exactly
    their historical constants), clamped to at least one.
    """
    if word_chunk is None:
        word_chunk = default_word_chunk
    if fault_chunk is None:
        fault_chunk = default_fault_chunk
    return max(1, int(word_chunk)), max(1, int(fault_chunk))


@dataclass(frozen=True)
class NetlistShape:
    """The shape facts a plan decides on."""

    n_nets: int
    n_gates: int
    n_inputs: int
    n_outputs: int
    depth: int
    n_faults: int  #: fault-universe rows (collapsed groups when known)
    n_words: int  #: word-universe length of the intended sweep
    row_cells: int  #: uint64 cells of one word column, n_nets * (fault_chunk + 1)

    @property
    def total_cells(self) -> int:
        """Fault-matrix cells of the whole campaign, the work measure."""
        return self.n_faults * self.n_words

    def to_dict(self) -> Dict[str, int]:
        return {
            "n_nets": self.n_nets,
            "n_gates": self.n_gates,
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
            "depth": self.depth,
            "n_faults": self.n_faults,
            "n_words": self.n_words,
            "row_cells": self.row_cells,
            "total_cells": self.total_cells,
        }


@dataclass(frozen=True)
class TuningPlan:
    """One resolved execution plan: the choice plus why it was made."""

    backend: str
    word_chunk: int
    fault_chunk: int
    matrix_budget: int
    source: str  #: "sparse-explicit" | "sparse-env" | "sparse-model"
    reason: str
    shape: NetlistShape
    sparse: bool = False  #: cone-sparse execution tier on for this workload
    cone_density: Optional[float] = None  #: mean cone fraction the choice keyed on

    def to_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "word_chunk": self.word_chunk,
            "fault_chunk": self.fault_chunk,
            "matrix_budget": self.matrix_budget,
            "source": self.source,
            "reason": self.reason,
            "shape": self.shape.to_dict(),
            "sparse": self.sparse,
            "cone_density": self.cone_density,
        }


def plan_log() -> Tuple[TuningPlan, ...]:
    """Resolved plans of this process, oldest first.

    The window is bounded at :data:`PLAN_LOG_MAX` entries: once full,
    each new plan silently evicts the oldest *from this log only* --
    the eviction is counted in the ``repro_plan_log_dropped_total``
    metric and every plan still reaches the trace stream as a
    ``tuning_plan`` event, so nothing is lost observably."""
    return tuple(_PLAN_LOG)


def last_plan() -> Optional[TuningPlan]:
    return _PLAN_LOG[-1] if _PLAN_LOG else None


def clear_plan_log() -> None:
    """Empty the plan log (and the resolution memo, so the next
    resolution of any shape is re-derived and re-logged)."""
    _PLAN_LOG.clear()
    _PLAN_MEMO.clear()


def backend_supports_sparse(name: str) -> bool:
    """Whether backend ``name`` restricts work under a sparse schedule."""
    factory = _REGISTRY.get(name)
    return bool(getattr(factory, "supports_sparse", False))


def resolve_sparse(
    netlist: Union[Netlist, CompiledNetlist],
    backend: Optional[str] = None,
    *,
    sparse: Optional[bool] = None,
    n_groups: Optional[int] = None,
    n_words: Optional[int] = None,
    word_chunk: Optional[int] = None,
    fault_chunk: Optional[int] = None,
) -> TuningPlan:
    """Decide sparse vs dense execution for one campaign workload.

    Precedence: the explicit ``sparse=`` keyword, then the
    ``REPRO_SPARSE`` environment variable, then the cone-density
    heuristic -- sparse when the backend has sparse kernels and the
    netlist's mean cone fraction (:func:`repro.analysis.cones.
    analyze_gate_cones`) is at most :data:`SPARSE_DENSITY_MAX`.  The
    decision is returned as a :class:`TuningPlan` with ``sparse`` /
    ``cone_density`` set, logged to :func:`plan_log` and emitted as a
    ``tuning_plan`` event, so benchmark trajectories record the choice.
    ``n_groups`` / ``n_words`` override the shape estimates when the
    caller knows the real universe sizes.

    Sparse execution is bit-identical to dense on every backend (the
    base kernel falls back to the dense path), so forcing it on via
    the environment is always safe -- only speed changes.
    """
    from repro.gates.engine import matrix_word_chunk, resolve_matrix_budget

    compiled = (
        netlist if isinstance(netlist, CompiledNetlist) else compile_netlist(netlist)
    )
    memo_key = (
        id(compiled), backend, sparse, n_groups, n_words,
        word_chunk, fault_chunk, _env_knobs(),
    )
    hit = _PLAN_MEMO.get(memo_key)
    if hit is not None and hit[0]() is compiled:
        return hit[1]
    word_chunk, fault_chunk = resolve_chunking(word_chunk, fault_chunk)
    backend_name = resolve_backend_name(backend)
    supports = backend_supports_sparse(backend_name)

    density: Optional[float] = None
    if compiled.n_gates:
        from repro.analysis.cones import analyze_gate_cones

        density = analyze_gate_cones(compiled.source).mean_cone_fraction
    if n_words is None:
        n_words = max(1, (1 << min(compiled.n_inputs, 30)) >> 6)
    env_flag = _env_bool(SPARSE_ENV)
    if sparse is not None:
        enabled = bool(sparse)
        source = "sparse-explicit"
        reason = f"explicit sparse={enabled}"
    elif env_flag is not None:
        enabled = env_flag
        source = "sparse-env"
        reason = f"{SPARSE_ENV} forces {'sparse' if enabled else 'dense'}"
    else:
        source = "sparse-model"
        if not supports:
            enabled = False
            reason = f"dense: backend {backend_name!r} has no sparse kernels"
        elif compiled.n_gates < SPARSE_MIN_GATES:
            enabled = False
            reason = (
                f"dense: {compiled.n_gates} gates < {SPARSE_MIN_GATES}, "
                f"nothing to skip"
            )
        elif n_words < SPARSE_MIN_WORDS:
            # The slab-escalation early exit needs a vector space that
            # spans many words; below this the per-call overhead of the
            # extra kernel invocations outweighs the skipped gates.
            enabled = False
            reason = (
                f"dense: {int(n_words)} words < {SPARSE_MIN_WORDS}, vector "
                f"space too small for slab early exit"
            )
        elif density is not None and density <= SPARSE_DENSITY_MAX:
            enabled = True
            reason = (
                f"sparse: mean cone fraction {density:.3f} <= "
                f"{SPARSE_DENSITY_MAX} leaves most gates skippable"
            )
        else:
            enabled = False
            reason = (
                f"dense: mean cone fraction {density:.3f} > "
                f"{SPARSE_DENSITY_MAX}, cones cover the netlist"
            )

    if n_groups is not None:
        n_faults = int(n_groups)
    else:
        # Cheap structural estimate: one stem per net plus one branch
        # per fanout pin, two polarities each -- close enough for the
        # recorded shape without building the universe.
        n_faults = 2 * (compiled.n_nets + int(len(compiled.operands)))
    row_cells = compiled.n_nets * (fault_chunk + 1)
    shape = NetlistShape(
        n_nets=compiled.n_nets,
        n_gates=compiled.n_gates,
        n_inputs=compiled.n_inputs,
        n_outputs=len(compiled.output_ids),
        depth=compiled.depth,
        n_faults=n_faults,
        n_words=int(n_words),
        row_cells=row_cells,
    )
    budget = resolve_matrix_budget(row_cells, None)
    plan = TuningPlan(
        backend=backend_name,
        word_chunk=matrix_word_chunk(row_cells, word_chunk, budget),
        fault_chunk=fault_chunk,
        matrix_budget=budget,
        source=source,
        reason=reason,
        shape=shape,
        sparse=enabled,
        cone_density=density,
    )
    if len(_PLAN_LOG) == PLAN_LOG_MAX:
        obs_metrics.inc("repro_plan_log_dropped_total")
    _PLAN_LOG.append(plan)
    obs_events.emit(
        obs_events.TUNING_PLAN,
        backend=backend_name,
        source=source,
        reason=reason,
        sparse=enabled,
        cone_density=density,
        n_faults=shape.n_faults,
        n_words=shape.n_words,
    )
    try:
        ref = weakref.ref(
            compiled, lambda _r, _k=memo_key: _PLAN_MEMO.pop(_k, None)
        )
    except TypeError:  # pragma: no cover - non-weakrefable compiled form
        ref = lambda: compiled
    _PLAN_MEMO[memo_key] = (ref, plan)
    while len(_PLAN_MEMO) > _PLAN_MEMO_MAX:
        del _PLAN_MEMO[next(iter(_PLAN_MEMO))]
    return plan


__all__ = [
    "SPARSE_ENV",
    "SPARSE_DENSITY_MAX",
    "SPARSE_MIN_GATES",
    "SPARSE_MIN_WORDS",
    "backend_supports_sparse",
    "resolve_sparse",
    "DEFAULT_WORD_CHUNK",
    "DEFAULT_FAULT_CHUNK",
    "NetlistShape",
    "PLAN_LOG_MAX",
    "TuningPlan",
    "resolve_chunking",
    "plan_log",
    "last_plan",
    "clear_plan_log",
]
