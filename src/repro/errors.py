"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so that
callers can distinguish library failures from programming mistakes with a
single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the :mod:`repro` library."""


class NetlistError(ReproError):
    """A structural problem in a gate-level netlist (dangling net,
    duplicate driver, combinational cycle, unknown cell type...)."""


class SimulationError(ReproError):
    """A logic-simulation request that cannot be satisfied (width
    mismatch, missing input assignment, unsupported vector shape...)."""


class FaultError(ReproError):
    """An invalid fault descriptor or fault-injection request."""


class StoreError(ReproError):
    """A result-store location that cannot be opened (a path that is
    not a directory, or cannot be created)."""


class CheckError(ReproError):
    """Raised by :class:`repro.core.SCK` consumers when an error bit is
    observed in strict mode."""


class SpecificationError(ReproError):
    """An ill-formed dataflow-graph specification in the co-design flow."""


class SchedulingError(ReproError):
    """The scheduler could not produce a legal schedule (e.g. zero
    functional units allocated for a required operation type)."""


class CompilationError(ReproError):
    """The VM compiler could not translate a dataflow graph."""


class OverflowPolicyError(ReproError):
    """An arithmetic result exceeded the representable range and the
    active overflow policy is ``'raise'``."""
