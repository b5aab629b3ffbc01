"""The checking techniques of Table 1, expressed at the hardware level.

Each operator has up to three techniques:

=========  ===========================  ============================
operator   Tech 1                       Tech 2
=========  ===========================  ============================
``add``    ``op2' = ris - op1``         ``op1' = ris - op2``
           detect ``op2' != op2``       detect ``op1' != op1``
``sub``    ``op1' = ris + op2``         ``ris' = op2 - op1``
           detect ``op1' != op1``       detect ``ris + ris' != 0``
``mul``    ``ris' = (-op1) * op2``      ``ris' = op1 * (-op2)``
           detect ``ris + ris' != 0``   detect ``ris + ris' != 0``
``div``    ``op1' = ris*op2 + rem``     Tech 1 plus the remainder
           detect ``op1' != op1``       range check ``rem < op2``
=========  ===========================  ============================

``both`` (where Table 1 reports it) raises an error when either
technique does.  The *check* operation of add/sub/mul runs through the
**same possibly-faulty unit** as the nominal operation (the paper's
worst case); the final comparison/summation is assumed fault-free (it
maps to a comparator, not the unit under analysis).

Reconstruction note (the divider architecture of
``docs/architecture.md`` section 6 builds the same checks): in fixed-width
modular arithmetic the two division checks printed in Table 1 are
algebraically identical, so this library differentiates Tech 2 by the
remainder range check that the paper's "precision of the inverse
operation" discussion motivates.  The ``both`` entry for ``div`` is
intentionally absent, as in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import FaultError

#: Canonical technique names in display order.
TECHNIQUE_NAMES = ("tech1", "tech2", "both")


@dataclass(frozen=True)
class CheckTechnique:
    """Metadata describing one overloading technique.

    The actual detection math lives in :mod:`repro.coverage.engine` (for
    the hardware worst-case study) and :mod:`repro.core.techniques` (for
    the SCK class); this record carries the shared identity, the paper's
    published fault coverage for Table 1 comparisons, and a relative
    cost weight used by the checker library and the co-design flow.
    """

    operator: str
    name: str
    nominal: str
    check: str
    condition: str
    paper_coverage: float
    extra_ops: int

    def describe(self) -> str:
        return f"{self.operator}/{self.name}: {self.check}; detect {self.condition}"


TECHNIQUES: Dict[Tuple[str, str], CheckTechnique] = {}


def _register(technique: CheckTechnique) -> None:
    TECHNIQUES[(technique.operator, technique.name)] = technique


_register(CheckTechnique("add", "tech1", "ris = op1 + op2", "op2' = ris - op1", "op2' != op2", 97.25, 1))
_register(CheckTechnique("add", "tech2", "ris = op1 + op2", "op1' = ris - op2", "op1' != op1", 98.81, 1))
_register(CheckTechnique("add", "both", "ris = op1 + op2", "both subtractions", "either differs", 99.11, 2))
_register(CheckTechnique("sub", "tech1", "ris = op1 - op2", "op1' = ris + op2", "op1' != op1", 96.85, 1))
_register(CheckTechnique("sub", "tech2", "ris = op1 - op2", "ris' = op2 - op1", "ris + ris' != 0", 94.01, 1))
_register(CheckTechnique("sub", "both", "ris = op1 - op2", "both checks", "either differs", 99.58, 2))
_register(CheckTechnique("mul", "tech1", "ris = op1 * op2", "ris' = (-op1) * op2", "ris + ris' != 0", 96.22, 2))
_register(CheckTechnique("mul", "tech2", "ris = op1 * op2", "ris' = op1 * (-op2)", "ris + ris' != 0", 96.38, 2))
_register(CheckTechnique("mul", "both", "ris = op1 * op2", "both products", "either sum != 0", 97.43, 4))
_register(CheckTechnique("div", "tech1", "ris = op1 / op2", "op1' = ris*op2 + (op1 % op2)", "op1' != op1", 94.33, 2))
_register(CheckTechnique("div", "tech2", "ris = op1 / op2", "op1' plus remainder range", "op1' != op1 or rem >= op2", 97.16, 2))


def techniques_for(operator: str) -> Tuple[CheckTechnique, ...]:
    """All registered techniques of ``operator``, in display order."""
    found = tuple(
        TECHNIQUES[(operator, name)]
        for name in TECHNIQUE_NAMES
        if (operator, name) in TECHNIQUES
    )
    if not found:
        raise FaultError(f"no techniques registered for operator {operator!r}")
    return found
