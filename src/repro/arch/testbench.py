"""Gate-level replicas of the paper's Table 2 test architecture.

The functional-level Table 2 evaluators model a faulty full-adder cell
as a truth-table (LUT) spliced into one position of an arithmetic unit,
and run the nominal operation *and* its checking operations through that
same faulty unit.  This module lowers the whole experiment to a single
flat gate-level netlist so the batched bit-parallel engine
(:mod:`repro.gates.engine`) can evaluate every fault case over
word-packed exhaustive operand sweeps:

* the unit's cell array is instantiated once per operation it performs
  (the nominal computation plus each on-unit checking operation) --
  combinational *replicas* of the same sequentially-reused hardware.
  For the restoring divider the replication axis is time: the unit
  reuses one subtractor chain for ``width`` quotient iterations, so the
  unrolled netlist instantiates the chain once per iteration;
* the checking comparisons (fault-free in the paper's model) are built
  from XOR/OR reduction gates next to the arrays, and the divider's
  reconstruction check ``q*b + r == a`` plus remainder-range check use
  fault-free multiplier/adder/comparator logic (different unit classes
  in the paper's model);
* a cell-level stuck-at fault at array position ``p`` translates to a
  *fault group*: the corresponding stuck-at site in every replica's
  position-``p`` cell instance, all injected in one fault-matrix row
  (one :class:`~repro.gates.backends.plan.OverridePlan` row, which the
  Table sweeps hand to the backend's ``run_outputs``).

Each architecture carries its operand universe as one
:class:`~repro.gates.engine.TestSpace` (``arch.space``): the operand
bits sweep (vector ``v`` drives ``a = v mod 2**width`` and
``b = v >> width``, the enumeration the functional evaluators use), the
``zero``/``one`` rails are pinned, and the divider's divisor field is
required non-zero, so its zero-divisor lanes are masked out before any
situation is counted.  The coverage sweep, fault dictionaries and ATPG
all read this one definition.

Because the LUT library is itself derived by exhaustively simulating the
same cell netlist under the same stuck-at universe, the flat gate-level
sweep is bit-identical to the functional LUT evaluation -- the property
the parity tests in ``tests/test_table2_exact.py`` and
``tests/test_testbench_muldiv.py`` pin down.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.arch.cell import DEFAULT_CELL_NETLIST, cell_netlist
from repro.arch.multiplier import ArrayMultiplierUnit
from repro.errors import SimulationError
from repro.gates.builders import (
    _fa_cell,
    instantiate_cell,
    restoring_divider_steps,
    truncated_multiplier_rows,
)
from repro.gates.cells import CellType
from repro.gates.engine import TestSpace
from repro.gates.faults import FaultSite, StuckAtFault
from repro.gates.netlist import Netlist

#: Operators whose test architecture is a (chain of) full-adder cells
#: reused for every on-unit operation: Table 2's overloaded ``+`` and
#: the overloaded ``-`` that shares the same adder core.
CHAIN_OPERATORS = ("add", "sub")

#: Operators realised as 2-D cell arrays (the truncated ripple-row
#: multiplier) or unrolled sequential chains (the restoring divider).
ARRAY_OPERATORS = ("mul", "div")

#: Every operator with a gate-level Table 2 architecture.
GATE_OPERATORS = CHAIN_OPERATORS + ARRAY_OPERATORS


def _translate_cell_fault(
    cell: Netlist, tag: str, bindings: Mapping[str, str], fault: StuckAtFault
) -> List[StuckAtFault]:
    """Map a fault on the stand-alone cell onto instance ``tag``.

    Internal/output nets carry the instance prefix, so stems and
    branches translate one-to-one.  A *stem* on a cell primary input has
    no private flat net (the bound net is shared with other instances);
    it becomes the set of branch faults on every pin of this instance
    that reads the input -- electrically identical within the cell.
    """
    site = fault.site
    if site.net in cell.primary_inputs:
        bound = bindings[site.net]
        if site.is_stem:
            return [
                StuckAtFault(
                    FaultSite(bound, (f"{tag}_{gate.name}", pin)), fault.value
                )
                for gate, pin in cell.fanout(site.net)
            ]
        gate_name, pin = site.branch
        return [StuckAtFault(FaultSite(bound, (f"{tag}_{gate_name}", pin)), fault.value)]
    flat_net = f"{tag}_{site.net}"
    if site.is_stem:
        return [StuckAtFault(FaultSite(flat_net), fault.value)]
    gate_name, pin = site.branch
    return [StuckAtFault(FaultSite(flat_net, (f"{tag}_{gate_name}", pin)), fault.value)]


class _Table2ArchitectureBase:
    """Shared machinery of the per-operator Table 2 architectures.

    Subclasses implement :meth:`_build` (returning the flat netlist) and
    :meth:`_position_axis` (the faulty-cell location axis).  Every
    netlist emits the nominal result rows and then the Tech 1 and Tech 2
    detection flags; the divider overrides ``n_result_rows`` (``q`` then
    ``r``).  The base provides cell instantiation with fault
    translation bookkeeping, fault-free helper logic, and the operand
    universe the batched coverage sweep streams.

    Attributes:
        operator: operator name (``add``/``sub``/``mul``/``div``).
        width: operand width in bits.
        cell_style: full-adder cell netlist style (see
            :mod:`repro.arch.cell`).
        netlist: the flat combinational netlist.  Primary inputs are
            ``a0..a{n-1}``, ``b0..b{n-1}`` plus the constants ``zero``
            and ``one``; primary outputs are the nominal result bits
            followed by one detection flag per technique.
        chains: per-replica instance tags; ``chains[c][p]`` names the
            position-``p`` cell of the ``c``-th copy of the faulty unit
            (for the divider, the ``c``-th unrolled iteration).
        positions: all faulty-cell positions, in fault-universe order.
        space: the operand universe -- operand bits swept, ``zero``/
            ``one`` pinned, the divider's divisor field non-zero.
    """

    operator: str

    def __init__(self, operator: str, width: int, cell_style: str) -> None:
        if width < 1:
            raise SimulationError(f"width must be >= 1, got {width}")
        self.operator = operator
        self.width = width
        self.cell_style = cell_style
        self.cell = cell_netlist(cell_style)
        self.chains: List = []
        self._bindings: Dict[str, Dict[str, str]] = {}
        self.positions: Sequence = self._position_axis()
        self._position_set = set(self.positions)
        self.netlist = self._build()
        self.netlist.validate()
        # Every shipped architecture must be structurally lint-clean
        # (no loops, floating or multiply-driven nets); catching a bad
        # builder here is much cheaper than debugging its campaigns.
        # Imported here so ``python -m repro.analysis.lint`` finds its
        # module unimported after the package import.
        from repro.analysis.lint import assert_clean

        assert_clean(self.netlist)
        self.space = TestSpace(
            self.netlist,
            tuple(self.netlist.primary_inputs[: 2 * width]),
            (("zero", 0), ("one", 1)),
            (width, 2 * width) if operator == "div" else None,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _position_axis(self) -> Sequence:
        raise NotImplementedError

    def _build(self) -> Netlist:
        raise NotImplementedError

    def _cell(
        self, nl: Netlist, tag: str, a: str, b: str, cin: str
    ) -> Tuple[str, str]:
        """Instantiate one (potentially faulty) cell and record bindings."""
        bindings = {"a": a, "b": b, "cin": cin}
        netmap = instantiate_cell(nl, self.cell, tag, bindings)
        self._bindings[tag] = bindings
        return netmap["s"], netmap["cout"]

    def _invert(self, nl: Netlist, nets: List[str], prefix: str) -> List[str]:
        """Fault-free one's-complement (the paper's ``g``-function routing)."""
        out = []
        for i, net in enumerate(nets):
            inv = f"{prefix}{i}"
            nl.add_gate(CellType.NOT, [net], inv, name=f"inv_{inv}")
            out.append(inv)
        return out

    def _sum_chain(
        self, nl: Netlist, prefix: str, xs: List[str], ys: List[str], cin: str
    ) -> List[str]:
        """Fault-free ripple sum mod ``2**n`` (final carry dropped)."""
        carry = cin
        sums = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            s, carry = _fa_cell(nl, f"{prefix}_p{i}", x, y, carry)
            sums.append(s)
        return sums

    def _negate(
        self, nl: Netlist, nets: List[str], prefix: str, zero: str, one: str
    ) -> List[str]:
        """Fault-free two's complement ``~x + 1`` mod ``2**n``."""
        inverted = self._invert(nl, nets, f"{prefix}_n")
        return self._sum_chain(nl, prefix, inverted, [zero] * len(nets), one)

    def _mismatch(
        self, nl: Netlist, name: str, got: List[str], want: List[str]
    ) -> str:
        """Fault-free comparator: 1 when any bit of ``got`` != ``want``."""
        bits = []
        for i, (g, w) in enumerate(zip(got, want)):
            net = f"{name}_x{i}"
            nl.add_gate(CellType.XOR, [g, w], net, name=f"cmp_{net}")
            bits.append(net)
        return self._any(nl, name, bits)

    def _any(self, nl: Netlist, name: str, bits: List[str]) -> str:
        if len(bits) == 1:
            nl.add_gate(CellType.BUF, bits, name, name=f"buf_{name}")
        else:
            nl.add_gate(CellType.OR, bits, name, name=f"or_{name}")
        return name

    # ------------------------------------------------------------------
    # Interfaces for the batched sweep
    # ------------------------------------------------------------------
    @property
    def n_result_rows(self) -> int:
        """Leading output rows that form the nominal result."""
        return self.width

    @property
    def detect_rows(self) -> Dict[str, int]:
        """Output-row index of each technique's detection flag."""
        return {"tech1": self.n_result_rows, "tech2": self.n_result_rows + 1}

    def fault_group(
        self, cell_fault: StuckAtFault, position
    ) -> Tuple[StuckAtFault, ...]:
        """Flat fault group for one Table 2 case.

        The cell-level ``cell_fault`` at array ``position`` is
        replicated into every copy of the faulty unit (the nominal array
        and each on-unit checking replica; for the divider, every
        unrolled iteration of the reused chain), matching the paper's
        model where the same broken hardware executes every operation.
        """
        if position not in self._position_set:
            raise SimulationError(
                f"no {self.operator} cell at position {position!r} (width {self.width})"
            )
        flat: List[StuckAtFault] = []
        for tags in self.chains:
            tag = tags[position]
            flat.extend(
                _translate_cell_fault(self.cell, tag, self._bindings[tag], cell_fault)
            )
        return tuple(flat)


class Table2Architecture(_Table2ArchitectureBase):
    """One chain operator's Table 2 experiment as a flat netlist.

    ``operator`` is ``"add"`` or ``"sub"``: the faulty unit is a ripple
    chain of ``width`` cells reused by the nominal operation and both
    on-unit checking operations (three replicas).
    """

    def __init__(
        self,
        operator: str,
        width: int,
        cell_style: str = DEFAULT_CELL_NETLIST,
    ) -> None:
        if operator not in CHAIN_OPERATORS:
            raise SimulationError(
                f"no chain Table 2 architecture for operator {operator!r}; "
                f"choose from {CHAIN_OPERATORS}"
            )
        super().__init__(operator, width, cell_style)

    def _position_axis(self) -> Sequence:
        return tuple(range(self.width))

    # ------------------------------------------------------------------
    def _chain(
        self, nl: Netlist, name: str, a_nets: List[str], b_nets: List[str], cin: str
    ) -> List[str]:
        """One replica of the cell chain; returns its sum nets."""
        tags: List[str] = []
        sums: List[str] = []
        carry = cin
        for i in range(self.width):
            tag = f"{name}_p{i}"
            s, carry = self._cell(nl, tag, a_nets[i], b_nets[i], carry)
            sums.append(s)
            tags.append(tag)
        self.chains.append(tags)
        return sums

    def _build(self) -> Netlist:
        n = self.width
        nl = Netlist(f"table2_{self.operator}_{self.cell_style}_{n}")
        a = [nl.add_input(f"a{i}") for i in range(n)]
        b = [nl.add_input(f"b{i}") for i in range(n)]
        zero = nl.add_input("zero")
        one = nl.add_input("one")
        if self.operator == "add":
            # Nominal ris = a + b through the (possibly faulty) unit.
            ris = self._chain(nl, "u0", a, b, zero)
            # Tech 1: op2' = ris - a on the same unit, compare against b.
            na = self._invert(nl, a, "na")
            q1 = self._chain(nl, "u1", ris, na, one)
            neq1 = self._mismatch(nl, "neq1", q1, b)
            # Tech 2: op1' = ris - b on the same unit, compare against a.
            nb = self._invert(nl, b, "nb")
            q2 = self._chain(nl, "u2", ris, nb, one)
            neq2 = self._mismatch(nl, "neq2", q2, a)
        else:  # sub
            # Nominal ris = a - b (ones'-complement b, carry-in 1).
            nb = self._invert(nl, b, "nb")
            ris = self._chain(nl, "u0", a, nb, one)
            # Tech 1: op1' = ris + op2 on the same unit, compare against a.
            q1 = self._chain(nl, "u1", ris, b, zero)
            neq1 = self._mismatch(nl, "neq1", q1, a)
            # Tech 2: ris' = op2 - op1 on the same unit; the fault-free
            # final summation ris + ris' must be all-zero (mod 2**n).
            na = self._invert(nl, a, "na")
            ris2 = self._chain(nl, "u2", b, na, one)
            sums = self._sum_chain(nl, "fsum", ris, ris2, zero)
            neq2 = self._any(nl, "nz", sums)
        for net in ris:
            nl.mark_output(net)
        nl.mark_output(neq1)
        nl.mark_output(neq2)
        return nl


class Table2MultiplierArchitecture(_Table2ArchitectureBase):
    """The truncated array multiplier's Table 2 experiment.

    The faulty unit is the ``n x n -> n`` ripple-row array
    (:class:`~repro.arch.multiplier.ArrayMultiplierUnit`); the fixed
    width makes ``op1*op2 + (-op1)*op2 == 0 (mod 2**n)``, so both
    checking products run through the same faulty array (three replicas)
    while the negations, final summations and zero tests are fault-free
    routing/comparator logic.  Faulty-cell positions are the array's
    ``(row, col)`` pairs, ``32 * n(n-1)/2`` cases in all.
    """

    def __init__(self, width: int, cell_style: str = DEFAULT_CELL_NETLIST) -> None:
        if width < 2:
            raise SimulationError(
                f"the multiplier array needs width >= 2, got {width}"
            )
        super().__init__("mul", width, cell_style)

    def _position_axis(self) -> Sequence:
        return tuple(ArrayMultiplierUnit.cell_positions(self.width))

    def _array(
        self, nl: Netlist, name: str, a_nets: List[str], b_nets: List[str], zero: str
    ) -> List[str]:
        """One replica of the faulty multiplier array; returns product nets."""
        tags: Dict[Tuple[int, int], str] = {}

        def cell(position: Tuple[int, int], x: str, y: str, cin: str):
            row, col = position
            tag = f"{name}_r{row}c{col}"
            tags[position] = tag
            return self._cell(nl, tag, x, y, cin)

        product = truncated_multiplier_rows(nl, name, a_nets, b_nets, zero, cell)
        self.chains.append(tags)
        return product

    def _build(self) -> Netlist:
        n = self.width
        nl = Netlist(f"table2_mul_{self.cell_style}_{n}")
        a = [nl.add_input(f"a{i}") for i in range(n)]
        b = [nl.add_input(f"b{i}") for i in range(n)]
        zero = nl.add_input("zero")
        one = nl.add_input("one")
        # Nominal ris = a * b through the (possibly faulty) array.
        ris = self._array(nl, "u0", a, b, zero)
        # Tech 1: ris1 = (-op1) * op2 on the same array; fault-free
        # final summation ris + ris1 must vanish mod 2**n.
        na = self._negate(nl, a, "nega", zero, one)
        ris1 = self._array(nl, "u1", na, b, zero)
        s1 = self._sum_chain(nl, "fs1", ris, ris1, zero)
        neq1 = self._any(nl, "neq1", s1)
        # Tech 2: ris2 = op1 * (-op2), same array, same zero test.
        nb = self._negate(nl, b, "negb", zero, one)
        ris2 = self._array(nl, "u2", a, nb, zero)
        s2 = self._sum_chain(nl, "fs2", ris, ris2, zero)
        neq2 = self._any(nl, "neq2", s2)
        for net in ris:
            nl.mark_output(net)
        nl.mark_output(neq1)
        nl.mark_output(neq2)
        return nl


class Table2DividerArchitecture(_Table2ArchitectureBase):
    """The restoring divider's Table 2 experiment.

    The faulty unit is the ``width + 1``-cell subtractor chain inside
    :class:`~repro.arch.divider.RestoringDividerUnit`, reused once per
    quotient bit; the unrolled netlist instantiates it ``width`` times,
    so a faulty cell at chain position ``p`` becomes a fault group over
    every iteration's ``p``-th cell.  The checks run on *other* unit
    classes and are therefore fault-free: Tech 1 reconstructs
    ``q*b + r`` (truncated multiplier + adder) and compares against
    ``a``; Tech 2 additionally enforces the remainder range ``r < b``
    (the paper's precision-of-the-inverse-operation concern).

    Zero divisors are excluded from the operand universe: ``space``
    requires the divisor field non-zero, masking the ``b == 0`` lanes
    out of the sweep and leaving ``2**n * (2**n - 1)`` situations per
    fault case.
    """

    def __init__(self, width: int, cell_style: str = DEFAULT_CELL_NETLIST) -> None:
        super().__init__("div", width, cell_style)

    def _position_axis(self) -> Sequence:
        return tuple(range(self.width + 1))

    def _build(self) -> Netlist:
        n = self.width
        nl = Netlist(f"table2_div_{self.cell_style}_{n}")
        a = [nl.add_input(f"a{i}") for i in range(n)]
        b = [nl.add_input(f"b{i}") for i in range(n)]
        zero = nl.add_input("zero")
        one = nl.add_input("one")
        steps: Dict[int, Dict[int, str]] = {}

        def cell(position: Tuple[int, int], x: str, y: str, cin: str):
            step, index = position
            tag = f"u_s{step}_p{index}"
            steps.setdefault(step, {})[index] = tag
            return self._cell(nl, tag, x, y, cin)

        # Nominal q, r = a divmod b through the (possibly faulty) unit.
        q, r = restoring_divider_steps(nl, "u", a, b, zero, one, cell)
        # One chains entry per unrolled iteration of the reused chain.
        for step in sorted(steps):
            self.chains.append(steps[step])
        # Tech 1: fault-free reconstruction q*b + r, compared against a.
        prod = truncated_multiplier_rows(
            nl,
            "chk",
            q,
            b,
            zero,
            lambda pos, x, y, cin: _fa_cell(nl, f"chk_r{pos[0]}c{pos[1]}", x, y, cin),
        )
        recon = self._sum_chain(nl, "rec", prod, r, zero)
        neq1 = self._mismatch(nl, "neq1", recon, a)
        # Tech 2: also require r < b -- carry-out of r + ~b + 1 means
        # r >= b (fault-free magnitude comparator).
        nb = self._invert(nl, b, "genb")
        ge = one
        for i in range(n):
            _, ge = _fa_cell(nl, f"ge_p{i}", r[i], nb[i], ge)
        nl.add_gate(CellType.OR, [neq1, ge], "neq2", name="or_neq2")
        for net in q:
            nl.mark_output(net)
        for net in r:
            nl.mark_output(net)
        nl.mark_output(neq1)
        nl.mark_output("neq2")
        return nl

    @property
    def n_result_rows(self) -> int:
        return 2 * self.width


def table2_architecture(
    operator: str, width: int, cell_style: str = DEFAULT_CELL_NETLIST
) -> _Table2ArchitectureBase:
    """Cached Table 2 architecture for ``(operator, width, style)``.

    Dispatches to the chain, multiplier or divider architecture; the
    cache keeps the compiled-netlist/engine caches, and the sweep plans
    kept on the engines, hot across repeated evaluations.  A defaulted
    and an explicit ``cell_style`` share one entry.
    """
    return _table2_architecture(operator, width, cell_style)


@functools.lru_cache(maxsize=None)
def _table2_architecture(
    operator: str, width: int, cell_style: str
) -> _Table2ArchitectureBase:
    if operator in CHAIN_OPERATORS:
        return Table2Architecture(operator, width, cell_style)
    if operator == "mul":
        return Table2MultiplierArchitecture(width, cell_style)
    if operator == "div":
        return Table2DividerArchitecture(width, cell_style)
    raise SimulationError(
        f"no gate-level Table 2 architecture for operator {operator!r}; "
        f"choose from {GATE_OPERATORS}"
    )
