"""Single-stuck-at fault universe for gate-level netlists.

Fault sites follow the classical rule used in structural testing:

* every net *stem* (the driver side of a net) is one site;
* every *fanout branch* (an individual gate input pin) of a net whose
  fanout is two or more is an additional, distinct site.

A net with fanout one contributes a single site (stem and branch are
electrically the same wire).  Primary outputs observe the stem.

Applied to the standard five-gate full adder (two XOR, two AND, one OR),
this rule yields 16 sites -- the nets ``a``, ``b``, ``cin`` and the
internal propagate signal each fan out twice (stem + 2 branches = 3 sites
each, 12 total), the two AND outputs have fanout one (2 sites) and the two
primary outputs add 2 more -- hence 32 single stuck-at faults, exactly the
``num_faults_1bit = 32`` the paper uses to size Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import FaultError
from repro.gates.cells import CellType
from repro.gates.memo import identity_memo, netlist_fingerprint
from repro.gates.netlist import Netlist

# Fault campaigns re-derive the fault universe and its equivalence
# classes on every call; both depend only on netlist structure, so they
# are memoised exactly like the compiled lowering (see repro.gates.memo).
_netlist_memo = identity_memo(netlist_fingerprint)


@dataclass(frozen=True)
class FaultSite:
    """A location where a stuck-at fault may be injected.

    ``branch`` is ``None`` for a stem fault (affects the net everywhere);
    otherwise it is a ``(gate_name, pin_index)`` pair identifying the
    single gate input pin affected.
    """

    net: str
    branch: Optional[Tuple[str, int]] = None

    @property
    def is_stem(self) -> bool:
        return self.branch is None

    def describe(self) -> str:
        if self.branch is None:
            return f"{self.net} (stem)"
        gate, pin = self.branch
        return f"{self.net} -> {gate}.pin{pin} (branch)"


@dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at fault: ``site`` forced to constant ``value``."""

    site: FaultSite
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise FaultError(f"stuck-at value must be 0 or 1, got {self.value!r}")

    def describe(self) -> str:
        return f"SA{self.value} @ {self.site.describe()}"


def enumerate_fault_sites(netlist: Netlist) -> List[FaultSite]:
    """Enumerate fault sites of ``netlist`` per the stem+branch rule."""
    sites: List[FaultSite] = []
    for net in netlist.nets:
        sites.append(FaultSite(net))
        readers = netlist.fanout(net)
        if len(readers) >= 2:
            for gate, pin in readers:
                sites.append(FaultSite(net, (gate.name, pin)))
    return sites


@_netlist_memo
def _full_fault_tuple(netlist: Netlist) -> Tuple[StuckAtFault, ...]:
    faults: List[StuckAtFault] = []
    for site in enumerate_fault_sites(netlist):
        faults.append(StuckAtFault(site, 0))
        faults.append(StuckAtFault(site, 1))
    return tuple(faults)


def full_fault_list(netlist: Netlist) -> List[StuckAtFault]:
    """The uncollapsed single-stuck-at fault list (two faults per site).

    The underlying tuple is memoised per netlist version; callers get a
    fresh list each time.
    """
    return list(_full_fault_tuple(netlist))


def default_fault_universe(netlist: Netlist) -> Tuple[StuckAtFault, ...]:
    """The memoised stem+branch universe as an immutable tuple.

    Zero-copy variant of :func:`full_fault_list` for hot campaign paths.
    """
    return _full_fault_tuple(netlist)


def default_equivalence_groups(netlist: Netlist) -> Tuple[Tuple[int, ...], ...]:
    """Memoised structural-equivalence partition of the default universe.

    Index groups into :func:`default_fault_universe`, zero-copy.
    """
    return _default_equivalence_groups(netlist)


#: Collapse modes accepted by every ``collapse=`` keyword.  ``True`` /
#: ``False`` keep their historical meaning (equivalence / none).
COLLAPSE_MODES = ("none", "equivalence", "dominance")


def resolve_collapse_mode(collapse: Union[bool, str]) -> str:
    """Normalise a ``collapse=`` argument to one of :data:`COLLAPSE_MODES`.

    ``True`` means ``"equivalence"`` (the historical default), ``False``
    means ``"none"``; the mode strings pass through unchanged.
    ``"dominance"`` additionally applies the dominance collapsing of
    :mod:`repro.analysis.collapse` where the caller supports it.
    """
    if collapse is True:
        return "equivalence"
    if collapse is False:
        return "none"
    if isinstance(collapse, str) and collapse in COLLAPSE_MODES:
        return collapse
    raise FaultError(
        f"unknown collapse mode {collapse!r}; expected a bool or one of "
        f"{COLLAPSE_MODES}"
    )


# Fault key: (net, branch-or-None, stuck value).  These key the
# union-find of the structural collapsing below.
_FaultKey = Tuple[str, Optional[Tuple[str, int]], int]


def _fault_key(fault: StuckAtFault) -> _FaultKey:
    return (fault.site.net, fault.site.branch, fault.value)


#: Per cell type: the stuck value on an input pin that forces the output
#: to a constant, and the resulting stuck value on the output.
_CONTROLLING: Dict[CellType, Tuple[int, int]] = {
    CellType.AND: (0, 0),
    CellType.NAND: (0, 1),
    CellType.OR: (1, 1),
    CellType.NOR: (1, 0),
}


@_netlist_memo
def _default_equivalence_groups(netlist: Netlist) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(group)
        for group in _compute_equivalence_groups(netlist, _full_fault_tuple(netlist))
    )


def structural_equivalence_groups(
    netlist: Netlist, faults: Optional[Sequence[StuckAtFault]] = None
) -> List[List[int]]:
    """Partition ``faults`` into classical structural-equivalence classes.

    Applies the textbook gate-level rules: a controlling stuck value on
    a gate input pin is equivalent to the corresponding stuck value on
    the gate output (AND: SA0->SA0, NAND: SA0->SA1, OR: SA1->SA1, NOR:
    SA1->SA0) and buffer/inverter input faults map to output faults
    (with inversion for NOT).  A pin reads its *branch* site when the
    net fans out, else the net *stem*; a stem that is also a primary
    output is never merged (the fault stays directly observable there,
    unlike the gate-output fault).  Equivalent faults have identical
    input/output behaviour, so simulating one representative per class
    is exact.

    Returns index groups into ``faults`` (default: the full stuck-at
    list), each ordered and led by its earliest member; group order
    follows first appearance.  The default-universe partition is
    memoised per netlist version.
    """
    if faults is None:
        return [list(group) for group in _default_equivalence_groups(netlist)]
    return _compute_equivalence_groups(netlist, faults)


def fault_classes(
    netlist: Netlist,
    faults: Optional[Sequence[StuckAtFault]] = None,
    mode: str = "equivalence",
) -> Tuple[Tuple[StuckAtFault, ...], Tuple[Tuple[int, ...], ...]]:
    """The fault list and its classes, one simulated representative each.

    ``faults`` defaults to the stem+branch universe.  ``mode`` is a
    resolved collapse mode (:func:`resolve_collapse_mode`): ``"none"``
    makes every fault its own class; ``"equivalence"`` and
    ``"dominance"`` (which prunes over the same classes, see
    :mod:`repro.analysis.collapse`) take the structural-equivalence
    partition.  The default universe and its partition come back as the
    memoised tuples, zero-copy: the campaign schedule cache keys on the
    partition's identity.
    """
    if faults is None:
        fault_seq = _full_fault_tuple(netlist)
        if mode != "none":
            return fault_seq, _default_equivalence_groups(netlist)
    else:
        fault_seq = tuple(faults)
        if mode != "none":
            groups = _compute_equivalence_groups(netlist, fault_seq)
            return fault_seq, tuple(tuple(g) for g in groups)
    return fault_seq, tuple((i,) for i in range(len(fault_seq)))


def _compute_equivalence_groups(
    netlist: Netlist, faults: Sequence[StuckAtFault]
) -> List[List[int]]:
    parent: Dict[_FaultKey, _FaultKey] = {}

    def find(key: _FaultKey) -> _FaultKey:
        parent.setdefault(key, key)
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(a: _FaultKey, b: _FaultKey) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    outputs = set(netlist.primary_outputs)
    for gate in netlist.gates:
        out_net = gate.output
        for pin, net in enumerate(gate.inputs):
            if netlist.fanout_count(net) >= 2:
                branch: Optional[Tuple[str, int]] = (gate.name, pin)
            elif net in outputs:
                continue  # stem observable at a PO: not equivalent
            else:
                branch = None
            if gate.cell_type in _CONTROLLING:
                pin_value, out_value = _CONTROLLING[gate.cell_type]
                union((net, branch, pin_value), (out_net, None, out_value))
            elif gate.cell_type is CellType.BUF:
                union((net, branch, 0), (out_net, None, 0))
                union((net, branch, 1), (out_net, None, 1))
            elif gate.cell_type is CellType.NOT:
                union((net, branch, 0), (out_net, None, 1))
                union((net, branch, 1), (out_net, None, 0))

    groups: Dict[_FaultKey, List[int]] = {}
    order: List[_FaultKey] = []
    for index, fault in enumerate(faults):
        root = find(_fault_key(fault))
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(index)
    return [groups[root] for root in order]


def collapse_equivalent(
    netlist: Netlist, faults: List[StuckAtFault], behaviors: Dict[StuckAtFault, bytes]
) -> List[StuckAtFault]:
    """Collapse faults whose full input/output behaviour is identical.

    ``behaviors`` maps each fault to an opaque byte signature (typically
    the concatenated faulty truth table produced by exhaustive
    simulation).  One representative per distinct signature is kept, in
    the original order.  This is *functional* collapsing -- stronger than
    structural equivalence rules -- and is used only for reporting; the
    coverage experiments of the paper count the full 32-fault list.
    """
    seen: Dict[bytes, StuckAtFault] = {}
    kept: List[StuckAtFault] = []
    for fault in faults:
        signature = behaviors[fault]
        if signature not in seen:
            seen[signature] = fault
            kept.append(fault)
    return kept
