"""Parameterised netlist generators for the paper's arithmetic blocks.

The key block is :func:`full_adder` -- the standard five-gate realisation
(two XOR, two AND, one OR) whose stem+branch single-stuck-at fault list
has exactly 32 entries, matching the paper's ``num_faults_1bit = 32``.
Wider units (:func:`ripple_carry_adder`, :func:`array_multiplier`...) are
built by chaining that cell, mirroring the paper's test architecture where
the faulty functional unit is one full adder in the chain.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from repro.errors import NetlistError
from repro.gates.cells import CellType
from repro.gates.netlist import Netlist

#: Cell-instantiation callback of the structural lowering helpers:
#: ``cell(position, a, b, cin) -> (sum, carry_out)``.  ``position``
#: identifies the full-adder cell within the unit (``(row, col)`` for
#: the multiplier array, ``(step, index)`` for the unrolled divider).
#: The public builders pass a plain five-gate realisation
#: (:func:`_fa_cell`); the Table 2 test architectures
#: (:mod:`repro.arch.testbench`) pass a callback that instantiates the
#: configurable cell netlist and records the instance tag so cell-level
#: faults can be translated onto it.
CellInstantiator = Callable[[Tuple[int, int], str, str, str], Tuple[str, str]]


def instantiate_cell(
    nl: Netlist, cell: Netlist, tag: str, bindings: Mapping[str, str]
) -> Dict[str, str]:
    """Instantiate the small netlist ``cell`` inside ``nl`` under ``tag``.

    ``bindings`` maps every primary input of ``cell`` to an existing net
    of ``nl``; internal and output nets become ``{tag}_{net}`` and gates
    ``{tag}_{gate}``, with input pin order preserved.  Because pin order
    and gate identity survive flattening, a stuck-at fault expressed on
    the cell netlist can be translated onto the instance (see
    :mod:`repro.arch.testbench`) and behaves exactly as it does in the
    stand-alone cell.  Returns the full cell-net -> flat-net map.
    """
    netmap: Dict[str, str] = {}
    for name in cell.primary_inputs:
        if name not in bindings:
            raise NetlistError(
                f"cell {cell.name!r} input {name!r} is unbound in instance {tag!r}"
            )
        netmap[name] = bindings[name]
    for gate in cell.topological_gates():
        flat_out = f"{tag}_{gate.output}"
        netmap[gate.output] = flat_out
        nl.add_gate(
            gate.cell_type,
            [netmap[n] for n in gate.inputs],
            flat_out,
            name=f"{tag}_{gate.name}",
        )
    return netmap


def half_adder(name: str = "ha") -> Netlist:
    """Half adder: ``s = a ^ b``, ``cout = a & b``."""
    nl = Netlist(name)
    nl.add_input("a")
    nl.add_input("b")
    nl.add_gate(CellType.XOR, ["a", "b"], "s", name="x_sum")
    nl.add_gate(CellType.AND, ["a", "b"], "cout", name="a_carry")
    nl.mark_output("s")
    nl.mark_output("cout")
    return nl


def full_adder(name: str = "fa") -> Netlist:
    """The standard five-gate full adder.

    Gates: ``p = a ^ b``, ``s = p ^ cin``, ``g1 = a & b``,
    ``g2 = p & cin``, ``cout = g1 | g2``.

    Nets ``a``, ``b``, ``cin`` and ``p`` each fan out to two pins, so the
    stem+branch fault-site rule yields 4*3 + 2 + 2 = 16 sites, i.e. 32
    single stuck-at faults.
    """
    nl = Netlist(name)
    nl.add_input("a")
    nl.add_input("b")
    nl.add_input("cin")
    nl.add_gate(CellType.XOR, ["a", "b"], "p", name="x1")
    nl.add_gate(CellType.XOR, ["p", "cin"], "s", name="x2")
    nl.add_gate(CellType.AND, ["a", "b"], "g1", name="a1")
    nl.add_gate(CellType.AND, ["p", "cin"], "g2", name="a2")
    nl.add_gate(CellType.OR, ["g1", "g2"], "cout", name="o1")
    nl.mark_output("s")
    nl.mark_output("cout")
    return nl


def full_adder_xor3(name: str = "fa3") -> Netlist:
    """Full adder with a three-input XOR sum and a mux-style carry.

    Gates: ``s = a ^ b ^ cin`` (one XOR3 gate), ``g = a & b``,
    ``t = a | b``, ``h = cin & t``, ``cout = g | h``.

    Fault sites: ``a`` and ``b`` each fan out to three pins (4 sites
    each), ``cin`` to two (3 sites), internal nets ``g``, ``t``, ``h``
    have fanout one (1 site each) and the outputs ``s``/``cout`` add one
    each -- 16 sites, i.e. the 32 single stuck-at faults of the paper.
    This netlist is the repository default for coverage experiments: its
    fault universe reproduces the paper's Table 2 shape most closely.
    The five-gate variant :func:`full_adder` exposes an internal
    propagate net, which makes compensating (undetectable) errors more
    frequent; it is kept as the ``two_xor`` cell for the sensitivity
    ablation (:mod:`repro.arch.cell`).
    """
    nl = Netlist(name)
    nl.add_input("a")
    nl.add_input("b")
    nl.add_input("cin")
    nl.add_gate(CellType.XOR, ["a", "b", "cin"], "s", name="x3")
    nl.add_gate(CellType.AND, ["a", "b"], "g", name="a1")
    nl.add_gate(CellType.OR, ["a", "b"], "t", name="o1")
    nl.add_gate(CellType.AND, ["cin", "t"], "h", name="a2")
    nl.add_gate(CellType.OR, ["g", "h"], "cout", name="o2")
    nl.mark_output("s")
    nl.mark_output("cout")
    return nl


def _fa_cell(nl: Netlist, tag: str, a: str, b: str, cin: str) -> Tuple[str, str]:
    """Instantiate one five-gate full-adder cell inside ``nl``.

    Returns the (sum, carry-out) net names.
    """
    p = f"{tag}_p"
    s = f"{tag}_s"
    g1 = f"{tag}_g1"
    g2 = f"{tag}_g2"
    cout = f"{tag}_cout"
    nl.add_gate(CellType.XOR, [a, b], p, name=f"{tag}_x1")
    nl.add_gate(CellType.XOR, [p, cin], s, name=f"{tag}_x2")
    nl.add_gate(CellType.AND, [a, b], g1, name=f"{tag}_a1")
    nl.add_gate(CellType.AND, [p, cin], g2, name=f"{tag}_a2")
    nl.add_gate(CellType.OR, [g1, g2], cout, name=f"{tag}_o1")
    return s, cout


def ripple_carry_adder(width: int, name: str = "rca") -> Netlist:
    """``width``-bit ripple-carry adder with explicit carry-in/out.

    Primary inputs: ``a0..a{w-1}``, ``b0..b{w-1}``, ``cin``.
    Primary outputs: ``s0..s{w-1}``, ``cout``.
    """
    if width < 1:
        raise NetlistError(f"adder width must be >= 1, got {width}")
    nl = Netlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    carry = nl.add_input("cin")
    for i in range(width):
        s, carry = _fa_cell(nl, f"fa{i}", a[i], b[i], carry)
        # Rename sum net to the conventional output name via a buffer-free
        # trick: _fa_cell already produced fa{i}_s; expose it directly.
        nl.mark_output(s)
    nl.mark_output(carry)
    return nl


def carry_lookahead_adder(width: int, name: str = "cla") -> Netlist:
    """``width``-bit carry-lookahead adder (single-level lookahead).

    Generates ``g_i = a_i & b_i``, ``p_i = a_i ^ b_i`` and expands
    ``c_{i+1} = g_i | p_i & c_i`` into two-level AND/OR logic.  For large
    widths the product terms grow quadratically, as in a real CLA slice.
    """
    if width < 1:
        raise NetlistError(f"adder width must be >= 1, got {width}")
    nl = Netlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    cin = nl.add_input("cin")
    g: List[str] = []
    p: List[str] = []
    for i in range(width):
        gi, pi = f"g{i}", f"p{i}"
        nl.add_gate(CellType.AND, [a[i], b[i]], gi, name=f"gen{i}")
        nl.add_gate(CellType.XOR, [a[i], b[i]], pi, name=f"prop{i}")
        g.append(gi)
        p.append(pi)
    carries = [cin]
    for i in range(width):
        # c_{i+1} = g_i + p_i g_{i-1} + ... + p_i..p_0 c_0
        terms = [g[i]]
        for j in range(i - 1, -1, -1):
            chain = p[j + 1 : i + 1] + [g[j]]
            term = f"t{i}_{j}"
            nl.add_gate(CellType.AND, chain, term, name=f"and_{term}")
            terms.append(term)
        chain0 = p[0 : i + 1] + [cin]
        term0 = f"t{i}_cin"
        nl.add_gate(CellType.AND, chain0, term0, name=f"and_{term0}")
        terms.append(term0)
        cnext = f"c{i + 1}"
        if len(terms) == 1:
            nl.add_gate(CellType.BUF, terms, cnext, name=f"buf_{cnext}")
        else:
            nl.add_gate(CellType.OR, terms, cnext, name=f"or_{cnext}")
        carries.append(cnext)
    for i in range(width):
        nl.add_gate(CellType.XOR, [p[i], carries[i]], f"s{i}", name=f"sum{i}")
        nl.mark_output(f"s{i}")
    nl.mark_output(carries[width])
    return nl


def carry_select_adder(width: int, block: int = 2, name: str = "csa") -> Netlist:
    """``width``-bit carry-select adder with ``block``-bit sections.

    Each section beyond the first is computed twice (carry-in 0 and 1)
    by ripple chains; a mux network driven by the incoming carry picks
    the result -- the classical latency/area trade-off between the
    ripple-carry and lookahead extremes.
    """
    if width < 1:
        raise NetlistError(f"adder width must be >= 1, got {width}")
    if block < 1:
        raise NetlistError(f"block size must be >= 1, got {block}")
    nl = Netlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    carry = nl.add_input("cin")
    # The zero/one rails only seed the speculative sections' carry-ins;
    # a single-section adder would leave them floating (and trip the
    # unused-input lint rule), so declare them only when needed.
    if width > block:
        zero = nl.add_input("zero")
        one = nl.add_input("one")

    def mux(tag: str, sel: str, when0: str, when1: str) -> str:
        nsel = f"{tag}_ns"
        t0 = f"{tag}_t0"
        t1 = f"{tag}_t1"
        out = f"{tag}_o"
        nl.add_gate(CellType.NOT, [sel], nsel, name=f"{tag}_inv")
        nl.add_gate(CellType.AND, [nsel, when0], t0, name=f"{tag}_and0")
        nl.add_gate(CellType.AND, [sel, when1], t1, name=f"{tag}_and1")
        nl.add_gate(CellType.OR, [t0, t1], out, name=f"{tag}_or")
        return out

    start = 0
    section = 0
    while start < width:
        end = min(start + block, width)
        if section == 0:
            # First section: plain ripple from the real carry-in.
            local = carry
            for i in range(start, end):
                s_net, local = _fa_cell(nl, f"s{section}_fa{i}", a[i], b[i], local)
                nl.add_gate(CellType.BUF, [s_net], f"s{i}", name=f"obuf{i}")
                nl.mark_output(f"s{i}")
            carry = local
        else:
            # Speculative ripples for carry-in 0 and 1, then select.
            c0, c1 = zero, one
            sums0, sums1 = [], []
            for i in range(start, end):
                s0, c0 = _fa_cell(nl, f"s{section}c0_fa{i}", a[i], b[i], c0)
                s1, c1 = _fa_cell(nl, f"s{section}c1_fa{i}", a[i], b[i], c1)
                sums0.append(s0)
                sums1.append(s1)
            for offset, i in enumerate(range(start, end)):
                out = mux(f"m{section}_{i}", carry, sums0[offset], sums1[offset])
                nl.add_gate(CellType.BUF, [out], f"s{i}", name=f"obuf{i}")
                nl.mark_output(f"s{i}")
            carry = mux(f"mc{section}", carry, c0, c1)
        start = end
        section += 1
    nl.add_gate(CellType.BUF, [carry], "cout", name="obuf_cout")
    nl.mark_output("cout")
    return nl


def ripple_borrow_subtractor(width: int, name: str = "rbs") -> Netlist:
    """``width``-bit subtractor built as ``a + ~b + 1`` on an RCA core.

    This is the paper's ``g`` function realisation: the second operand is
    one's-complemented and the carry-in is tied through the ``cin`` input
    (the caller asserts ``cin = 1`` for two's-complement subtraction).
    """
    if width < 1:
        raise NetlistError(f"subtractor width must be >= 1, got {width}")
    nl = Netlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    carry = nl.add_input("cin")
    for i in range(width):
        nb = f"nb{i}"
        nl.add_gate(CellType.NOT, [b[i]], nb, name=f"inv{i}")
        s, carry = _fa_cell(nl, f"fa{i}", a[i], nb, carry)
        nl.mark_output(s)
    nl.mark_output(carry)
    return nl


def equality_comparator(width: int, name: str = "eq") -> Netlist:
    """``width``-bit equality comparator: single output ``eq``."""
    if width < 1:
        raise NetlistError(f"comparator width must be >= 1, got {width}")
    nl = Netlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    bits = []
    for i in range(width):
        e = f"e{i}"
        nl.add_gate(CellType.XNOR, [a[i], b[i]], e, name=f"xn{i}")
        bits.append(e)
    if width == 1:
        nl.add_gate(CellType.BUF, bits, "eq", name="buf_eq")
    else:
        nl.add_gate(CellType.AND, bits, "eq", name="and_eq")
    nl.mark_output("eq")
    return nl


def negator(width: int, name: str = "neg") -> Netlist:
    """Two's-complement negator: ``out = ~a + 1`` via an RCA with b=0.

    Implemented as inverters feeding a full-adder chain whose second
    operand is constant 0 and carry-in is the constant-1 input ``one``
    (kept as an input so the block stays purely combinational).
    """
    if width < 1:
        raise NetlistError(f"negator width must be >= 1, got {width}")
    nl = Netlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    zero = nl.add_input("zero")
    carry = nl.add_input("one")
    for i in range(width):
        na = f"na{i}"
        nl.add_gate(CellType.NOT, [a[i]], na, name=f"inv{i}")
        s, carry = _fa_cell(nl, f"fa{i}", na, zero, carry)
        nl.mark_output(s)
    nl.mark_output(carry)
    return nl


def array_multiplier(width: int, name: str = "mul") -> Netlist:
    """Unsigned ``width x width`` array multiplier (carry-save rows).

    Partial products ``pp[i][j] = a_j & b_i`` are reduced with rows of
    full-adder cells; the output is the low ``2*width`` product bits.
    The structure matches the classical array multiplier so that a single
    faulty cell corrupts a contiguous diagonal of the product, as the
    paper's single-functional-unit model assumes.
    """
    if width < 1:
        raise NetlistError(f"multiplier width must be >= 1, got {width}")
    nl = Netlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    zero = nl.add_input("zero")

    pp = [[f"pp{i}_{j}" for j in range(width)] for i in range(width)]
    for i in range(width):
        for j in range(width):
            nl.add_gate(CellType.AND, [a[j], b[i]], pp[i][j], name=f"ppand{i}_{j}")

    # Row 0 passes straight through; subsequent rows add the shifted
    # partial product with a ripple row.  ``sums[j]`` holds the bit of
    # weight (row-1)+j entering the current row; the top element is the
    # previous row's carry-out.
    sums = list(pp[0])
    outputs: List[str] = []
    for i in range(1, width):
        outputs.append(sums[0])  # weight i-1 finalised
        carry = zero
        new_sums: List[str] = []
        for j in range(width):
            upper = sums[j + 1] if j + 1 < len(sums) else zero
            s, carry = _fa_cell(nl, f"fa{i}_{j}", upper, pp[i][j], carry)
            new_sums.append(s)
        new_sums.append(carry)
        sums = new_sums
    outputs.extend(sums)
    for k, net in enumerate(outputs[: 2 * width]):
        if not net.startswith("p_"):
            alias = f"p_{k}"
            nl.add_gate(CellType.BUF, [net], alias, name=f"obuf{k}")
            nl.mark_output(alias)
    return nl


# ----------------------------------------------------------------------
# Structural lowerings mirroring the functional mul/div units
# ----------------------------------------------------------------------
def truncated_multiplier_rows(
    nl: Netlist,
    prefix: str,
    a: List[str],
    b: List[str],
    zero: str,
    cell: CellInstantiator,
) -> List[str]:
    """Lower one truncated ripple-row multiplier array into ``nl``.

    The structure mirrors :class:`repro.arch.multiplier.ArrayMultiplierUnit`
    cell for cell (C ``int`` semantics, ``n x n -> n`` bits, upper half
    and every row's final carry discarded): row 0 is the bare partial
    product ``a & -b0``; row ``i >= 1`` adds ``(a & -b_i) << i`` into the
    running sum through a ripple row of ``n - i`` full-adder cells, the
    cell at ``(row, col)`` combining running-sum bit ``row + col``,
    partial-product bit ``col`` and the row carry.  ``cell`` instantiates
    each full adder (position ``(row, col)``), so the same lowering
    serves the plain netlist builder and the faulty-cell test
    architectures.  Returns the ``n`` product-bit nets.
    """
    width = len(a)
    if len(b) != width:
        raise NetlistError(
            f"multiplier operands must share a width, got {len(a)} and {len(b)}"
        )
    product: List[str] = []
    for j in range(width):
        pp = f"{prefix}_pp0_{j}"
        nl.add_gate(CellType.AND, [a[j], b[0]], pp, name=f"{prefix}_ppand0_{j}")
        product.append(pp)
    for row in range(1, width):
        carry = zero
        for col in range(width - row):
            pp = f"{prefix}_pp{row}_{col}"
            nl.add_gate(
                CellType.AND, [a[col], b[row]], pp, name=f"{prefix}_ppand{row}_{col}"
            )
            # Reading product[row + col] before overwriting is safe: no
            # later cell of this row reads a lower product bit.
            s, carry = cell((row, col), product[row + col], pp, carry)
            product[row + col] = s
    return product


def restoring_divider_steps(
    nl: Netlist,
    prefix: str,
    a: List[str],
    b: List[str],
    zero: str,
    one: str,
    cell: CellInstantiator,
) -> Tuple[List[str], List[str]]:
    """Unroll one restoring divider into ``nl``; returns (quotient, remainder).

    Mirrors :class:`repro.arch.divider.RestoringDividerUnit`: the
    sequential unit reuses one ``width + 1``-cell subtractor chain for
    ``width`` iterations, so the combinational unrolling instantiates the
    chain once per quotient bit -- iteration ``step`` (processing
    dividend bit ``a[step]``, MSB first) shifts the partial remainder
    left, subtracts the divisor through cells ``(step, 0..width)`` and
    keeps the difference when no borrow occurred (mux gates are
    fault-free routing, as in the functional model).  Remainder bit
    ``width`` of each iteration is never read downstream -- the next
    shift pushes it beyond the chain and the unit masks its result -- so
    only bits ``0..width-1`` are latched between iterations, exactly
    reproducing the functional unit's observable behaviour.  ``cell``
    instantiates each full adder, so a faulty cell at chain position
    ``p`` maps onto every iteration's ``(step, p)`` instance.
    """
    width = len(a)
    if len(b) != width:
        raise NetlistError(
            f"divider operands must share a width, got {len(a)} and {len(b)}"
        )
    nb: List[str] = []
    for i in range(width):
        inv = f"{prefix}_nb{i}"
        nl.add_gate(CellType.NOT, [b[i]], inv, name=f"{prefix}_invb{i}")
        nb.append(inv)
    nb.append(one)  # guard bit of the chain-wide one's complement
    remainder = [zero] * width
    quotient = [zero] * width
    for step in range(width - 1, -1, -1):
        shifted = [a[step]] + remainder
        carry = one  # +1 of the two's-complement subtraction
        trial: List[str] = []
        for i in range(width + 1):
            s, carry = cell((step, i), shifted[i], nb[i], carry)
            trial.append(s)
        take = carry  # no borrow: remainder >= divisor, quotient bit set
        ntake = f"{prefix}_s{step}_nt"
        nl.add_gate(CellType.NOT, [take], ntake, name=f"{prefix}_s{step}_ntake")
        nxt: List[str] = []
        for i in range(width):
            t1 = f"{prefix}_s{step}_t{i}"
            t0 = f"{prefix}_s{step}_u{i}"
            out = f"{prefix}_s{step}_r{i}"
            nl.add_gate(CellType.AND, [take, trial[i]], t1, name=f"{prefix}_s{step}_a{i}")
            nl.add_gate(
                CellType.AND, [ntake, shifted[i]], t0, name=f"{prefix}_s{step}_b{i}"
            )
            nl.add_gate(CellType.OR, [t1, t0], out, name=f"{prefix}_s{step}_o{i}")
            nxt.append(out)
        remainder = nxt
        quotient[step] = take
    return quotient, remainder


def truncated_array_multiplier(width: int, name: str = "tmul") -> Netlist:
    """Truncated ``width x width -> width`` array multiplier netlist.

    The fixed-width sibling of :func:`array_multiplier`, structured
    exactly like :class:`~repro.arch.multiplier.ArrayMultiplierUnit` so
    the two agree bit for bit (including under truncation).  Primary
    inputs ``a0..``, ``b0..`` and the constant ``zero``; outputs
    ``p0..p{width-1}``.
    """
    if width < 1:
        raise NetlistError(f"multiplier width must be >= 1, got {width}")
    nl = Netlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    zero = nl.add_input("zero")

    def plain(position: Tuple[int, int], x: str, y: str, cin: str) -> Tuple[str, str]:
        row, col = position
        return _fa_cell(nl, f"fa{row}_{col}", x, y, cin)

    product = truncated_multiplier_rows(nl, "m", a, b, zero, plain)
    for j, net in enumerate(product):
        nl.add_gate(CellType.BUF, [net], f"p{j}", name=f"obuf{j}")
        nl.mark_output(f"p{j}")
    return nl


def restoring_divider(width: int, name: str = "rdiv") -> Netlist:
    """Unrolled restoring divider netlist, ``a / b`` with ``b != 0``.

    Primary inputs ``a0..``, ``b0..`` plus the constants ``zero`` and
    ``one``; outputs ``q0..q{width-1}`` then ``r0..r{width-1}``.
    Structured exactly like
    :class:`~repro.arch.divider.RestoringDividerUnit` for ``b != 0``;
    the functional unit raises on a zero divisor while the netlist
    yields don't-care values, so sweeps must mask those vectors out
    (a :class:`~repro.gates.engine.TestSpace` with the divisor field as
    its ``nonzero_field``).
    """
    if width < 1:
        raise NetlistError(f"divider width must be >= 1, got {width}")
    nl = Netlist(name)
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    zero = nl.add_input("zero")
    one = nl.add_input("one")

    def plain(position: Tuple[int, int], x: str, y: str, cin: str) -> Tuple[str, str]:
        step, index = position
        return _fa_cell(nl, f"fa{step}_{index}", x, y, cin)

    quotient, remainder = restoring_divider_steps(nl, "d", a, b, zero, one, plain)
    for j, net in enumerate(quotient):
        nl.add_gate(CellType.BUF, [net], f"q{j}", name=f"obufq{j}")
        nl.mark_output(f"q{j}")
    for j, net in enumerate(remainder):
        nl.add_gate(CellType.BUF, [net], f"r{j}", name=f"obufr{j}")
        nl.mark_output(f"r{j}")
    return nl
