"""Differential tests: the closed-form datapath units against a bit-serial oracle.

The oracle here shares no arithmetic with :mod:`repro.arch`: it chains
:meth:`FullAdderCell.evaluate` one bit at a time, one multiplier row at
a time and one divider iteration at a time, the way the hardware
ripples.  Every unit is compared against it exhaustively for n = 1..5
with every collapsed faulty-cell class at every position, on random
n = 16 operands and on n = 62 boundary operands (the uint64 headroom),
and the Python-int, 0-d-array and 1-d-array paths must agree -- in
results and in the errors they raise.
"""

import numpy as np
import pytest

from repro.arch.adders import RippleCarryAdderUnit
from repro.arch.alu import FaultableALU
from repro.arch.cell import bitflip_cell_library, collapsed_cell_library, reference_cell
from repro.arch.divider import RestoringDividerUnit
from repro.arch.multiplier import ArrayMultiplierUnit
from repro.errors import SimulationError

REF = reference_cell()
#: One representative per functional class of the faulty-cell library.
CELLS = [g.representative for g in collapsed_cell_library()]


# ----------------------------------------------------------------------
# Bit-serial oracle
# ----------------------------------------------------------------------
class Chain:
    """A ripple chain of full-adder cells, LSB first.

    Every cell is fault-free except ``cell`` at ``position``.  Results
    are memoised per operand triple: the multiplier rows and divider
    iterations of an exhaustive sweep revisit the same few inputs.
    """

    def __init__(self, length, cell=None, position=None):
        self.cells = [REF] * length
        if cell is not None:
            self.cells[position] = cell
        self.memo = {}

    def add(self, a, b, cin):
        """Ripple ``a + b + cin``: (sum, carry-out)."""
        key = (a, b, cin)
        if key not in self.memo:
            total, carry = 0, cin
            for i, cell in enumerate(self.cells):
                s, carry = cell.evaluate((a >> i) & 1, (b >> i) & 1, carry)
                total |= s << i
            self.memo[key] = (total, carry)
        return self.memo[key]


def multiplier_oracle(width, cell, row, col):
    """Truncated array multiplier: row ``r`` adds ``a`` (if ``b_r``) at bit ``r``."""
    rows = {r: Chain(width - r, cell if r == row else None, col) for r in range(1, width)}

    def mul(a, b):
        product = a if b & 1 else 0
        for r, chain in rows.items():
            acc, _ = chain.add(product >> r, a if (b >> r) & 1 else 0, 0)
            product = (product & ((1 << r) - 1)) | (acc << r)
        return product

    return mul


def divider_oracle(width, cell, position):
    """Restoring division through a ``width + 1``-cell subtractor chain."""
    chain = Chain(width + 1, cell, position)
    mask = (1 << width) - 1

    def divmod_(a, b):
        not_b = ~b & ((1 << (width + 1)) - 1)
        quotient = remainder = 0
        for k in range(width - 1, -1, -1):
            remainder = (remainder << 1) | ((a >> k) & 1)
            trial, not_borrow = chain.add(remainder, not_b, 1)
            if not_borrow:
                remainder = trial
            quotient |= not_borrow << k
        return quotient & mask, remainder & mask

    return divmod_


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def operand_grid(width, nonzero_b=False):
    values = range(1 << width)
    return [(a, b) for a in values for b in values if b or not nonzero_b]


def as_arrays(pairs):
    a, b = zip(*pairs)
    return np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)


def u64(values):
    return np.array(values, dtype=np.uint64)


def adder_cases(width):
    return [(None, None)] + [(c, p) for c in CELLS for p in range(width)]


def multiplier_cases(width):
    return [(None, None, None)] + [
        (c, r, col) for c in CELLS for r, col in ArrayMultiplierUnit.cell_positions(width)
    ]


def divider_cases(width):
    return [(None, None)] + [(c, p) for c in CELLS for p in range(width + 1)]


def assert_paths_agree(method, pairs, expected, stride=1):
    """Python ints, 0-d arrays and 1-d arrays give the same answer.

    ``expected`` holds one oracle answer (an int or a tuple of ints)
    per pair; the 1-d path is checked on every pair, the per-element
    scalar paths on every ``stride``-th.
    """
    a_arr, b_arr = as_arrays(pairs)
    vector = method(a_arr, b_arr)
    vector = vector if isinstance(vector, tuple) else (vector,)
    for out in vector:
        assert isinstance(out, np.ndarray) and out.dtype == np.uint64
        assert out.shape == a_arr.shape
    want = np.array(expected, dtype=np.uint64).reshape(len(pairs), len(vector))
    assert np.array_equal(np.stack(vector, axis=-1), want)
    for (a, b), want in list(zip(pairs, expected))[::stride]:
        scalar = method(a, b)
        zero_d = method(np.array(a, np.uint64), np.array(b, np.uint64))
        scalar = scalar if isinstance(scalar, tuple) else (scalar,)
        zero_d = zero_d if isinstance(zero_d, tuple) else (zero_d,)
        assert all(type(v) is int for v in scalar)
        assert all(isinstance(v, np.ndarray) and v.shape == () for v in zero_d)
        want = want if isinstance(want, tuple) else (want,)
        assert scalar == want
        assert tuple(int(v) for v in zero_d) == want


# ----------------------------------------------------------------------
# Exhaustive n = 1..5, every collapsed cell class at every position
# ----------------------------------------------------------------------
#: Per width, every how-many-th pair the scalar and 0-d paths also run.
STRIDES = {1: 1, 2: 1, 3: 7, 4: 61, 5: 61}


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_adder_exhaustive(width):
    mask = (1 << width) - 1
    pairs = operand_grid(width)
    stride = STRIDES[width]
    for cell, pos in adder_cases(width):
        unit = RippleCarryAdderUnit(width, cell, pos)
        chain = Chain(width, cell, pos)
        with_carry = [chain.add(a, b, 1) for a, b in pairs]
        assert_paths_agree(
            unit.add, pairs, [chain.add(a, b, 0) for a, b in pairs], stride
        )
        assert_paths_agree(
            lambda a, b: unit.add(a, b, cin=1), pairs, with_carry, stride
        )
        # a - b is a + ~b + 1: the oracle table at the complemented b.
        assert_paths_agree(
            unit.sub, pairs,
            [with_carry[(a << width) | (b ^ mask)] for a, b in pairs], stride,
        )
        negated = [with_carry[a ^ mask][0] for a in range(mask + 1)]
        assert [int(v) for v in unit.neg(u64(range(mask + 1)))] == negated
        assert [unit.neg(a) for a in range(mask + 1)] == negated


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_multiplier_exhaustive(width):
    pairs = operand_grid(width)
    stride = STRIDES[width]
    for cell, row, col in multiplier_cases(width):
        oracle = multiplier_oracle(width, cell, row, col)
        unit = ArrayMultiplierUnit(width, cell, row, col)
        assert_paths_agree(unit.mul, pairs, [oracle(a, b) for a, b in pairs], stride)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_divider_exhaustive(width):
    pairs = operand_grid(width, nonzero_b=True)
    stride = STRIDES[width]
    for cell, pos in divider_cases(width):
        oracle = divider_oracle(width, cell, pos)
        unit = RestoringDividerUnit(width, cell, pos)
        assert_paths_agree(unit.divmod, pairs, [oracle(a, b) for a, b in pairs], stride)


# ----------------------------------------------------------------------
# Wide operands: random n = 16 pairs, n = 62 boundaries
# ----------------------------------------------------------------------
def _wide_cases(width):
    """A spread of faulty configurations, including the chain ends."""
    picks = [CELLS[1], CELLS[7], bitflip_cell_library()[2]]
    ends = (0, width // 2, width - 1)
    adders = [(c, p) for c in picks for p in ends]
    muls = [(c, r, col) for c in picks
            for r, col in ((1, 0), (1, width - 2), (width // 2, 1), (width - 1, 0))]
    divs = [(c, p) for c in picks for p in ends + (width,)]
    return adders, muls, divs


def _check_wide(width, pairs):
    adders, muls, divs = _wide_cases(width)
    div_pairs = [(a, b) for a, b in pairs if b]
    for cell, pos in [(None, None)] + adders:
        unit = RippleCarryAdderUnit(width, cell, pos)
        chain = Chain(width, cell, pos)
        for cin in (0, 1):
            assert_paths_agree(
                lambda a, b: unit.add(a, b, cin=cin), pairs,
                [chain.add(a, b, cin) for a, b in pairs], stride=5,
            )
    for cell, row, col in [(None, None, None)] + muls:
        oracle = multiplier_oracle(width, cell, row, col)
        unit = ArrayMultiplierUnit(width, cell, row, col)
        assert_paths_agree(unit.mul, pairs, [oracle(a, b) for a, b in pairs], stride=5)
    for cell, pos in [(None, None)] + divs:
        oracle = divider_oracle(width, cell, pos)
        unit = RestoringDividerUnit(width, cell, pos)
        assert_paths_agree(
            unit.divmod, div_pairs, [oracle(a, b) for a, b in div_pairs], stride=5
        )


def test_random_width16_operands():
    rng = np.random.default_rng(20050307)
    values = rng.integers(0, 1 << 16, size=(60, 2))
    _check_wide(16, [(int(a), int(b)) for a, b in values])


def test_width62_boundary_operands():
    mask = (1 << 62) - 1
    edges = [0, 1, mask, 1 << 61, (1 << 61) - 1, 0x2AAAAAAAAAAAAAAA]
    _check_wide(62, [(a, b) for a in edges for b in edges])


# ----------------------------------------------------------------------
# Guards: both paths raise the same SimulationError
# ----------------------------------------------------------------------
def _error(fn, *args, **kwargs):
    with pytest.raises(SimulationError) as info:
        fn(*args, **kwargs)
    return str(info.value)


def _binary_calls(width):
    cell = CELLS[1]
    adder = RippleCarryAdderUnit(width, cell, 1)
    return [
        adder.add, adder.sub,
        ArrayMultiplierUnit(width, cell, 1, 0).mul,
        RestoringDividerUnit(width, cell, 2).divmod,
        RippleCarryAdderUnit(width).add, ArrayMultiplierUnit(width).mul,
        RestoringDividerUnit(width).divmod,
    ]


def _bad_operand_forms(bad):
    """``bad`` as a Python int, a 0-d array and inside a 1-d operand."""
    if abs(bad) < 1 << 63:  # representable in an int64 array
        return bad, np.array(bad, dtype=np.int64), np.array([bad, 1], dtype=np.int64)
    return bad, bad, [bad, 1]


@pytest.mark.parametrize("bad", [16, -1, 1 << 70])
def test_out_of_range_operand_rejected_on_every_path(bad):
    scalar, zero_d, one_d = _bad_operand_forms(bad)
    good = (3, np.array(3, dtype=np.uint64), u64([3, 3]))
    calls = [(call, swap) for call in _binary_calls(4) for swap in (False, True)]
    neg = RippleCarryAdderUnit(4, CELLS[1], 1).neg
    calls.append((lambda x, _: neg(x), False))
    for call, swap in calls:
        messages = {
            _error(call, *((ok, x) if swap else (x, ok)))
            for x, ok in zip((scalar, zero_d, one_d), good)
        }
        assert messages == {"operand outside the 4-bit range of this unit"}, messages


def test_zero_divisor_rejected_on_every_path():
    for unit in (RestoringDividerUnit(4), RestoringDividerUnit(4, CELLS[1], 0)):
        messages = {
            _error(unit.divmod, 5, 0),
            _error(unit.divmod, np.array(5, dtype=np.uint64), np.array(0, dtype=np.uint64)),
            _error(unit.divmod, u64([5, 6]), u64([1, 0])),
        }
        assert messages == {"division by zero in RestoringDividerUnit"}
    alu = FaultableALU(8)
    assert _error(alu.divmod, 5, 0) == _error(alu.divmod, np.array([5]), np.array([0]))


@pytest.mark.parametrize("cin", [2, -1])
def test_bad_carry_in_rejected_on_every_path(cin):
    unit = RippleCarryAdderUnit(4, CELLS[1], 0)
    assert _error(unit.add, 1, 2, cin=cin) == _error(unit.add, u64([1]), u64([2]), cin=cin)


# ----------------------------------------------------------------------
# ALU scalar plumbing
# ----------------------------------------------------------------------
def test_alu_scalar_in_int_out_and_matches_array_path():
    faults = [None, ("adder", 3, 0), ("multiplier", 2, 1), ("divider", 4, 0)]
    values = list(range(-128, 128, 9)) + [-128, 127]
    a_arr = np.array([a for a in values for _ in values], dtype=np.int64)
    b_arr = np.array([b for _ in values for b in values], dtype=np.int64)
    for fault in faults:
        alu = FaultableALU(8)
        if fault is not None:
            alu.inject_fault(fault[0], CELLS[5], position=fault[1], column=fault[2])
        for op in ("add", "sub", "mul"):
            vector = getattr(alu, op)(a_arr, b_arr)
            scalar = [getattr(alu, op)(int(a), int(b)) for a, b in zip(a_arr, b_arr)]
            assert all(type(v) is int for v in scalar)
            assert [int(v) for v in vector] == scalar
        neg = [alu.neg(int(a)) for a in a_arr]
        assert all(type(v) is int for v in neg)
        assert [int(v) for v in alu.neg(a_arr)] == neg
        nz = b_arr != 0
        q, r = alu.divmod(a_arr[nz], b_arr[nz])
        pairs = [alu.divmod(int(a), int(b)) for a, b in zip(a_arr[nz], b_arr[nz])]
        assert all(type(x) is int and type(y) is int for x, y in pairs)
        assert list(zip((int(v) for v in q), (int(v) for v in r))) == pairs
