"""Exact wide-width Table 2 coverage via carry-state transfer matrices.

An exhaustive operand sweep at n = 16 spans ``2**32`` vector pairs per
fault case -- far beyond what even the bit-parallel engine can simulate.
But the Table 2 experiment for the chain operators (``+`` and ``-``)
factors along the ripple chain: at bit position ``i`` the *entire*
residual computation depends on the operand bits ``(a_i, b_i)`` and a
tiny per-position state -- the carries of the golden, nominal and
checking chains plus the sticky classification flags (result still
correct, technique fired).  Enumerating that state space (128 states for
the adder, 256 for the subtractor) turns the ``4**n`` operand sweep into
an exact dynamic program over ``n`` positions:

    counts'[s'] = sum over (a_i, b_i) of counts[s]  where T[ab][s] = s'

with the faulty cell's LUT substituted into the transition table at the
fault position only.  Because only one position is faulty, every
position of one faulty cell is evaluated in one closed-form pass
(:func:`case_flag_counts`): the fault-free forward distribution before
position ``p``, pushed through the faulty step, dotted with the
fault-free backward projection from position ``p + 1`` onto the final
flags.  The result is the *exact* number of situations per (correct,
detected) flag combination for every fault position -- the same
integers the word-packed sweep counts, obtained in milliseconds for
any width.  Parity with the per-position DP, the sweep and the
functional evaluators is pinned by ``tests/test_table2_exact.py``.

All counts are int64: a case spans ``4**n <= 2**60`` operand pairs up
to ``MAX_TRANSFER_WIDTH`` = 30, below the int64 overflow point.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Tuple

import numpy as np

from repro.errors import SimulationError

#: Widths beyond this would overflow int64 state counts (4**n per case).
MAX_TRANSFER_WIDTH = 30

CellFn = Callable[[int, int, int], Tuple[int, int]]


def _fault_free(a: int, b: int, c: int) -> Tuple[int, int]:
    """The exact full adder: ``(sum, carry-out)`` of three bits."""
    return a ^ b ^ c, (a & b) | (c & (a | b))


def _lut_cell(s_lut: Tuple[int, ...], c_lut: Tuple[int, ...]) -> CellFn:
    """Cell function realised by a faulty (sum, carry) LUT pair."""

    def cell(a: int, b: int, c: int) -> Tuple[int, int]:
        idx = a | (b << 1) | (c << 2)
        return s_lut[idx], c_lut[idx]

    return cell


# ----------------------------------------------------------------------
# Adder: state = cg | cn<<1 | c1<<2 | c2<<3 | correct<<4 | d1<<5 | d2<<6
# (golden carry, nominal carry, check-1 carry, check-2 carry, flags).
# ----------------------------------------------------------------------
_ADDER_STATES = 128
#: cg=0, cn=0 (add), c1=1, c2=1 (both checks subtract), correct=1.
_ADDER_INIT = (1 << 2) | (1 << 3) | (1 << 4)
_ADDER_FLAG_SHIFT = 4


def _build_adder_table(cell: CellFn) -> np.ndarray:
    """Transition table ``T[ab][state]`` for one cell behaviour.

    ``cell`` is used for all three operations at this position (the
    same faulty unit computes the nominal sum and both checking
    subtractions); the golden chain always uses the exact adder.
    """
    table = np.zeros((4, _ADDER_STATES), dtype=np.int64)
    for state in range(_ADDER_STATES):
        cg, cn = state & 1, (state >> 1) & 1
        c1, c2 = (state >> 2) & 1, (state >> 3) & 1
        correct, d1, d2 = (state >> 4) & 1, (state >> 5) & 1, (state >> 6) & 1
        for ab in range(4):
            ai, bi = ab & 1, (ab >> 1) & 1
            gs, gc = _fault_free(ai, bi, cg)
            rs, rc = cell(ai, bi, cn)  # nominal ris bit
            q1, k1 = cell(rs, 1 - ai, c1)  # op2' = ris - op1
            q2, k2 = cell(rs, 1 - bi, c2)  # op1' = ris - op2
            nc = correct & (1 if rs == gs else 0)
            nd1 = d1 | (1 if q1 != bi else 0)
            nd2 = d2 | (1 if q2 != ai else 0)
            table[ab, state] = (
                gc | (rc << 1) | (k1 << 2) | (k2 << 3)
                | (nc << 4) | (nd1 << 5) | (nd2 << 6)
            )
    return table


# ----------------------------------------------------------------------
# Subtractor: state = cg | cn<<1 | c1<<2 | c2<<3 | cs<<4
#                    | correct<<5 | d1<<6 | dz<<7
# (cs = carry of the fault-free final summation ris + ris'; dz = that
# sum has a non-zero bit, i.e. technique 2 fired).
# ----------------------------------------------------------------------
_SUB_STATES = 256
#: cg=1, cn=1 (a - b asserts carry-in), c1=0 (check 1 adds), c2=1
#: (check 2 subtracts), cs=0, correct=1.
_SUB_INIT = 1 | (1 << 1) | (1 << 3) | (1 << 5)
_SUB_FLAG_SHIFT = 5


def _build_subtractor_table(cell: CellFn) -> np.ndarray:
    table = np.zeros((4, _SUB_STATES), dtype=np.int64)
    for state in range(_SUB_STATES):
        cg, cn = state & 1, (state >> 1) & 1
        c1, c2, cs = (state >> 2) & 1, (state >> 3) & 1, (state >> 4) & 1
        correct, d1, dz = (state >> 5) & 1, (state >> 6) & 1, (state >> 7) & 1
        for ab in range(4):
            ai, bi = ab & 1, (ab >> 1) & 1
            gs, gc = _fault_free(ai, 1 - bi, cg)  # golden a - b
            rs, rc = cell(ai, 1 - bi, cn)  # nominal ris bit
            q1, k1 = cell(rs, bi, c1)  # op1' = ris + op2
            r2, k2 = cell(bi, 1 - ai, c2)  # ris' = op2 - op1
            ss, ks = _fault_free(rs, r2, cs)  # fault-free ris + ris'
            nc = correct & (1 if rs == gs else 0)
            nd1 = d1 | (1 if q1 != ai else 0)
            ndz = dz | ss
            table[ab, state] = (
                gc | (rc << 1) | (k1 << 2) | (k2 << 3) | (ks << 4)
                | (nc << 5) | (nd1 << 6) | (ndz << 7)
            )
    return table


_TableKey = Tuple[str, Tuple[int, ...], Tuple[int, ...]]
_table_cache: Dict[_TableKey, np.ndarray] = {}
_BUILDERS = {"add": _build_adder_table, "sub": _build_subtractor_table}


def _table(operator: str, s_lut: Tuple[int, ...] = (), c_lut: Tuple[int, ...] = ()) -> np.ndarray:
    """Cached transition table; empty LUTs select the fault-free cell."""
    key = (operator, tuple(s_lut), tuple(c_lut))
    if key not in _table_cache:
        cell = _fault_free if not s_lut else _lut_cell(tuple(s_lut), tuple(c_lut))
        _table_cache[key] = _BUILDERS[operator](cell)
    return _table_cache[key]


def case_flag_counts(
    operator: str,
    width: int,
    s_lut: Tuple[int, ...],
    c_lut: Tuple[int, ...],
) -> np.ndarray:
    """Exact flag-combination counts for every fault position of one
    faulty cell behaviour.

    Returns a ``(width, 8)`` int64 array: row ``p`` is the Table 2 case
    with the faulty cell LUT at position ``p``, and entry ``correct | d1
    << 1 | d2 << 2`` counts the operand pairs in that classification
    (``d2`` is technique 2's flag; for the subtractor that is the
    non-zero-sum indication).  Each row sums to ``4**width``.

    One pass serves every position: the fault-free state distribution
    before each position (forward), gathered through the faulty step,
    dotted with the flag counts the fault-free remainder of the chain
    reaches from each state (backward).  Every count is at most
    ``4**width <= 2**60``, so the int64 arithmetic is exact.
    """
    if operator not in _BUILDERS:
        raise SimulationError(
            f"transfer evaluation supports {tuple(_BUILDERS)}, not {operator!r}"
        )
    if not (1 <= width <= MAX_TRANSFER_WIDTH):
        raise SimulationError(
            f"transfer width must be in [1, {MAX_TRANSFER_WIDTH}], got {width}"
        )
    forward, backward = _fault_free_passes(operator, width)
    table_faulty = _table(operator, s_lut, c_lut)
    through = sum(backward[:, table_faulty[ab], :] for ab in range(4))
    return np.einsum("ps,psf->pf", forward, through)


@functools.lru_cache(maxsize=None)
def _fault_free_passes(operator: str, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """The fault-free halves of :func:`case_flag_counts`, shared by every
    faulty cell: ``forward[p][s]`` counts the operand prefixes of
    positions ``< p`` that reach state ``s``; ``backward[p][s][f]`` the
    operand suffixes of positions ``> p`` that lead from state ``s`` to
    final flags ``f``."""
    if operator == "add":
        n_states, init, flag_shift = _ADDER_STATES, _ADDER_INIT, _ADDER_FLAG_SHIFT
    else:
        n_states, init, flag_shift = _SUB_STATES, _SUB_INIT, _SUB_FLAG_SHIFT
    table_ff = _table(operator)
    forward = np.zeros((width, n_states), dtype=np.int64)
    counts = np.zeros(n_states, dtype=np.int64)
    counts[init] = 1
    for p in range(width):
        forward[p] = counts
        counts = np.zeros(n_states, dtype=np.int64)
        for ab in range(4):
            np.add.at(counts, table_ff[ab], forward[p])
    backward = np.zeros((width, n_states, 8), dtype=np.int64)
    proj = np.zeros((n_states, 8), dtype=np.int64)
    proj[np.arange(n_states), (np.arange(n_states) >> flag_shift) & 7] = 1
    for p in reversed(range(width)):
        backward[p] = proj
        proj = sum(proj[table_ff[ab]] for ab in range(4))
    return forward, backward
