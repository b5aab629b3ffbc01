"""Two's-complement bit manipulation helpers shared by the datapath units.

All units operate on unsigned bit patterns (NumPy ``uint64`` arrays or
Python ints); these helpers convert between bit patterns and signed
integer interpretations and build width masks.  Width is limited to 62
bits so intermediate ``uint64`` arithmetic cannot overflow.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import SimulationError

MAX_WIDTH = 62

ArrayLike = Union[int, np.ndarray]


def check_width(width: int) -> int:
    """Validate an operand width; returns it for chaining."""
    if (
        isinstance(width, bool)
        or not isinstance(width, (int, np.integer))
        or not 1 <= width <= MAX_WIDTH
    ):
        raise SimulationError(
            f"width= must be an integer in [1, {MAX_WIDTH}], "
            f"got {type(width).__name__} {width!r}"
        )
    return int(width)


def mask_of(width: int) -> int:
    """All-ones mask of ``width`` bits."""
    return (1 << check_width(width)) - 1


def to_unsigned(value: ArrayLike, width: int) -> ArrayLike:
    """Reduce a (possibly signed / out-of-range) value to ``width`` bits."""
    mask = mask_of(width)
    if isinstance(value, np.ndarray):
        return (value.astype(np.int64) & np.int64(mask)).astype(np.uint64)
    return int(value) & mask


def to_signed(value: ArrayLike, width: int) -> ArrayLike:
    """Interpret a ``width``-bit pattern as a two's-complement integer."""
    mask = mask_of(width)
    half = 1 << (width - 1)
    if isinstance(value, np.ndarray):
        v = value.astype(np.int64) & np.int64(mask)
        return np.where(v >= half, v - (np.int64(mask) + 1), v)
    return wrap_signed(int(value), half)


def wrap_signed(value: int, half: int) -> int:
    """Two's-complement value of a Python int's low ``width`` bits.

    ``half`` is ``1 << (width - 1)``; hot paths precompute it once
    instead of re-validating ``width`` per call as :func:`to_signed` does.
    """
    return ((value + half) & ((half << 1) - 1)) - half


def bit_at(value: ArrayLike, index: int) -> ArrayLike:
    """Extract bit ``index`` of a value/array (0 = LSB)."""
    if isinstance(value, np.ndarray):
        return (value >> np.uint64(index)) & np.uint64(1)
    return (int(value) >> index) & 1


def ones_complement(value: ArrayLike, width: int) -> ArrayLike:
    """Bitwise complement limited to ``width`` bits (the paper's g fn)."""
    mask = mask_of(width)
    if isinstance(value, np.ndarray):
        return (~value) & np.uint64(mask)
    return (~int(value)) & mask


def as_u64(value: ArrayLike) -> np.ndarray:
    """Coerce to a ``uint64`` NumPy array (0-d for scalars)."""
    return np.asarray(value, dtype=np.uint64)


def broadcast_pair(a: ArrayLike, b: ArrayLike) -> tuple:
    """Coerce two operands to broadcast-compatible uint64 arrays."""
    a_arr = as_u64(a)
    b_arr = as_u64(b)
    try:
        np.broadcast_shapes(a_arr.shape, b_arr.shape)
    except ValueError as exc:
        raise SimulationError(f"operand shapes do not broadcast: {exc}") from exc
    return a_arr, b_arr


def unit_operands(a: ArrayLike, b: ArrayLike, mask: int) -> tuple:
    """Validate two unsigned operands of a unit whose range is ``[0, mask]``.

    Two Python ints stay Python ints, so the scalar path never touches
    NumPy; anything else becomes a broadcast-compatible ``uint64`` pair.
    Negative or too-wide operands raise the same
    :class:`~repro.errors.SimulationError` on both paths.
    """
    if type(a) is int and type(b) is int:
        ok = 0 <= a <= mask and 0 <= b <= mask
    else:
        try:
            a, b = broadcast_pair(a, b)
        except OverflowError:  # a negative or huge Python int
            ok = False
        else:
            ok = int(np.max(a, initial=0)) <= mask and int(np.max(b, initial=0)) <= mask
    if not ok:
        raise SimulationError(
            f"operand outside the {mask.bit_length()}-bit range of this unit"
        )
    return a, b
