"""Small helpers for binary vectors and their integer packings.

One rule, as_bits's, decides what a binary vector is: each value is found in
{0, 1} by hash and equality. as_index packs by that rule and words its errors
as as_bits does; index_to_bits unpacks.
"""
from __future__ import annotations

from typing import Iterable

Bits = tuple[int, ...]
_BIT = {0: 0, 1: 1}  # one lookup checks a value equal to 0 or 1 and gives its int
_BIT_SET = frozenset(_BIT)  # the same lookup, over a whole vector in one call
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # a checked bit to its binary digit
_BITS = bytes.maketrans(b"01", b"\x00\x01")  # a binary digit to its bit


def as_bits(values: Iterable[int], length: int) -> Bits:
    """Normalize to a tuple of `length` 0/1 ints.

    Each value must equal 0 or 1 (True, 1.0 and numpy ints do), so 0.5, "1" or an
    unhashable value is rejected rather than truncated, as is a vector that is not iterable.
    """
    try:
        values = tuple(values)
        bits = tuple(map(_BIT.__getitem__, values))
    except (KeyError, TypeError):
        raise _not_binary(values) from None
    if len(bits) != length:
        raise ValueError(f"expected {length} bits, got {len(bits)}")
    return bits


def _not_binary(values: object) -> ValueError:
    return ValueError(f"expected a binary vector, got {values!r}")


def parse_bitstring(text: str) -> Bits:
    """Read a string like '110' left to right into (1, 1, 0)."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"expected a nonempty string of 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def format_bits(bits: Iterable[int]) -> str:
    return "".join(str(b) for b in bits)


def as_index(values: Iterable[int], length: int) -> int:
    """Pack as_bits(values, length), first bit most significant, in one pass when the values are ints 0 and 1.

    The values are read once by tuple(), and their bytes() are packed when each
    equals its byte and is found in {0, 1} as as_bits finds it: equality alone
    would pass a 0-d array, bytes() alone an object whose __index__ is 1. Any
    other vector (1.0, np.bool_, a bad value or length) goes through as_bits,
    whose ints are packed the same way.
    """
    try:
        values = tuple(values)
    except (KeyError, TypeError):
        raise _not_binary(values) from None
    try:
        digits = bytes(values)
        one_pass = len(digits) == length and values == tuple(digits) and _BIT_SET.issuperset(values)
    except (TypeError, ValueError):
        one_pass = False
    if not one_pass:
        digits = bytes(as_bits(values, length))
    return int(digits.translate(_DIGITS) or b"0", 2)


def index_to_bits(index: int, width: int) -> Bits:
    """Unpack an index into `width` bits, first most significant; the 1 at bit `width` keeps leading zeros."""
    if not 0 <= index < (1 << width):
        raise ValueError(f"index {index} out of range for width {width}")
    return tuple(bin(index | 1 << width)[3:].encode().translate(_BITS))
