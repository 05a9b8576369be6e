"""Small helpers for binary vectors and their integer packings."""
from __future__ import annotations

from typing import Iterable

Bits = tuple[int, ...]
_BIT = {0: 0, 1: 1}  # one lookup checks a value equal to 0 or 1 and gives its int


def as_bits(values: Iterable[int], length: int) -> Bits:
    """Normalize to a tuple of `length` 0/1 ints.

    Each value must equal 0 or 1 (True, 1.0 and numpy ints do), so 0.5, "1" or an
    unhashable value is rejected rather than truncated, as is a vector that is not iterable.
    """
    try:
        values = tuple(values)
        bits = tuple(map(_BIT.__getitem__, values))
    except (KeyError, TypeError):
        raise ValueError(f"expected a binary vector, got {values!r}") from None
    if len(bits) != length:
        raise ValueError(f"expected {length} bits, got {len(bits)}")
    return bits


def parse_bitstring(text: str) -> Bits:
    """Read a string like '110' left to right into (1, 1, 0)."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"expected a nonempty string of 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def format_bits(bits: Iterable[int]) -> str:
    return "".join(str(b) for b in bits)


def bits_to_index(bits: Iterable[int]) -> int:
    """Pack a bit vector into an index, first bit most significant."""
    index = 0
    for b in bits:
        index = (index << 1) | b
    return index


def index_to_bits(index: int, width: int) -> Bits:
    """Unpack an index into `width` bits, first bit most significant."""
    if not 0 <= index < (1 << width):
        raise ValueError(f"index {index} out of range for width {width}")
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))
