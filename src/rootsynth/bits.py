"""Small helpers for binary vectors and their integer packings."""
from __future__ import annotations

from typing import Iterable, Sequence

Bits = tuple[int, ...]
_BIT = {0: 0, 1: 1}  # one lookup checks a value equal to 0 or 1 and gives its int
_DIGITS = b"01" + b"2" * 254  # byte 0 or 1 to its binary digit, any other to "2", not a binary digit
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


def bits_to_index(bits: Sequence[int]) -> int:
    """Pack a tuple or list of 0/1 ints, first bit most significant; any other entry raises ValueError."""
    return int(bytes(bits).translate(_DIGITS) or b"0", 2)


def index_to_bits(index: int, width: int) -> Bits:
    """Unpack an index into `width` bits, first most significant; the 1 at bit `width` keeps leading zeros."""
    if not 0 <= index < (1 << width):
        raise ValueError(f"index {index} out of range for width {width}")
    return tuple(bin(index | 1 << width)[3:].encode().translate(_BITS))
