"""Packed slots: counts >= 0 as one int, slot k in bits [k width,
(k + 1) width).  series._Product and bar.presentation_dims do their
arithmetic on such ints; this module only picks the width and moves the
counts in and out, by struct at 8, 16, 32 and 64 bits."""

from __future__ import annotations

import struct
from typing import Sequence

_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def slot_width(largest: int) -> int:
    """Bits per slot that hold every count up to largest: 8, 16, 32 or
    64, which struct packs, else its bit length in whole bytes."""
    bits = largest.bit_length()
    return next((w for w in _STRUCT_CODES if w >= bits), -(-bits // 8) * 8)


def unpack(value: int, width: int, count: int) -> Sequence[int]:
    """The first count slots of value, lowest first."""
    size = width // 8
    raw = value.to_bytes(count * size, "little")
    if width in _STRUCT_CODES:
        return struct.unpack(f"<{count}{_STRUCT_CODES[width]}", raw)
    return [int.from_bytes(raw[i:i + size], "little")
            for i in range(0, len(raw), size)]


def pack(slots: Sequence[int], width: int) -> int:
    """The int whose slots, lowest first, are slots."""
    if width in _STRUCT_CODES:
        raw = struct.pack(f"<{len(slots)}{_STRUCT_CODES[width]}", *slots)
    else:
        raw = b"".join(c.to_bytes(width // 8, "little") for c in slots)
    return int.from_bytes(raw, "little")
