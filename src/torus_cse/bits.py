"""Elias delta integer codes over numpy 0/1 bit arrays, MSB first."""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveError, TruncatedStreamError


def elias_delta_length(v: int) -> int:
    if v < 1:
        raise NonPositiveError(f"delta code needs v >= 1, got {v}")
    n = v.bit_length()
    return (n - 1) + 2 * (n.bit_length() - 1) + 1


def elias_delta_bits(v: int) -> np.ndarray:
    """Gamma-code the bit length n of v, then append v without its top bit."""
    width = elias_delta_length(v)
    n = v.bit_length()
    # the gamma code's zeros are the leading zeros of a width-bit field
    code = (n << (n - 1)) | (v ^ (1 << (n - 1)))
    return np.array([(code >> s) & 1 for s in range(width - 1, -1, -1)],
                    dtype=np.uint8)


def _read(bits: np.ndarray, pos: int, width: int) -> int:
    left = len(bits) - pos
    if width > left:
        raise TruncatedStreamError(f"needed {width} bits, {left} left")
    field = np.packbits(bits[pos:pos + width]).tobytes()
    return int.from_bytes(field, "big") >> (-width % 8)


def elias_delta_decode(bits: np.ndarray, pos: int) -> tuple[int, int]:
    """The value delta-coded at bits[pos:], and the position after its code."""
    ones = np.flatnonzero(bits[pos:pos + 65])
    if not len(ones):
        if len(bits) - pos >= 65:
            raise TruncatedStreamError("runaway delta code prefix")
        raise TruncatedStreamError("needed 1 bits, 0 left")
    zeros = int(ones[0])
    pos += zeros + 1
    n = (1 << zeros) | _read(bits, pos, zeros)
    pos += zeros
    if n == 1:
        return 1, pos
    # read before shifting: a corrupt n must not size a huge int
    low = _read(bits, pos, n - 1)
    return (1 << (n - 1)) | low, pos + n - 1
