"""MSB-first bit buffers and Elias delta integer codes."""

from __future__ import annotations

from .errors import NonPositiveError, TruncatedStreamError


class BitWriter:
    """Append-only bit buffer; most significant bit of each value first."""

    def __init__(self) -> None:
        self._done = bytearray()
        self._acc = 0
        self._nacc = 0

    def write_bits(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nacc += width
        while self._nacc >= 8:
            self._nacc -= 8
            self._done.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes, at any bit alignment, in one step."""
        if self._nacc == 0:
            self._done.extend(data)
            return
        # the pending bits lead; the last _nacc bits of data stay pending
        acc = (self._acc << (8 * len(data))) | int.from_bytes(data, "big")
        self._done.extend((acc >> self._nacc).to_bytes(len(data), "big"))
        self._acc = acc & ((1 << self._nacc) - 1)

    @property
    def bit_length(self) -> int:
        return 8 * len(self._done) + self._nacc

    def to_bytes(self) -> bytes:
        """Byte string with the final partial byte zero-padded."""
        out = bytes(self._done)
        if self._nacc:
            out += bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return out


class BitReader:
    """Cursor over a byte string; mirrors BitWriter's bit order."""

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = data
        self._nbits = 8 * len(data) if bit_length is None else bit_length
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._nbits - self._pos

    def read_bits(self, width: int) -> int:
        if width > self.remaining:
            raise TruncatedStreamError(
                f"needed {width} bits, {self.remaining} left")
        out = 0
        pos = self._pos
        for _ in range(width):
            byte = self._data[pos >> 3]
            out = (out << 1) | ((byte >> (7 - (pos & 7))) & 1)
            pos += 1
        self._pos = pos
        return out

    def read_bit(self) -> int:
        return self.read_bits(1)

    def tail_bytes(self) -> bytes:
        """The unread bits realigned to bytes, the last one zero-padded.

        The cursor does not move.
        """
        left = self.remaining
        if left <= 0:
            return b""
        first = self._pos >> 3
        span = self._data[first:(self._nbits + 7) >> 3]
        # drop the bits read before the cursor and any past bit_length
        tail = ((int.from_bytes(span, "big") >> (8 * len(span) - self._nbits
                                                  + 8 * first))
                & ((1 << left) - 1))
        nbytes = (left + 7) >> 3
        return (tail << (8 * nbytes - left)).to_bytes(nbytes, "big")


def elias_delta_length(v: int) -> int:
    if v < 1:
        raise NonPositiveError(f"delta code needs v >= 1, got {v}")
    n = v.bit_length()
    return (n - 1) + 2 * (n.bit_length() - 1) + 1


def elias_delta_encode(v: int, out: BitWriter) -> None:
    """Gamma-code the bit length of v, then append v without its top bit."""
    if v < 1:
        raise NonPositiveError(f"delta code needs v >= 1, got {v}")
    n = v.bit_length()
    ln = n.bit_length() - 1
    out.write_bits(0, ln)
    out.write_bits(n, ln + 1)
    out.write_bits(v & ((1 << (n - 1)) - 1), n - 1)


def elias_delta_decode(src: BitReader) -> int:
    zeros = 0
    while src.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise TruncatedStreamError("runaway delta code prefix")
    n = (1 << zeros) | src.read_bits(zeros)
    if n == 1:
        return 1
    return (1 << (n - 1)) | src.read_bits(n - 1)
