"""Byte-oriented range coder for sequences of uniform integer intervals.

48-bit coding window, renormalized a byte at a time.  The encoder writes
into memory, so a carry out of the window is added straight into the bytes
it has already written.  Encoding value v in an interval of width w costs
log2(w) bits up to rounding; the flush tail plus rounding stays under
8 bits total for the widths this codec uses (asserted by tests).

Both sides code a batch per call: `encode(values, widths)` and
`decode(widths)` run over parallel sequences of Python ints, so a batch
produces the same bytes as the same steps split into any other batches.
The decoder reads zeros past the end of its bytes; `RangeDecoder.used`
tells how many of them the values decoded so far took, so a container can
check where the coded bytes end.
"""

from __future__ import annotations

from functools import partial

_BITS = 48
_MASK = (1 << _BITS) - 1
_BOT = 1 << (_BITS - 8)


class RangeEncoder:
    def __init__(self) -> None:
        self._low = 0
        self._range = _MASK
        self._out = bytearray()
        self._flushed = False

    def encode(self, values, widths) -> None:
        """Narrow the interval to slot `values[i]` of `widths[i]` equal
        parts, for each i in order."""
        if self._flushed:
            raise RuntimeError("encode after flush")
        low, rng = self._low, self._range
        try:
            for value, width in zip(values, widths, strict=True):
                if not 0 <= value < width:
                    raise ValueError(f"value {value} outside width {width}")
                if width == 1:
                    continue
                if width > _BOT:
                    raise ValueError(f"width {width} exceeds coder capacity")
                r = rng // width
                low += value * r
                if value == width - 1:
                    rng -= value * r
                else:
                    rng = r
                while rng < _BOT:
                    low = self._shift(low)
                    rng <<= 8
        finally:
            # steps before a rejected one stay coded, as with single steps
            self._low, self._range = low, rng

    def _shift(self, low: int) -> int:
        """Write the top byte of `low`, first adding its carry into the
        bytes already written; returns `low` shifted past it.

        A carry turns trailing 0xFF bytes to 0x00 and raises the byte before
        them; the coded value stays in the initial interval, so it never
        runs past the first byte.
        """
        out = self._out
        if low > _MASK:
            i = len(out) - 1
            while out[i] == 0xFF:
                out[i] = 0
                i -= 1
            out[i] += 1
        out.append((low >> (_BITS - 8)) & 0xFF)
        return (low << 8) & _MASK

    def flush(self) -> bytes:
        """Round to a short representative of the final interval and write
        its top byte; its low 40 bits are zero, which the decoder reads past
        the end."""
        if not self._flushed:
            self._flushed = True
            g = min(self._range.bit_length() - 1, _BITS - 1)
            low = ((self._low + (1 << g) - 1) >> g) << g
            self._low = self._shift(low)
        return bytes(self._out)


class RangeDecoder:
    def __init__(self, data: bytes) -> None:
        """Decode the encoder's bytes `data`, reading zeros past its end."""
        window = _BITS // 8
        self._code = int.from_bytes(data[:window].ljust(window, b"\0"), "big")
        self._next = partial(next, iter(data[window:]), 0)
        self._range = _MASK
        self._pulled = window

    @property
    def used(self) -> int:
        """The bytes of `data` that the values decoded so far took.

        The decoder's 48-bit window runs 5 bytes ahead of them: the
        encoder's flush settles its final interval on a value whose low 40
        bits are zero, writes the top byte and leaves those 5 out.
        """
        return self._pulled - 5

    def decode(self, widths) -> list[int]:
        """One value per width, in order, each in [0, width)."""
        nxt = self._next
        rng, code, pulled = self._range, self._code, self._pulled
        out: list[int] = []
        append = out.append
        try:
            for width in widths:
                if width == 1:
                    append(0)
                    continue
                if not 1 <= width <= _BOT:
                    raise ValueError(f"width {width} exceeds coder capacity")
                r = rng // width
                v = code // r
                if v >= width:
                    v = width - 1
                code -= v * r
                if v == width - 1:
                    rng -= v * r
                else:
                    rng = r
                while rng < _BOT:
                    code = ((code << 8) | nxt()) & _MASK
                    rng <<= 8
                    pulled += 1
                append(v)
        finally:
            self._range, self._code, self._pulled = rng, code, pulled
        return out
