"""Container format and the compress/decompress/stats drivers.

Layout: 9-byte header (magic "2DCSE1", version, flags, alphabet-1), then a
bit payload.  Coded payload: delta codes of m and n, the range-coded count
section, and the shift rank; escape payload (flag bit 0): delta codes of m
and n followed by the raw cells row-major.  Escape covers non-primitive
grids and grids thinner than 2 in either dimension, so compression is a
total function.  Either payload ends inside the container's last byte, whose
spare bits are zero; the decoder rejects a container with more or fewer bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .bits import (BitReader, BitWriter, elias_delta_decode,
                   elias_delta_encode, elias_delta_length)
from .blocks import Block, from_numpy
from .engine import B1, B2, B3, Truth, Walk
from .errors import (BadMagicError, InconsistentCountsError,
                     NotPrimitiveError, TrailingDataError, TruncatedStreamError,
                     UnsupportedVersionError)
from .rangecoder import RangeDecoder, RangeEncoder

MAGIC = b"2DCSE1"
VERSION = 1
FLAG_ESCAPE = 0x01
HEADER_LEN = 9

# sanity cap so a corrupt header cannot provoke an enormous decode walk
_MAX_CELLS = 1 << 22


def _cell_bits(alphabet: int) -> int:
    return max(1, (alphabet - 1).bit_length())


def _check_end(what: str, left: int, spare) -> None:
    """The `left` bits after the payload must be its last byte's zero
    padding; `spare` holds them, then zeros."""
    if left < 0:
        raise TruncatedStreamError(f"{what} payload lacks {-left} bits")
    if left >= 8 or any(spare):
        raise TrailingDataError(f"{left} bits follow the {what} payload")


def _rank_width(mn: int) -> int:
    # power-of-two width, so the rank costs exactly ceil(log2 mn) bits
    return 1 << (mn - 1).bit_length()


@dataclass(frozen=True)
class CodewordStats:
    """Ideal-codelength attribution of one coded container."""

    m: int
    n: int
    alphabet: int
    l0: float   # dims, rank, flush and padding remainder
    l1: float   # single-symbol counts
    l2: float   # sizes under the caps
    l3: float   # everything larger
    total_bits: int
    container_bytes: int
    transmitted: dict
    per_size: dict

    @property
    def total(self) -> float:
        return self.l0 + self.l1 + self.l2 + self.l3

    @property
    def bits_per_symbol(self) -> float:
        return 8.0 * self.container_bytes / (self.m * self.n)


def _container(flags: int, alphabet: int, bw: BitWriter) -> bytes:
    return MAGIC + bytes([VERSION, flags, alphabet - 1]) + bw.to_bytes()


def _coded_truth(p: Block) -> Truth | None:
    """The census the coded path walks, or None for an escape-path input."""
    if p.m < 2 or p.n < 2:
        return None
    truth = Truth(p.to_numpy())
    return truth if truth.primitive else None


def compress(p: Block, strict: bool = False) -> bytes:
    return compress_with_stats(p, strict)[0]


def compress_with_stats(p: Block, strict: bool = False
                        ) -> tuple[bytes, CodewordStats | None]:
    """The container of p and, on the coded path, the length accounting of
    the same encoder walk (None for an escape container)."""
    truth = _coded_truth(p)
    if truth is None:
        if strict:
            raise NotPrimitiveError(
                "coded path needs a primitive grid with both dimensions >= 2")
        return _compress_escape(p), None
    return _encode(p, truth)


def _compress_escape(p: Block) -> bytes:
    bw = BitWriter()
    elias_delta_encode(p.m, bw)
    elias_delta_encode(p.n, bw)
    cb = _cell_bits(p.alphabet)
    # every cell's cb bits, most significant first, row-major
    bits = (p.to_numpy().reshape(-1, 1) >> np.arange(cb - 1, -1, -1,
                                                       dtype=np.uint8)) & 1
    packed = np.packbits(bits).tobytes()
    whole, rest = divmod(cb * p.size, 8)
    bw.write_bytes(packed[:whole])
    if rest:
        bw.write_bits(packed[whole] >> (8 - rest), rest)
    return _container(FLAG_ESCAPE, p.alphabet, bw)


def _encode(p: Block, truth: Truth) -> tuple[bytes, CodewordStats]:
    """Coded container of p and the ideal-codelength attribution of its
    counts, from one encoder walk."""
    rc = RangeEncoder()
    ideal = {B1: 0.0, B2: 0.0, B3: 0.0}
    txcnt = {B1: 0, B2: 0, B3: 0}
    per_size: dict = {}

    def sink(k, l, cls, lo, hi, values):
        widths = (hi - lo + 1).tolist()
        rc.encode((values - lo).tolist(), widths)
        # summed one width at a time, in coding order
        ideal[cls] = reduce(operator.add, map(math.log2, widths), ideal[cls])
        txcnt[cls] += len(widths)
        per_size[(k, l)] = per_size.get((k, l), 0) + len(widths)

    Walk(p.m, p.n, p.alphabet, truth=truth, sink=sink).run()
    rc.encode([truth.rank], [_rank_width(p.size)])
    payload = rc.flush()
    bw = BitWriter()
    elias_delta_encode(p.m, bw)
    elias_delta_encode(p.n, bw)
    bw.write_bytes(payload)
    container = _container(0, p.alphabet, bw)
    total_bits = (elias_delta_length(p.m) + elias_delta_length(p.n)
                  + 8 * len(payload))
    l1, l2, l3 = ideal[B1], ideal[B2], ideal[B3]
    return container, CodewordStats(
        m=p.m, n=p.n, alphabet=p.alphabet,
        l0=total_bits - (l1 + l2 + l3), l1=l1, l2=l2, l3=l3,
        total_bits=total_bits, container_bytes=len(container),
        transmitted=dict(txcnt), per_size=per_size)


def decompress(data: bytes) -> Block:
    if len(data) < HEADER_LEN:
        raise TruncatedStreamError("container shorter than its header")
    if data[:6] != MAGIC:
        raise BadMagicError("not a 2DCSE1 container")
    if data[6] != VERSION:
        raise UnsupportedVersionError(f"version {data[6]} not supported")
    flags = data[7]
    if flags & ~FLAG_ESCAPE:
        raise UnsupportedVersionError(f"unknown flag bits 0x{flags:02x}")
    if data[8] == 0:
        raise InconsistentCountsError("alphabet byte must be at least 1")
    alphabet = data[8] + 1

    rd = BitReader(data[HEADER_LEN:])
    m = elias_delta_decode(rd)
    n = elias_delta_decode(rd)
    if m * n > _MAX_CELLS:
        raise InconsistentCountsError(f"dimensions {m}x{n} out of range")

    tail = rd.tail_bytes()
    if flags & FLAG_ESCAPE:
        cb = _cell_bits(alphabet)
        need = cb * m * n
        bits = np.unpackbits(np.frombuffer(tail, dtype=np.uint8))
        _check_end("escape", rd.remaining - need, bits[need:])
        bits = bits[:need]
        # each cell's cb bits, left-aligned in one byte
        grid = (np.packbits(bits.reshape(m * n, cb), axis=1)[:, 0]
                >> (8 - cb)).reshape(m, n)
        if grid.max() >= alphabet:
            raise InconsistentCountsError("escape cell outside the alphabet")
        return from_numpy(grid, alphabet)

    if m < 2 or n < 2:
        raise InconsistentCountsError(
            "coded payload needs both dimensions at least 2")
    # the range decoder reads zeros past the end of the payload
    dec = RangeDecoder(partial(next, iter(tail), 0))

    def pull(k, l, cls, lo, hi):
        return lo + np.array(dec.decode((hi - lo + 1).tolist()), dtype=np.int64)

    walk = Walk(m, n, alphabet, pull=pull)
    walk.run()
    [rank] = dec.decode([_rank_width(m * n)])
    # the decoder pulls 5 bytes more than the encoder's flush wrote
    used = dec.pulled - 5
    _check_end("coded", rd.remaining - 8 * used, tail[used:])
    return from_numpy(walk.member_grid(rank), alphabet)


def stats(p: Block) -> CodewordStats:
    """Length accounting for the coded path; rejects escape-path inputs."""
    truth = _coded_truth(p)
    if truth is None:
        raise NotPrimitiveError(
            "stats cover the coded path; input would take the escape path")
    return _encode(p, truth)[1]
