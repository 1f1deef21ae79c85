"""Container format and the compress/decompress/stats drivers.

The one module that knows the container layout: a 9-byte header (magic
"2DCSE1", version, flags, alphabet-1), then a payload bit array, packed MSB
first: delta codes of m and n, then the body.  The coded body is the range
coder's bytes (the count section, then the shift rank); the escape body
(flag bit 0) is the raw cells row-major.  Escape covers non-primitive grids
and grids thinner than 2 in either dimension, so compression is a total
function up to the _MAX_CELLS cap, which both sides enforce.  The payload
ends inside the container's last byte, whose spare bits are zero; the
decoder rejects a container with more or fewer bits.  It stops a coded walk
once the range decoder has used 64 bits more than the body holds, so decode
time is bounded by the payload length, not by the size its dims claim.  An
error from the coded walk or the rank names where the stream broke: the
size being built and the bytes decoded (`_locate`).

The `engine` walk hands over only counts and one torus shift of the grid.
This module books each batch to its section by size, and codes the rank
that picks the grid's own shift.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .blocks import Block, from_numpy, shift_ids
from .engine import Walk
from .errors import (BadMagicError, EmptyBlockError, InconsistentCountsError,
                     NonPositiveError, NotPrimitiveError, TooLargeError,
                     TorusCseError, TrailingDataError, TruncatedStreamError,
                     UnsupportedVersionError)
from .rangecoder import RangeDecoder, RangeEncoder

MAGIC = b"2DCSE1"
VERSION = 1
FLAG_ESCAPE = 0x01
HEADER_LEN = 9
# transmission sections: singles, small sizes under the caps, everything else
B1, B2, B3 = "B1", "B2", "B3"

# sanity cap so a corrupt header cannot provoke an enormous decode walk;
# compress refuses larger grids, so it never emits a container decompress
# would refuse
_MAX_CELLS = 1 << 22


def _cell_bits(alphabet: int) -> int:
    return max(1, (alphabet - 1).bit_length())


def _check_end(what: str, left: int, spare: np.ndarray) -> None:
    """The `left` bits after the payload must be its last byte's zero
    padding; `spare` holds them."""
    if left < 0:
        raise TruncatedStreamError(f"{what} payload lacks {-left} bits")
    if left >= 8 or spare.any():
        raise TrailingDataError(f"{left} bits follow the {what} payload")


def _rank_width(mn: int) -> int:
    # power-of-two width, so the rank costs exactly ceil(log2 mn) bits
    return 1 << (mn - 1).bit_length()


def block_caps(m: int, n: int, alphabet: int) -> tuple[int, int]:
    """Height/width caps splitting small sizes from the long tail.

    The nominal formula floor(sqrt(log_J log_J m)) collapses to 0 or is
    undefined for small m, so both caps are clamped to at least 1.  They
    stay: a binary grid 65536 tall fits the cell cap and reaches B2 at (2, 1).
    """

    def cap(dim: int) -> int:
        inner = math.log(dim, alphabet) if dim > 1 else 0.0
        if inner <= 1.0:
            return 1
        # tiny epsilon so exact squares survive float rounding
        return max(1, math.floor(math.sqrt(math.log(inner, alphabet)) + 1e-9))

    return cap(m), cap(n)


@dataclass(frozen=True)
class CodewordStats:
    """Ideal-codelength attribution of one container.

    An escape container puts its whole payload in l0 and sends no counts.
    """

    escape: bool
    m: int
    n: int
    alphabet: int
    l0: float   # dims, rank, flush and padding remainder
    l1: float   # single-symbol counts
    l2: float   # sizes under the caps
    l3: float   # everything larger
    total_bits: int  # payload bits: dims and body, without the padding
    container_bytes: int
    transmitted: dict

    @property
    def total(self) -> float:
        return self.l0 + self.l1 + self.l2 + self.l3

    @property
    def bits_per_symbol(self) -> float:
        return 8.0 * self.container_bytes / (self.m * self.n)


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


def _container(flags: int, p: Block, body: np.ndarray,
               ideal: dict, txcnt: dict) -> tuple[bytes, CodewordStats]:
    """The container around `body`, a 0/1 array, and its CodewordStats."""
    bits = np.concatenate([elias_delta_bits(p.m), elias_delta_bits(p.n), body])
    header = MAGIC + bytes([VERSION, flags, p.alphabet - 1])
    container = header + np.packbits(bits).tobytes()
    total_bits = len(bits)
    l1, l2, l3 = ideal[B1], ideal[B2], ideal[B3]
    return container, CodewordStats(
        escape=bool(flags & FLAG_ESCAPE), m=p.m, n=p.n, alphabet=p.alphabet,
        l0=total_bits - (l1 + l2 + l3), l1=l1, l2=l2, l3=l3,
        total_bits=total_bits, container_bytes=len(container),
        transmitted=txcnt)


def compress(p: Block, strict: bool = False) -> bytes:
    return compress_with_stats(p, strict)[0]


def compress_with_stats(p: Block, strict: bool = False
                        ) -> tuple[bytes, CodewordStats]:
    """The container of p and the length accounting of the same encoder
    walk; `strict` refuses escape-path inputs."""
    if p.is_empty:
        raise EmptyBlockError("cannot compress an empty block")
    if p.size > _MAX_CELLS:
        raise TooLargeError(
            f"{p.m}x{p.n} grid exceeds the {_MAX_CELLS}-cell cap")
    grid = p.to_numpy()
    rank = coded_rank(grid)
    if rank is None:
        if strict:
            raise NotPrimitiveError(
                "coded path needs a primitive grid with both dimensions >= 2")
        return _compress_escape(p, grid)
    return _encode(p, grid, rank)


def coded_rank(grid: np.ndarray) -> int | None:
    """The grid's rank among its torus shifts; None if it takes escape."""
    if min(grid.shape) < 2:
        return None
    ids = shift_ids(grid)
    return int(ids[0, 0]) if int(ids.max()) + 1 == ids.size else None


def _compress_escape(p: Block, grid: np.ndarray
                     ) -> tuple[bytes, CodewordStats]:
    cb = _cell_bits(p.alphabet)
    # every cell's cb bits, most significant first, row-major
    cells = (grid.reshape(-1, 1) >> np.arange(cb - 1, -1, -1,
                                              dtype=np.uint8)) & 1
    return _container(FLAG_ESCAPE, p, cells.ravel(),
                      {B1: 0.0, B2: 0.0, B3: 0.0}, {B1: 0, B2: 0, B3: 0})


def _encode(p: Block, grid: np.ndarray, rank: int
            ) -> tuple[bytes, CodewordStats]:
    """Coded container of p and the ideal-codelength attribution of its
    counts, from one encoder walk over its cells `grid`."""
    rc = RangeEncoder()
    ideal = {B1: 0.0, B2: 0.0, B3: 0.0}
    txcnt = {B1: 0, B2: 0, B3: 0}
    cap_k, cap_l = block_caps(p.m, p.n, p.alphabet)

    def sink(k, l, lo, hi, values):
        cls = B1 if k == l == 1 else B2 if k <= cap_k and l <= cap_l else B3
        widths = (hi - lo + 1).tolist()
        rc.encode((values - lo).tolist(), widths)
        # summed one width at a time, in coding order
        ideal[cls] = reduce(operator.add, map(math.log2, widths), ideal[cls])
        txcnt[cls] += len(widths)

    Walk(p.m, p.n, p.alphabet, grid=grid, sink=sink).run()
    rc.encode([rank], [_rank_width(p.size)])
    body = np.unpackbits(np.frombuffer(rc.flush(), dtype=np.uint8))
    return _container(0, p, body, ideal, txcnt)


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

    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)[HEADER_LEN:])
    m, pos = elias_delta_decode(bits, 0)
    n, pos = elias_delta_decode(bits, pos)
    if m * n > _MAX_CELLS:
        raise InconsistentCountsError(f"dimensions {m}x{n} out of range")
    body = bits[pos:]

    if flags & FLAG_ESCAPE:
        cb = _cell_bits(alphabet)
        need = cb * m * n
        _check_end("escape", len(body) - need, body[need:])
        # each cell's cb bits, left-aligned in one byte
        grid = (np.packbits(body[:need].reshape(m * n, cb), axis=1)[:, 0]
                >> (8 - cb)).reshape(m, n)
        if grid.max() >= alphabet:
            raise InconsistentCountsError("escape cell outside the alphabet")
        return from_numpy(grid, alphabet)

    if m < 2 or n < 2:
        raise InconsistentCountsError(
            "coded payload needs both dimensions at least 2")
    dec = RangeDecoder(np.packbits(body).tobytes())

    def pull(k, l, lo, hi):
        values = lo + np.array(dec.decode((hi - lo + 1).tolist()),
                               dtype=np.int64)
        # the end check asks 8 * used <= len(body), so a valid payload never
        # trips this; past 64 bits of slack the walk stops, whatever size
        # the dims claim
        if 8 * dec.used > len(body) + 64:
            raise TruncatedStreamError(
                f"coded payload used up at size ({k},{l}): "
                f"{dec.used} bytes decoded from {len(body)} bits")
        return values

    walk = Walk(m, n, alphabet, pull=pull)
    try:
        walk.run()
    except TorusCseError as e:
        _locate(e, walk.building, dec.used)
        raise
    try:
        [rank] = dec.decode([_rank_width(m * n)])
        end = 8 * dec.used
        _check_end("coded", len(body) - end, body[end:])
        if not 0 <= rank < m * n:
            raise InconsistentCountsError(f"rank {rank} out of range")
        grid = walk.member_grid()
        at = np.flatnonzero(shift_ids(grid) == rank)
        if len(at) != 1:
            K, L = walk.readout[0]
            raise InconsistentCountsError(
                f"rank {rank} does not pick one shift of the grid read at "
                f"size ({K},{L})")
    except TorusCseError as e:
        _locate(e, None, dec.used)
        raise
    i, j = divmod(int(at[0]), n)
    return from_numpy(np.roll(grid, (-i, -j), axis=(0, 1)), alphabet)


def _locate(e: TorusCseError, size, offset: int) -> None:
    """Mark `e` with where the coded stream broke, in its attributes and
    its message: `size`, the (k, l) the walk was building, or None past
    the walk, and `offset`, the bytes the range decoder had used."""
    e.size, e.offset = size, offset
    where = "past the walk" if size is None else "walk size ({},{})".format(*size)
    e.args = (f"{e} [{where}, stream offset {offset} bytes]",)


def stats(p: Block) -> CodewordStats:
    """Length accounting for the coded path; rejects escape-path inputs."""
    return compress_with_stats(p, strict=True)[1]
