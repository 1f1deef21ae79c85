"""Grid files: PGM (P2/P5) and a plain text format with a "J m n" header.

PGM maxval+1 is the alphabet, so a binary grid is maxval 1.  Unused gray
levels stay part of the alphabet; remapping them away is out of scope.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .blocks import MAX_ALPHABET, MIN_ALPHABET, Block, from_numpy
from .errors import GridFormatError, UnknownExtensionError

_TEXT_EXTS = (".txt", ".grid")
_PGM_TOKEN = re.compile(rb"#[^\n]*\n?|(\S+)")


def _tokens(data: bytes):
    """PGM header tokens and their offsets: whitespace separated, a #
    starting a token starts a comment to the end of its line."""
    for match in _PGM_TOKEN.finditer(data):
        if match[1] is not None:
            yield match.start(1), match[1]


def read_pgm(data: bytes) -> Block:
    toks = _tokens(data)
    try:
        _, magic = next(toks)
        fields = [next(toks) for _ in range(3)]
    except StopIteration:
        raise GridFormatError("truncated PGM header") from None
    if magic not in (b"P2", b"P5"):
        raise GridFormatError(f"not a PGM grid: magic {magic!r}")
    try:
        width, height, maxval = (int(tok) for _, tok in fields)
    except ValueError:
        raise GridFormatError("non-numeric PGM header field") from None
    if width < 1 or height < 1 or not 0 < maxval < 256:
        raise GridFormatError(
            f"unusable PGM geometry {width}x{height} maxval {maxval}")
    if magic == b"P5":
        # raster starts one whitespace byte after maxval
        start = fields[2][0] + len(fields[2][1]) + 1
        raster = data[start:start + width * height]
        if len(raster) < width * height:
            raise GridFormatError("PGM raster shorter than width*height")
        cells = np.frombuffer(raster, dtype=np.uint8)
    else:
        try:
            vals = [int(tok) for _, tok in toks]
        except ValueError:
            raise GridFormatError("non-numeric PGM sample") from None
        if len(vals) < width * height:
            raise GridFormatError("PGM raster shorter than width*height")
        # Python ints, so no sample overflows before the range check
        cells = np.array(vals[:width * height], dtype=object)
    if cells.min() < 0 or cells.max() > maxval:
        raise GridFormatError("PGM sample outside 0..maxval")
    grid = cells.reshape(height, width).astype(np.uint8, copy=False)
    return from_numpy(grid, alphabet=maxval + 1)


def write_pgm(p: Block) -> bytes:
    header = f"P5\n{p.n} {p.m}\n{p.alphabet - 1}\n".encode()
    return header + bytes(p.cells)


def read_grid_text(text: str) -> Block:
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise GridFormatError("empty grid text")
    head = lines[0].split()
    if len(head) != 3:
        raise GridFormatError('grid text must start with a "J m n" line')
    try:
        alphabet, m, n = (int(t) for t in head)
    except ValueError:
        raise GridFormatError("non-numeric grid text header") from None
    if not MIN_ALPHABET <= alphabet <= MAX_ALPHABET or m < 1 or n < 1:
        raise GridFormatError(f"unusable grid header J={alphabet} {m}x{n}")
    if len(lines) - 1 != m:
        raise GridFormatError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(t) for t in ln.split()]
        except ValueError:
            raise GridFormatError(f"non-numeric cell in row {ln!r}") from None
        if len(row) != n:
            raise GridFormatError(f"row width {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= alphabet:
            raise GridFormatError("cell outside the declared alphabet")
        rows.append(row)
    return from_numpy(np.array(rows, dtype=np.uint8), alphabet=alphabet)


def write_grid_text(p: Block) -> str:
    lines = [f"{p.alphabet} {p.m} {p.n}"]
    for r in range(p.m):
        lines.append(" ".join(str(v) for v in p.cells[r * p.n:(r + 1) * p.n]))
    return "\n".join(lines) + "\n"


def read_grid(path: str) -> Block:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        with open(path, "rb") as fh:
            return read_pgm(fh.read())
    if ext in _TEXT_EXTS:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise GridFormatError(
                f"grid text has a non-ASCII byte at offset {exc.start}") from None
        return read_grid_text(text)
    raise UnknownExtensionError(f"no grid format for {ext!r} (use .pgm, .txt, .grid)")


def write_grid(path: str, p: Block) -> None:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        with open(path, "wb") as fh:
            fh.write(write_pgm(p))
        return
    if ext in _TEXT_EXTS:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(write_grid_text(p))
        return
    raise UnknownExtensionError(f"no grid format for {ext!r} (use .pgm, .txt, .grid)")
