"""Finite blocks over a small integer alphabet, read on a flat torus.

A block is an m-by-n grid of symbols 0..J-1.  Treating the block as one
period of a doubly-periodic tiling of the plane turns every anchor cell into
the top-left corner of arbitrarily large wrapped windows.  ``Census`` is the
one array routine that enumerates those windows: per-anchor window ids and
counts per size, which primitivity, rank, the count ledger, the encoder's
walk, verification and the generators all read.  Blocks are immutable and
hashable so they can key count tables directly.

Conventions used throughout the package:

* anchors are 1-based (i, j) with 1 <= i <= m, 1 <= j <= n;
* the canonical linear order on equal-sized blocks is lexicographic on the
  column-major flattening (columns left to right, each column top to bottom);
* empty blocks remember their one nonzero dimension (a 0xL slab is distinct
  in role from a Kx0 slab) but all empty blocks compare equal, because every
  empty window occurs at every anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AnchorOutOfRangeError,
    DimensionMismatchError,
    EmptyBlockError,
    RaggedRowsError,
    RankOutOfRangeError,
    SymbolOutOfRangeError,
)

MIN_ALPHABET = 2
MAX_ALPHABET = 256


def _check_alphabet(j: int) -> int:
    if not MIN_ALPHABET <= j <= MAX_ALPHABET:
        raise SymbolOutOfRangeError(f"alphabet size {j} outside [{MIN_ALPHABET}, {MAX_ALPHABET}]")
    return j


@dataclass(frozen=True)
class Block:
    """Immutable m-by-n grid; cells stored row-major as a flat tuple."""

    m: int
    n: int
    cells: tuple[int, ...]
    alphabet: int

    def __post_init__(self) -> None:
        if len(self.cells) != self.m * self.n:
            raise RaggedRowsError(
                f"cell count {len(self.cells)} does not match {self.m}x{self.n}"
            )

    # Empty blocks all behave as the same object for counting purposes, so
    # equality and hashing ignore which dimension is the zero one.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        if not self.cells and not other.cells:
            return True
        return self.m == other.m and self.n == other.n and self.cells == other.cells

    def __hash__(self) -> int:
        if not self.cells:
            return hash(())
        return hash((self.m, self.n, self.cells))

    @property
    def size(self) -> int:
        return self.m * self.n

    @property
    def is_empty(self) -> bool:
        return self.m == 0 or self.n == 0

    def at(self, i: int, j: int) -> int:
        """Cell at 0-based (row, col)."""
        return self.cells[i * self.n + j]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(self.cells[r * n:(r + 1) * n] for r in range(self.m))

    @cached_property
    def col_key(self) -> bytes:
        """Column-major flattening as bytes; the canonical sort key."""
        return bytes(
            self.cells[r * self.n + c] for c in range(self.n) for r in range(self.m)
        )

    def to_numpy(self) -> np.ndarray:
        return np.array(self.cells, dtype=np.uint8).reshape(self.m, self.n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return f"Block(empty {self.m}x{self.n})"
        return f"Block({[list(r) for r in self.rows]}, J={self.alphabet})"


def make_block(rows: Sequence[Sequence[int]], alphabet: int = 2) -> Block:
    """Build a block from nested row lists, validating shape and symbols."""
    _check_alphabet(alphabet)
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        return Block(0, 0, (), alphabet)
    n = len(rows[0])
    for r in rows:
        if len(r) != n:
            raise RaggedRowsError(f"row lengths differ: {len(r)} vs {n}")
    flat = []
    for r in rows:
        for v in r:
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < alphabet:
                raise SymbolOutOfRangeError(f"symbol {v!r} outside 0..{alphabet - 1}")
            flat.append(int(v))
    return Block(m, n, tuple(flat), alphabet)


def from_numpy(arr: np.ndarray, alphabet: int) -> Block:
    _check_alphabet(alphabet)
    if arr.ndim != 2:
        raise RaggedRowsError(f"expected a 2-D array, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= alphabet):
        raise SymbolOutOfRangeError("array values outside alphabet range")
    return Block(arr.shape[0], arr.shape[1], tuple(int(v) for v in arr.ravel()), alphabet)


def empty_block(k: int, l: int, alphabet: int) -> Block:
    """The empty block; exactly one of k, l may be nonzero (its role tag)."""
    if k != 0 and l != 0:
        raise DimensionMismatchError("empty block needs a zero dimension")
    return Block(k, l, (), alphabet)


def torus_subblock(p: Block, i: int, j: int, k: int, l: int) -> Block:
    """k-by-l window anchored at 1-based (i, j) of p's doubly-periodic tiling.

    Reads wrap modulo (m, n); windows up to 2m-by-2n cover everything the
    doubled block can show, so larger queries are rejected.
    """
    if p.is_empty:
        raise EmptyBlockError("cannot read windows of an empty block")
    if not (1 <= i <= p.m and 1 <= j <= p.n):
        raise AnchorOutOfRangeError(f"anchor ({i}, {j}) outside 1..{p.m} x 1..{p.n}")
    if not (0 <= k <= 2 * p.m and 0 <= l <= 2 * p.n):
        raise AnchorOutOfRangeError(f"window {k}x{l} exceeds doubled extent")
    if k == 0 or l == 0:
        return Block(k, l, (), p.alphabet)
    m, n = p.m, p.n
    base_i, base_j = i - 1, j - 1
    cells = tuple(
        p.cells[((base_i + r) % m) * n + ((base_j + c) % n)]
        for r in range(k)
        for c in range(l)
    )
    return Block(k, l, cells, p.alphabet)


def concat(s: Block, t: Block, axis: str) -> Block:
    """Join two blocks; axis='cols' puts t to the right of s, axis='rows'
    puts s on top of t."""
    if axis == "cols":
        if s.m != t.m:
            raise DimensionMismatchError(f"heights differ: {s.m} vs {t.m}")
        if s.m == 0:
            return Block(0, s.n + t.n, (), s.alphabet)
        rows = tuple(sr + tr for sr, tr in zip(s.rows, t.rows))
        return Block(s.m, s.n + t.n, tuple(v for r in rows for v in r), s.alphabet)
    if axis == "rows":
        if s.n != t.n:
            raise DimensionMismatchError(f"widths differ: {s.n} vs {t.n}")
        if s.n == 0:
            return Block(s.m + t.m, 0, (), s.alphabet)
        return Block(s.m + t.m, s.n, s.cells + t.cells, s.alphabet)
    raise DimensionMismatchError(f"unknown axis {axis!r}")


_TRIM_EDGES = ("first_row", "last_row", "first_col", "last_col")


def trim(b: Block, edge: str) -> Block:
    """Drop one boundary row or column; trimming a zero dimension is an error."""
    if edge not in _TRIM_EDGES:
        raise DimensionMismatchError(f"unknown edge {edge!r}")
    if edge.endswith("row"):
        if b.m == 0:
            raise EmptyBlockError("no rows to trim")
        keep = range(1, b.m) if edge == "first_row" else range(0, b.m - 1)
        cells = tuple(b.cells[r * b.n + c] for r in keep for c in range(b.n))
        return Block(b.m - 1, b.n, cells, b.alphabet)
    if b.n == 0:
        raise EmptyBlockError("no columns to trim")
    keep = range(1, b.n) if edge == "first_col" else range(0, b.n - 1)
    cells = tuple(b.cells[r * b.n + c] for r in range(b.m) for c in keep)
    return Block(b.m, b.n - 1, cells, b.alphabet)


def interior_rows(b: Block) -> Block:
    """Rows 2..k-1 (both boundary rows dropped); empty when k <= 2."""
    if b.m <= 2:
        return Block(0, b.n, (), b.alphabet)
    return trim(trim(b, "first_row"), "last_row")


def interior_cols(b: Block) -> Block:
    if b.n <= 2:
        return Block(b.m, 0, (), b.alphabet)
    return trim(trim(b, "first_col"), "last_col")


@dataclass(frozen=True)
class ShiftClass:
    """All distinct torus shifts of a block, in canonical column-major order."""

    members: tuple[Block, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterable[Block]:
        return iter(self.members)

    def index_of(self, p: Block) -> int:
        try:
            return self.members.index(p)
        except ValueError:
            raise RankOutOfRangeError("block is not a member of this shift class") from None


class Census:
    """Torus window census of one grid, built size by size on demand.

    For each window size (k, l), ``ids(k, l)`` is an (m, n) array whose entry
    at 0-based anchor (i, j) is the id of the k-by-l window anchored there:
    its position among the distinct windows of that size in the canonical
    column-major order.  ``counts(k, l)`` holds the anchors per id, and
    ``keys(k, l)`` the sorted distinct keys the ids were ranked by.  A size
    comes from two smaller ones,

        W(k, l) = W(k, l-1) * S(k, 1) + roll(W(k, 1), -(l-1), axis=1),
        W(k, 1) = W(k-1, 1) * S(1, 1) + roll(W(1, 1), -(k-1), axis=0),

    where S counts distinct windows, so a key pairs a window's first l-1
    columns with its last column (or first k-1 cells with its last).  The
    keys stay below (m*n)^2, inside int64.  Every size built is kept.
    """

    def __init__(self, grid: np.ndarray) -> None:
        self.grid = grid = np.asarray(grid)
        self.m, self.n = grid.shape
        syms, inv = np.unique(grid, return_inverse=True)
        inv = inv.reshape(self.m, self.n).astype(np.int64)
        self._sizes = {(1, 1): (inv, syms.astype(np.int64),
                                np.bincount(inv.ravel()).astype(np.int64))}

    def _size(self, k: int, l: int):
        if (k, l) not in self._sizes:
            for r in range(2, k + 1):
                self._build(r, 1)
            for c in range(2, l + 1):
                self._build(k, c)
        return self._sizes[(k, l)]

    def _build(self, k: int, l: int) -> None:
        if (k, l) in self._sizes:
            return
        if l == 1:
            head, last, shift, axis = (k - 1, 1), (1, 1), k - 1, 0
        else:
            head, last, shift, axis = (k, l - 1), (k, 1), l - 1, 1
        last_ids, _, last_counts = self._sizes[last]
        pair = (self._sizes[head][0] * np.int64(len(last_counts))
                + np.roll(last_ids, -shift, axis=axis))
        keys, inv, counts = np.unique(
            pair.ravel(), return_inverse=True, return_counts=True)
        self._sizes[(k, l)] = (inv.reshape(self.m, self.n).astype(np.int64),
                               keys, counts.astype(np.int64))

    def ids(self, k: int, l: int) -> np.ndarray:
        return self._size(k, l)[0]

    def keys(self, k: int, l: int) -> np.ndarray:
        return self._size(k, l)[1]

    def counts(self, k: int, l: int) -> np.ndarray:
        return self._size(k, l)[2]

    def first_anchors(self, k: int, l: int) -> np.ndarray:
        """Row-major flat index of the first anchor showing each id."""
        return np.unique(self.ids(k, l).ravel(), return_index=True)[1]

    def windows(self, k: int, l: int) -> list[tuple[int, ...]]:
        """Row-major cells of each id's window, read at its first anchor."""
        first = self.first_anchors(k, l)[:, None]
        rows = (first // self.n + np.arange(k)) % self.m
        cols = (first % self.n + np.arange(l)) % self.n
        cells = self.grid[rows[:, :, None], cols[:, None, :]]
        return [tuple(w) for w in cells.reshape(len(first), k * l).tolist()]

    @property
    def primitive(self) -> bool:
        """True when all m*n torus shifts of the grid are distinct."""
        return len(self.counts(self.m, self.n)) == self.m * self.n

    @property
    def rank(self) -> int:
        """Position of the grid itself among its distinct shifts."""
        return int(self.ids(self.m, self.n)[0, 0])


def _census(p: Block) -> Census:
    if p.is_empty:
        raise EmptyBlockError("empty block has no shift class")
    return Census(p.to_numpy())


def shift_class(p: Block) -> ShiftClass:
    return ShiftClass(tuple(Block(p.m, p.n, cells, p.alphabet)
                            for cells in _census(p).windows(p.m, p.n)))


def is_primitive(p: Block) -> bool:
    """True when all m*n torus shifts of p are distinct."""
    return _census(p).primitive


def rank_of(p: Block) -> int:
    """Position of p inside its canonically ordered shift class."""
    return _census(p).rank


def select_by_rank(q: Block, r: int) -> Block:
    """Member number r of q's shift class (q may be any member)."""
    cls = shift_class(q)
    if not 0 <= r < len(cls):
        raise RankOutOfRangeError(f"rank {r} outside 0..{len(cls) - 1}")
    return cls.members[r]
