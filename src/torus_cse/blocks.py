"""Finite blocks over a small integer alphabet, read on a flat torus.

A block is an m-by-n grid of symbols 0..J-1.  Treating the block as one
period of a doubly-periodic tiling of the plane turns every anchor cell into
the top-left corner of arbitrarily large wrapped windows.  ``Census`` is the
one array routine that enumerates those windows: per-anchor window ids and
counts per size, which primitivity, rank, verification, the generators and
the 1D baseline all read, and the slab joins that
verification and the 1D baseline bound counts by.  The brute-force
``oracle`` keeps its own census and reads none of this but ``Block``.
Blocks are immutable and hashable so they can key count tables directly.

Census anchors are 0-based (i, j).  The canonical linear order on
equal-sized blocks is lexicographic on the column-major flattening (columns
left to right, each column top to bottom).  All empty blocks compare equal,
because every empty window occurs at every anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyBlockError, RaggedRowsError, SymbolOutOfRangeError

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

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(self.cells[r * n:(r + 1) * n] for r in range(self.m))

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
    if arr.dtype.kind not in "biu":
        raise SymbolOutOfRangeError(f"symbols must be integers, not {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= alphabet):
        raise SymbolOutOfRangeError("array values outside alphabet range")
    return Block(arr.shape[0], arr.shape[1], tuple(int(v) for v in arr.ravel()), alphabet)


def slab_bounds(a: np.ndarray, b: np.ndarray, w: np.ndarray):
    """(lo, hi, open) of a count joined from occurring slabs counted a and
    b over an overlap counted w: it lies in [max(0, a + b - w), min(a, b)],
    which holds one point at most unless it is open: neither slab fills w."""
    return (np.maximum(0, a + b - w), np.minimum(a, b), (a < w) & (b < w))


def _find(sorted_keys: np.ndarray, probe: np.ndarray):
    """searchsorted with a found mask; -1 where absent.

    `sorted_keys` is never empty: every installed table, every census size
    and every built size's candidate probe has at least one entry.
    """
    idx = np.searchsorted(sorted_keys, probe)
    idx_c = np.minimum(idx, len(sorted_keys) - 1)
    ok = (idx < len(sorted_keys)) & (sorted_keys[idx_c] == probe)
    return np.where(ok, idx_c, -1), ok


def _expand_groups(order, group_of: np.ndarray, probes: np.ndarray,
                   ngroups: int):
    """Per probe, the contiguous run of positions whose group matches.

    `group_of` must be ascending over the dense ids 0..ngroups-1, so each
    group's run starts at the exclusive cumsum of the group sizes.  Returns
    (left index repeated per match, matched positions mapped through
    `order` when given).
    """
    sizes = np.bincount(group_of, minlength=ngroups)
    first = np.cumsum(sizes) - sizes
    runs = sizes[probes]
    starts = first[probes]
    total = int(runs.sum())
    left = np.repeat(np.arange(len(probes), dtype=np.int64), runs)
    if total == 0:
        return left, np.zeros(0, dtype=np.int64)
    offs = np.cumsum(runs) - runs
    member = np.arange(total, dtype=np.int64) - offs[left] + starts[left]
    return left, order[member] if order is not None else member


class Census:
    """Torus window census of one grid, built size by size on demand.

    For each window size (k, l), ``ids(k, l)`` is an (m, n) array whose entry
    at 0-based anchor (i, j) is the id of the k-by-l window anchored there:
    its position among the distinct windows of that size in the canonical
    column-major order, and ``counts(k, l)`` holds the anchors per id.  A
    size comes from two smaller ones,

        W(k, l) = W(k, l-1) * S(k, 1) + roll(W(k, 1), -(l-1), axis=1),
        W(k, 1) = W(k-1, 1) * S(1, 1) + roll(W(1, 1), -(k-1), axis=0),

    where S counts distinct windows, so a key pairs a window's first l-1
    columns with its last column (or first k-1 cells with its last).  The
    keys stay below (m*n)^2, inside int64.  Each size is built once, in a
    loop after the missing sizes on its chain of heads, (k, l-1) ... (k, 1),
    (k-1, 1) ... (1, 1), and kept, as are its first anchors once asked for.
    ``joins(k, l)`` pairs the (k, l-1) windows that overlap in k-by-(l-2),
    the candidates the interval sweep and the 1D baseline bound.

    ``shift_ids``, the (m, n) ids that ``primitive``, ``rank`` and the
    decoder's readout read, come instead by doubling (Karp, Miller and
    Rosenberg, 1972): a column twice as tall pairs two stacked columns, and
    a window twice as wide two side-by-side windows.  Pairs compare like
    the column-major keys, so the ids are the same in O(log m + log n)
    steps instead of m + n - 2.  None of these sizes is stored where
    ``ids`` and ``counts`` read.
    """

    def __init__(self, grid: np.ndarray) -> None:
        grid = np.asarray(grid)
        self.m, self.n = grid.shape
        inv = np.unique(grid, return_inverse=True)[1]
        inv = inv.reshape(self.m, self.n).astype(np.int64)
        self._sizes = {(1, 1): (inv, np.bincount(inv.ravel()).astype(np.int64))}
        self._first: dict[tuple[int, int], np.ndarray] = {}

    def _size(self, k: int, l: int):
        missing, r, c = [], k, l
        while r >= 1 and (r, c) not in self._sizes:
            missing.append((r, c))
            r, c = (r, c - 1) if c > 1 else (r - 1, 1)
        for size in reversed(missing):
            self._build(*size)
        return self._sizes[(k, l)]

    def _build(self, k: int, l: int) -> None:
        if l == 1:
            head, last, shift, axis = (k - 1, 1), (1, 1), k - 1, 0
        else:
            head, last, shift, axis = (k, l - 1), (k, 1), l - 1, 1
        last_ids, last_counts = self._sizes[last]
        pair = (self._sizes[head][0] * np.int64(len(last_counts))
                + np.roll(last_ids, -shift, axis=axis))
        inv, counts = np.unique(
            pair.ravel(), return_inverse=True, return_counts=True)[1:]
        self._sizes[(k, l)] = (inv.reshape(self.m, self.n).astype(np.int64),
                               counts.astype(np.int64))

    def ids(self, k: int, l: int) -> np.ndarray:
        return self._size(k, l)[0]

    def counts(self, k: int, l: int) -> np.ndarray:
        return self._size(k, l)[1]

    def first_anchors(self, k: int, l: int) -> np.ndarray:
        """Row-major flat index of the first anchor showing each id."""
        if (k, l) not in self._first:
            self._first[(k, l)] = np.unique(self.ids(k, l).ravel(),
                                            return_index=True)[1]
        return self._first[(k, l)]

    def joins(self, k: int, l: int):
        """(a, b, overlap count) for every pair of (k, l-1) ids whose
        windows agree on their (k, l-2) overlap: a's last l-2 columns are
        b's first.  Pairs ascend by a, then by b.  At l == 2 the overlap is
        the empty window, one id counted at all m*n anchors."""
        first = self.first_anchors(k, l - 1)
        if l == 2:
            head = tail = np.zeros(len(first), dtype=np.int64)
            overlap = np.array([self.m * self.n], dtype=np.int64)
        else:
            ids = self.ids(k, l - 2)
            head = ids.ravel()[first]
            tail = np.roll(ids, -1, axis=1).ravel()[first]
            overlap = self.counts(k, l - 2)
        order = np.argsort(head, kind="stable")
        a, b = _expand_groups(order, head[order], tail, len(overlap))
        return a, b, overlap[tail[a]]

    @cached_property
    def shift_ids(self) -> np.ndarray:
        """The (m, n) ids, reached by doubling; equal to ``ids(m, n)``."""
        ids = _doubled(self._sizes[(1, 1)][0], self.m, 0)
        return _doubled(ids, self.n, 1)

    @property
    def primitive(self) -> bool:
        """True when all m*n torus shifts of the grid are distinct."""
        return int(self.shift_ids.max()) + 1 == self.m * self.n

    @property
    def rank(self) -> int:
        """Position of the grid itself among its distinct shifts."""
        return int(self.shift_ids[0, 0])


def _doubled(ids: np.ndarray, period: int, axis: int) -> np.ndarray:
    """The ids of `ids`' windows stretched to `period` along `axis`.

    Each step pairs a window with the one right after it and re-ranks the
    pairs, doubling the length.  On the torus a window longer than the
    period is its first `period` cells and then a repeat of them, so it
    sorts and ranks like them; and once every anchor's window is distinct,
    longer windows sort like their distinct first parts.  Either way the
    doubling can stop.
    """
    have = 1
    while have < period and ids.max() + 1 < ids.size:
        pair = ids * np.int64(ids.max() + 1) + np.roll(ids, -have, axis=axis)
        ids = np.unique(pair.ravel(), return_inverse=True)[1].reshape(
            ids.shape)
        have *= 2
    return ids


def _census(p: Block) -> Census:
    if p.is_empty:
        raise EmptyBlockError("empty block has no shift class")
    return Census(p.to_numpy())


def is_primitive(p: Block) -> bool:
    """True when all m*n torus shifts of p are distinct."""
    return _census(p).primitive


def rank_of(p: Block) -> int:
    """Position of p inside its canonically ordered shift class."""
    return _census(p).rank
