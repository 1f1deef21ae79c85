"""Finite blocks over a small integer alphabet, read on a flat torus.

A block is an m-by-n grid of symbols 0..J-1.  Treating the block as one
period of a doubly-periodic tiling of the plane turns every anchor cell into
the top-left corner of arbitrarily large wrapped windows.  One ranking step,
``_ranked``, names those windows: it pairs each anchor's window id with the
id a shift further along an axis and ranks the pairs.  ``Census`` runs it at
shift 1 for per-anchor window ids, counts and pair keys per size, which
verification, the generators and the 1D baseline read, and the slab joins
that verification and the 1D baseline bound counts by.  ``shift_ids`` runs
it at doubling shifts for the full-size ids that primitivity, rank and the
decoder's readout read.  The brute-force ``oracle`` keeps its own census
and reads none of this but ``Block``.  Blocks are immutable and hashable so
they can key count tables directly.

Census anchors are 0-based (i, j).  The canonical linear order on
equal-sized blocks is lexicographic on the column-major flattening (columns
left to right, each column top to bottom).  All empty blocks compare equal,
because every empty window occurs at every anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyBlockError, RaggedRowsError, SymbolOutOfRangeError

MIN_ALPHABET = 2
MAX_ALPHABET = 256


@dataclass(frozen=True)
class Block:
    """Immutable m-by-n grid; cells stored row-major as a flat tuple.

    The alphabet J lies in 2..256 and every cell in 0..J-1; the constructor
    refuses anything else with ``SymbolOutOfRangeError``.
    """

    m: int
    n: int
    cells: tuple[int, ...]
    alphabet: int

    def __post_init__(self) -> None:
        if len(self.cells) != self.m * self.n:
            raise RaggedRowsError(
                f"cell count {len(self.cells)} does not match {self.m}x{self.n}"
            )
        check_alphabet(self.alphabet)
        try:
            # bytes() refuses any cell that is not an integer in 0..255;
            # numpy takes the max at C speed
            bad = bool(self.cells) and int(np.frombuffer(
                bytes(self.cells), dtype=np.uint8).max()) >= self.alphabet
        except (TypeError, ValueError):
            bad = True
        if bad:
            raise SymbolOutOfRangeError(
                f"symbols outside 0..{self.alphabet - 1}")

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


def check_alphabet(alphabet: int) -> None:
    """Refuse an alphabet size outside 2..256 with SymbolOutOfRangeError."""
    if not MIN_ALPHABET <= alphabet <= MAX_ALPHABET:
        raise SymbolOutOfRangeError(
            f"alphabet size {alphabet} outside [{MIN_ALPHABET}, {MAX_ALPHABET}]")


def make_block(rows: Sequence[Sequence[int]], alphabet: int = 2) -> Block:
    """Build a block from nested row lists, validating shape and symbols."""
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
            if not isinstance(v, (int, np.integer)):
                raise SymbolOutOfRangeError(f"symbol {v!r} is not an integer")
            flat.append(int(v))
    return Block(m, n, tuple(flat), alphabet)


def from_numpy(arr: np.ndarray, alphabet: int) -> Block:
    if arr.ndim != 2:
        raise RaggedRowsError(f"expected a 2-D array, got shape {arr.shape}")
    if arr.dtype.kind not in "biu":
        raise SymbolOutOfRangeError(f"symbols must be integers, not {arr.dtype}")
    if arr.dtype.kind == "b":
        arr = arr.view(np.uint8)  # so tolist() gives ints, not bools
    return Block(arr.shape[0], arr.shape[1], tuple(arr.ravel().tolist()), alphabet)


def slab_bounds(a: np.ndarray, b: np.ndarray, w: np.ndarray):
    """(lo, hi, open) of a count joined from occurring slabs counted a and
    b over an overlap counted w: it lies in [max(0, a + b - w), min(a, b)],
    which holds one point at most unless it is open: neither slab fills w."""
    hi, top = np.minimum(a, b), np.maximum(a, b)
    lo = hi + top - w
    return np.maximum(lo, 0, out=lo), hi, top < w


def _find(sorted_keys: np.ndarray, probe: np.ndarray):
    """searchsorted with a found mask; -1 where absent.

    `sorted_keys` is never empty: `engine._lookup` searches an installed
    table and `verify.census_soundness` a census size, both nonempty.
    """
    idx = np.searchsorted(sorted_keys, probe)
    idx_c = np.minimum(idx, len(sorted_keys) - 1)
    ok = (idx < len(sorted_keys)) & (sorted_keys[idx_c] == probe)
    return np.where(ok, idx_c, -1), ok


def _run_bases(group_of: np.ndarray, probes: np.ndarray, ngroups: int):
    """Where a join lists, per probe, the positions of its group.

    Positions are numbered group by group, the groups ascending, and
    `group_of` gives each position's group, in any order.  The join lays
    the probes' runs out in probe order, each run in position order, so a
    probe's run ends where its group's positions end, at the cumsums.
    Returns per probe (base, run length): its match at position g is listed
    at base + g.
    """
    sizes = np.bincount(group_of, minlength=ngroups)
    runs = sizes[probes]
    base = np.add.accumulate(runs)
    base -= np.add.accumulate(sizes)[probes]
    return base, runs


def _expand_runs(base: np.ndarray, runs: np.ndarray):
    """The join `_run_bases` lays out: (probe, matched position) per pair."""
    left = np.arange(len(runs), dtype=np.int64).repeat(runs)
    return left, np.arange(len(left), dtype=np.int64) - base[left]


def _ranked(ids: np.ndarray, shift: int, axis: int):
    """(ids, keys) of the windows that join each anchor's window to the one
    `shift` further along `axis`.

    A pair's key is its first id times the number of ids plus its second,
    so the keys ascend with the (first, second) pairs, and an anchor's new
    id is its key's position among the distinct keys.  The keys stay below
    (m*n)^2, inside int64.
    """
    pair = ids * (ids.max() + 1) + np.roll(ids, -shift, axis=axis)
    keys, inv = np.unique(pair.ravel(), return_inverse=True)
    return inv.reshape(ids.shape), keys


def _symbol_ids(grid: np.ndarray):
    """(ids, symbols) of the grid's single cells."""
    symbols, inv = np.unique(grid, return_inverse=True)
    return inv.reshape(grid.shape).astype(np.int64), symbols


class Census:
    """Torus window census of one grid, built size by size on demand.

    For each window size (k, l), ``ids(k, l)`` is an (m, n) array whose entry
    at 0-based anchor (i, j) is the id of the k-by-l window anchored there:
    its position among the distinct windows of that size in the canonical
    column-major order.  ``counts(k, l)`` holds the anchors per id, and
    ``keys(k, l)`` the ascending keys the ids rank (the symbols at (1, 1)).
    A window is the join of its two overlapping slabs, one column (or one
    row) shorter, so a size comes from the one before it by ``_ranked``,

        W(k, l) = W(k, l-1) * S(k, l-1) + roll(W(k, l-1), -1, axis=1),
        W(k, 1) = W(k-1, 1) * S(k-1, 1) + roll(W(k-1, 1), -1, axis=0),

    where S counts distinct windows.  The pairs rank like the column-major
    order: windows whose first slabs agree have last slabs that differ only
    in their last column (or cell).  Each size is built once, in a loop
    after the missing sizes on its chain of heads, (k, l-1) ... (k, 1),
    (k-1, 1) ... (1, 1), and kept, as are its first anchors once asked for.
    ``joins(k, l)`` pairs the (k, l-1) windows that overlap in k-by-(l-2),
    the candidates the interval sweep and the 1D baseline bound.
    """

    def __init__(self, grid: np.ndarray) -> None:
        grid = np.asarray(grid)
        self.m, self.n = grid.shape
        ids, symbols = _symbol_ids(grid)
        self._sizes = {(1, 1): (ids, np.bincount(ids.ravel()), symbols)}
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
        head, axis = ((k - 1, 1), 0) if l == 1 else ((k, l - 1), 1)
        ids, keys = _ranked(self._sizes[head][0], 1, axis)
        self._sizes[(k, l)] = (ids, np.bincount(ids.ravel()), keys)

    def ids(self, k: int, l: int) -> np.ndarray:
        return self._size(k, l)[0]

    def counts(self, k: int, l: int) -> np.ndarray:
        return self._size(k, l)[1]

    def keys(self, k: int, l: int) -> np.ndarray:
        return self._size(k, l)[2]

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
        if l == 2:
            head = tail = np.zeros(len(self.counts(k, 1)), dtype=np.int64)
            overlap = np.array([self.m * self.n], dtype=np.int64)
        else:
            # a (k, l-1) key is its first slab's id times the overlap's id
            # count plus its last slab's id; the keys ascend, so the heads do
            overlap = self.counts(k, l - 2)
            head, tail = np.divmod(self.keys(k, l - 1), len(overlap))
        a, b = _expand_runs(*_run_bases(head, tail, len(overlap)))
        return a, b, overlap[tail[a]]


def shift_ids(grid: np.ndarray) -> np.ndarray:
    """The (m, n) ids of the grid's torus shifts; ``Census(grid).ids(m, n)``.

    They come by doubling (Karp, Miller and Rosenberg, 1972): each
    ``_ranked`` step pairs a window with the one right after it, so a
    column twice as tall pairs two stacked columns, and then a window twice
    as wide two side-by-side windows.  On the torus a window longer than
    the period is its first `period` cells and then a repeat of them, so it
    sorts and ranks like them; and once every anchor's window is distinct,
    longer windows sort like their distinct first parts.  Either way the
    doubling can stop, after O(log m + log n) steps instead of m + n - 2.
    """
    ids, symbols = _symbol_ids(grid)
    distinct = len(symbols)
    for axis, period in enumerate(grid.shape):
        have = 1
        while have < period and distinct < ids.size:
            ids, keys = _ranked(ids, have, axis)
            distinct, have = len(keys), 2 * have
    return ids


def _shift_ids_of(p: Block) -> np.ndarray:
    if p.is_empty:
        raise EmptyBlockError("empty block has no shift class")
    return shift_ids(p.to_numpy())


def is_primitive(p: Block) -> bool:
    """True when all m*n torus shifts of p are distinct."""
    return int(_shift_ids_of(p).max()) + 1 == p.size


def rank_of(p: Block) -> int:
    """Position of p inside its canonically ordered shift class."""
    return int(_shift_ids_of(p)[0, 0])
