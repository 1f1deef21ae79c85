"""Occurrence counting for torus windows, and the candidate machinery.

The ledger maps every window size (k, l) with 1 <= k <= m, 1 <= l <= n to the
finite table of windows that actually occur, with their anchor counts.  Three
exact identities tie the tables together and are what the decoder later
exploits:

* the counts at any single size sum to m*n;
* dropping the last column groups a size's counts into families that sum to
  the parent's count, and likewise for the first column;
* the same holds row-wise.

``candidates`` enumerates, for one size, every window whose count could be
nonzero judging only from smaller sizes: joins of overlapping positive slabs
along either axis.  The codec walks exactly this set, so enumerating it from
finalized smaller tables (never from the block itself) keeps the encoder and
decoder in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .blocks import Block, Census, concat, interior_cols, interior_rows, trim
from .errors import (
    EmptyBlockError,
    LedgerIncompleteError,
    OversizeQueryError,
)


def count(u: Block, p: Block) -> int:
    """Number of 1-based anchors of p whose wrapped window equals u."""
    if p.is_empty:
        raise EmptyBlockError("cannot count windows of an empty block")
    if u.is_empty:
        return p.size
    if u.m > p.m or u.n > p.n:
        raise OversizeQueryError(f"window {u.m}x{u.n} exceeds block {p.m}x{p.n}")
    m, n = p.m, p.n
    k, l = u.m, u.n
    total = 0
    target = u.cells
    for i in range(m):
        for j in range(n):
            match = True
            for r in range(k):
                row_base = ((i + r) % m) * n
                urow = r * l
                for c in range(l):
                    if p.cells[row_base + (j + c) % n] != target[urow + c]:
                        match = False
                        break
                if not match:
                    break
            if match:
                total += 1
    return total


@dataclass
class CountLedger:
    """Per-size tables of positive window counts for one block's torus."""

    m: int
    n: int
    alphabet: int
    tables: dict[tuple[int, int], dict[Block, int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.m * self.n

    def is_finalized(self, k: int, l: int) -> bool:
        return (k, l) in self.tables

    def table(self, k: int, l: int) -> dict[Block, int]:
        try:
            return self.tables[(k, l)]
        except KeyError:
            raise LedgerIncompleteError(f"size ({k}, {l}) not finalized") from None

    def count_of(self, b: Block) -> int:
        """Count of b; empty blocks occur at every anchor."""
        if b.is_empty:
            return self.total
        return self.table(b.m, b.n).get(b, 0)

    def set_table(self, k: int, l: int, table: dict[Block, int]) -> None:
        self.tables[(k, l)] = table


def build_ledger(p: Block, max_k: Optional[int] = None, max_l: Optional[int] = None) -> CountLedger:
    """Full ledger of p, optionally capped at a maximum window size.

    Each table holds one block per census id, read at its first anchor.
    """
    if p.is_empty:
        raise EmptyBlockError("cannot build a ledger for an empty block")
    census = Census(p.to_numpy())
    led = CountLedger(p.m, p.n, p.alphabet)
    for k in range(1, (max_k or p.m) + 1):
        for l in range(1, (max_l or p.n) + 1):
            led.set_table(k, l, {
                Block(k, l, cells, p.alphabet): int(c)
                for cells, c in zip(census.windows(k, l), census.counts(k, l))})
    return led


def verify_identities(ledger: CountLedger) -> list[str]:
    """Check the sum and directional identities; returns violation messages."""
    bad: list[str] = []
    total = ledger.total
    for (k, l), table in sorted(ledger.tables.items()):
        s = sum(table.values())
        if s != total:
            bad.append(f"size ({k},{l}): counts sum to {s}, expected {total}")
        if l + 1 <= ledger.n and ledger.is_finalized(k, l + 1):
            ext = ledger.table(k, l + 1)
            right: dict[Block, int] = {}
            left: dict[Block, int] = {}
            for b, c in ext.items():
                right[trim(b, "last_col")] = right.get(trim(b, "last_col"), 0) + c
                left[trim(b, "first_col")] = left.get(trim(b, "first_col"), 0) + c
            for v, c in table.items():
                if right.get(v, 0) != c:
                    bad.append(f"size ({k},{l}): right column extension sum breaks at {v!r}")
                if left.get(v, 0) != c:
                    bad.append(f"size ({k},{l}): left column extension sum breaks at {v!r}")
        if k + 1 <= ledger.m and ledger.is_finalized(k + 1, l):
            ext = ledger.table(k + 1, l)
            below: dict[Block, int] = {}
            above: dict[Block, int] = {}
            for b, c in ext.items():
                below[trim(b, "last_row")] = below.get(trim(b, "last_row"), 0) + c
                above[trim(b, "first_row")] = above.get(trim(b, "first_row"), 0) + c
            for v, c in table.items():
                if below.get(v, 0) != c:
                    bad.append(f"size ({k},{l}): bottom row extension sum breaks at {v!r}")
                if above.get(v, 0) != c:
                    bad.append(f"size ({k},{l}): top row extension sum breaks at {v!r}")
    return bad


def in_B(b: Block, ledger: CountLedger) -> bool:
    """Membership test: both interior trims of b occur (empty trims always do)."""
    if b.is_empty:
        return True
    mid_rows = interior_rows(b)
    if not mid_rows.is_empty and ledger.count_of(mid_rows) == 0:
        return False
    mid_cols = interior_cols(b)
    if not mid_cols.is_empty and ledger.count_of(mid_cols) == 0:
        return False
    return True


def is_core(w: Block, axis: str, ledger: CountLedger) -> bool:
    """True when w extends in at least two ways on each side along axis.

    axis='cols' asks for two distinct occurring left column extensions and
    two distinct right ones; axis='rows' is the analogue with rows.
    """
    if axis not in ("cols", "rows"):
        raise OversizeQueryError(f"unknown axis {axis!r}")
    if axis == "cols":
        k = w.m if w.m else None
        if k is None:
            raise EmptyBlockError("column extensions need a fixed height")
        ext_table = ledger.table(k, w.n + 1)
        lefts = {b.col_key[:k] for b in ext_table if trim(b, "first_col") == w}
        rights = {b.col_key[-k:] for b in ext_table if trim(b, "last_col") == w}
        return len(lefts) >= 2 and len(rights) >= 2
    l = w.n if w.n else None
    if l is None:
        raise EmptyBlockError("row extensions need a fixed width")
    ext_table = ledger.table(w.m + 1, l)
    tops = {b.cells[:l] for b in ext_table if trim(b, "first_row") == w}
    bottoms = {b.cells[-l:] for b in ext_table if trim(b, "last_row") == w}
    return len(tops) >= 2 and len(bottoms) >= 2


def block_caps(m: int, n: int, alphabet: int) -> tuple[int, int]:
    """Height/width caps splitting small sizes from the long tail.

    The nominal formula floor(sqrt(log_J log_J m)) collapses to 0 or is
    undefined for small m, so both caps are clamped to at least 1.
    """

    def cap(dim: int) -> int:
        inner = math.log(dim, alphabet) if dim > 1 else 0.0
        if inner <= 1.0:
            return 1
        outer = math.log(inner, alphabet)
        if outer <= 0.0:
            return 1
        # tiny epsilon so exact squares survive float rounding
        return max(1, math.floor(math.sqrt(outer) + 1e-9))

    return cap(m), cap(n)


# transmission classes: singles, small sizes under the caps, everything else
B1 = "B1"
B2 = "B2"
B3 = "B3"


@dataclass(frozen=True)
class Candidate:
    """One window the coder must account for at its size."""

    block: Block
    cls: str  # B1, B2 or B3


@dataclass(frozen=True)
class CodingOrder:
    """Size schedule for one block shape, with the small/long split caps."""

    m: int
    n: int
    cap_k: int
    cap_l: int
    sizes: tuple[tuple[int, int], ...]

    def cls_of(self, k: int, l: int) -> str:
        if k == 1 and l == 1:
            return B1
        return B2 if (k <= self.cap_k and l <= self.cap_l) else B3


def coding_order(m: int, n: int, alphabet: int) -> CodingOrder:
    """Sizes in ascending (height, width) order; parents precede children."""
    cap_k, cap_l = block_caps(m, n, alphabet)
    sizes = tuple((k, l) for k in range(1, m + 1) for l in range(1, n + 1))
    return CodingOrder(m, n, cap_k, cap_l, sizes)


def candidates(k: int, l: int, ledger: CountLedger) -> list[Candidate]:
    """All size-(k, l) windows that smaller tables cannot rule out.

    For k*l == 1 this is the whole alphabet.  Otherwise it is the union of
    column joins (both width-(l-1) slabs positive) and row joins (both
    height-(k-1) slabs positive), sorted in canonical column-major order.
    Every window with a positive count is in the set; members can still turn
    out to count zero.
    """
    cap_k, cap_l = block_caps(ledger.m, ledger.n, ledger.alphabet)
    if k == 1 and l == 1:
        blocks = [Block(1, 1, (s,), ledger.alphabet) for s in range(ledger.alphabet)]
        return [Candidate(b, B1) for b in blocks]
    cls = B2 if (k <= cap_k and l <= cap_l) else B3

    found: set[Block] = set()
    if l >= 2:
        # s = a:w and t = w:c share the width-(l-2) middle part w
        slabs = ledger.table(k, l - 1)
        by_overlap: dict[Block, list[Block]] = {}
        for t in slabs:
            by_overlap.setdefault(trim(t, "last_col"), []).append(t)
        for s in slabs:
            w = trim(s, "first_col")
            for t in by_overlap.get(w, ()):
                found.add(_col_join(s, t))
    if k >= 2:
        slabs = ledger.table(k - 1, l)
        by_overlap = {}
        for t in slabs:
            by_overlap.setdefault(trim(t, "last_row"), []).append(t)
        for s in slabs:
            v = trim(s, "first_row")
            for t in by_overlap.get(v, ()):
                found.add(_row_join(s, t))
    ordered = sorted(found, key=lambda b: b.col_key)
    return [Candidate(b, cls) for b in ordered]


def _col_join(s: Block, t: Block) -> Block:
    """s = a:w and t = w:c overlapping on w; result a:w:c."""
    last = Block(t.m, 1, tuple(t.cells[r * t.n + (t.n - 1)] for r in range(t.m)), t.alphabet)
    return concat(s, last, "cols")


def _row_join(s: Block, t: Block) -> Block:
    """s = e/v and t = v/g overlapping on v; result e/v/g."""
    last = Block(1, t.n, t.cells[-t.n:], t.alphabet)
    return concat(s, last, "rows")


def largest_member_column(k: int, ledger: CountLedger) -> Block:
    """Lexicographically largest k-by-1 block whose interior occurs.

    Only the middle (k-2)-by-1 part constrains membership, so the extremal
    column caps both boundary cells at J-1 around the largest occurring
    middle part.
    """
    top = Block(1, 1, (ledger.alphabet - 1,), ledger.alphabet)
    if k == 1:
        return top
    if k == 2:
        return concat(top, top, "rows")
    mid = max(ledger.table(k - 2, 1), key=lambda b: b.col_key)
    return concat(concat(top, mid, "rows"), top, "rows")


def largest_member_row(l: int, ledger: CountLedger) -> Block:
    """Row analogue of largest_member_column."""
    left = Block(1, 1, (ledger.alphabet - 1,), ledger.alphabet)
    if l == 1:
        return left
    if l == 2:
        return concat(left, left, "cols")
    mid = max(ledger.table(1, l - 2), key=lambda b: b.col_key)
    return concat(concat(left, mid, "cols"), left, "cols")
