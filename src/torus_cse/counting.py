"""Occurrence counting for torus windows, and the candidate machinery.

The ledger maps every window size (k, l) with 1 <= k <= m, 1 <= l <= n to the
finite table of windows that actually occur, with their anchor counts, read
off the grid's ``Census``.  Three exact identities tie the tables together and
are what the decoder later exploits (``verify.check_count_identities`` checks
them on the census ids):

* the counts at any single size sum to m*n;
* dropping the last column groups a size's counts into families that sum to
  the parent's count, and likewise for the first column;
* the same holds row-wise.

``candidates`` enumerates, for one size, every window whose count could be
nonzero judging only from smaller sizes: joins of overlapping positive slabs
along either axis.  The reference walk in ``oracle`` and the id-space walk in
``engine`` both visit exactly this set; enumerating it from finalized smaller
tables (never from the block itself) keeps the encoder and decoder in
lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .blocks import Block, Census, concat, trim
from .errors import EmptyBlockError, LedgerIncompleteError


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


def build_ledger(p: Block) -> CountLedger:
    """Full ledger of p: one block per census id, read at its first anchor."""
    if p.is_empty:
        raise EmptyBlockError("cannot build a ledger for an empty block")
    census = Census(p.to_numpy())
    led = CountLedger(p.m, p.n, p.alphabet)
    for k in range(1, p.m + 1):
        for l in range(1, p.n + 1):
            led.set_table(k, l, {
                Block(k, l, cells, p.alphabet): int(c)
                for cells, c in zip(census.windows(k, l), census.counts(k, l))})
    return led


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


def coding_order(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Sizes in ascending (height, width) order; parents precede children."""
    return tuple((k, l) for k in range(1, m + 1) for l in range(1, n + 1))


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
