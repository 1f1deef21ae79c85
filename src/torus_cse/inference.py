"""Disposition rules: how each window's count reaches the decoder.

Every window b at a size with width >= 2 splits as a:w:c where a and c are
its first and last columns and w the overlap; the two slab counts N(a:w) and
N(w:c) plus the overlap count N(w) bound N(b) inside a feasibility interval.
Heights >= 2 give the row-wise analogue.  A window's count is transmitted
(uniformly inside the intersected interval) only when, on every available
axis, all four slack terms are positive and the window avoids the extremal
first/last slab; otherwise the count is forced, zero, or recoverable from
family sums.

The rules are written out on real ``Block`` objects, judged from a
``CountLedger`` of smaller sizes.  ``oracle`` applies them along the whole
candidate walk to give the reference list of transmitted counts that the
id-based ``engine`` is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .blocks import Block, interior_cols, interior_rows, trim
from .counting import CountLedger, largest_member_column, largest_member_row
from .errors import AxisUnavailableError, EmptyBlockError


@dataclass(frozen=True)
class Interval:
    """Inclusive integer interval of feasible counts."""

    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, v: int) -> bool:
        return self.lo <= v <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))


TRANSMIT = "transmit"
FORCED = "forced"
ZERO = "zero"
DERIVE = "derive"


@dataclass(frozen=True)
class Disposition:
    """How one window's count reaches the decoder."""

    kind: str
    interval: Optional[Interval] = None  # transmit only
    value: Optional[int] = None  # forced / zero
    axis: Optional[str] = None  # derive only


def _col_parts(b: Block, ledger: CountLedger) -> tuple[int, int, int]:
    if b.n < 2:
        raise AxisUnavailableError("width < 2: no column split")
    n_aw = ledger.count_of(trim(b, "last_col"))
    n_wc = ledger.count_of(trim(b, "first_col"))
    n_w = ledger.count_of(interior_cols(b))
    return n_aw, n_wc, n_w


def _row_parts(b: Block, ledger: CountLedger) -> tuple[int, int, int]:
    if b.m < 2:
        raise AxisUnavailableError("height < 2: no row split")
    n_ev = ledger.count_of(trim(b, "last_row"))
    n_vg = ledger.count_of(trim(b, "first_row"))
    n_v = ledger.count_of(interior_rows(b))
    return n_ev, n_vg, n_v


def feasible_interval(b: Block, ledger: CountLedger, axis: str) -> Interval:
    """Bounds on N(b) from the two overlapping slabs along one axis."""
    first, second, overlap = (_col_parts if axis == "cols" else _row_parts)(b, ledger)
    return Interval(max(0, first + second - overlap), min(first, second))


def transmit_interval(b: Block, ledger: CountLedger) -> Interval:
    """Intersection of the feasibility intervals over the available axes."""
    if b.m == 1 and b.n == 1:
        return Interval(0, ledger.total - 1)
    iv: Optional[Interval] = None
    if b.n >= 2:
        iv = feasible_interval(b, ledger, "cols")
    if b.m >= 2:
        row_iv = feasible_interval(b, ledger, "rows")
        iv = row_iv if iv is None else iv.intersect(row_iv)
    assert iv is not None
    return iv


def disposition(b: Block, ledger: CountLedger) -> Disposition:
    """Classify one window at its size, judging only from smaller tables."""
    if b.is_empty:
        raise EmptyBlockError("empty windows are never coded")
    k, l = b.m, b.n
    if k == 1 and l == 1:
        if b.cells[0] == ledger.alphabet - 1:
            return Disposition(DERIVE)
        return Disposition(TRANSMIT, interval=Interval(0, ledger.total - 1))

    axes: list[tuple[str, tuple[int, int, int]]] = []
    if l >= 2:
        axes.append(("cols", _col_parts(b, ledger)))
    if k >= 2:
        axes.append(("rows", _row_parts(b, ledger)))

    for _, (first, second, _) in axes:
        if first == 0 or second == 0:
            return Disposition(ZERO, value=0)
    for _, (first, second, overlap) in axes:
        if min(overlap - first, overlap - second) < 1:
            return Disposition(FORCED, value=min(first, second))
    if l >= 2:
        x_col = largest_member_column(k, ledger)
        if _column(b, 0) == x_col or _column(b, l - 1) == x_col:
            return Disposition(DERIVE, axis="cols")
    if k >= 2:
        x_row = largest_member_row(l, ledger)
        if _row(b, 0) == x_row or _row(b, k - 1) == x_row:
            return Disposition(DERIVE, axis="rows")
    return Disposition(TRANSMIT, interval=transmit_interval(b, ledger))


def _column(b: Block, j: int) -> Block:
    return Block(b.m, 1, tuple(b.cells[r * b.n + j] for r in range(b.m)), b.alphabet)


def _row(b: Block, i: int) -> Block:
    return Block(1, b.n, b.cells[i * b.n:(i + 1) * b.n], b.alphabet)
