"""Brute-force ground truth at enumerable sizes, and the reference walk.

Everything here trades speed for independence: windows are counted by
direct wrapped reads (``torus_subblock`` is the paper's, at 1-based anchors),
and classes come from grouping the full J^(mn) primitive universe by its
brute-force census, once per shape and window size.  The enumeration guard
refuses anything past ~1M candidate blocks.

``transmitted_records`` is the one reference spec of what the codec sends:
the candidate walk over every size, on a ``Ledger`` of the same brute-force
census.  Each window b of width >= 2 is a:w:c, its first and last columns
around the overlap w, and the slab counts N(a:w), N(w:c) and N(w) hold N(b)
in [max(0, N(a:w) + N(w:c) - N(w)), min(N(a:w), N(w:c))]; heights >= 2
give the row-wise analogue.  ``Ledger.rule`` turns those counts into the
count's fate: ZERO, FORCED, DERIVE, or TRANSMIT in the intersected
interval.  Its records are (k, l, lo, hi, value), the tuples the id-based
``engine`` hands its encoder's sink, and the engine is tested against them
record for record.  How the codec books counts into codeword sections is
its own; nothing here names them, reads ``blocks.Census`` or the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, NamedTuple, Optional

from .blocks import Block
from .errors import (AnchorOutOfRangeError, EmptyBlockError,
                     InconsistentCountsError, NotPrimitiveError,
                     OversizeQueryError, TooLargeError)

_CAP_BITS = 20.0


def _guard(m: int, n: int, alphabet: int) -> None:
    if m * n * math.log2(alphabet) > _CAP_BITS + 1e-9:
        raise TooLargeError(
            f"enumerating {alphabet}^{m * n} blocks exceeds the 2^20 cap")


def _wrap_window(cells, m, n, i, j, k, l):
    return tuple(cells[((i + r) % m) * n + (j + c) % n]
                 for r in range(k) for c in range(l))


def torus_subblock(p: Block, i: int, j: int, k: int, l: int) -> Block:
    """The paper's k-by-l window anchored at 1-based (i, j) of p's tiling.

    Windows up to 2m-by-2n cover everything the doubled block can show, so
    larger ones are refused.  A k-by-0 or 0-by-l window keeps its size as a
    role tag; it equals every other empty block.
    """
    if p.is_empty:
        raise EmptyBlockError("cannot read windows of an empty block")
    if not (1 <= i <= p.m and 1 <= j <= p.n):
        raise AnchorOutOfRangeError(
            f"anchor ({i}, {j}) outside 1..{p.m} x 1..{p.n}")
    if not (0 <= k <= 2 * p.m and 0 <= l <= 2 * p.n):
        raise AnchorOutOfRangeError(f"window {k}x{l} exceeds doubled extent")
    cells = _wrap_window(p.cells, p.m, p.n, i - 1, j - 1, k, l)
    return Block(k, l, cells, p.alphabet)


def _census(cells, m, n, k, l):
    out: dict[tuple, int] = {}
    for i in range(m):
        for j in range(n):
            w = _wrap_window(cells, m, n, i, j, k, l)
            out[w] = out.get(w, 0) + 1
    return out


def _is_primitive_cells(cells, m, n):
    shifts = {_wrap_window(cells, m, n, i, j, m, n)
              for i in range(m) for j in range(n)}
    return len(shifts) == m * n


def all_blocks(m: int, n: int, alphabet: int = 2) -> Iterator[Block]:
    """Every block of one shape, primitive or not, in cell-lexicographic
    order; a shape past the enumeration cap is refused at the call."""
    _guard(m, n, alphabet)
    return (Block(m, n, cells, alphabet)
            for cells in product(range(alphabet), repeat=m * n))


def primitive_blocks(m: int, n: int, alphabet: int = 2) -> Iterator[Block]:
    """All primitive blocks of one shape, in cell-lexicographic order."""
    return (p for p in all_blocks(m, n, alphabet)
            if _is_primitive_cells(p.cells, m, n))


def window_census(p: Block, k: int, l: int) -> dict[Block, int]:
    """Positive size-(k, l) counts of p by direct wrapped scanning."""
    if k < 1 or l < 1 or k > p.m or l > p.n:
        raise OversizeQueryError(f"window {k}x{l} not scannable in {p.m}x{p.n}")
    raw = _census(p.cells, p.m, p.n, k, l)
    return {Block(k, l, w, p.alphabet): c for w, c in raw.items()}


@lru_cache(maxsize=1)
def _primitive_universe(m: int, n: int, alphabet: int) -> tuple[Block, ...]:
    return tuple(primitive_blocks(m, n, alphabet))


def _census_key(cells, m, n, k, l) -> tuple:
    return tuple(sorted(_census(cells, m, n, k, l).items()))


@lru_cache(maxsize=16)
def _census_classes(m: int, n: int, alphabet: int, k: int, l: int
                    ) -> dict[tuple, tuple[Block, ...]]:
    """The primitive universe of one shape grouped by its (k, l) census."""
    groups: dict[tuple, list[Block]] = {}
    for q in _primitive_universe(m, n, alphabet):
        groups.setdefault(_census_key(q.cells, m, n, k, l), []).append(q)
    return {key: tuple(members) for key, members in groups.items()}


def type_class(p: Block, k: int, l: int) -> tuple[Block, ...]:
    """Members match p's full (k, l) count table; (0, 0) means unconstrained."""
    _guard(p.m, p.n, p.alphabet)
    if not (k >= 1 and l >= 1):
        return _primitive_universe(p.m, p.n, p.alphabet)
    if k > p.m or l > p.n:
        raise OversizeQueryError(f"window {k}x{l} exceeds block {p.m}x{p.n}")
    return _census_classes(p.m, p.n, p.alphabet, k, l).get(
        _census_key(p.cells, p.m, p.n, k, l), ())


def lemma1_check(p: Block, k: int, l: int) -> bool:
    """log2 of the class size against the per-window entropy bound.

    The bound sums only positive counts (0 log 0 = 0 convention); float
    comparison gets 1e-9 headroom so the exact-equality case at (m, n)
    survives rounding.
    """
    if k < 1 or l < 1:
        raise OversizeQueryError("the entropy bound needs a nonempty window")
    mn = p.size
    cen = _census(p.cells, p.m, p.n, k, l)
    bound = -(mn / (k * l)) * sum(
        (c / mn) * math.log2(c / mn) for c in cen.values())
    return math.log2(len(type_class(p, k, l))) <= bound + 1e-9


# ---- the reference walk: candidates and their rules ----

TRANSMIT = "transmit"
FORCED = "forced"
ZERO = "zero"
DERIVE = "derive"


class Rule(NamedTuple):
    """How one count reaches the decoder, and the inclusive interval
    [lo, hi] that smaller sizes allow it."""

    kind: str
    lo: int
    hi: int


def coding_order(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Sizes in ascending (height, width) order; parents precede children."""
    return tuple((k, l) for k in range(1, m + 1) for l in range(1, n + 1))


def _view(w: tuple, ax: int) -> tuple:
    """A window (a tuple of rows) as its lines along `ax`: its rows for ax
    0, its columns for ax 1.  Its own inverse."""
    return tuple(zip(*w)) if ax else w


def _joins(slabs) -> set:
    """e/v/g for every pair of views e/v and v/g that agree on v."""
    by_head: dict[tuple, list[tuple]] = {}
    for t in slabs:
        by_head.setdefault(t[:-1], []).append(t)
    return {s + t[-1:] for s in slabs for t in by_head.get(s[1:], ())}


class Ledger:
    """p's windows of every size with their counts, by brute force.

    `tables[(k, l)]` maps each k-by-l window that occurs, a tuple of rows,
    to its count.  `views[ax]` maps the same windows, read as their lines
    along `ax`, to their counts, and the empty window to m*n.  Along an axis
    a window's two slabs are its view less the last or the first line, and
    their overlap is the view less both.
    """

    def __init__(self, p: Block) -> None:
        self.J, self.mn = p.alphabet, p.size
        self.tables: dict[tuple[int, int], dict[tuple, int]] = {}
        self.views: tuple[dict, dict] = ({(): p.size}, {(): p.size})
        for k, l in coding_order(p.m, p.n):
            table = {tuple(w[i:i + l] for i in range(0, k * l, l)): c
                     for w, c in _census(p.cells, p.m, p.n, k, l).items()}
            self.tables[(k, l)] = table
            for w, c in table.items():
                self.views[0][w] = self.views[1][_view(w, 1)] = c

    def count(self, b: Block) -> int:
        """Count of b; an empty window occurs at every anchor."""
        return self.mn if b.is_empty else self.views[0].get(b.rows, 0)

    def parts(self, w: tuple, ax: int) -> tuple[int, int, int]:
        """Counts of w's first slab, second slab and overlap along `ax`."""
        v, seen = _view(w, ax), self.views[ax]
        return seen.get(v[:-1], 0), seen.get(v[1:], 0), seen.get(v[1:-1], 0)

    def interval(self, w: tuple, ax: int) -> tuple[int, int]:
        """Bounds on w's count from its two slabs and overlap along `ax`."""
        a, b, o = self.parts(w, ax)
        return max(0, a + b - o), min(a, b)

    def candidates(self, k: int, l: int) -> list[tuple]:
        """Every symbol at (1, 1); elsewhere the joins of two occurring slabs
        along either axis, in canonical column-major order."""
        if k == l == 1:
            return [((s,),) for s in range(self.J)]
        found: set = set()
        for ax, slab in ((0, (k - 1, l)), (1, (k, l - 1))):
            if min(slab) >= 1:
                found |= {_view(j, ax) for j in _joins(
                    [_view(s, ax) for s in self.tables[slab]])}
        return sorted(found, key=lambda w: _view(w, 1))

    def extremal(self, ax: int, length: int) -> tuple:
        """The largest line of `length` cells along `ax` whose interior
        occurs: J-1 at both ends around the largest occurring interior."""
        top = (self.J - 1,)
        if length <= 2:
            return top * length
        inner = self.tables[(length - 2, 1) if ax else (1, length - 2)]
        return top + max(sum(w, ()) for w in inner) + top

    def rule(self, w: tuple) -> Rule:
        """Classify w's count, judging from smaller sizes only.

        A size-(1, 1) count is transmitted, bar the top symbol's.  Elsewhere,
        along each axis where w is at least two lines long: a slab that
        never occurs makes the count ZERO; a slab that fills its overlap
        makes it FORCED; w's first or last line being the extremal one leaves
        it to DERIVE from its family sums.  A count none of these catch is
        transmitted in the intersection of the axis intervals.
        """
        k, l = len(w), len(w[0])
        if k == l == 1:
            kind = DERIVE if w[0][0] == self.J - 1 else TRANSMIT
            return Rule(kind, 0, self.mn - 1)
        axes = [ax for ax, length in ((1, l), (0, k)) if length >= 2]
        parts = [self.parts(w, ax) for ax in axes]
        bounds = [self.interval(w, ax) for ax in axes]
        lo, hi = max(b[0] for b in bounds), min(b[1] for b in bounds)
        if hi == 0:
            return Rule(ZERO, lo, hi)
        if any(o - max(a, b) < 1 for a, b, o in parts):
            return Rule(FORCED, lo, hi)
        for ax in axes:
            v = _view(w, ax)
            if self.extremal(ax, len(v[0])) in (v[0], v[-1]):
                return Rule(DERIVE, lo, hi)
        return Rule(TRANSMIT, lo, hi)


def _schedule(p: Block, passive_last: bool):
    """B(p) walk order: (block, rule) pairs, the empty block first with no
    rule.

    Every rule is judged from p's true counts.  A size's rules read only
    smaller sizes, so this is what a decoder that has rebuilt those sizes
    decides too.  passive_last moves every non-transmitted candidate behind
    the transmitted ones of its own size; whatever a derived count needs is
    still in place by then, so both orders constrain the same sets.
    """
    led = Ledger(p)
    out: list[tuple[Optional[Block], Optional[Rule]]] = [(None, None)]
    for k, l in coding_order(p.m, p.n):
        size_steps = [(Block(k, l, sum(w, ()), p.alphabet), led.rule(w))
                      for w in led.candidates(k, l)]
        if passive_last:
            size_steps.sort(key=lambda step: step[1].kind != TRANSMIT)
        out.extend(size_steps)
    return led, out


def transmitted_records(p: Block) -> list[tuple[int, int, int, int, int]]:
    """Reference list of p's range-coded counts, in walk order.

    Each record is (k, l, lo, hi, value): the window size, the inclusive
    interval the count is coded in, and the true count, one tuple per
    count of the batches the engine's encoder hands its `sink`.  How the
    counts are booked is the codec's business.  No enumeration guard
    applies; the walk reads only p's own windows.
    """
    if p.m < 2 or p.n < 2:
        raise NotPrimitiveError("coding needs both dimensions >= 2")
    if not _is_primitive_cells(p.cells, p.m, p.n):
        raise NotPrimitiveError("block is not primitive")
    led, sched = _schedule(p, passive_last=False)
    return [(b.m, b.n, d.lo, d.hi, led.count(b))
            for b, d in sched[1:] if d.kind == TRANSMIT]


def prefix_blocks(p: Block) -> tuple[Optional[Block], ...]:
    """The canonical candidate order b_1, b_2, ... (b_1 is the empty block)."""
    _guard(p.m, p.n, p.alphabet)
    _, sched = _schedule(p, passive_last=False)
    return tuple(b for b, _ in sched)


@dataclass(frozen=True)
class RatioStep:
    """One constraint: how far it shrank the surviving class."""

    block: Optional[Block]
    transmitted: bool
    before: int
    after: int

    @property
    def bits(self) -> float:
        return math.log2(self.before) - math.log2(self.after)


def _run_prefix(p: Block, upto: Optional[int], passive_last: bool):
    """Filter the primitive universe through the first `upto` constraints."""
    _guard(p.m, p.n, p.alphabet)
    led, sched = _schedule(p, passive_last)
    if upto is None:
        upto = len(sched)
    if not 0 <= upto <= len(sched):
        raise OversizeQueryError(
            f"prefix {upto} out of range 0..{len(sched)}")
    members = [q.cells for q in _primitive_universe(p.m, p.n, p.alphabet)]
    steps: list[RatioStep] = []
    censuses: dict[tuple, dict[tuple, int]] = {}
    cen_size: Optional[tuple[int, int]] = None
    for b, d in sched[:upto]:
        transmitted = d is not None and d.kind == TRANSMIT
        if b is None:
            # empty window: every torus scores mn, nothing to filter
            steps.append(RatioStep(None, transmitted,
                                   len(members), len(members)))
            continue
        size = (b.m, b.n)
        if size != cen_size:
            censuses = {q: _census(q, p.m, p.n, b.m, b.n) for q in members}
            cen_size = size
        want = led.count(b)
        before = len(members)
        members = [q for q in members
                   if censuses[q].get(b.cells, 0) == want]
        steps.append(RatioStep(b, transmitted, before, len(members)))
    return members, steps


def prefix_class(p: Block, i: int) -> tuple[Block, ...]:
    """Members match p's counts on the first i canonical candidates."""
    members, _ = _run_prefix(p, i, passive_last=False)
    return tuple(Block(p.m, p.n, cells, p.alphabet) for cells in members)


def lemma2_violations(p: Block) -> list[str]:
    """Non-transmitted steps that shrank the class; empty means the sweep holds."""
    _, steps = _run_prefix(p, None, passive_last=False)
    return [f"{s.block!r} shrank {s.before} -> {s.after}"
            for s in steps if not s.transmitted and s.after != s.before]


@dataclass(frozen=True)
class RatioReport:
    """Exact-ratio ideal lengths over the full candidate walk, split as
    the paper splits the codeword: the (1, 1) counts and every larger
    size."""

    source: Block
    steps: tuple[RatioStep, ...]
    small_class_size: int  # survivors once every (1, 1) constraint is in

    @property
    def l1(self) -> float:
        return sum(s.bits for s in self.steps
                   if s.transmitted and s.block.size == 1)

    @property
    def l3(self) -> float:
        return sum(s.bits for s in self.steps
                   if s.transmitted and s.block.size > 1)

    @property
    def l3_identity(self) -> float:
        """log2 |T(p, K, L)| - log2 mn, the telescoped form."""
        return math.log2(self.small_class_size) - math.log2(self.source.size)


def exact_ratio_lengths(p: Block, passive_last: bool = False) -> RatioReport:
    """Ideal per-step lengths -log2(|T_i| / |T_{i-1}|), checked exactly.

    Raises when the telescoping breaks: a non-transmitted step shrinking
    the class, a final class other than the mn shifts, or a transmitted-
    ratio product past (1, 1) that misses mn / |T(p,K,L)|.
    """
    members, steps = _run_prefix(p, None, passive_last)
    if len(members) != p.size:
        raise InconsistentCountsError(
            f"full constraint left {len(members)} members, expected {p.size}")
    larger = [s for s in steps if s.block is not None and s.block.size > 1]
    small = larger[0].before if larger else len(members)
    prod = Fraction(1)
    for s in larger:
        if s.transmitted:
            prod *= Fraction(s.after, s.before)
        elif s.after != s.before:
            raise InconsistentCountsError(
                f"silent step shrank the class at {s.block!r}")
    if prod != Fraction(p.size, small):
        raise InconsistentCountsError(
            f"transmitted ratios telescope to {prod}, "
            f"expected {Fraction(p.size, small)}")
    return RatioReport(p, tuple(steps), small)
