"""Brute-force ground truth at enumerable sizes, and the reference walk.

Everything here trades speed for independence: windows are counted by
direct wrapped comparison, and classes come from grouping the full J^(mn)
primitive universe by its brute-force census, once per shape and window
size.  The enumeration guard refuses anything past ~1M candidate blocks.

``transmitted_records`` is the one reference spec of what the codec sends:
the candidate walk over every size, with each candidate's disposition and
value read off the block's own ledger.  The id-based ``engine`` is tested
against it record for record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional

from .blocks import Block
from .counting import B1, B2, B3, build_ledger, candidates, coding_order
from .errors import (InconsistentCountsError, NotPrimitiveError,
                     OversizeQueryError, TooLargeError)
from .inference import TRANSMIT, Disposition, disposition

B0 = "B0"

_CAP_BITS = 20.0


def _guard(m: int, n: int, alphabet: int) -> None:
    if m * n * math.log2(alphabet) > _CAP_BITS + 1e-9:
        raise TooLargeError(
            f"enumerating {alphabet}^{m * n} blocks exceeds the 2^20 cap")


def _wrap_window(cells, m, n, i, j, k, l):
    return tuple(cells[((i + r) % m) * n + (j + c) % n]
                 for r in range(k) for c in range(l))


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


def primitive_blocks(m: int, n: int, alphabet: int = 2) -> Iterator[Block]:
    """All primitive blocks of one shape, in cell-lexicographic order."""
    _guard(m, n, alphabet)
    for cells in product(range(alphabet), repeat=m * n):
        if _is_primitive_cells(cells, m, n):
            yield Block(m, n, cells, alphabet)


def window_census(p: Block, k: int, l: int) -> dict[Block, int]:
    """Positive size-(k, l) counts of p by direct wrapped scanning."""
    if k < 1 or l < 1 or k > p.m or l > p.n:
        raise OversizeQueryError(f"window {k}x{l} not scannable in {p.m}x{p.n}")
    raw = _census(p.cells, p.m, p.n, k, l)
    return {Block(k, l, w, p.alphabet): c for w, c in raw.items()}


@dataclass(frozen=True)
class TypeClass:
    """Primitive same-shape blocks indistinguishable under one constraint."""

    source: Block
    constraint: tuple  # ("size", k, l) or ("prefix", i)
    members: tuple[Block, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, q: Block) -> bool:
        return q in self.members


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


def type_class(p: Block, k: int, l: int) -> TypeClass:
    """Members match p's full (k, l) count table; (0, 0) means unconstrained."""
    _guard(p.m, p.n, p.alphabet)
    if not (k >= 1 and l >= 1):
        members = _primitive_universe(p.m, p.n, p.alphabet)
    elif k > p.m or l > p.n:
        raise OversizeQueryError(f"window {k}x{l} exceeds block {p.m}x{p.n}")
    else:
        members = _census_classes(p.m, p.n, p.alphabet, k, l).get(
            _census_key(p.cells, p.m, p.n, k, l), ())
    return TypeClass(p, ("size", k, l), members)


def lemma1_check(p: Block, k: int, l: int) -> bool:
    """log2 of the class size against the per-window entropy bound.

    The bound sums only positive counts (0 log 0 = 0 convention); float
    comparison gets 1e-9 headroom so the exact-equality case at (m, n)
    survives rounding.
    """
    if k < 1 or l < 1:
        raise OversizeQueryError("the entropy bound needs a nonempty window")
    tc = type_class(p, k, l)
    mn = p.size
    cen = _census(p.cells, p.m, p.n, k, l)
    bound = -(mn / (k * l)) * sum(
        (c / mn) * math.log2(c / mn) for c in cen.values())
    return math.log2(len(tc)) <= bound + 1e-9


# ---- candidate schedule and prefix classes ----

def _schedule(p: Block, passive_last: bool):
    """B(p) walk order: (block, cls, disposition) triples, empty block first.

    Every disposition is judged from the true ledger.  A size's rules read
    only smaller sizes, so this is what a decoder that has rebuilt those
    sizes decides too.  passive_last moves every non-transmitted candidate
    behind the transmitted ones of its own size; whatever a derived count
    needs is still in place by then, so both orders constrain the same sets.
    """
    led = build_ledger(p)
    out: list[tuple[Optional[Block], str, Optional[Disposition]]] = [
        (None, B0, None)]
    for k, l in coding_order(p.m, p.n):
        size_steps = [(cand.block, cand.cls, disposition(cand.block, led))
                      for cand in candidates(k, l, led)]
        if passive_last:
            size_steps.sort(key=lambda step: step[2].kind != TRANSMIT)
        out.extend(size_steps)
    return led, out


def transmitted_records(p: Block) -> list[tuple[int, int, str, int, int, int]]:
    """Reference list of p's range-coded counts, in walk order.

    Each record is (k, l, cls, lo, hi, value): the window size, its class,
    the inclusive interval the count is coded in, and the true count.  No
    enumeration guard applies; the walk reads only p's own ledger.
    """
    if p.m < 2 or p.n < 2:
        raise NotPrimitiveError("coding needs both dimensions >= 2")
    if not _is_primitive_cells(p.cells, p.m, p.n):
        raise NotPrimitiveError("block is not primitive")
    led, sched = _schedule(p, passive_last=False)
    return [(b.m, b.n, cls, d.interval.lo, d.interval.hi, led.count_of(b))
            for b, cls, d in sched if d is not None and d.kind == TRANSMIT]


def prefix_blocks(p: Block) -> tuple[Optional[Block], ...]:
    """The canonical candidate order b_1, b_2, ... (b_1 is the empty block)."""
    _guard(p.m, p.n, p.alphabet)
    _, sched = _schedule(p, passive_last=False)
    return tuple(b for b, _, _ in sched)


@dataclass(frozen=True)
class RatioStep:
    """One constraint: how far it shrank the surviving class."""

    block: Optional[Block]
    cls: str
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
    members = [cells for cells in product(range(p.alphabet), repeat=p.size)
               if _is_primitive_cells(cells, p.m, p.n)]
    steps: list[RatioStep] = []
    censuses: dict[tuple, dict[tuple, int]] = {}
    cen_size: Optional[tuple[int, int]] = None
    for b, cls, d in sched[:upto]:
        transmitted = d is not None and d.kind == TRANSMIT
        if b is None:
            # empty window: every torus scores mn, nothing to filter
            steps.append(RatioStep(None, cls, transmitted,
                                   len(members), len(members)))
            continue
        size = (b.m, b.n)
        if size != cen_size:
            censuses = {q: _census(q, p.m, p.n, b.m, b.n) for q in members}
            cen_size = size
        want = led.count_of(b)
        before = len(members)
        members = [q for q in members
                   if censuses[q].get(b.cells, 0) == want]
        steps.append(RatioStep(b, cls, transmitted, before, len(members)))
    return members, steps


def prefix_class(p: Block, i: int) -> TypeClass:
    """Members match p's counts on the first i canonical candidates."""
    members, _ = _run_prefix(p, i, passive_last=False)
    blocks = tuple(Block(p.m, p.n, cells, p.alphabet) for cells in members)
    return TypeClass(p, ("prefix", i), blocks)


def lemma2_violations(p: Block, passive_last: bool = False) -> list[str]:
    """Non-transmitted steps that shrank the class; empty means the sweep holds."""
    _, steps = _run_prefix(p, None, passive_last)
    return [f"{s.block!r} ({s.cls}) shrank {s.before} -> {s.after}"
            for s in steps if not s.transmitted and s.after != s.before]


@dataclass(frozen=True)
class RatioReport:
    """Exact-ratio ideal lengths over the full candidate walk."""

    source: Block
    steps: tuple[RatioStep, ...]
    small_class_size: int  # survivors once every B1/B2 constraint is in

    def _cls_sum(self, cls: str) -> float:
        return sum(s.bits for s in self.steps if s.transmitted and s.cls == cls)

    @property
    def l1(self) -> float:
        return self._cls_sum(B1)

    @property
    def l2(self) -> float:
        return self._cls_sum(B2)

    @property
    def l3(self) -> float:
        return self._cls_sum(B3)

    @property
    def l3_identity(self) -> float:
        """log2 |T(p, K, L)| - log2 mn, the telescoped form."""
        return math.log2(self.small_class_size) - math.log2(self.source.size)


def exact_ratio_lengths(p: Block, passive_last: bool = False) -> RatioReport:
    """Ideal per-step lengths -log2(|T_i| / |T_{i-1}|), checked exactly.

    Raises when the telescoping breaks: a non-transmitted step shrinking
    the class, a final class other than the mn shifts, or a transmitted-
    ratio product that misses mn / |T(p,K,L)|.
    """
    members, steps = _run_prefix(p, None, passive_last)
    if len(members) != p.size:
        raise InconsistentCountsError(
            f"full constraint left {len(members)} members, expected {p.size}")
    small = None
    prod = Fraction(1)
    for s in steps:
        if s.cls == B3:
            if small is None:
                small = s.before
            if s.transmitted:
                prod *= Fraction(s.after, s.before)
            elif s.after != s.before:
                raise InconsistentCountsError(
                    f"silent step shrank the class at {s.block!r}")
        elif small is not None and s.cls in (B1, B2):
            raise InconsistentCountsError("schedule interleaves B1/B2 after B3")
    if small is None:
        small = len(members)
    if prod != Fraction(p.size, small):
        raise InconsistentCountsError(
            f"transmitted ratios telescope to {prod}, "
            f"expected {Fraction(p.size, small)}")
    return RatioReport(p, tuple(steps), small)
