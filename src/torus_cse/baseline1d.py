"""Ideal-length bookkeeping for the conventional one-dimensional coder.

Columns of the source block become super-symbols of a circular sequence,
and the classic single-axis scheme is costed over it: every super-symbol
count but one is charged up front, then longer windows go through the
same interval logic the 2D coder uses along its column axis.  Nothing is
emitted; this exists to measure the transmitted-count blow-up against
the 2D walk.

The sequence is the grid's census read once: the full-height column ids of
row 0, themselves a one-row grid whose own ``Census`` counts each window
length and pairs its slabs with ``Census.joins``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import Block, Census, slab_bounds
from .codec import CodewordStats, elias_delta_length, stats
from .errors import CapExceededError

_M_CAP = 8


@dataclass(frozen=True)
class BaselineStats:
    """Ideal section lengths of the conventional coder, in bits."""

    n: int
    l0: float
    l1: float
    l2: float
    l3: float
    transmitted: dict[str, int]
    middle_regime_empty: bool

    @property
    def total(self) -> float:
        return self.l0 + self.l1 + self.l2 + self.l3


def conv_lengths(p: Block) -> BaselineStats:
    """Cost the single-axis scheme on p's column sequence.

    Capped at m <= _M_CAP and a binary cell alphabet: the super-alphabet
    is J^m and the up-front section alone is (J^m - 1) counts, so
    anything taller stops being a desk-scale measurement.
    """
    if p.m > _M_CAP:
        raise CapExceededError(
            f"height {p.m} exceeds the baseline cap {_M_CAP}")
    if p.alphabet != 2:
        raise CapExceededError("baseline measurements are binary only")
    n = p.n
    big_a = p.alphabet ** p.m
    logn = math.log2(n) if n > 1 else 0.0
    l0 = elias_delta_length(n) + math.ceil(logn)
    l1 = (big_a - 1) * logn

    # middle regime: window lengths from 2 up to floor(log2 log2 n)
    cap = 0
    if n >= 4:
        cap = math.floor(math.log2(math.log2(n)) + 1e-9)
    middle_empty = cap < 2

    # the columns as one row of super-symbol ids: full-height column windows
    line = Census(Census(p.to_numpy()).ids(p.m, 1)[:1])
    l2 = l3 = 0.0
    c2 = c3 = 0
    for length in range(2, n + 1):
        a, b, o = line.joins(1, length)
        counts = line.counts(1, length - 1)
        lo, hi, keep = slab_bounds(counts[a], counts[b], o)
        width = hi - lo + 1
        bits, sent = float(np.log2(width[keep]).sum()), int(keep.sum())
        if length <= cap:
            l2 += bits
            c2 += sent
        else:
            l3 += bits
            c3 += sent
    return BaselineStats(n, l0, l1, l2, l3,
                         {"C1": big_a - 1, "C2": c2, "C3": c3}, middle_empty)


@dataclass(frozen=True)
class Comparison:
    """Side by side: conventional single-axis coder vs the 2D walk."""

    baseline: BaselineStats
    codec: CodewordStats

    @property
    def singles_baseline(self) -> int:
        return self.baseline.transmitted["C1"]

    @property
    def singles_codec(self) -> int:
        return self.codec.transmitted["B1"]

    @property
    def total_ratio(self) -> float:
        return self.baseline.total / self.codec.total


def compare(p: Block) -> Comparison:
    """Both pipelines on one block; raises like either side would."""
    return Comparison(conv_lengths(p), stats(p))
