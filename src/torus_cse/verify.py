"""Verification suites: round-trip sweeps, census identities, interval checks.

The interval sweep reads its candidates off ``Census.joins``, the slab
pairs of every size along the census's column axis, and finds each joined
pair's true count among ``Census.keys``, which rank exactly those pairs;
the grid's transpose covers the row axis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import (Block, Census, _find, check_alphabet, from_numpy,
                     is_primitive, slab_bounds)
from .codec import compress, decompress
from .errors import TorusCseError
from .oracle import (all_blocks, lemma1_check, lemma2_violations,
                     primitive_blocks)

_MAX_FAILURES = 8


@dataclass
class VerifyReport:
    """One suite run: what was checked and what broke."""

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures

    def note(self, message: str) -> None:
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(message)
        elif len(self.failures) == _MAX_FAILURES:
            self.failures.append("... more failures suppressed")

    def line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        out = f"{self.name}: {verdict} ({self.checked} checks, {self.elapsed:.1f}s)"
        for msg in self.failures:
            out += f"\n  {msg}"
        return out


def _round_trip(rep: VerifyReport, label: object, p: Block) -> None:
    """Count one round trip of p; a failure is noted under str(label)."""
    try:
        if decompress(compress(p)) != p:
            rep.note(f"{label}: round trip changed the block")
    except TorusCseError as exc:
        rep.note(f"{label}: {type(exc).__name__}: {exc}")
    rep.checked += 1


def run_exhaustive(m: int, n: int, alphabet: int = 2) -> VerifyReport:
    """Round-trip every block of one shape, up to the oracle's 2^20 cap."""
    check_alphabet(alphabet)
    blocks = all_blocks(m, n, alphabet)  # refuses a shape past the cap
    rep = VerifyReport(f"exhaustive {m}x{n} J={alphabet}")
    t0 = time.time()
    for p in blocks:
        _round_trip(rep, p.cells, p)
    rep.elapsed = time.time() - t0
    return rep


def run_random(count: int = 500, max_side: int = 32,
               seed: int = 0) -> VerifyReport:
    """Seeded random blocks, J in (2, 4, 16), degenerate shapes included."""
    rep = VerifyReport(f"random count={count} max={max_side}")
    t0 = time.time()
    rng = np.random.default_rng(seed)
    for trial in range(count):
        alphabet = int(rng.choice((2, 4, 16)))
        m = int(rng.integers(1, max_side + 1))
        n = int(rng.integers(1, max_side + 1))
        p = from_numpy(rng.integers(0, alphabet, size=(m, n)), alphabet=alphabet)
        _round_trip(rep, f"trial {trial} ({m}x{n} J={alphabet})", p)
    rep.elapsed = time.time() - t0
    return rep


def run_lemmas(m: int = 3, n: int = 3, alphabet: int = 2) -> VerifyReport:
    """Both enumeration lemmas over every primitive block of one shape."""
    check_alphabet(alphabet)
    rep = VerifyReport(f"lemmas {m}x{n} J={alphabet}")
    t0 = time.time()
    for p in primitive_blocks(m, n, alphabet):
        for k in range(1, m + 1):
            for l in range(1, n + 1):
                if not lemma1_check(p, k, l):
                    rep.note(f"{p.cells}: class bound broken at ({k},{l})")
                rep.checked += 1
        for msg in lemma2_violations(p):
            rep.note(f"{p.cells}: {msg}")
        rep.checked += 1
    rep.elapsed = time.time() - t0
    return rep


def check_count_identities(p: Block) -> list[str]:
    """Sum and directional identities over every size of p's census."""
    return census_identities(Census(p.to_numpy()))


def census_identities(census: Census) -> list[str]:
    """Violations of the sum identity and the four trim identities.

    Each (k, l+1) id adds its count to two (k, l) ids: the one at its first
    anchor (its last column dropped) and the one a column to the right of
    that anchor (its first column dropped).  Either way the sums must give
    the (k, l) counts.  Rows work the same way with (k+1, l).
    """
    m, n, mn = census.m, census.n, census.m * census.n
    bad: list[str] = []
    for k in range(1, m + 1):
        for l in range(1, n + 1):
            counts = census.counts(k, l)
            total = int(counts.sum())
            if total != mn:
                bad.append(f"size ({k},{l}): counts sum to {total}, expected {mn}")
            ids = census.ids(k, l)
            for ext, axis, names in (((k, l + 1), 1, ("right column", "left column")),
                                     ((k + 1, l), 0, ("bottom row", "top row"))):
                if ext[0] > m or ext[1] > n:
                    continue
                first = census.first_anchors(*ext)
                ext_counts = census.counts(*ext)
                for shift, name in zip((0, -1), names):
                    parent = np.roll(ids, shift, axis=axis).ravel()[first]
                    sums = np.bincount(parent, weights=ext_counts,
                                       minlength=len(counts))
                    broken = np.flatnonzero(sums != counts)
                    if len(broken):
                        bad.append(f"size ({k},{l}): {name} extension sum "
                                   f"breaks at id {broken[0]}")
    return bad


def census_soundness(census: Census, axis_name: str) -> tuple[int, list[str]]:
    """Feasibility checks for every column join of occurring slabs.

    Candidates here always have both slabs occurring; joins whose other-
    axis slabs are missing can only count zero and need no interval, so
    running this on the grid's census and on its transpose's covers every
    case the coder distinguishes.  Returns (checks made, violations).
    """
    checked = 0
    bad: list[str] = []
    for k in range(1, census.m + 1):
        for l in range(2, census.n + 1):
            a, b, co = census.joins(k, l)
            if not len(a):
                bad.append(f"{axis_name} ({k},{l}): no joinable slabs")
                break
            prev_cnt = census.counts(k, l - 1)
            ca = prev_cnt[a]
            cb = prev_cnt[b]
            pos, found = _find(census.keys(k, l), a * len(prev_cnt) + b)
            true = np.where(found, census.counts(k, l)[pos], 0)
            lo, hi, open_ = slab_bounds(ca, cb, co)
            out = (true < lo) | (true > hi)
            if out.any():
                i = int(np.flatnonzero(out)[0])
                bad.append(f"{axis_name} ({k},{l}): count {true[i]} outside "
                           f"[{lo[i]}, {hi[i]}]")
            miss = ~open_ & (true != hi)
            if miss.any():
                i = int(np.flatnonzero(miss)[0])
                bad.append(f"{axis_name} ({k},{l}): condition failed but "
                           f"count {true[i]} != min {hi[i]}")
            checked += len(a)
    return checked, bad


def check_interval_soundness(p: Block) -> tuple[int, list[str]]:
    """Every candidate count inside its feasibility interval, both axes."""
    grid = p.to_numpy()
    checked, bad = census_soundness(Census(grid), "cols")
    rows_checked, rows_bad = census_soundness(Census(grid.T), "rows")
    return checked + rows_checked, bad + rows_bad


def corpus_blocks(count: int = 100, max_side: int = 16,
                  seed: int = 100) -> list[Block]:
    """Seeded binary primitive blocks for the ledger and interval criteria."""
    rng = np.random.default_rng(seed)
    out: list[Block] = []
    while len(out) < count:
        m = int(rng.integers(2, max_side + 1))
        n = int(rng.integers(2, max_side + 1))
        p = from_numpy(rng.integers(0, 2, size=(m, n)), alphabet=2)
        if is_primitive(p):
            out.append(p)
    return out
