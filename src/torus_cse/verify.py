"""Verification suites: round-trip sweeps, ledger identities, interval checks."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import Block, Census, from_numpy, is_primitive
from .codec import compress, decompress
from .counting import build_ledger, verify_identities
from .errors import TorusCseError
from .oracle import lemma1_check, lemma2_violations, primitive_blocks

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


def run_exhaustive(m: int, n: int, alphabet: int = 2) -> VerifyReport:
    """Round-trip every block of one shape through the codec."""
    rep = VerifyReport(f"exhaustive {m}x{n} J={alphabet}")
    t0 = time.time()
    for cells in itertools.product(range(alphabet), repeat=m * n):
        p = Block(m, n, cells, alphabet)
        try:
            back = decompress(compress(p))
        except TorusCseError as exc:
            rep.note(f"{cells}: {type(exc).__name__}: {exc}")
        else:
            if back != p:
                rep.note(f"{cells}: round trip changed the block")
        rep.checked += 1
    rep.elapsed = time.time() - t0
    return rep


def run_random(count: int = 500, max_side: int = 32, seed: int = 0,
               alphabets: tuple[int, ...] = (2, 4, 16)) -> VerifyReport:
    """Seeded random blocks, degenerate shapes included."""
    rep = VerifyReport(f"random count={count} max={max_side}")
    t0 = time.time()
    rng = np.random.default_rng(seed)
    for trial in range(count):
        alphabet = int(rng.choice(alphabets))
        m = int(rng.integers(1, max_side + 1))
        n = int(rng.integers(1, max_side + 1))
        p = from_numpy(rng.integers(0, alphabet, size=(m, n)), alphabet=alphabet)
        try:
            back = decompress(compress(p))
        except TorusCseError as exc:
            rep.note(f"trial {trial} ({m}x{n} J={alphabet}): "
                     f"{type(exc).__name__}: {exc}")
        else:
            if back != p:
                rep.note(f"trial {trial} ({m}x{n} J={alphabet}): mismatch")
        rep.checked += 1
    rep.elapsed = time.time() - t0
    return rep


def run_lemmas(m: int = 3, n: int = 3, alphabet: int = 2) -> VerifyReport:
    """Both enumeration lemmas over every primitive block of one shape."""
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
    """Sum and directional identities over the full ledger of p."""
    return verify_identities(build_ledger(p))


def _axis_soundness(census: Census, axis_name: str, bad: list[str]) -> int:
    """Feasibility checks for every same-axis join of occurring slabs.

    Candidates here always have both slabs occurring; joins whose other-
    axis slabs are missing can only count zero and need no interval, so
    running this on the grid and on its transpose covers every case the
    coder distinguishes.
    """
    m, n = census.m, census.n
    mn = m * n
    checked = 0
    for k in range(1, m + 1):
        for l in range(2, n + 1):
            prev_ids, prev_cnt = census.ids(k, l - 1), census.counts(k, l - 1)
            s = len(prev_cnt)
            if l == 2:
                a = np.repeat(np.arange(s), s)
                b = np.tile(np.arange(s), s)
                co = np.full(s * s, mn, dtype=np.int64)
            else:
                prev2_ids, prev2_cnt = census.ids(k, l - 2), census.counts(k, l - 2)
                first_anchor = census.first_anchors(k, l - 1)
                pre = prev2_ids.ravel()[first_anchor]
                suf = np.roll(prev2_ids, -1, axis=1).ravel()[first_anchor]
                parts_a, parts_b, parts_o = [], [], []
                for o in range(len(prev2_cnt)):
                    aa = np.flatnonzero(suf == o)
                    bb = np.flatnonzero(pre == o)
                    if len(aa) and len(bb):
                        parts_a.append(np.repeat(aa, len(bb)))
                        parts_b.append(np.tile(bb, len(aa)))
                        parts_o.append(np.full(len(aa) * len(bb),
                                               prev2_cnt[o], dtype=np.int64))
                if not parts_a:
                    bad.append(f"{axis_name} ({k},{l}): no joinable slabs")
                    break
                a = np.concatenate(parts_a)
                b = np.concatenate(parts_b)
                co = np.concatenate(parts_o)
            ca = prev_cnt[a]
            cb = prev_cnt[b]
            # the (k, l) ids ascend with their (first, last) slab-id pairs
            joins = (prev_ids * s + np.roll(prev_ids, -1, axis=1)).ravel()
            uk = joins[census.first_anchors(k, l)]
            uc = census.counts(k, l)
            pos = np.searchsorted(uk, a * s + b)
            pos[pos >= len(uk)] = 0
            true = np.where(uk[pos] == a * s + b, uc[pos], 0)
            lo = np.maximum(0, ca + cb - co)
            hi = np.minimum(ca, cb)
            out = (true < lo) | (true > hi)
            if out.any():
                i = int(np.flatnonzero(out)[0])
                bad.append(f"{axis_name} ({k},{l}): count {true[i]} outside "
                           f"[{lo[i]}, {hi[i]}]")
            forced = np.minimum(np.minimum(ca, cb),
                                np.minimum(co - ca, co - cb)) < 1
            miss = forced & (true != hi)
            if miss.any():
                i = int(np.flatnonzero(miss)[0])
                bad.append(f"{axis_name} ({k},{l}): condition failed but "
                           f"count {true[i]} != min {hi[i]}")
            checked += len(a)
    return checked


def check_interval_soundness(p: Block) -> tuple[int, list[str]]:
    """Every candidate count inside its feasibility interval, both axes."""
    grid = p.to_numpy()
    bad: list[str] = []
    checked = _axis_soundness(Census(grid), "cols", bad)
    checked += _axis_soundness(Census(grid.T), "rows", bad)
    return checked, bad


def corpus_blocks(count: int = 100, max_side: int = 16,
                  seed: int = 100, alphabet: int = 2) -> list[Block]:
    """Seeded primitive blocks for the ledger and interval criteria."""
    rng = np.random.default_rng(seed)
    out: list[Block] = []
    while len(out) < count:
        m = int(rng.integers(2, max_side + 1))
        n = int(rng.integers(2, max_side + 1))
        p = from_numpy(rng.integers(0, alphabet, size=(m, n)), alphabet=alphabet)
        if is_primitive(p):
            out.append(p)
    return out
