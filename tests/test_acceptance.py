"""Acceptance runs for the whole codec, one criterion per test.

Each test prints a single pass/fail line straight to the terminal (bypassing
capture) so a plain pytest run shows the tally.  Criterion 9 measures the
shipping coder against an analytical-entropy target it is not built to hit;
it reports honest numbers and is expected to stay red.  The reasoning lives
in the project notes, not here.
"""

import time

import numpy as np
import pytest

from torus_cse.baseline1d import compare
from torus_cse.blocks import from_numpy, is_primitive
from torus_cse.codec import elias_delta_length, stats
from torus_cse.generate import SourceSpec, generate
from torus_cse.oracle import (exact_ratio_lengths, lemma1_check,
                              lemma2_violations, primitive_blocks)
from torus_cse.verify import (check_count_identities, check_interval_soundness,
                              corpus_blocks, run_exhaustive, run_random)


def _line(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def corpus():
    return corpus_blocks(100, max_side=16, seed=100)


@pytest.fixture(scope="module")
def prims33():
    return list(primitive_blocks(3, 3))


def test_criterion_01_exhaustive_roundtrip(capsys):
    t0 = time.monotonic()
    reps = [run_exhaustive(2, 2), run_exhaustive(2, 3), run_exhaustive(3, 3)]
    took = time.monotonic() - t0
    blocks = sum(r.checked for r in reps)
    ok = all(r.passed for r in reps) and blocks == 16 + 64 + 512 and took < 60
    _line(capsys, 1, ok,
          f"round-trip every 2x2+2x3+3x3 binary block ({blocks} blocks, "
          f"{took:.1f}s)")
    assert ok, [r.line() for r in reps]


def test_criterion_02_random_roundtrip(capsys):
    rep = run_random(count=500, max_side=32, seed=0)
    ok = rep.passed and rep.checked == 500 and rep.elapsed < 300
    _line(capsys, 2, ok,
          f"round-trip 500 random blocks J in (2,4,16) up to 32x32 "
          f"({rep.elapsed:.1f}s)")
    assert ok, rep.line()


def test_criterion_03_count_identities(capsys, corpus):
    t0 = time.monotonic()
    bad = [msg for p in corpus for msg in check_count_identities(p)]
    took = time.monotonic() - t0
    ok = not bad and len(corpus) == 100
    _line(capsys, 3, ok,
          f"sum and directional identities exact on {len(corpus)} ledgers "
          f"({took:.1f}s)")
    assert ok, bad[:8]


def test_criterion_04_interval_soundness(capsys, corpus):
    t0 = time.monotonic()
    checked, bad = 0, []
    for p in corpus:
        c, b = check_interval_soundness(p)
        checked += c
        bad.extend(b)
    took = time.monotonic() - t0
    ok = not bad and checked > 0
    _line(capsys, 4, ok,
          f"all true counts in-interval, failed conditions forced "
          f"({checked} window checks, {took:.1f}s)")
    assert ok, bad[:8]


def test_criterion_05_class_entropy_bound(capsys, prims33):
    t0 = time.monotonic()
    bad = [(p.cells, k, l)
           for p in prims33
           for k in range(1, 4) for l in range(1, 4)
           if not lemma1_check(p, k, l)]
    took = time.monotonic() - t0
    ok = not bad and len(prims33) == 486 and took < 600
    _line(capsys, 5, ok,
          f"log2 class size under entropy bound, {len(prims33)} blocks x 9 "
          f"window shapes ({took:.1f}s)")
    assert ok, bad[:8]


def test_criterion_06_failed_conditions_inert(capsys, prims33):
    t0 = time.monotonic()
    bad = [(p.cells, msg) for p in prims33 for msg in lemma2_violations(p)]
    took = time.monotonic() - t0
    ok = not bad and len(prims33) == 486
    _line(capsys, 6, ok,
          f"condition-failing steps never shrink the prefix class, "
          f"{len(prims33)} blocks ({took:.1f}s)")
    assert ok, bad[:8]


def test_criterion_07_telescoping_identity(capsys):
    worst, count = 0.0, 0
    for m, n in ((2, 2), (2, 3)):
        for p in primitive_blocks(m, n):
            r = exact_ratio_lengths(p)
            worst = max(worst, abs(r.l3 - r.l3_identity))
            count += 1
    ok = worst < 1e-9 and count > 0
    _line(capsys, 7, ok,
          f"exact-ratio l3 telescopes to log2|T| - log2 mn on {count} blocks "
          f"(max drift {worst:.1e})")
    assert ok


def test_criterion_08_transmitted_count_scaling(capsys):
    rng = np.random.default_rng(15)
    p = from_numpy(rng.integers(0, 2, size=(8, 64)), alphabet=2)
    assert is_primitive(p)
    c = compare(p)
    ok = c.singles_baseline == 2 ** 8 - 1 and c.singles_codec == 1
    _line(capsys, 8, ok,
          f"single-count transmissions on a random 8x64: column coder "
          f"{c.singles_baseline}, this codec {c.singles_codec}")
    assert ok


def test_criterion_09_rate_trend(capsys):
    t0 = time.monotonic()
    mean_bpp, overhead = {}, {}
    for side in (16, 32, 64):
        bpp, over = [], []
        for seed in range(10):
            spec = SourceSpec("iid", side, side, seed, probs=(0.8, 0.2))
            p = from_numpy(generate(spec), alphabet=2)
            assert is_primitive(p), (side, seed)
            s = stats(p)
            bpp.append(s.bits_per_symbol)
            over.append((s.l0 + s.l1 + s.l2) / p.size)
        mean_bpp[side] = sum(bpp) / len(bpp)
        overhead[side] = sum(over) / len(over)
    took = time.monotonic() - t0
    trend = (mean_bpp[32] <= mean_bpp[16] + 0.02
             and mean_bpp[64] <= mean_bpp[32] + 0.02)
    near_entropy = mean_bpp[64] <= 0.7219 + 0.30
    small_overhead = overhead[64] < 0.01
    ok = trend and near_entropy and small_overhead and took < 900
    _line(capsys, 9, ok,
          f"Bernoulli(0.2) mean bpp {mean_bpp[16]:.3f}/{mean_bpp[32]:.3f}/"
          f"{mean_bpp[64]:.3f} (want non-increasing, 64x64 <= 1.022); "
          f"overhead ratio {overhead[64]:.5f} (want < 0.01) ({took:.0f}s)")
    assert ok, ("interval-uniform third-section coding pays ~log2(width) "
                "per count and cannot track the entropy target; see notes")


def test_criterion_10_coder_overhead_contract(capsys, corpus):
    worst = -1.0
    for p in corpus:
        s = stats(p)
        rank_bits = max(1, (p.size - 1).bit_length())
        ideal = (s.l1 + s.l2 + s.l3 + elias_delta_length(p.m)
                 + elias_delta_length(p.n) + rank_bits)
        worst = max(worst, s.total_bits - ideal)
        assert s.total_bits - ideal >= 0, (p.m, p.n)
    ok = worst <= 8.0
    _line(capsys, 10, ok,
          f"payload length within 8 bits of sum of interval widths + "
          f"header/rank on {len(corpus)} blocks (max slack {worst:.2f})")
    assert ok
