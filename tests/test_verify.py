"""Verification suite plumbing and the interval sweeper."""

import numpy as np

from torus_cse.blocks import from_numpy, make_block
from torus_cse.oracle import Ledger, coding_order
from torus_cse.verify import (VerifyReport, check_count_identities,
                              check_interval_soundness, corpus_blocks,
                              run_exhaustive, run_lemmas, run_random)


def test_exhaustive_small_shapes():
    for m, n, total in [(2, 2, 16), (2, 3, 64)]:
        rep = run_exhaustive(m, n)
        assert rep.passed
        assert rep.checked == total


def test_random_suite():
    rep = run_random(count=30, max_side=10, seed=3)
    assert rep.passed
    assert rep.checked == 30


def test_lemma_suite_2x2():
    rep = run_lemmas(2, 2)
    assert rep.passed
    # 8 primitive blocks, 4 sizes each plus one lemma-2 run each
    assert rep.checked == 8 * 5


def test_identities_on_samples():
    rng = np.random.default_rng(6)
    for shape in [(2, 2), (5, 7), (9, 6)]:
        p = from_numpy(rng.integers(0, 2, size=shape), alphabet=2)
        assert check_count_identities(p) == []


def test_interval_soundness_on_samples():
    rng = np.random.default_rng(7)
    blocks = [make_block([[0, 1], [1, 1]]),
              make_block([[0, 1, 2], [2, 0, 1], [1, 1, 0]], alphabet=3)]
    blocks += [from_numpy(rng.integers(0, 2, size=(8, 9)), alphabet=2)
               for _ in range(3)]
    for p in blocks:
        checked, bad = check_interval_soundness(p)
        assert bad == []
        assert checked > 0


def test_interval_sweeper_agrees_with_reference():
    # the slow per-candidate route on one 4x4: both ways find zero
    # violations and agree the same intervals contain the true counts
    rng = np.random.default_rng(9)
    p = from_numpy(rng.integers(0, 2, size=(4, 4)), alphabet=2)
    led = Ledger(p)
    for k, l in coding_order(4, 4):
        for w in led.candidates(k, l):
            c = led.count(make_block(w))
            if l >= 2:
                lo, hi = led.interval(w, 1)
                assert lo <= c <= hi
            if k >= 2:
                lo, hi = led.interval(w, 0)
                assert lo <= c <= hi
    checked, bad = check_interval_soundness(p)
    assert bad == [] and checked > 0


def test_corpus_blocks_deterministic_and_primitive():
    a = corpus_blocks(count=5, max_side=8, seed=42)
    b = corpus_blocks(count=5, max_side=8, seed=42)
    assert a == b
    assert all(2 <= p.m <= 8 and 2 <= p.n <= 8 for p in a)


def test_report_failure_cap():
    rep = VerifyReport("demo")
    for i in range(20):
        rep.note(f"failure {i}")
    assert len(rep.failures) == 9
    assert rep.failures[-1].startswith("...")
    assert not rep.passed
    assert "FAIL" in rep.line()
