"""Verification suite plumbing and the interval sweeper."""

import numpy as np
import pytest
from hypothesis import given, settings

from shared import P2, P4, grids
from torus_cse import verify
from torus_cse.blocks import Census, from_numpy, make_block
from torus_cse.cli import main
from torus_cse.errors import TorusCseError
from torus_cse.oracle import Ledger, coding_order
from torus_cse.verify import (VerifyReport, census_identities,
                              census_soundness, check_count_identities,
                              check_interval_soundness, corpus_blocks,
                              run_exhaustive, run_lemmas, run_random)


def test_exhaustive_small_shapes():
    for m, n, total in [(2, 2, 16), (2, 3, 64)]:
        rep = run_exhaustive(m, n)
        assert rep.passed
        assert rep.checked == total


def test_exhaustive_out_of_range_alphabet_is_one_error(capsys):
    # the first block of the sweep is refused, not compressed
    assert main(["verify", "--mode", "exhaustive", "--size", "1x2",
                 "--alphabet", "300"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_exhaustive_refuses_more_blocks_than_the_cap(capsys, monkeypatch):
    # 2^36 blocks of 6x6: refused up front, as lemmas refuses them, before
    # the first block is compressed
    def compress(p):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(verify, "compress", compress)
    assert main(["verify", "--mode", "exhaustive", "--size", "6x6"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "cap" in err[0]


@pytest.mark.parametrize("args,code", [
    (["lemmas", "--size", "2x2", "--alphabet", "0"], 1),
    (["lemmas", "--size", "2x2", "--alphabet", "1"], 1),
    (["exhaustive", "--size", "2x2", "--alphabet", "0"], 1),
    (["exhaustive", "--size", "0x2"], 2),
    (["lemmas", "--size", "0x2"], 2),
    (["exhaustive", "--size", "2x-1"], 2),
    (["random", "--max", "0"], 2),
    (["random", "--count", "0"], 2),
    (["random", "--seed", "-1"], 2),
    (["random", "--count", "3", "--size", "9x9"], 2),
    (["exhaustive", "--size", "2x2", "--count", "5", "--seed", "7"], 2),
    (["lemmas", "--size", "2x2", "--max", "9"], 2),
], ids=["lemmas-J0", "lemmas-J1", "exhaustive-J0", "exhaustive-0x2",
        "lemmas-0x2", "exhaustive-2x-1", "random-max0", "random-count0",
        "random-seed-1", "random-size", "exhaustive-count-seed",
        "lemmas-max"])
def test_unusable_verify_arguments_are_one_error(args, code, capsys):
    # an alphabet outside 2..256 is bad data (1), a size, count or side
    # below 1, a negative seed or an option the mode does not read a usage
    # error (2); none may run to a traceback or a verdict
    assert main(["verify", "--mode", *args]) == code
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_random_suite():
    rep = run_random(count=30, max_side=10, seed=3)
    assert rep.passed
    assert rep.checked == 30


def test_suites_note_a_bad_round_trip_alike(monkeypatch):
    # one round-trip check words both suites' notes; each adds its label
    def decompress(data):
        raise TorusCseError("bad stream")

    monkeypatch.setattr(verify, "decompress", lambda data: P4)
    exhaustive = run_exhaustive(1, 2)
    rand = run_random(count=1, max_side=2, seed=0)
    assert exhaustive.failures[0] == "(0, 0): round trip changed the block"
    assert rand.failures == [
        "trial 0 (2x2 J=16): round trip changed the block"]
    monkeypatch.setattr(verify, "decompress", decompress)
    assert run_exhaustive(1, 2).failures[0] == (
        "(0, 0): TorusCseError: bad stream")


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


# the identities are checked on the census ids the ledger is read from
def test_identities_hold():
    assert check_count_identities(P4) == []


def test_identities_catch_corruption():
    census = Census(P2.to_numpy())
    census.counts(1, 1)[0] += 1
    msgs = census_identities(census)
    assert any("sum" in m for m in msgs)
    census = Census(P4.to_numpy())
    census.counts(2, 2)[0] += 1
    msgs = census_identities(census)
    assert "size (1,2): bottom row extension sum breaks at id 0" in msgs
    assert "size (2,1): right column extension sum breaks at id 0" in msgs


@given(grids(4, 4))
@settings(max_examples=25, deadline=None)
def test_identities_on_random_blocks(rows):
    assert check_count_identities(make_block(rows, 2)) == []


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


def test_sweep_catches_count_outside_interval():
    # 111 joins 11/11 (4 each) over 1 (5 anchors): its count lies in [3, 4]
    census = Census(P4.to_numpy())
    census.counts(1, 3)[3] += 2
    checked, bad = census_soundness(census, "cols")
    assert checked > 0
    assert bad == ["cols (1,3): count 5 outside [3, 4]"]


def test_sweep_catches_forced_count_off_its_min():
    # 101 joins 10/01 over a 0 seen once, which 10 fills: its count is 1
    census = Census(P4.to_numpy())
    census.counts(1, 3)[1] += 1
    _, bad = census_soundness(census, "cols")
    assert bad == ["cols (1,3): count 2 outside [1, 1]",
                   "cols (1,3): condition failed but count 2 != min 1"]


def test_sweep_reports_empty_join(monkeypatch):
    none = np.zeros(0, dtype=np.int64)
    monkeypatch.setattr(Census, "joins", lambda self, k, l: (none, none, none))
    checked, bad = check_interval_soundness(P4)
    assert checked == 0
    # one report per slab height, then on to the next: 2 column heights
    # of the 2x3 grid, 3 row widths of its transpose
    assert bad == [f"{axis} ({k},2): no joinable slabs"
                   for axis, top in (("cols", 2), ("rows", 3))
                   for k in range(1, top + 1)]


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
