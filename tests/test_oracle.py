"""Enumeration oracle: classes, lemma checks, exact-ratio lengths."""

import math

import numpy as np
import pytest

from torus_cse import blocks
from torus_cse.blocks import Census, from_numpy, make_block, torus_subblock
from torus_cse.codec import stats
from torus_cse.errors import OversizeQueryError, TooLargeError
from torus_cse.oracle import (B1, B3, exact_ratio_lengths, lemma1_check,
                              lemma2_violations, prefix_blocks, prefix_class,
                              primitive_blocks, transmitted_records,
                              type_class, window_census)

P2 = make_block([[0, 1], [1, 1]])
P23 = make_block([[0, 1, 1], [1, 0, 1]])


def shifts(p):
    """The distinct torus shifts of p, by direct wrapped reads."""
    return {torus_subblock(p, i, j, p.m, p.n)
            for i in range(1, p.m + 1) for j in range(1, p.n + 1)}


def test_primitive_counts_frozen():
    # 2x2: 16 blocks minus 8 shift-periodic ones; 3x3: 512 minus 26
    # (4 order-3 shift subgroups x 8 invariant blocks, inclusion-exclusion
    # collapsing every overlap onto the 2 constants: 32 - 12 + 8 - 2)
    assert sum(1 for _ in primitive_blocks(2, 2)) == 8
    assert sum(1 for _ in primitive_blocks(3, 3)) == 486


def test_enumeration_guard():
    with pytest.raises(TooLargeError):
        list(primitive_blocks(5, 5))
    with pytest.raises(TooLargeError):
        type_class(make_block([[0, 1, 2, 3]] * 3, alphabet=4), 0, 0)
    # 4x4 binary is 16 bits, inside the cap
    assert sum(1 for _ in primitive_blocks(4, 2)) > 0


def test_census_agrees_with_counting():
    rng = np.random.default_rng(8)
    corpus = [P2, P23, make_block([[0, 1], [2, 0]], alphabet=3),
              from_numpy(rng.integers(0, 4, size=(3, 5)), alphabet=4),
              from_numpy(rng.integers(0, 3, size=(5, 2)), alphabet=3),
              from_numpy(rng.integers(0, 16, size=(4, 6)), alphabet=16),
              from_numpy(rng.integers(0, 2, size=(2, 7)), alphabet=2)]
    for p in corpus:
        census = Census(p.to_numpy())
        for k in range(1, p.m + 1):
            for l in range(1, p.n + 1):
                # census ids run in column-major key order
                got = sorted(window_census(p, k, l).items(),
                             key=lambda item: item[0].col_key)
                assert [c for _, c in got] == census.counts(k, l).tolist()


def test_independent_of_the_census(monkeypatch):
    # the reference walk and the classes read only the oracle's own
    # brute-force census, never the Census the codec runs on
    def refuse(self, grid):
        raise AssertionError("the oracle built a blocks.Census")

    monkeypatch.setattr(blocks.Census, "__init__", refuse)
    assert transmitted_records(P2) == [
        (1, 1, B1, 0, 3, 1),
        (1, 2, B3, 0, 1, 0),
        (2, 1, B3, 0, 1, 0),
        (2, 2, B3, 0, 1, 0),
        (2, 2, B3, 0, 1, 0),
    ]
    assert set(type_class(P2, 2, 2).members) == {
        make_block([[0, 1], [1, 1]]), make_block([[1, 0], [1, 1]]),
        make_block([[1, 1], [0, 1]]), make_block([[1, 1], [1, 0]])}


def test_census_rejects_oversize():
    with pytest.raises(OversizeQueryError):
        window_census(P2, 3, 1)


def test_type_class_p2():
    assert set(type_class(P2, 2, 2).members) == shifts(P2)
    assert len(type_class(P2, 0, 0)) == 8
    assert len(type_class(P2, 1, 2)) >= len(type_class(P2, 2, 2))
    assert len(type_class(P2, 1, 1)) == 4
    assert P2 in type_class(P2, 1, 1)


def test_type_class_full_size_is_shift_class():
    for p in list(primitive_blocks(2, 3))[:8]:
        assert set(type_class(p, 2, 3).members) == shifts(p)


def test_lemma1_p2():
    # |T(p2,1,1)| = 4 against the bound 4 * H(1/4) = 3.245... per cell
    bound = -4 * (0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert math.log2(len(type_class(P2, 1, 1))) <= bound
    assert lemma1_check(P2, 1, 1)


def test_lemma1_full_size_equality():
    # at (m, n) the class is the shift class and the bound is log2 mn
    for p in [P2, P23]:
        assert lemma1_check(p, p.m, p.n)
        assert math.isclose(math.log2(len(type_class(p, p.m, p.n))),
                            math.log2(p.size))


def test_lemma1_sampled_3x3():
    prims = list(primitive_blocks(3, 3))
    for p in prims[:6] + prims[240:243] + prims[-3:]:
        for k in range(1, 4):
            for l in range(1, 4):
                assert lemma1_check(p, k, l), (p, k, l)


def test_lemma1_rejects_empty_window():
    with pytest.raises(OversizeQueryError):
        lemma1_check(P2, 0, 1)


def test_lemma2_clean_on_samples():
    prims = list(primitive_blocks(3, 3))
    corpus = [P2, P23, make_block([[0, 1], [2, 0]], alphabet=3)]
    corpus += prims[:4] + prims[-4:]
    for p in corpus:
        assert lemma2_violations(p) == []


def test_prefix_blocks_p2():
    bl = prefix_blocks(P2)
    # empty + 2 singles + 4 + 4 + 11 deduped full-size joins
    assert len(bl) == 22
    assert bl[0] is None
    assert [b.size for b in bl[1:3]] == [1, 1]


def test_prefix_class_chain_p2():
    bl = prefix_blocks(P2)
    prev = None
    for i in range(len(bl) + 1):
        cur = set(prefix_class(P2, i).members)
        if prev is not None:
            assert cur <= prev
        prev = cur
    assert prev == shifts(P2)
    # constraining both singles equals the size-(1,1) type class
    assert set(prefix_class(P2, 3).members) == set(type_class(P2, 1, 1).members)


def test_prefix_class_rejects_bad_index():
    with pytest.raises(OversizeQueryError):
        prefix_class(P2, 99)
    with pytest.raises(OversizeQueryError):
        prefix_class(P2, -1)


def test_exact_ratio_p2():
    rep = exact_ratio_lengths(P2)
    assert rep.small_class_size == 4
    assert rep.l3 == pytest.approx(0.0)
    assert rep.l3 == pytest.approx(rep.l3_identity)
    assert rep.l1 == pytest.approx(1.0)  # singles halve the 8-member universe
    silent = [s for s in rep.steps if not s.transmitted]
    assert silent and all(s.bits == 0.0 for s in silent)


def test_exact_ratio_order_invariance():
    for p in [P2, P23]:
        a = exact_ratio_lengths(p)
        b = exact_ratio_lengths(p, passive_last=True)
        assert a.l1 == pytest.approx(b.l1)
        assert a.l2 == pytest.approx(b.l2)
        assert a.l3 == pytest.approx(b.l3)


def test_exact_ratio_all_2x2_and_2x3():
    for shape in [(2, 2), (2, 3)]:
        for p in primitive_blocks(*shape):
            rep = exact_ratio_lengths(p)
            assert rep.l3 == pytest.approx(rep.l3_identity, abs=1e-9)


def test_shipping_codec_never_beats_exact_ratio():
    for p in list(primitive_blocks(2, 2)) + list(primitive_blocks(2, 3))[:10]:
        assert stats(p).l3 >= exact_ratio_lengths(p).l3 - 1e-9
