"""Enumeration oracle: wrapped reads, the ledger, its candidates and
extremal members, the coding order, classes, lemma checks, exact-ratio
lengths, the feasibility intervals and rules, and the transmitted records
of the reference walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from shared import P2, P4, col_major, grids, shifts
from torus_cse import blocks
from torus_cse.blocks import (Block, Census, from_numpy, is_primitive,
                              make_block)
from torus_cse.codec import stats
from torus_cse.errors import (AnchorOutOfRangeError, NotPrimitiveError,
                              OversizeQueryError, TooLargeError)
from torus_cse.oracle import (DERIVE, FORCED, TRANSMIT, Ledger, Rule, _schedule,
                              coding_order, exact_ratio_lengths, lemma1_check,
                              lemma2_violations, prefix_blocks, prefix_class,
                              primitive_blocks, torus_subblock,
                              transmitted_records, type_class, window_census)

P23 = make_block([[0, 1, 1], [1, 0, 1]])


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
                             key=lambda item: col_major(item[0]))
                assert [c for _, c in got] == census.counts(k, l).tolist()


def test_independent_of_the_census(monkeypatch):
    # the reference walk and the classes read only the oracle's own
    # brute-force census, never the Census the codec runs on
    def refuse(self, grid):
        raise AssertionError("the oracle built a blocks.Census")

    monkeypatch.setattr(blocks.Census, "__init__", refuse)
    assert transmitted_records(P2) == [
        (1, 1, 0, 3, 1),
        (1, 2, 0, 1, 0),
        (2, 1, 0, 1, 0),
        (2, 2, 0, 1, 0),
        (2, 2, 0, 1, 0),
    ]
    assert set(type_class(P2, 2, 2)) == {
        make_block([[0, 1], [1, 1]]), make_block([[1, 0], [1, 1]]),
        make_block([[1, 1], [0, 1]]), make_block([[1, 1], [1, 0]])}
    assert torus_subblock(P2, 2, 2, 2, 2) == make_block([[1, 1], [1, 0]])
    assert set(shifts(P2)) == set(type_class(P2, 2, 2))


def test_census_rejects_oversize():
    with pytest.raises(OversizeQueryError):
        window_census(P2, 3, 1)


def test_type_class_p2():
    assert set(type_class(P2, 2, 2)) == set(shifts(P2))
    assert len(type_class(P2, 0, 0)) == 8
    assert len(type_class(P2, 1, 2)) >= len(type_class(P2, 2, 2))
    assert len(type_class(P2, 1, 1)) == 4
    assert P2 in type_class(P2, 1, 1)


def test_type_class_full_size_is_shift_class():
    for p in list(primitive_blocks(2, 3))[:8]:
        assert set(type_class(p, 2, 3)) == set(shifts(p))


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
        cur = set(prefix_class(P2, i))
        if prev is not None:
            assert cur <= prev
        prev = cur
    assert prev == set(shifts(P2))
    # constraining both singles equals the size-(1,1) type class
    assert set(prefix_class(P2, 3)) == set(type_class(P2, 1, 1))


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
        assert a.l3 == pytest.approx(b.l3)


def test_exact_ratio_all_2x2_and_2x3():
    for shape in [(2, 2), (2, 3)]:
        for p in primitive_blocks(*shape):
            rep = exact_ratio_lengths(p)
            assert rep.l3 == pytest.approx(rep.l3_identity, abs=1e-9)


def test_shipping_codec_never_beats_exact_ratio():
    for p in list(primitive_blocks(2, 2)) + list(primitive_blocks(2, 3))[:10]:
        assert stats(p).l3 >= exact_ratio_lengths(p).l3 - 1e-9


def count(u, p):
    """Count of window u in p by direct wrapped scanning."""
    return window_census(p, u.m, u.n).get(u, 0)


class TestTorusWindows:
    def test_wrap_both_axes(self):
        # window anchored at the far corner wraps to the opposite edges
        assert torus_subblock(P2, 2, 2, 2, 2) == make_block([[1, 1], [1, 0]], 2)

    def test_full_window_is_identity(self):
        assert torus_subblock(P2, 1, 1, 2, 2) == P2

    def test_single_row_wrap(self):
        assert torus_subblock(P4, 1, 3, 1, 3) == make_block([[1, 0, 1]], 2)

    def test_doubled_extent_allowed(self):
        big = torus_subblock(P2, 1, 1, 4, 4)
        assert (big.m, big.n) == (4, 4)
        assert torus_subblock(big, 1, 1, 2, 2) == P2

    def test_zero_size_window_is_empty(self):
        w = torus_subblock(P2, 1, 2, 2, 0)
        assert w.is_empty and (w.m, w.n) == (2, 0)

    def test_anchor_validation(self):
        with pytest.raises(AnchorOutOfRangeError):
            torus_subblock(P2, 0, 1, 1, 1)
        with pytest.raises(AnchorOutOfRangeError):
            torus_subblock(P2, 1, 3, 1, 1)
        with pytest.raises(AnchorOutOfRangeError):
            torus_subblock(P2, 1, 1, 5, 1)

    @given(grids())
    @settings(max_examples=60)
    def test_window_matches_modular_read(self, rows):
        p = make_block(rows, 2)
        for i in range(1, p.m + 1):
            for j in range(1, p.n + 1):
                w = torus_subblock(p, i, j, p.m, p.n)
                for r in range(p.m):
                    for c in range(p.n):
                        assert (w.cells[r * w.n + c]
                                == p.cells[(i - 1 + r) % p.m * p.n
                                           + (j - 1 + c) % p.n])


class TestCount:
    def test_singles_of_p2(self):
        assert count(make_block([[0]], 2), P2) == 1
        assert count(make_block([[1]], 2), P2) == 3

    def test_empty_window_counts_every_anchor(self):
        assert Ledger(P2).count(Block(0, 3, (), 2)) == 4

    def test_full_size_windows_partition_anchors(self):
        assert count(P2, P2) == 1
        assert count(make_block([[1, 1], [1, 0]], 2), P2) == 1

    def test_width_two_rows_of_p4(self):
        # horizontal wrap produces [1,0] once
        assert count(make_block([[0, 1]], 2), P4) == 1
        assert count(make_block([[1, 1]], 2), P4) == 4
        assert count(make_block([[1, 0]], 2), P4) == 1

    def test_oversize_rejected(self):
        with pytest.raises(OversizeQueryError):
            count(make_block([[0, 0, 0]], 2), P2)

    @given(grids())
    @settings(max_examples=30)
    def test_counts_sum_to_total(self, rows):
        p = make_block(rows, 2)
        for k in range(1, p.m + 1):
            for l in range(1, p.n + 1):
                seen = {}
                for i in range(1, p.m + 1):
                    for j in range(1, p.n + 1):
                        w = torus_subblock(p, i, j, k, l)
                        seen[w] = seen.get(w, 0) + 1
                assert window_census(p, k, l) == seen
                assert sum(seen.values()) == p.size


class TestLedger:
    def test_tables_match_direct_counts(self):
        led = Ledger(P4)
        assert led.tables[(1, 2)] == {((0, 1),): 1, ((1, 1),): 4, ((1, 0),): 1}
        assert led.tables[(1, 1)] == {((0,),): 1, ((1,),): 5}

    def test_count_of_missing_is_zero(self):
        led = Ledger(P2)
        assert led.count(make_block([[0, 0]], 2)) == 0
        assert led.count(Block(0, 1, (), 2)) == 4


class TestCodingOrder:
    def test_size_schedule(self):
        assert coding_order(2, 3) == (
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))

    def test_parents_precede_children(self):
        pos = {s: i for i, s in enumerate(coding_order(4, 4))}
        for (k, l), i in pos.items():
            if l > 1:
                assert pos[(k, l - 1)] < i
            if k > 1:
                assert pos[(k - 1, l)] < i


class TestCandidates:
    def test_single_size_is_alphabet(self):
        assert Ledger(P2).candidates(1, 1) == [((0,),), ((1,),)]
        _, sched = _schedule(P2, passive_last=False)
        assert [(b.cells, d) for b, d in sched[1:3]] == [
            ((0,), Rule(TRANSMIT, 0, 3)), ((1,), Rule(DERIVE, 0, 3))]

    def test_width_two_joins(self):
        cand = Ledger(P2).candidates(1, 2)
        # all pairs of positive singles, canonically ordered
        assert cand == [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]

    def test_two_by_two_union(self):
        led = Ledger(P2)
        got = set(led.candidates(2, 2))
        # column joins of overlapping positive 2x1 slabs
        col_joins = set()
        tall = led.tables[(2, 1)]
        for s in tall:
            for t in tall:
                col_joins.add(((s[0][0], t[0][0]), (s[1][0], t[1][0])))
        assert col_joins <= got

    def test_candidates_cover_positives(self):
        for rows in ([[0, 1, 1], [1, 1, 1]], [[0, 1, 0], [1, 0, 1], [0, 1, 1]]):
            p = make_block(rows, 2)
            led = Ledger(p)
            for k in range(1, p.m + 1):
                for l in range(1, p.n + 1):
                    assert set(led.tables[(k, l)]) <= set(led.candidates(k, l))

    def test_candidate_order_is_canonical(self):
        led = Ledger(P4)
        for (k, l) in ((1, 2), (2, 2), (2, 3)):
            keys = [col_major(make_block(w)) for w in led.candidates(k, l)]
            assert keys == sorted(keys)

    def test_candidate_guard_bound(self):
        led = Ledger(P4)
        mn, j = 6, 2
        for (k, l) in ((1, 2), (2, 1), (2, 2), (2, 3)):
            assert len(led.candidates(k, l)) <= mn * mn + 2 * j * j * mn


class TestExtremalMembers:
    # extremal(ax, length): the largest line of that length along ax, a
    # column (ax 1) or a row (ax 0), whose interior occurs
    def test_bases(self):
        led = Ledger(P2)
        assert led.extremal(1, 1) == (1,)
        assert led.extremal(1, 2) == (1, 1)
        assert led.extremal(0, 2) == (1, 1)

    def test_inductive_case_uses_largest_interior(self):
        p = make_block([[0, 1, 0], [1, 1, 1], [0, 1, 1]], 2)
        led = Ledger(p)
        top = led.extremal(1, 3)
        assert top[0] == 1 and top[-1] == 1
        mid = max(led.tables[(1, 1)])
        assert top[1] == mid[0][0]


class TestIntervals:
    def test_interval_basics(self):
        # a rule's interval is the intersection of its axis intervals
        narrowed = 0
        for p in list(primitive_blocks(3, 3))[::9]:
            led = Ledger(p)
            for w in led.candidates(3, 2) + led.candidates(2, 3):
                cols, rows = led.interval(w, 1), led.interval(w, 0)
                rule = led.rule(w)
                assert (rule.lo, rule.hi) == (max(cols[0], rows[0]),
                                              min(cols[1], rows[1]))
                narrowed += (rule.lo, rule.hi) not in (cols, rows)
        assert narrowed > 0

    def test_forced_interval_on_p4(self):
        led = Ledger(P4)
        assert led.interval(make_block([[1, 0, 1]]).rows, 1) == (1, 1)

    def test_open_interval_on_p4(self):
        led = Ledger(P4)
        # parts: N(01)=1, N(10)=1, N([1])=5 -> lo=0, hi=1
        assert led.parts(make_block([[0, 1, 0]]).rows, 1) == (1, 1, 5)
        assert led.interval(make_block([[0, 1, 0]]).rows, 1) == (0, 1)

    def test_single_cell_interval_spans_total(self):
        rule = Ledger(P2).rule(make_block([[0]]).rows)
        assert (rule.lo, rule.hi) == (0, 3)


class TestDispositions:
    def test_p2_pair_walk(self):
        led = Ledger(P2)
        rules = {w: led.rule((w,)) for w in ((0, 0), (0, 1), (1, 0), (1, 1))}
        assert rules[(0, 0)] == Rule(TRANSMIT, 0, 1)
        # blocks touching the top symbol on either end are derived, by the
        # column rule: a one-row window splits only into columns
        assert led.extremal(1, 1) == (1,)
        for w in ((0, 1), (1, 0), (1, 1)):
            assert rules[w].kind == DERIVE

    def test_forced_disposition_on_p4(self):
        led = Ledger(P4)
        assert led.rule(make_block([[1, 0, 1]]).rows) == Rule(FORCED, 1, 1)

    def test_transmit_disposition_on_p4(self):
        led = Ledger(P4)
        assert led.rule(make_block([[0, 1, 0]]).rows) == Rule(TRANSMIT, 0, 1)


class TestForcedIsOnePoint:
    # a slab that fills its overlap (N(s) >= N(w)) lifts that axis's lower
    # bound N(s) + N(t) - N(w) to at least min(N(s), N(t)), its upper bound,
    # so a forced count needs no record beside its interval
    @staticmethod
    def corpus():
        yield from primitive_blocks(3, 3)
        rng = np.random.default_rng(9)
        for alphabet, m, n in ((2, 6, 6), (3, 5, 4), (4, 4, 5)):
            p = from_numpy(rng.integers(0, alphabet, size=(m, n)), alphabet)
            assert is_primitive(p)
            yield p

    def test_forced_interval_is_the_forced_value(self):
        forced = 0
        for p in self.corpus():
            led, sched = _schedule(p, passive_last=False)
            for b, d in sched[1:]:
                if d.kind == FORCED:
                    parts = [led.parts(b.rows, ax)
                             for ax, length in ((1, b.n), (0, b.m))
                             if length >= 2]
                    value = next(min(a, c) for a, c, o in parts
                                 if min(o - a, o - c) < 1)
                    assert (d.lo, d.hi) == (value, value), (p, b)
                    forced += 1
        assert forced > 0


class TestPlan:
    # the oracle's reference walk: (k, l, lo, hi, value) per transmission
    def test_p2_transmitted_sequence(self):
        assert transmitted_records(P2) == [
            (1, 1, 0, 3, 1),
            (1, 2, 0, 1, 0),
            (2, 1, 0, 1, 0),
            (2, 2, 0, 1, 0),
            (2, 2, 0, 1, 0),
        ]

    def test_p4_early_sizes(self):
        by_size = {}
        for k, l, lo, hi, v in transmitted_records(P4):
            by_size.setdefault((k, l), []).append((lo, hi, v))
        assert by_size[(1, 1)] == [(0, 5, 1)]
        assert by_size[(1, 2)] == [(0, 1, 0)]
        assert by_size[(1, 3)] == [(0, 1, 0)]
        # the one (1,3) transmission is the window [0 1 0]
        led = Ledger(P4)
        assert led.rule(make_block([[0, 1, 0]]).rows) == Rule(TRANSMIT, 0, 1)
        assert led.count(make_block([[0, 1, 0]])) == 0

    def test_rejects_non_primitive(self):
        with pytest.raises(NotPrimitiveError):
            transmitted_records(make_block([[0, 1], [0, 1]]))
        with pytest.raises(NotPrimitiveError):
            transmitted_records(make_block([[0, 1]]))

    def test_plan_values_lie_in_intervals(self):
        for p in primitive_blocks(2, 3):
            for _, _, lo, hi, v in transmitted_records(p):
                assert lo <= v <= hi

    def test_b1_count_is_alphabet_minus_one(self):
        for p in list(primitive_blocks(2, 2, alphabet=3))[:20]:
            records = transmitted_records(p)
            assert sum(1 for r in records if r[:2] == (1, 1)) == 2


class TestOrderCoverage:
    def test_coding_order_covers_plan_sizes(self):
        sizes = {(k, l) for k, l, *_ in transmitted_records(P4)}
        assert sizes <= set(coding_order(2, 3))
