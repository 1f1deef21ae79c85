"""The oracle's feasibility intervals and rules, its transmitted records, and
the engine decoder replaying them."""

import numpy as np
import pytest

from shared import P2, P4, decode_grid
from torus_cse.blocks import from_numpy, is_primitive, make_block, rank_of
from torus_cse.errors import NotPrimitiveError
from torus_cse.oracle import (B1, B3, DERIVE, FORCED, TRANSMIT, Ledger, Rule,
                              _schedule, coding_order, primitive_blocks,
                              transmitted_records)


def rebuild(p):
    """The engine decoder's block from the reference walk's records."""
    grid = decode_grid(p.m, p.n, p.alphabet, transmitted_records(p), rank_of(p))
    return from_numpy(grid, alphabet=p.alphabet)


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
            for b, _, d in sched[1:]:
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
    # the oracle's reference walk: (k, l, cls, lo, hi, value) per transmission
    def test_p2_transmitted_sequence(self):
        assert transmitted_records(P2) == [
            (1, 1, B1, 0, 3, 1),
            (1, 2, B3, 0, 1, 0),
            (2, 1, B3, 0, 1, 0),
            (2, 2, B3, 0, 1, 0),
            (2, 2, B3, 0, 1, 0),
        ]

    def test_p4_early_sizes(self):
        by_size = {}
        for k, l, cls, lo, hi, v in transmitted_records(P4):
            by_size.setdefault((k, l), []).append((cls, lo, hi, v))
        assert by_size[(1, 1)] == [(B1, 0, 5, 1)]
        assert by_size[(1, 2)] == [(B3, 0, 1, 0)]
        assert by_size[(1, 3)] == [(B3, 0, 1, 0)]
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
            for _, _, _, lo, hi, v in transmitted_records(p):
                assert lo <= v <= hi

    def test_b1_count_is_alphabet_minus_one(self):
        for p in list(primitive_blocks(2, 2, alphabet=3))[:20]:
            records = transmitted_records(p)
            assert sum(1 for r in records if r[2] == B1) == 2


class TestRoundTrip:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_exhaustive_binary(self, shape):
        m, n = shape
        seen = 0
        for p in primitive_blocks(m, n):
            assert rebuild(p) == p
            seen += 1
        assert seen > 0

    @pytest.mark.parametrize("shape", [(2, 4), (4, 2), (3, 4)])
    def test_sampled_binary(self, shape):
        m, n = shape
        pool = list(primitive_blocks(m, n))
        for p in pool[::7]:
            assert rebuild(p) == p

    def test_exhaustive_ternary_2x2(self):
        for p in primitive_blocks(2, 2, alphabet=3):
            assert rebuild(p) == p

    def test_sampled_quaternary_2x3(self):
        pool = list(primitive_blocks(2, 3, alphabet=4))
        for p in pool[::31]:
            assert rebuild(p) == p


class TestOrderCoverage:
    def test_coding_order_covers_plan_sizes(self):
        sizes = {(k, l) for k, l, *_ in transmitted_records(P4)}
        assert sizes <= set(coding_order(2, 3))
