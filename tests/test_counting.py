import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_cse.blocks import Census, empty_block, make_block, torus_subblock
from torus_cse.engine import block_caps
from torus_cse.errors import OversizeQueryError
from torus_cse.oracle import Ledger, _schedule, coding_order, window_census
from torus_cse.verify import census_identities, check_count_identities

P2 = make_block([[0, 1], [1, 1]], 2)
P4 = make_block([[0, 1, 1], [1, 1, 1]], 2)


def grids(max_m=4, max_n=4, alphabet=2):
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n),
                min_size=m, max_size=m,
            )
        )
    )


def count(u, p):
    """Count of window u in p by direct wrapped scanning."""
    return window_census(p, u.m, u.n).get(u, 0)


class TestCount:
    def test_singles_of_p2(self):
        assert count(make_block([[0]], 2), P2) == 1
        assert count(make_block([[1]], 2), P2) == 3

    def test_empty_window_counts_every_anchor(self):
        assert Ledger(P2).count(empty_block(0, 3, 2)) == 4

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
        assert led.count(empty_block(0, 1, 2)) == 4

    # the identities are checked on the census ids the ledger is read from
    def test_identities_hold(self):
        assert check_count_identities(P4) == []

    def test_identities_catch_corruption(self):
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
    def test_identities_on_random_blocks(self, rows):
        assert check_count_identities(make_block(rows, 2)) == []


class TestOrderAndCaps:
    def test_caps_clamp_to_one(self):
        assert block_caps(2, 2, 2) == (1, 1)
        assert block_caps(16, 16, 2) == (1, 1)
        assert block_caps(64, 64, 2) == (1, 1)

    def test_caps_grow_eventually(self):
        assert block_caps(65536, 4, 2) == (2, 1)

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
        assert [(b.cells, cls) for b, cls, _ in sched[1:3]] == [
            ((0,), "B1"), ((1,), "B1")]

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
            keys = [make_block(w).col_key for w in led.candidates(k, l)]
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
