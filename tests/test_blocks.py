import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_cse.blocks import (
    Block,
    concat,
    empty_block,
    from_numpy,
    interior_cols,
    interior_rows,
    is_primitive,
    make_block,
    rank_of,
    select_by_rank,
    shift_class,
    torus_subblock,
    trim,
)
from torus_cse.errors import (
    AnchorOutOfRangeError,
    DimensionMismatchError,
    EmptyBlockError,
    RaggedRowsError,
    RankOutOfRangeError,
    SymbolOutOfRangeError,
)
from torus_cse.oracle import _is_primitive_cells

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


class TestConstruction:
    def test_make_block_basic(self):
        b = make_block([[0, 1], [1, 1]], 2)
        assert (b.m, b.n) == (2, 2)
        assert b.cells == (0, 1, 1, 1)
        assert b.rows == ((0, 1), (1, 1))

    def test_ragged_rows_rejected(self):
        with pytest.raises(RaggedRowsError):
            make_block([[0, 1], [1]], 2)

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRangeError):
            make_block([[0, 2]], 2)
        with pytest.raises(SymbolOutOfRangeError):
            make_block([[-1, 0]], 2)

    def test_alphabet_bounds(self):
        with pytest.raises(SymbolOutOfRangeError):
            make_block([[0]], 1)
        with pytest.raises(SymbolOutOfRangeError):
            make_block([[0]], 257)

    def test_numpy_round_trip(self):
        arr = np.array([[0, 1, 2], [2, 0, 1]], dtype=np.uint8)
        b = from_numpy(arr, 3)
        assert np.array_equal(b.to_numpy(), arr)

    def test_empty_block_needs_zero_dim(self):
        e = empty_block(3, 0, 2)
        assert e.is_empty and e.m == 3 and e.n == 0
        with pytest.raises(DimensionMismatchError):
            empty_block(2, 2, 2)

    def test_empty_blocks_compare_equal(self):
        assert empty_block(3, 0, 2) == empty_block(0, 5, 2)
        assert hash(empty_block(3, 0, 2)) == hash(empty_block(0, 5, 2))

    def test_alphabet_ignored_by_equality(self):
        assert make_block([[0, 1]], 2) == make_block([[0, 1]], 4)


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
                        assert w.at(r, c) == p.at((i - 1 + r) % p.m, (j - 1 + c) % p.n)


class TestConcatTrim:
    def test_concat_rows_first_on_top(self):
        s = make_block([[0, 1]], 2)
        t = make_block([[1, 1]], 2)
        assert concat(s, t, "rows") == P2

    def test_concat_cols(self):
        s = make_block([[0], [1]], 2)
        t = make_block([[1], [1]], 2)
        assert concat(s, t, "cols") == P2

    def test_concat_with_empty(self):
        e = empty_block(2, 0, 2)
        assert concat(e, P2, "cols") == P2
        assert concat(P2, e, "cols") == P2

    def test_concat_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            concat(make_block([[0]], 2), make_block([[0], [1]], 2), "cols")

    def test_trim_edges(self):
        assert trim(P4, "last_col") == P2
        assert trim(P4, "first_col") == make_block([[1, 1], [1, 1]], 2)
        assert trim(P4, "first_row") == make_block([[1, 1, 1]], 2)
        assert trim(P4, "last_row") == make_block([[0, 1, 1]], 2)

    def test_trim_to_empty_then_error(self):
        col = make_block([[0], [1]], 2)
        e = trim(col, "first_col")
        assert e.is_empty
        with pytest.raises(EmptyBlockError):
            trim(e, "first_col")

    def test_interior(self):
        b = make_block([[0, 1, 0], [1, 1, 1], [0, 0, 1]], 2)
        assert interior_rows(b) == make_block([[1, 1, 1]], 2)
        assert interior_cols(b) == make_block([[1], [1], [0]], 2)
        assert interior_rows(P2).is_empty
        assert interior_cols(P2).is_empty

    @given(grids(3, 3))
    @settings(max_examples=40)
    def test_trim_concat_round_trip(self, rows):
        b = make_block(rows, 2)
        if b.n >= 2:
            first = Block(b.m, 1, tuple(r[0] for r in b.rows), 2)
            assert concat(first, trim(b, "first_col"), "cols") == b
        if b.m >= 2:
            top = Block(1, b.n, b.rows[0], 2)
            assert concat(top, trim(b, "first_row"), "rows") == b


class TestShiftClasses:
    def test_class_members_of_p2(self):
        cls = shift_class(P2)
        keys = {bytes(m.col_key) for m in cls}
        # column-major keys of the four shifts
        assert keys == {b"\x00\x01\x01\x01", b"\x01\x00\x01\x01",
                        b"\x01\x01\x00\x01", b"\x01\x01\x01\x00"}
        assert len(cls) == 4

    def test_rank_and_select(self):
        assert rank_of(P2) == 0
        assert select_by_rank(P2, 3) == make_block([[1, 1], [1, 0]], 2)
        assert select_by_rank(P2, 0) == P2
        with pytest.raises(RankOutOfRangeError):
            select_by_rank(P2, 4)

    def test_non_primitive_class_is_small(self):
        stripes = make_block([[0, 1], [0, 1]], 2)
        assert not is_primitive(stripes)
        assert len(shift_class(stripes)) == 2

    def test_primitivity(self):
        assert is_primitive(P2)
        assert is_primitive(P4)
        assert not is_primitive(make_block([[0, 0], [0, 0]], 2))
        assert not is_primitive(make_block([[0, 1], [1, 0]], 2))

    def test_empty_has_no_class(self):
        with pytest.raises(EmptyBlockError):
            shift_class(empty_block(0, 2, 2))

    @given(grids())
    @settings(max_examples=60)
    def test_every_shift_recovers_same_class(self, rows):
        p = make_block(rows, 2)
        cls = shift_class(p)
        assert 1 <= len(cls) <= p.size
        assert p.size % len(cls) == 0
        for r, member in enumerate(cls.members):
            assert rank_of(member) == r
            assert select_by_rank(p, r) == member
            assert cls.index_of(member) == r
        # members are exactly the distinct wrapped reads
        seen = {torus_subblock(p, i, j, p.m, p.n)
                for i in range(1, p.m + 1) for j in range(1, p.n + 1)}
        assert seen == set(cls.members)

    @given(grids())
    @settings(max_examples=40)
    def test_canonical_order_is_column_major(self, rows):
        p = make_block(rows, 2)
        keys = [m.col_key for m in shift_class(p)]
        assert keys == sorted(keys)


def _agrees_with_oracle(p):
    """Census-backed shift reads against direct wrapped reads."""
    reads = sorted({torus_subblock(p, i, j, p.m, p.n)
                    for i in range(1, p.m + 1) for j in range(1, p.n + 1)},
                   key=lambda b: b.col_key)
    assert is_primitive(p) == _is_primitive_cells(p.cells, p.m, p.n)
    assert shift_class(p).members == tuple(reads)
    assert rank_of(p) == reads.index(p)


@pytest.mark.parametrize("m,n", [(3, 3), (3, 4)])
def test_shift_census_matches_oracle_exhaustive_binary(m, n):
    for cells in itertools.product(range(2), repeat=m * n):
        _agrees_with_oracle(Block(m, n, cells, 2))


def test_shift_census_matches_oracle_seeded_quaternary():
    rng = np.random.default_rng(4)
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(1, 7, size=2))
        _agrees_with_oracle(from_numpy(rng.integers(0, 4, size=(m, n)), 4))
