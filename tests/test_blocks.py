import numpy as np
import pytest
from hypothesis import given, settings

from shared import P2, P4, col_major, grids, shifts
from torus_cse.blocks import (
    Block,
    Census,
    from_numpy,
    is_primitive,
    make_block,
    rank_of,
    shift_ids,
)
from torus_cse.errors import (
    EmptyBlockError,
    RaggedRowsError,
    SymbolOutOfRangeError,
)
from torus_cse.oracle import (Ledger, _is_primitive_cells, _joins, _view,
                              all_blocks, primitive_blocks, torus_subblock)


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
        with pytest.raises(SymbolOutOfRangeError):
            from_numpy(np.array([[0.5, 1.0], [1.9, 0.2]]), 2)

    def test_alphabet_bounds(self):
        with pytest.raises(SymbolOutOfRangeError):
            make_block([[0]], 1)
        with pytest.raises(SymbolOutOfRangeError):
            make_block([[0]], 257)

    @pytest.mark.parametrize("m,n,cells,alphabet", [
        (1, 3, (0, 2, 1), 2), (2, 2, (0, 0, 0, 0), 1),
        (2, 2, (0, 1, 1, 1), 300), (2, 2, (0, 5, 1, 1), 2),
        (2, 2, (0, -1, 1, 1), 2), (2, 1, (0.5, 1), 2), (2, 1, ("a", 1), 2),
        (2, 1, (None, 1), 2),
    ], ids=["cell-2-of-J2", "J1", "J300", "cell-5-of-J2", "negative-cell",
            "half-cell", "str-cell", "none-cell"])
    def test_constructor_checks_alphabet_and_cells(self, m, n, cells, alphabet):
        # a Block built directly is public input too: unchecked, these made
        # compress code a wrong grid, emit an undecodable container or raise
        # a bare ValueError, OverflowError or TypeError
        with pytest.raises(SymbolOutOfRangeError):
            Block(m, n, cells, alphabet)

    def test_numpy_round_trip(self):
        arr = np.array([[0, 1, 2], [2, 0, 1]], dtype=np.uint8)
        b = from_numpy(arr, 3)
        assert np.array_equal(b.to_numpy(), arr)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_numpy_cells_are_python_ints(self, dtype):
        # a text grid prints them, as 1 and not True or np.uint8(1)
        b = from_numpy(np.array([[0, 1, 1], [1, 0, 1]], dtype=dtype), 2)
        assert b.cells == (0, 1, 1, 1, 0, 1)
        assert all(type(v) is int for v in b.cells)

    def test_empty_block_needs_zero_dim(self):
        e = Block(3, 0, (), 2)
        assert e.is_empty and e.m == 3 and e.n == 0

    def test_empty_blocks_compare_equal(self):
        assert Block(3, 0, (), 2) == Block(0, 5, (), 2)
        assert hash(Block(3, 0, (), 2)) == hash(Block(0, 5, (), 2))

    def test_alphabet_ignored_by_equality(self):
        assert make_block([[0, 1]], 2) == make_block([[0, 1]], 4)


class TestShiftClasses:
    def test_class_members_of_p2(self):
        cls = shifts(P2)
        keys = [bytes(col_major(m)) for m in cls]
        # column-major keys of the four shifts, ranked by the census
        assert keys == [b"\x00\x01\x01\x01", b"\x01\x00\x01\x01",
                        b"\x01\x01\x00\x01", b"\x01\x01\x01\x00"]
        assert [rank_of(m) for m in cls] == [0, 1, 2, 3]

    def test_rank_and_select(self):
        assert rank_of(P2) == 0
        assert rank_of(make_block([[1, 1], [1, 0]], 2)) == 3

    def test_non_primitive_class_is_small(self):
        stripes = make_block([[0, 1], [0, 1]], 2)
        assert not is_primitive(stripes)
        assert len(Census(stripes.to_numpy()).counts(2, 2)) == 2

    def test_primitivity(self):
        assert is_primitive(P2)
        assert is_primitive(P4)
        assert not is_primitive(make_block([[0, 0], [0, 0]], 2))
        assert not is_primitive(make_block([[0, 1], [1, 0]], 2))

    def test_empty_has_no_class(self):
        with pytest.raises(EmptyBlockError):
            rank_of(Block(0, 2, (), 2))
        with pytest.raises(EmptyBlockError):
            is_primitive(Block(2, 0, (), 2))

    @given(grids())
    @settings(max_examples=60)
    def test_every_shift_recovers_same_class(self, rows):
        p = make_block(rows, 2)
        cls = shifts(p)
        assert 1 <= len(cls) <= p.size
        assert p.size % len(cls) == 0
        for r, member in enumerate(cls):
            assert rank_of(member) == r
            assert shifts(member) == cls

    @given(grids())
    @settings(max_examples=40)
    def test_canonical_order_is_column_major(self, rows):
        p = make_block(rows, 2)
        ids = Census(p.to_numpy()).ids(p.m, p.n)
        by_id = {int(ids[i - 1, j - 1]): torus_subblock(p, i, j, p.m, p.n)
                 for i in range(1, p.m + 1) for j in range(1, p.n + 1)}
        assert sorted(by_id) == list(range(len(by_id)))
        keys = [col_major(by_id[r]) for r in range(len(by_id))]
        assert keys == sorted(keys)


def _agrees_with_oracle(p):
    """Census ids of every shift against direct wrapped reads."""
    reads = shifts(p)
    ids = Census(p.to_numpy()).ids(p.m, p.n)
    assert is_primitive(p) == _is_primitive_cells(p.cells, p.m, p.n)
    for i in range(p.m):
        for j in range(p.n):
            read = torus_subblock(p, i + 1, j + 1, p.m, p.n)
            assert ids[i, j] == reads.index(read)
    assert rank_of(p) == reads.index(p)


@pytest.mark.parametrize("m,n", [(3, 3), (3, 4)])
def test_shift_census_matches_oracle_exhaustive_binary(m, n):
    for p in all_blocks(m, n):
        _agrees_with_oracle(p)


def test_shift_census_matches_oracle_seeded_quaternary():
    rng = np.random.default_rng(4)
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(1, 7, size=2))
        _agrees_with_oracle(from_numpy(rng.integers(0, 4, size=(m, n)), 4))


def _joins_agree_with_oracle(p):
    """Census joins of every size against the oracle's column-view joins."""
    census, led = Census(p.to_numpy()), Ledger(p)
    for k in range(1, p.m + 1):
        for l in range(2, p.n + 1):
            a, b, overlap = census.joins(k, l)
            pairs = list(zip(a.tolist(), b.tolist()))
            assert pairs == sorted(pairs)
            views = [_view(torus_subblock(p, i // p.n + 1, i % p.n + 1,
                                          k, l - 1).rows, 1)
                     for i in census.first_anchors(k, l - 1)]
            joined = [views[x] + views[y][-1:] for x, y in pairs]
            expect = _joins([_view(w, 1) for w in led.tables[(k, l - 1)]])
            assert len(joined) == len(expect)
            assert set(joined) == expect
            assert overlap.tolist() == [led.views[1][w[1:-1]] for w in joined]


def test_joins_match_oracle_primitive_3x3():
    for p in primitive_blocks(3, 3):
        _joins_agree_with_oracle(p)


def test_joins_match_oracle_seeded_4x4():
    rng = np.random.default_rng(11)
    for _ in range(6):
        _joins_agree_with_oracle(from_numpy(rng.integers(0, 2, size=(4, 4)), 2))


def doubling_corpus():
    """Seeded grids with sides 1..20 and J = 2..4; every third one tiles a
    smaller block, so it is periodic."""
    rng = np.random.default_rng(1972)
    for i in range(60):
        m, n = 1 + i % 20, int(rng.integers(1, 21))
        alphabet = int(rng.integers(2, 5))
        if i % 3 == 2:
            a = int(rng.choice([d for d in range(1, m + 1) if m % d == 0]))
            b = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
            g = np.tile(rng.integers(0, alphabet, size=(a, b)), (m // a, n // b))
        else:
            g = rng.integers(0, alphabet, size=(m, n))
        yield g


def test_doubled_shift_ids_match_column_by_column():
    periodic = 0
    for g in doubling_corpus():
        m, n = g.shape
        census, p = Census(g), from_numpy(g, 4)
        ids = census.ids(m, n)
        assert np.array_equal(shift_ids(g), ids)
        assert is_primitive(p) == (len(census.counts(m, n)) == m * n)
        assert rank_of(p) == int(ids[0, 0])
        periodic += not is_primitive(p)
    assert periodic >= 20


def test_census_keys_pair_the_slab_ids_at_first_anchors():
    # each size's keys are the (first, last) slab-id pairs of its ids, as
    # read at each id's first anchor
    checked = 0
    for g in doubling_corpus():
        m, n = g.shape
        census = Census(g)
        for k in range(1, m + 1):
            for l in range(1 + (k == 1), n + 1):
                head, axis = ((k - 1, 1), 0) if l == 1 else ((k, l - 1), 1)
                ids, s = census.ids(*head), len(census.counts(*head))
                pairs = (ids * s + np.roll(ids, -1, axis=axis)).ravel()
                assert np.array_equal(census.keys(k, l),
                                      pairs[census.first_anchors(k, l)])
                checked += 1
    assert checked > 1000


def test_census_builds_each_size_once(monkeypatch):
    # every size of a 12x9 grid, asked for in scattered order through each
    # reader, is built once, from the sizes on its chain already there
    rng = np.random.default_rng(129)
    g = rng.integers(0, 3, size=(12, 9))
    built = []
    build = Census._build

    def record(self, k, l):
        built.append((k, l))
        build(self, k, l)

    monkeypatch.setattr(Census, "_build", record)
    census = Census(g)
    sizes = [(k, l) for k in range(1, 13) for l in range(1, 10)]
    got = {}
    for i in rng.permutation(len(sizes)):
        k, l = sizes[i]
        got[(k, l)] = census.ids(k, l)
        census.first_anchors(k, l)
        if l >= 2:
            census.joins(k, l)
    assert len(built) == len(set(built)) == 12 * 9 - 1
    monkeypatch.undo()
    for k, l in sizes:
        assert np.array_equal(got[(k, l)], Census(g).ids(k, l))


def test_census_of_a_wide_grid_does_not_recurse():
    g = np.random.default_rng(2000).integers(0, 2, size=(2, 2000))
    census = Census(g)
    assert np.array_equal(census.ids(2, 2000), shift_ids(g))
