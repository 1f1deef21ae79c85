"""Array walker vs the oracle's reference walk, and decoder-side replay."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shared import (decode_grid, is_shift, near_periodic_tile, one_dot,
                    pull_from)
from torus_cse.blocks import Census, from_numpy, is_primitive, rank_of
from torus_cse.codec import B1, B2, B3, _encode, compress, decompress, stats
from torus_cse.engine import _MARKS, Walk, _lookup, _sweep, _take
from torus_cse.errors import InconsistentCountsError, UnderdeterminedCountsError
from torus_cse.oracle import (DERIVE, _schedule, primitive_blocks,
                              transmitted_records)


def encode_walk(grid, alphabet, walk_cls=Walk):
    """The encoder walk of grid, with its sink batches flattened to one
    (k, l, lo, hi, value) tuple per count."""
    records = []

    def sink(k, l, lo, hi, values):
        assert len(lo) == len(hi) == len(values) > 0
        records.extend((k, l, int(a), int(b), int(v))
                       for a, b, v in zip(lo, hi, values))

    walk = walk_cls(grid.shape[0], grid.shape[1], alphabet, grid=grid,
                    sink=sink)
    walk.run()
    return records, walk


def encode_records(grid, alphabet):
    return encode_walk(grid, alphabet)[0]


def all_primitive_grids(m, n, alphabet=2):
    for p in primitive_blocks(m, n, alphabet):
        yield p.to_numpy().astype(np.int64)


def assert_matches_reference(p, records):
    """The walk's records are the oracle's reference walk of p, and the
    codec books its (1, 1) counts to B1 and every other count to B3, since
    `block_caps` is 1 at every enumerable size."""
    assert records == transmitted_records(p)
    singles = sum(1 for r in records if r[:2] == (1, 1))
    assert stats(p).transmitted == {B1: singles, B2: 0,
                                    B3: len(records) - singles}


@pytest.mark.parametrize("m,n,alphabet,step", [
    (2, 2, 2, 1), (2, 3, 2, 1), (3, 2, 2, 1), (3, 3, 2, 1),
    (2, 4, 2, 1), (4, 2, 2, 1), (2, 3, 4, 31), (2, 2, 3, 1), (3, 4, 2, 7),
], ids=["2-2", "2-3", "3-2", "3-3", "2-4", "4-2", "2-3-J4-every31",
        "2-2-J3", "3-4-every7"])
def test_matches_reference_exhaustive_binary(m, n, alphabet, step):
    checked = 0
    for g in itertools.islice(all_primitive_grids(m, n, alphabet), 0, None, step):
        p = from_numpy(g, alphabet=alphabet)
        got = encode_records(g, alphabet)
        assert_matches_reference(p, got)
        assert is_shift(decode_grid(m, n, alphabet, got), g)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("shape,alphabet,seed", [
    ((8, 8), 2, 1),
    ((6, 9), 4, 2),
    ((9, 7), 16, 13),
])
def test_matches_reference_past_the_frontier(shape, alphabet, seed):
    # the engine builds only the sizes below the settled frontier; the
    # reference walks every size, so any transmission past the frontier
    # would show up as a missing record
    g = np.random.default_rng(seed).integers(0, alphabet, size=shape)
    p = from_numpy(g, alphabet=alphabet)
    assert is_primitive(p), "seed chosen to give a primitive block"
    walk = Walk(*shape, alphabet, grid=g, sink=lambda *a: None)
    walk.run()
    assert len(walk.max1) < shape[0] * shape[1]
    assert_matches_reference(p, encode_records(g, alphabet))


def test_walk_keeps_no_table_wider_than_a_later_row_builds():
    # no row builds wider than the row above it, so once row 2 stops at
    # width 25 the rest of row 1 is read no more
    g = (np.random.default_rng(1).random((64, 64)) < 0.2).astype(np.uint8)
    walk = encode_walk(g, 2)[1]
    widest = max(l for k, l in walk.max1 if k == 2)
    assert widest == 25
    assert max(l for k, l in walk.tabs if k == 1) <= widest


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_random_small(data):
    m = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(2, 5))
    alphabet = data.draw(st.integers(2, 4))
    cells = data.draw(st.lists(st.integers(0, alphabet - 1),
                               min_size=m * n, max_size=m * n))
    g = np.array(cells, dtype=np.int64).reshape(m, n)
    p = from_numpy(g, alphabet=alphabet)
    if not is_primitive(p):
        return
    records = encode_records(g, alphabet)
    assert_matches_reference(p, records)
    assert is_shift(decode_grid(m, n, alphabet, records), g)


@pytest.mark.parametrize("shape,alphabet,seed", [
    ((16, 16), 2, 11),
    ((12, 20), 4, 12),
    ((9, 7), 16, 13),
])
def test_roundtrip_midsize(shape, alphabet, seed):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, alphabet, size=shape)
    p = from_numpy(g, alphabet=alphabet)
    assert is_primitive(p), "seed chosen to give a primitive block"
    records = encode_records(g, alphabet)
    assert is_shift(decode_grid(*shape, alphabet, records), g)


def test_out_of_interval_value_rejected():
    g = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int64)
    records = encode_records(g, 2)
    idx = next(i for i, r in enumerate(records) if r[3] > r[2])
    k, l, lo, hi, _ = records[idx]
    bad = list(records)
    bad[idx] = (k, l, lo, hi, hi + 1)
    with pytest.raises(InconsistentCountsError):
        decode_grid(3, 3, 2, bad)


@pytest.mark.parametrize("change", ["short", "long", "below", "above"])
def test_bad_pulled_batch_names_its_size(change):
    g = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int64)
    records = encode_records(g, 2)
    target = next(r[:2] for r in records if r[:2] != (1, 1))
    stream, pull = pull_from(records)

    def bad_pull(k, l, lo, hi):
        values = pull(k, l, lo, hi)
        if (k, l) != target:
            return values
        if change == "short":
            return values[:-1]
        if change == "long":
            return values + [int(lo[0])]
        return [int(lo[0]) - 1 if change == "below" else int(hi[0]) + 1,
                *values[1:]]

    walk = Walk(3, 3, 2, pull=bad_pull)
    with pytest.raises(InconsistentCountsError,
                       match=rf"size \({target[0]},{target[1]}\)"):
        walk.run()


def test_encoder_catches_a_missing_window():
    # a window lost from the candidates must not pass silently: the
    # candidate each anchor's place in the join leads to, which gives the
    # encoder its counts, must be made of the anchor's two slabs
    g = np.random.default_rng(4).integers(0, 2, size=(6, 6))
    assert len(Census(g).counts(1, 2)) == 4

    class DropsOne(Walk):
        dropped = False

        def _fields(self, grp, first, second):
            cand, keep = super()._fields(grp, first, second)
            if self.dropped:
                return cand, keep
            self.dropped = True  # the first join is size (1,2)'s
            assert grp.size == (1, 2)
            return _take(cand, np.arange(1, cand.n)), keep

    with pytest.raises(InconsistentCountsError,
                       match=r"walked table diverges from the grid at size "
                             r"\(1,2\)"):
        encode_walk(g, 2, DropsOne)


class JoinLogWalk(Walk):
    """An encoder walk that notes the join axis of every size it builds,
    and calls `built(k, l)` after each size."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.joins = {}

    def built(self, k, l):
        pass

    def _build_11(self):
        super()._build_11()
        self.built(1, 1)

    def _build(self, size, ax):
        self.joins[size] = ax
        super()._build(size, ax)
        self.built(*size)


class LosesAnchorWindow(JoinLogWalk):
    """Loses the window at anchor (0, 0) from the candidates of `target`."""

    target = None

    def _fields(self, grp, first, second):
        cand, keep = super()._fields(grp, first, second)
        if grp.size != self.target:
            return cand, keep
        ax = grp.ax
        ids = grp.S.at
        lost = ((cand.link[ax][0] == ids[0, 0])
                & (cand.link[ax][1] == ids[1 - ax, ax]))
        assert lost.sum() == 1
        return _take(cand, ~lost), keep


@pytest.mark.parametrize("target", [(3, 2), (3, 1)],
                         ids=["row-joined", "strip"])
def test_encoder_catches_a_missing_window_on_row_joins(target):
    # (3,2) is this grid's first interior size joined along the rows, so
    # its candidates are reordered to the native column key after the join
    g = np.random.default_rng(4).integers(0, 2, size=(6, 6))
    joins = encode_walk(g, 2, JoinLogWalk)[1].joins
    assert min(s for s, ax in joins.items() if ax == 0 and s[1] >= 2) == (3, 2)
    assert joins[target] == 0
    walk_cls = type("Loses", (LosesAnchorWindow,), {"target": target})
    with pytest.raises(InconsistentCountsError,
                       match=r"walked table diverges from the grid at size "
                             rf"\({target[0]},{target[1]}\)"):
        encode_walk(g, 2, walk_cls)


class ParityWalk(JoinLogWalk):
    """Checks each size's anchor ids against the grid's census as it is
    built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.census = Census(self.truth)

    def built(self, k, l):
        ids = self.census.ids(k, l)
        assert np.array_equal(self.tabs[(k, l)].at, ids), (k, l)


def held_ids(walk):
    """Size -> anchor ids of every table the walk keeps that holds them,
    the readout size's too when the walk has dropped it."""
    tabs = dict(walk.tabs)
    if walk.readout is not None:
        tabs.setdefault(*walk.readout)
    return {size: t.at for size, t in tabs.items() if t.at is not None}


class RetentionWalk(JoinLogWalk):
    """Checks before each size that the tables holding anchor ids, as
    int32, are exactly the slabs that this size and the later sizes of its
    diagonal join, and the sizes of the diagonal built so far: a table
    keeps its ids for the next diagonal, and lets go of them after the
    last size that reads them."""

    def _build(self, size, ax):
        held = held_ids(self)
        assert all(ids.dtype == np.int32 for ids in held.values())
        read = {(k - 1, l) if a == 0 else (k, l - 1)
                for (k, l), a in self._axes.items() if (k, l) not in self.max1}
        # the diagonal's sizes built so far keep theirs for the next one
        built = {s for s in self._axes if s in self.max1}
        assert set(held) == read | built, size
        super()._build(size, ax)


def seeded_grids(count=20):
    """`count` primitive grids of sides 4..16, J cycling through 2, 4, 16."""
    rng = np.random.default_rng(20)
    out = []
    while len(out) < count:
        alphabet = (2, 4, 16)[len(out) % 3]
        g = rng.integers(0, alphabet, size=tuple(rng.integers(4, 17, size=2)))
        if is_primitive(from_numpy(g, alphabet=alphabet)):
            out.append((g, alphabet))
    return out


def test_walk_ids_match_the_census():
    grids = [(g, 2) for m, n in ((3, 3), (3, 4))
             for g in all_primitive_grids(m, n)]
    grids += seeded_grids() + [(near_periodic_tile(), 2)]
    kinds = set()
    for g, alphabet in grids:
        walk = encode_walk(g, alphabet, ParityWalk)[1]
        kinds |= {"strip" if l == 1 else ("columns", "rows")[1 - ax]
                  for (k, l), ax in walk.joins.items()}
    assert kinds == {"columns", "rows", "strip"}


def test_walk_holds_two_diagonals_of_anchor_ids():
    # the ids of one diagonal and the next at most; none once the walk ends
    for g, alphabet in seeded_grids() + [(near_periodic_tile(), 2)]:
        walk = encode_walk(g, alphabet, RetentionWalk)[1]
        assert walk.joins and not held_ids(walk)


class FieldRetentionWalk(Walk):
    """Checks at the start of each decoder row and each encoder diagonal
    that every field of every table held has a reader still to be built:
    both axes' links while (k+1, l) or (k, l+1), which read it whole, may
    still be built; one axis's links for a (k+1, l+1) joined along that
    axis; counts for one of those or an overlap (k+2, l) or (k, l+2); a
    row strip's extremal marks alone while its column may still grow.  A
    strip cut to its marks is asked about no more.  It notes the kinds of
    table held."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kinds = set()
        self.line = None

    def _build(self, size, ax):
        k, l = size
        line = k if self.truth is None else k + l
        if line != self.line:
            self.line = line
            self.check()
        super()._build(size, ax)

    def later(self, k, l):
        return (k, l) not in self.max1 and k <= self.reach[l]

    def check(self):
        for (k, l), tab in self.tabs.items():
            if k == 0 or l == 0 or (k, l) == (1, 1):
                continue
            whole = self.later(k + 1, l) or self.later(k, l + 1)
            links = [ax for ax in (0, 1) if tab.link[ax] is not None]
            if len(links) == 2:
                assert whole, (k, l)
                self.kinds.add("whole")
            elif links:
                [ax] = links
                cross = (k + 1, l + 1)
                assert self.later(*cross) and self._axes[cross] == ax, (k, l)
                self.kinds.add(("rows", "columns")[ax])
            if tab.count is not None:
                assert (whole or links or self.later(k + 2, l)
                        or self.later(k, l + 2)), (k, l)
                if not links:
                    self.kinds.add("counts")
            elif k == 1 and not links and tab.is_extremal is not None:
                assert any(self.later(i, l)
                           for i in range(2, self.reach[l] + 1)), (k, l)
                self.kinds.add("row marks")
        assert _MARKS not in self._kept.values()


def test_walks_hold_only_the_fields_later_sizes_read():
    enc_kinds, dec_kinds = set(), set()
    for g, alphabet in seeded_grids() + [(near_periodic_tile(), 2),
                                         (one_dot(16), 2)]:
        records, enc = encode_walk(g, alphabet, FieldRetentionWalk)
        stream, pull = pull_from(records)
        dec = FieldRetentionWalk(*g.shape, alphabet, pull=pull)
        dec.run()
        assert next(stream, None) is None
        enc_kinds |= enc.kinds
        dec_kinds |= dec.kinds
    # the encoder cuts a table to its cross join's links two diagonals on;
    # the decoder's (k+1, l+1) builds in the same row as (k+1, l)
    assert enc_kinds == {"whole", "rows", "columns", "counts", "row marks"}
    assert dec_kinds == {"whole", "counts", "row marks"}


class CrossParityWalk(Walk):
    """Checks at every size built with both axes that the cross links read
    off the pair index are the ones a search of the cross table's sorted
    (first slab, last edge) keys finds, and notes the kinds of size seen.
    It keeps every table whole, as the walk cuts (k-1, l-1) to its join
    fields before (k, l) builds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kinds = set()
        self.whole = {}

    def _install(self, size, tab):
        self.whole[size] = tab
        super()._install(size, tab)

    def _fields(self, grp, first, second):
        cand, keep = super()._fields(grp, first, second)
        ax = grp.ax
        o = 1 - ax
        k, l = grp.size
        if not grp.full:
            self.kinds.add("strip")
            return cand, keep
        slab, inner = grp.S, self.whole[(k - 1, l - 1)]
        # a cross slab's last edge along ax is that of the second slab
        # less the same line
        (p, ok_p), (q, ok_q) = (
            _lookup(grp.C, ax, slab.link[o][h][first],
                    inner.edge[ax][1][slab.link[o][h][second]])
            for h in (0, 1))
        found = ok_p & ok_q
        assert found.all() if keep is None else np.array_equal(found, keep)
        assert np.array_equal(cand.link[o][0], p[found]), (k, l)
        assert np.array_equal(cand.link[o][1], q[found]), (k, l)
        # (k-1, l-1) is one wide at k or l = 2; where it is one wide along
        # the join, its overlap along it is the empty window
        self.kinds |= {("rows", "columns")[ax],
                       *(["one-wide"] if min(k, l) == 2 else []),
                       *(["empty overlap"] if (k, l)[ax] == 2 else [])}
        return cand, keep


def test_cross_links_match_the_search_on_both_walks():
    grids = [(g, 2) for m, n in ((3, 3), (3, 4))
             for g in all_primitive_grids(m, n)]
    grids += seeded_grids() + [(near_periodic_tile(), 2), (one_dot(16), 2)]
    kinds = set()
    for g, alphabet in grids:
        records, enc = encode_walk(g, alphabet, CrossParityWalk)
        stream, pull = pull_from(records)
        dec = CrossParityWalk(*g.shape, alphabet, pull=pull)
        dec.run()
        assert next(stream, None) is None
        kinds |= enc.kinds | dec.kinds
    assert kinds == {"columns", "rows", "strip", "one-wide", "empty overlap"}


class PlaceholderWalk(Walk):
    """Notes, per strip it installs, the links along the axis it is one
    wide on: the placeholders that stand for the empty window."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.placeholders = []

    def _install(self, size, tab):
        self.placeholders += [(size, links) for ax in (0, 1) if size[ax] == 1
                              for links in tab.link[ax]]
        super()._install(size, tab)


def test_strip_placeholder_links_are_read_only():
    # every strip's placeholders view one shared zero at stride 0, so an
    # in-place op on any of them must fail rather than move every strip's
    # empty-window link at once
    for g in (one_dot(16), near_periodic_tile()):
        records, enc = encode_walk(g, 2, PlaceholderWalk)
        stream, pull = pull_from(records)
        dec = PlaceholderWalk(*g.shape, 2, pull=pull)
        dec.run()
        assert next(stream, None) is None
        for walk in (enc, dec):
            strips = {size for size, _ in walk.placeholders}
            assert (1, 1) in strips and (1, 2) in strips and (2, 1) in strips
            for size, links in walk.placeholders:
                assert not links.flags.writeable, size
                assert links.strides == (0,) and not np.any(links), size


def test_corrupt_value_handled_gracefully():
    # Replacing one transmitted value with another in-interval one must
    # never make the walk crash in an uncontrolled way: either the family
    # sums catch the lie, or a sibling derived from the same residual
    # absorbs it and the walk still completes on a structurally valid
    # census.  Tamper evidence proper lives at the container layer, where a
    # bit flip derails the range coder itself.
    def lenient_decode(m, n, alphabet, records):
        walk = Walk(m, n, alphabet, pull=pull_from(records, check=False)[1])
        walk.run()
        return walk.member_grid()

    rng = np.random.default_rng(5)
    hits = detected = 0
    for _ in range(20):
        g = rng.integers(0, 2, size=(4, 4))
        p = from_numpy(g, alphabet=2)
        if not is_primitive(p):
            continue
        records = encode_records(g, 2)
        for idx, (k, l, lo, hi, value) in enumerate(records):
            if hi == lo:
                continue
            bad = list(records)
            bad[idx] = (k, l, lo, hi, lo + hi - value)
            hits += 1
            try:
                back = lenient_decode(4, 4, 2, bad)
            except (InconsistentCountsError, UnderdeterminedCountsError,
                    StopIteration):
                detected += 1
                continue
            assert back.shape == (4, 4)
    assert hits > 50
    assert detected > 0


class LoggingWalk(Walk):
    """A decoder walk that keeps every table's counts as it is installed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _install(self, size, tab):
        self.log.append((size, tab.count.tolist()))
        super()._install(size, tab)


class TableWalk(Walk):
    """A walk that keeps every table's counts, links and edges as it is
    installed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tables = []

    def _install(self, size, tab):
        self.tables.append((size, tab.count.tolist(),
                            [[ids.tolist() for ids in pair]
                             for pair in tab.link + tab.edge]))
        super()._install(size, tab)


class RowJoinWalk(TableWalk):
    """Joins slab pairs along the rows wherever both axes are open."""

    def _join_cost(self, ax, k, l):
        return ax


class ColumnJoinWalk(TableWalk):
    """Joins slab pairs along the columns wherever both axes are open."""

    def _join_cost(self, ax, k, l):
        return 1 - ax


def walk_both_ways(g, alphabet, walk_cls):
    """Encoder then decoder walk of g: the sink records, and each walk's
    tables and readout size."""
    records, enc = encode_walk(g, alphabet, walk_cls)
    stream, pull = pull_from(records)
    dec = walk_cls(*g.shape, alphabet, pull=pull)
    dec.run()
    assert next(stream, None) is None
    return (records, enc.tables, enc.readout[0], dec.tables, dec.readout[0])


def test_join_axis_does_not_matter():
    # the default walk joins along the axis with fewer slab pairs; joining
    # along either one must build the same tables and code the same counts
    rng = np.random.default_rng(1701)
    checked = 0
    while checked < 30:
        m, n = (int(x) for x in rng.integers(2, 13, size=2))
        alphabet = int(rng.choice([2, 3, 4, 16]))
        g = rng.integers(0, alphabet, size=(m, n))
        if not is_primitive(from_numpy(g, alphabet=alphabet)):
            continue
        want = walk_both_ways(g, alphabet, TableWalk)
        assert walk_both_ways(g, alphabet, RowJoinWalk) == want
        assert walk_both_ways(g, alphabet, ColumnJoinWalk) == want
        checked += 1


class OrderLogWalk(TableWalk):
    """A walk that keeps its tables and notes the sizes it builds, in the
    order it builds them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.order = []

    def _build(self, size, ax):
        self.order.append(size)
        super()._build(size, ax)


def test_diagonal_encoder_matches_row_decoder():
    # the encoder builds one size at a time diagonal by diagonal, the
    # decoder one size at a time in row-major order; both must build the
    # same tables, sink and pull the same records in the same order and
    # read out the same size
    for g, alphabet in ([(near_periodic_tile(), 2), (one_dot(16), 2)]
                        + seeded_grids()):
        records, enc = encode_walk(g, alphabet, OrderLogWalk)
        stream, pull = pull_from(records)
        dec = OrderLogWalk(*g.shape, alphabet, pull=pull)
        dec.run()
        assert next(stream, None) is None
        assert sorted(enc.tables) == sorted(dec.tables)
        assert enc.readout[0] == dec.readout[0]
        assert enc.order == sorted(enc.order, key=sum)
        assert dec.order == sorted(dec.order)
        assert sorted(enc.order) == dec.order != enc.order


def lie_outcomes():
    """Per one-value lie on seeded grids, what the decoder walk makes of it.

    Each lie swaps one transmitted value for lo + hi - value.  The outcome
    is the exception's type and message, or every table the walk built plus
    the number of values it left unread.
    """
    rng = np.random.default_rng(20170124)
    for shape in [(4, 4), (5, 5), (4, 6), (6, 6)]:
        for alphabet in (2, 3, 4):
            g = rng.integers(0, alphabet, size=shape)
            if not is_primitive(from_numpy(g, alphabet=alphabet)):
                continue
            records = encode_records(g, alphabet)
            for idx, (k, l, lo, hi, value) in enumerate(records):
                if hi == lo:
                    continue
                bad = list(records)
                bad[idx] = (k, l, lo, hi, lo + hi - value)
                stream, pull = pull_from(bad, check=False)
                walk = LoggingWalk(*shape, alphabet, pull=pull)
                try:
                    walk.run()
                except (InconsistentCountsError, UnderdeterminedCountsError,
                        StopIteration) as e:
                    yield (type(e).__name__, str(e))
                else:
                    yield ("ok", walk.log, len(list(stream)))


# SHA-256 over the repr of every `lie_outcomes` entry.  How the decoder
# derives counts may change; what each lie leads to may not.
LIE_OUTCOMES_SHA256 = (
    "bf90d338171a79168c96e8a3844cf1e1a67c338ba667cc83610d34a52526582f")


def test_lie_outcomes_golden():
    h = hashlib.sha256()
    kinds = set()
    for outcome in lie_outcomes():
        h.update(repr(outcome).encode())
        kinds.add(outcome[1].split(" at ")[0] if outcome[0] != "ok" else "ok")
    assert {"ok", "family sums off",
            "family cannot reach its residual"} <= kinds
    assert h.hexdigest() == LIE_OUTCOMES_SHA256


def test_lie_at_size_without_derived_counts_breaks_family_sums():
    # only the family sums over every candidate can catch a lie at a size
    # where every unknown count is transmitted
    g = np.random.default_rng(0).integers(0, 2, size=(4, 4))
    p = from_numpy(g, alphabet=2)
    _, sched = _schedule(p, passive_last=False)
    derives = {(b.m, b.n) for b, d in sched
               if d is not None and d.kind == DERIVE}
    records = encode_records(g, 2)
    idx = next(i for i, (k, l, lo, hi, v) in enumerate(records)
               if (k, l) not in derives and k * l > 1 and 2 * v != lo + hi)
    k, l, lo, hi, value = records[idx]
    bad = list(records)
    bad[idx] = (k, l, lo, hi, lo + hi - value)
    assert (k, l) == (4, 3)
    walk = Walk(4, 4, 2, pull=pull_from(bad, check=False)[1])
    with pytest.raises(InconsistentCountsError,
                       match=rf"family sums off at size \({k},{l}\)"):
        walk.run()


def cycle_families():
    """Four unknowns in a 2x2 cycle: each group of either family holds two
    of them with residual 1, so every one could be 0 or 1."""
    fams = [(np.array([0, 0, 1, 1]), np.array([1, 1])),
            (np.array([0, 1, 0, 1]), np.array([1, 1]))]
    return fams, np.full(4, -1, dtype=np.int64)


def test_sweep_leaves_an_undetermined_cycle():
    # no unknown is alone in its group, so the sweep pins none
    fams, values = cycle_families()
    assert _sweep(fams, values, np.arange(4)) is None


def test_derive_reports_an_undetermined_cycle():
    fams, values = cycle_families()
    with pytest.raises(UnderdeterminedCountsError,
                       match=r"4 counts unresolved at size \(2,3\)"):
        Walk._derive(2, 3, fams, values, np.arange(4),
                     np.zeros(4, dtype=np.int64), np.ones(4, dtype=np.int64))


def test_derive_makes_one_pass():
    # both families hold the same two unknowns in one group, one asking
    # for a sum of 10000 and the other 9999: each pass would shrink both
    # intervals by one, so one pass leaves both unresolved
    fams = [(np.array([0, 0]), np.array([10000])),
            (np.array([0, 0]), np.array([9999]))]
    values = np.full(2, -1, dtype=np.int64)
    with pytest.raises(UnderdeterminedCountsError,
                       match=r"^2 counts unresolved at size \(2,3\)$"):
        Walk._derive(2, 3, fams, values, np.arange(2),
                     np.zeros(2, dtype=np.int64),
                     np.full(2, 10 ** 6, dtype=np.int64))


def consistent_grids():
    """Seeded grids with sides 4..16, and `test_roundtrip_midsize`'s."""
    rng = np.random.default_rng(4016)
    for side in range(4, 17):
        for alphabet in (2, 4, 16):
            g = rng.integers(0, alphabet, size=(side, int(rng.integers(4, 17))))
            yield g, alphabet
    for shape, alphabet, seed in [((16, 16), 2, 11), ((12, 20), 4, 12),
                                  ((9, 7), 16, 13)]:
        yield np.random.default_rng(seed).integers(0, alphabet, size=shape), alphabet


def test_consistent_streams_never_narrow(monkeypatch):
    # the one-pass sweep pins every derived count of a consistent stream;
    # the narrowing is there only to name what is wrong with a bad one
    def narrowing(k, l, *args):
        raise AssertionError(f"narrowing ran at size ({k},{l})")

    monkeypatch.setattr(Walk, "_derive", staticmethod(narrowing))
    checked = 0
    for g, alphabet in consistent_grids():
        p = from_numpy(g, alphabet=alphabet)
        if not is_primitive(p):
            continue
        assert decompress(compress(p, strict=True)) == p
        checked += 1
    assert checked >= 40


def test_member_grid_matches_shift_for_every_rank():
    # the walk reads out one torus shift; the rank the codec sends picks
    # every other one
    g = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=np.int64)
    p = from_numpy(g, alphabet=2)
    walk = Walk(3, 3, 2, grid=g, sink=lambda *a: None)
    walk.run()
    assert is_shift(walk.member_grid(), g)
    seen = set()
    for r in range(9):
        out = decompress(_encode(p, g, r)[0])
        assert rank_of(out) == r
        seen.add(out.cells)
    assert len(seen) == 9


def test_transmissions_stop_once_settled():
    rng = np.random.default_rng(3)
    g = rng.integers(0, 2, size=(10, 10))
    assert is_primitive(from_numpy(g, alphabet=2))
    records = encode_records(g, 2)
    assert all(k * l < 100 for k, l, *_ in records)


# ---- settled frontier and readout size ----

def frontier_walk(g, alphabet):
    """Encoder walk of g, checked against the grid's census: a table is
    built at exactly the sizes that are not settled, a readout size is
    recorded, the grid reads back off it, and the walk ends holding the
    anchor ids of the last row it built only."""
    m, n = g.shape
    census = Census(g)
    walk = Walk(m, n, alphabet, grid=g, sink=lambda *a: None)
    walk.run()

    def once(k, l):
        return bool(census.counts(k, l).max() == 1)

    full = {(k, l) for k in range(1, m + 1) for l in range(1, n + 1)
            if not ((l >= 3 and once(k, l - 2)) or (k >= 3 and once(k - 2, l)))}
    assert set(walk.max1) == full
    assert walk.readout is not None
    assert walk.readout[0] in full
    last = max(k for k, _ in walk.max1)
    assert {r for r, _ in held_ids(walk)} <= {last}
    assert is_shift(walk.member_grid(), g)
    return walk


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_readout_exhaustive_binary(m, n):
    checked = 0
    for g in all_primitive_grids(m, n):
        frontier_walk(g, 2)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("alphabet", [2, 4, 16])
def test_readout_seeded(alphabet):
    rng = np.random.default_rng(alphabet)
    checked = 0
    for m in (2, 5, 9, 16):
        for n in (3, 8, 13, 16):
            g = rng.integers(0, alphabet, size=(m, n))
            if is_primitive(from_numpy(g, alphabet=alphabet)):
                frontier_walk(g, alphabet)
                checked += 1
    assert checked >= 12


def test_near_periodic_tile_reads_out_at_full_size():
    walk = frontier_walk(near_periodic_tile(), 2)
    assert walk.readout[0] == (32, 32)


def interior_readout_walk():
    g = np.random.default_rng(0).choice(2, size=(12, 12), p=[0.7, 0.3])
    walk = Walk(12, 12, 2, grid=g, sink=lambda *a: None)
    walk.run()
    K, L = walk.readout[0]
    assert K < 12 and L < 12
    return g, walk


def test_member_grid_every_rank_from_interior_readout():
    g, walk = interior_readout_walk()
    assert is_shift(walk.member_grid(), g)
    p = from_numpy(g, alphabet=2)
    ids = Census(g).ids(12, 12)
    for i in range(12):
        for j in range(12):
            want = np.roll(g, (-i, -j), axis=(0, 1))
            out = decompress(_encode(p, g, int(ids[i, j]))[0])
            assert np.array_equal(out.to_numpy(), want)


def test_member_grid_rejects_links_that_do_not_tile():
    g, walk = interior_readout_walk()
    tab = walk.readout[1]
    second = tab.link[1][1]
    second[[0, 1]] = second[[1, 0]]
    with pytest.raises(InconsistentCountsError, match=r"size \(\d+,\d+\)"):
        walk.member_grid()
