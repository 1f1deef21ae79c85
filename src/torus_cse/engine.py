"""Vectorized encoder/decoder walker over torus window-count tables.

Tables live in id space: the positive windows of one size, sorted by their
column-major byte key, get ids 0..n-1.  The torus treats rows and columns
alike, so every per-id field is indexed by axis, 0 dropping a row and 1 a
column: along each axis an id links to its first and second slab (the
window less its last or its first row or column) and to its first and last
edge strip.  Each step of a table build is written once for both axes, as
numpy array programs.  A size's candidates come from one join of
overlapping slab pairs along the axis that expands fewer pairs; that choice
is for speed only, since either join gives the same candidates in the same
canonical order.  A join lists each pair at a place fixed by its two slab
ids (`_pair_index`), and that one rule places every pair the walk reads,
with a few gathers per build.  It lays out the join itself.  It finds each
candidate's two slabs along the other axis, the cross slabs, in the cross
table's own join, which is never expanded: a cross slab joins the
candidate's two slabs less the same line.  And the encoder reads each
anchor's candidate off the join with it: the anchor's window joins its
slab with the slab one step further along the join axis.  No build
searches a sorted key.  The decoder runs the exact same table builds as
the encoder, which keeps the two in lockstep by construction.  The
encoder's counts are the anchors per candidate, so its tables are the
grid's census by construction, and checking that each anchor's candidate
is made of its two slabs is its table check.

One build makes a group of sizes that join along the same axis, in one
pass of numpy steps: the tables each role reads are laid end to end
(`_Stack`), each table's ids shifted past those of the tables before it,
so the join, the cross slabs, the reorder to the native key, the
dispositions and the encoder's anchors and counts each run once over the
whole group, and the result is split into one table per size at the end.
The walk's mode is its schedule.  Every size on anti-diagonal k + l reads
only sizes on earlier diagonals, so the encoder builds a diagonal at a
time: its groups are the diagonal's sizes that join along one axis, cut
where their joins together would pass a pair cap (`Walk._groups`).  It
holds each size's batch until every size before it in row-major order has
been sunk, so the sink sees the v1 order.  The decoder reads the v1
stream, so its groups are single sizes in row-major order.

Small grids and never-settling tiles make thousands of builds of a few
hundred ids, so a build's fixed cost sets their speed.  Every per-build
step calls numpy's C entry points, never its Python-level wrappers:
np.maximum/np.minimum for np.clip (3.2 against 7.9 us on 300 ids), a
read-only zero-stride view for np.broadcast_to (1.2 against 6.4 us), ufunc
reductions and ndarray methods for the rest (tests/test_imports.py).

The empty window is a size too: one shared table with a single id, counted
at all m*n anchors, stands for every (k, 0) and (0, l).  A table one wide
along an axis links both its slabs along that axis to it, so a width-2 or
height-2 size pairs its slabs and reads its overlap count exactly like every
larger size.

Once every window of (k, l-2) or (k-2, l) occurs exactly once, (k, l) and
every larger size extend uniquely and carry no transmissions: the walk stops
at this settled frontier and builds no table beyond it.  The sizes it does
build form a down-set, so no built size ever reads a skipped one, and the
sizes that may still be built are the ones under a per-column height
(`Walk.reach`) that each settled size lowers.  A table is dropped once no
size still to be built reads it (`Walk._drop_unread`): the decoder looks
after each row, the encoder before each diagonal and, for the tables three
diagonals back that a diagonal reads last, after each group.  An edge
strip is kept as its extremal marks while its column or row may still
grow, and a column strip (k, 1) for good.  The encoder's anchor ids are
read only by the joins of the next diagonal, so each table lets go of
them right after the last group that joins its slabs.

The decoder reads the grid off one built size instead, the readout size: the
row-major first (K, L) with K, L >= 2 whose windows are all distinct and
whose torus shift links are known, because (K, L-1) is all-distinct or
L = n, and (K-1, L) is all-distinct or K = m.  Its right and down links lay
out every anchor's id, and so one torus shift of the grid; which shift the
encoder sent is the codec's to say.  The encoder takes the same size.

Transmitted counts cross the walk's boundary a size at a time.  The encoder
calls `sink(k, l, lo, hi, values)` and the decoder calls
`pull(k, l, lo, hi) -> values`, with int64 arrays in canonical candidate
order: once for the J-1 single-symbol counts at (1, 1), then once per size
that transmits at least one count, sizes in row-major order.  The decoder
checks a pulled batch against its intervals in one step; a batch of the
wrong length or with a value outside [lo, hi] raises
`InconsistentCountsError` naming the size.  The walk only counts; the
caller books and codes the batches.

A count whose interval is one point is known to both sides; that covers
every count with a slab that fills its overlap.  Every other untransmitted
count is derived from the slab-family residuals: per family (shared first
or last column slab, first or last row slab), the slab's count less the
counts already known.  One sweep over the four families pins each unknown
that is alone in its group to that group's residual.  Only if the sweep
leaves an unknown, pins one outside its interval, or breaks a family sum,
are the unknowns narrowed against the residuals in one more pass over the
families, from the state before the sweep; only a bad stream gets there, and
that names the error.  A size with nothing to derive skips both.  The family
sums over every candidate, checked last, are the consistency gate that
catches a lie at any size.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .blocks import _expand_runs, _find, _run_bases, slab_bounds
from .errors import InconsistentCountsError, UnderdeterminedCountsError

# key multiplier of every table: ids stay below 2^31, as the anchor ids
# are int32, so first * _KEY + last orders (first, last) pairs
_KEY = np.int64(1 << 31)

# most slab pairs the joins of one encoder group expand together
# (`Walk._groups`).  A size whose join alone passes an eighth of it builds
# alone, as iid64's large sizes (4.5k-10.6k pairs each) do, so the peaks
# stay those of the largest single build; below it a group saves the
# per-build fixed cost.  Set by walk-only encode timings of cli32's seed-1
# grids against the per-size build (2 vCPUs): 2^12 took 0.87x on the
# near-periodic tiles, 6 * 2^10 0.79-0.84x and 2^13 0.79-0.81x, but 2^13
# lifted a tile's encoder peak to 1.24x its decoder's, where
# tests/test_codec.py allows 1.2x; the markov textures took 1.13-1.29x at
# any of them.
_PAIR_CAP = 6 << 10

# offsets from a table's size to the sizes that read it: as a slab, as an
# overlap, as the (k-1, l-1) table a cross slab's join lays out, and as
# that join's overlap, which only a size joined along the given axis reads;
# the ones two lines further come first, as they are the likeliest to be
# still unbuilt
_READERS = ((2, 0, None), (0, 2, None), (2, 1, 0), (1, 2, 1), (1, 0, None),
            (0, 1, None), (1, 1, None))

_UNKEYED = object()  # a table axis whose key order is not known yet

# the int64 zero that every one-wide link views at stride 0, read-only
_ZERO = bytes(8)


class _Table:
    """Positive windows of one size, canonically ordered, with slab links.

    Per-id fields are indexed by axis: `ax` 0 drops a row, `ax` 1 a column.
    `link[ax]` holds each id's (first, second) slab ids in the table one
    smaller along `ax`, and `edge[ax]` its (first, last) edge strip ids: rows
    (1, l) for ax 0, columns (k, 1) for ax 1.  `perm[ax]` sorts the ids by
    their key along `ax`, `link[ax][0] * _KEY + edge[ax][1]` (first slab,
    then last edge); it is None where the ids already run in that order,
    and it is found on first use.  Every table keys by the one multiplier
    `_KEY`, which exceeds any id.  The ids follow the native key: columns,
    or rows for a table one column wide.  `pairs[ax]` counts the slab pairs
    that a join of this table along `ax` expands, None until counted.  The
    encoder's `at` holds the (m, n) int32 id of the window at every anchor.
    An edge strip that no size reads as a slab any more is cut to its
    marks (`_marks`).
    """

    __slots__ = ("n", "count", "link", "edge", "perm", "pairs",
                 "is_extremal", "at")

    def __init__(self, n: int) -> None:
        self.n = n
        self.count = None
        self.link = [None, None]
        self.edge = [None, None]
        self.perm = [_UNKEYED, _UNKEYED]
        self.pairs = [None, None]
        self.is_extremal = None  # strips: the extremal line, if it occurs
        self.at = None

    # a table is the stack (`_Stack`) of itself, with its ids unshifted

    @property
    def tabs(self):
        return (self,)

    @property
    def off(self):
        return (0, self.n)

    def links(self, ax, ids_of=None):
        return self.link[ax]

    def edges(self, ax, ids_of=None):
        return self.edge[ax]

    def sorter(self, ax):
        return _perm(self, ax)


def _less(size, ax: int, d: int):
    """`size` less `d` lines along `ax`."""
    k, l = size
    return (k - d, l) if ax == 0 else (k, l - d)


def _one_wide(tab: _Table, ax: int) -> None:
    """Links of a table one wide along `ax`: both slabs are the empty
    window, reached by zero-stride links, and each id is its own edge
    strip, so it is keyed by itself."""
    ar = np.arange(tab.n, dtype=np.int64)
    empty = np.ndarray((tab.n,), np.int64, _ZERO, 0, (0,))
    tab.link[ax] = (empty, empty)
    tab.edge[ax] = (ar, ar)
    tab.perm[ax] = None
    tab.pairs[ax] = tab.n * tab.n


def _marks(strip: _Table, column: bool) -> _Table:
    """What sizes read of an edge strip once none reads it as a slab: its
    extremal marks, and for a column (k, 1) its first row ids too, which
    lay out the readout."""
    out = _Table(strip.n)
    out.is_extremal = strip.is_extremal
    if column:
        out.edge[0] = strip.edge[0]
    return out


def _inverse(perm: np.ndarray) -> np.ndarray:
    """Inverse of an id permutation; -1 where an id is never hit."""
    inv = np.empty(len(perm), dtype=np.int64)
    inv.fill(-1)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    return inv


def _key(tab: _Table, ax: int) -> np.ndarray:
    return tab.link[ax][0] * _KEY + tab.edge[ax][1]


def _perm(tab: _Table, ax: int):
    """`tab.perm[ax]`, found on first use."""
    if tab.perm[ax] is _UNKEYED:
        tab.perm[ax] = _key(tab, ax).argsort(kind="stable")
    return tab.perm[ax]


def _roles(tabs, sizes, ax: int, strip: bool = True):
    """The slabs of `sizes` along `ax`, their overlaps and, with `strip`,
    their edge strips (rows (1, l) for ax 0, columns (k, 1) for ax 1): the
    tables themselves for one size, each role's tables stacked for more."""
    keys = [((k - 1, l), (k - 2, l), (1, l)) if ax == 0 else
            ((k, l - 1), (k, l - 2), (k, 1)) for k, l in sizes]
    if len(keys) == 1:
        return [tabs[s] for s in keys[0][:2 + strip]]
    return [_Stack([tabs[s] for s in role])
            for role in list(zip(*keys))[:2 + strip]]


class _Stack:
    """Two or more tables, one per size of a group, laid end to end, so
    that they read as one table: table i's ids are shifted by `off[i]`,
    the number of ids before it."""

    __slots__ = ("tabs", "n", "off", "_owner", "_shift")

    def __init__(self, tabs) -> None:
        self.tabs = tabs
        self.off = np.array([0] + [t.n for t in tabs]).cumsum()
        self.n = int(self.off[-1])
        self._owner = None
        self._shift = {}

    def owner(self) -> np.ndarray:
        """The table of each stacked id."""
        if self._owner is None:
            self._owner = np.arange(len(self.tabs)).repeat(
                [t.n for t in self.tabs])
        return self._owner

    def cat(self, get, ids_of=None) -> np.ndarray:
        """`get(tab)`, one value per id, of every table end to end; values
        that are ids of the stack `ids_of` are shifted into it."""
        out = np.concatenate([get(t) for t in self.tabs])
        if ids_of is not None:
            shift = self._shift.get(id(ids_of))
            if shift is None:
                shift = self._shift[id(ids_of)] = ids_of.off[self.owner()]
            out += shift
        return out

    @property
    def count(self) -> np.ndarray:
        return self.cat(lambda t: t.count)

    @property
    def is_extremal(self) -> np.ndarray:
        return self.cat(lambda t: t.is_extremal)

    def links(self, ax, ids_of):
        return tuple(self.cat(lambda t: t.link[ax][i], ids_of) for i in (0, 1))

    def edges(self, ax, ids_of):
        return tuple(self.cat(lambda t: t.edge[ax][i], ids_of) for i in (0, 1))

    def sorter(self, ax: int):
        """The stack's key permutation along `ax`, or None where its ids
        run in key order: each table's, shifted, since each table's keys
        all sort below the next one's."""
        perms = [_perm(t, ax) for t in self.tabs]
        if all(p is None for p in perms):
            return None
        out = np.concatenate([np.arange(t.n) if p is None else p
                              for t, p in zip(self.tabs, perms)])
        out += self.off[self.owner()]
        return out


class _Group:
    """The sizes one build makes, ascending in k and all joined along
    `ax`, with the tables they read stacked per role (`_Stack`).

    Along `ax`: the slabs `S`, their overlaps `O` and the edge strips `T`.
    Along the other axis, for the sizes `sizes[f0:f1]` that have one (all
    but a strip, which is one wide there and comes first in a column
    group and last in a row group): the cross slabs `C`, their overlaps
    `W` and edge strips `U`, and the (k-1, l-1) tables `X` with their
    overlaps `Y` along `ax`, whose join places the cross slabs.  `po` and
    `cof` hold where each size's pairs and candidates start, with the end.
    """

    def __init__(self, tabs, sizes, ax: int) -> None:
        self.sizes = sizes
        self.g = g = len(sizes)
        self.ax = ax
        o = 1 - ax
        f0 = 1 if sizes[0][o] == 1 else 0
        f1 = g - 1 if sizes[-1][o] == 1 else g
        self.full = (f0, f1) if f0 < f1 else None
        self.S, self.O, self.T = _roles(tabs, sizes, ax)
        if f0 < f1:
            cross = sizes[f0:f1]
            self.C, self.W, self.U = _roles(tabs, cross, o)
            # (k-1, l-1) and its overlap are the cross slabs' own slab and
            # overlap along ax
            self.X, self.Y = _roles(tabs, [_less(s, o, 1) for s in cross],
                                    ax, strip=False)
        self.po = self.cof = None

    def size_of(self, c: int):
        """The size of candidate `c`."""
        return self.sizes[bisect_right(self.cof, c) - 1]


def _pair_index(slab, overlap, ax: int):
    """Where the join of the `slab` stack with itself along `ax` lists
    each pair, and each slab's second slab as an `overlap` id.

    The join lists the (first, second) slab pairs that agree on their
    overlap in one run per first slab, the first slabs ascending and each
    run in its second slabs' sorted order.  So pair (f, s) sits at
    `base[f] + pos[s]` (`_place`), where `pos` is each slab's sorted
    position along `ax`, None where the slabs already run sorted; `runs`
    holds each first slab's pair count and `perm` the sort.  A stack's join
    is its tables' joins end to end.
    """
    first, second = slab.links(ax, overlap)
    perm = slab.sorter(ax)
    # the slabs' sorted positions run by first slab, as `_run_bases` asks
    base, runs = _run_bases(first, second, overlap.n)
    pos = None if perm is None else _inverse(perm)
    return base, pos, runs, perm, second


def _place(base, pos, f, s):
    """Where a join lists the slab pairs (f, s) (`_pair_index`)."""
    at = base[f]
    at += s if pos is None else pos[s]
    return at


def _pair_counts(links, slabs) -> list[int]:
    """Per table of a group, the slab pairs a join of it along the axis of
    its `links` into `slabs` expands: per slab id, the ids that end with it
    times the ids that start with it."""
    ends = np.bincount(links[1], minlength=slabs.n)
    starts = np.bincount(links[0], minlength=slabs.n)
    if isinstance(slabs, _Table):
        return [int(np.dot(ends, starts))]
    return np.add.reduceat(ends * starts, slabs.off[:-1]).tolist()


def _unstack(grp: _Group, tab: _Table) -> list[_Table]:
    """The group's table `tab`, in stacked ids, as one table per size in
    its own ids, each with its slab pairs along both axes counted at once.

    A strip, which stays as its marks for good, takes copies, not views
    that would hold the group's arrays; copying every table instead lifted
    the encoder's peak on a cli32 tile by a tenth, as the copies and the
    group's arrays coexist while it splits.
    """
    ax, o, g = grp.ax, 1 - grp.ax, grp.g
    # a size's tables run from its first slab on
    cut = tab.link[ax][0].searchsorted(grp.S.off).tolist()
    pairs = [[None] * g, [None] * g]
    pairs[ax] = _pair_counts(tab.link[ax], grp.S)
    shift = {ax: (grp.S.off, grp.T.off)}
    if grp.full is not None:
        f0, f1 = grp.full
        pairs[o][f0:f1] = _pair_counts(
            [x[cut[f0]:cut[f1]] for x in tab.link[o]], grp.C)
        # the strip's placeholder ids along o stay as they are
        shift[o] = tuple(np.concatenate(([0] * f0, x.off[:-1], [0] * (g - f1)))
                         for x in (grp.C, grp.U))
    own = np.arange(g).repeat([b - a for a, b in zip(cut, cut[1:])])
    for x, (links, edges) in shift.items():
        for y in tab.link[x]:
            y -= links[own].astype(y.dtype)
        for y in tab.edge[x]:
            y -= edges[own].astype(y.dtype)
    out = []
    for i, size in enumerate(grp.sizes):
        a, b = cut[i], cut[i + 1]
        take = ((lambda y: y[a:b]) if size[o] >= 2 else
                (lambda y: y[a:b].copy()))
        t = _Table(b - a)
        t.count = take(tab.count)
        for x in (ax, o) if size[o] >= 2 else (ax,):
            t.link[x] = tuple(map(take, tab.link[x]))
            t.edge[x] = tuple(map(take, tab.edge[x]))
        t.pairs = [pairs[0][i], pairs[1][i]]
        out.append(t)
    return out


def _lookup(tab: _Table, ax: int, first: np.ndarray, last: np.ndarray):
    """Ids of `tab` whose first slab and last edge along `ax` are given,
    with a found mask; -1 where absent.  Only the readout's wrapped shift
    links search, once per decode; the builds place pairs instead."""
    perm = _perm(tab, ax)
    key = _key(tab, ax)
    ids, ok = _find(key if perm is None else key[perm], first * _KEY + last)
    if perm is None:
        return ids, ok
    return np.where(ok, perm[np.maximum(ids, 0)], -1), ok


def _take(tab: _Table, idx) -> _Table:
    """A table of the links and edges of `tab` at `idx`, without counts; a
    mask is made ids once, as ids gather some 3x faster than a mask."""
    if idx.dtype == bool:
        idx = idx.nonzero()[0]
    out = _Table(len(idx))
    for pairs, into in ((tab.link, out.link), (tab.edge, out.edge)):
        for ax, pair in enumerate(pairs):
            if pair is not None:
                into[ax] = (pair[0][idx], pair[1][idx])
    return out


def _padded(a: np.ndarray, at: int, n: int, fill) -> np.ndarray:
    """`a` placed at `at` in an array of `n` values `fill`."""
    out = np.empty(n, dtype=a.dtype)
    out.fill(fill)
    out[at:at + len(a)] = a
    return out


def _sweep(fams, values, u):
    """`values` with its unknowns `u` (held as -1) pinned in one pass over
    the slab families, or None if some are left.

    In each family in turn, an unknown that is alone in its group takes
    the group's residual over the counts known at that moment.
    """
    values = values.copy()
    for g, targets in fams:
        gu = g[u]
        unknown = np.bincount(gu, minlength=len(targets))
        alone = unknown[gu] == 1
        if np.logical_or.reduce(alone):
            # an unknown weighs -1 in the sum, so add their number back
            known = np.bincount(g, weights=values,
                                minlength=len(targets)).astype(np.int64)
            res = targets - known - unknown
            values[u[alone]] = res[gu[alone]]
            u = u[~alone]
            if not len(u):
                return values
    return None


def _sums_hold(fams, values) -> bool:
    """Whether every slab family's counts sum to its slab counts."""
    return all(np.logical_and.reduce(np.bincount(g, values, len(t)) == t)
               for g, t in fams)


class Walk:
    """Shared table walker; passing the `grid` switches encoder mode on.

    `truth` is the grid in encoder mode and None in decoder mode.  `step`
    holds the flat index of each anchor's neighbour one row down and one
    column right.  `building` holds the sizes of the build under way.
    """

    def __init__(self, m, n, alphabet, *, grid=None, pull=None, sink=None):
        self.m = m
        self.n = n
        self.mn = m * n
        self.J = alphabet
        self.truth = grid
        if grid is not None:
            flat = np.arange(self.mn).reshape(m, n)
            self.step = (np.roll(flat, -1, axis=0).ravel(),
                         np.roll(flat, -1, axis=1).ravel())
        self.pull = pull
        self.sink = sink
        empty = _Table(1)
        empty.count = np.array([self.mn], dtype=np.int64)
        self.tabs: dict[tuple[int, int], _Table] = {
            **{(k, 0): empty for k in range(1, m + 1)},
            **{(0, l): empty for l in range(1, n + 1)}}
        self.max1: dict[tuple[int, int], bool] = {}
        # per column l, the tallest size (k, l) that may still be built,
        # and the tallest built
        self.reach = [0] + [m] * n + [0, 0]
        self.height = [0] * (n + 1)
        self.sym = None  # (1,1) id -> symbol value
        # ((K, L), table) of the row-major first size whose shift links
        # are known
        self.readout: tuple[tuple[int, int], _Table] | None = None
        self.building = [(1, 1)]
        self._droppable: set[tuple[int, int]] = set()
        self._axes = {}  # join axis of each size of the diagonal under way
        # encoder: batches held until every size before them in row-major
        # order has been sunk, and the next row-major size to sink
        self._held = {}
        self._next = (1, 2)
        self._count_type = np.min_scalar_type(self.mn)
        # most slab pairs one encoder group expands (`_groups`)
        self.pair_cap = min(_PAIR_CAP, self.mn * self.mn >> 7)

    # ---- driving ----

    def run(self) -> None:
        self._build_11()
        schedule = self._rows() if self.truth is None else self._diagonals()
        for sizes, ax in schedule:
            self._build(sizes, ax)

    def _rows(self):
        """The decoder's groups: one size each, row-major, the v1 order."""
        for k in range(1, self.m + 1):
            for l in range(2 if k == 1 else 1, self.n + 1):
                if self._settled(k, l):
                    self._cut(k, l)
                    break  # so is every size right of it in row k
                yield [(k, l)], self._join(k, l)[0]
            # a table of row k is read by rows k+1 and k+2 still
            self._drop_unread([s for s in self._droppable
                               if s[0] < k or s[0] == 1])
            if k > self.reach[1]:
                return  # so is every row below it

    def _diagonals(self):
        """The encoder's groups: anti-diagonal by anti-diagonal, per
        diagonal the sizes that join along one axis (`_groups`).

        Before a diagonal builds, each table of the one before lets go of
        its anchor ids unless a join of the diagonal reads them, and after
        each group the ones whose last such join it was.  A table three
        diagonals back is read by this diagonal at most, as the overlap of
        a cross join, so it is dropped before the diagonal or after the
        last group that reads it.
        """
        m, n = self.m, self.n
        last = [(1, 1)]
        for d in range(3, m + n + 1):
            sizes = []
            for k in range(max(1, d - n), min(m, d - 1) + 1):
                l = d - k
                if k > self.reach[l]:
                    continue
                if self._settled(k, l):
                    self._cut(k, l)
                else:
                    sizes.append((k, l))
            groups = self._groups(sizes)
            self._axes = {s: ax for group, ax in groups for s in group}
            self._flush()
            reader = {_less(s, ax, 1): i
                      for i, (group, ax) in enumerate(groups) for s in group}
            done = [[] for _ in groups]
            for size in last:
                tab = self.tabs.get(size)  # a dropped table holds no ids
                if tab is None:
                    continue
                if size in reader:
                    done[reader[size]].append(tab)
                else:
                    tab.at = None
            self._drop_unread([s for s in self._droppable
                               if s[0] == 1 or s[0] + s[1] <= d - 3])
            for (group, ax), tabs in zip(groups, done):
                yield group, ax
                for tab in tabs:
                    tab.at = None
                self._drop_unread([_less((k - 1, l - 1), ax, 1)
                                   for k, l in group])
            if not sizes:
                break
            last = sizes
        self._flush()
        self._drop_unread()

    def _groups(self, sizes):
        """`sizes` as (group, axis) builds: per join axis, columns first,
        the sizes in k order, a new group begun where the joins would pass
        the pair cap together.  A size whose join alone passes an eighth of
        the cap builds alone, as its own array work outweighs the fixed
        cost a group saves.  Below 2^10 cells the cap falls as the square
        of the area, (mn)^2 / 2^7 pairs, since there the tables the walk
        holds are small next to the arrays a group builds at once: on
        mixed-small, groups under 2^12 pairs doubled the encoder's peak."""
        cap = self.pair_cap
        joins = [(s, *self._join(*s)) for s in sizes]
        groups = []
        for ax in (1, 0):
            group, pairs = [], 0
            for s, a, cost in joins:
                if a != ax:
                    continue
                if group and (pairs + cost > cap or 8 * cost > cap):
                    groups.append((group, ax))
                    group, pairs = [], 0
                group.append(s)
                pairs += cost
                if 8 * cost > cap:
                    groups.append((group, ax))
                    group, pairs = [], 0
            if group:
                groups.append((group, ax))
        return groups

    def _settled(self, k: int, l: int) -> bool:
        """True when (k, l-2) or (k-2, l) has every window once.

        Such a size extends uniquely and transmits nothing, so no table is
        built for it.  Settled sizes are never entered in `max1`, so a
        missing entry reads as settled.
        """
        return ((l >= 3 and self.max1.get((k, l - 2), True))
                or (k >= 3 and self.max1.get((k - 2, l), True)))

    def _cut(self, k: int, l: int) -> None:
        """(k, l) is settled, and with it every size at least as tall and
        as wide: no column from l on builds k rows or more."""
        reach = self.reach
        for j in range(l, self.n + 1):
            if reach[j] < k:
                break  # nor any column right of it, as reach never grows
            reach[j] = k - 1

    def _drop_unread(self, sizes=None) -> None:
        """Drop each of `sizes`, by default every table held, that no size
        still to be built reads.

        A size is still to be built while it is unbuilt and under its
        column's `reach`; once scheduled, its join axis says whether it
        reads a table as its cross join's overlap (`_READERS`).  An edge
        strip is also read for its extremal marks by every size of its
        column (1, l) or row (k, 1), so it is cut to those (`_marks`): a
        row's go once its column is closed, a column's stay, as the readout
        lays out the grid through them.  A dropped table lets go of its
        anchor ids too, since the readout may still refer to it.
        """
        reach, tabs = self.reach, self.tabs
        for size in list(self._droppable if sizes is None else sizes):
            if size not in self._droppable:
                continue
            k, l = size
            tab = tabs[size]
            if tab.count is not None:  # a whole table
                if self._read_later(k, l):
                    continue
                tab.at = None
                if k >= 2 and l >= 2:
                    self._droppable.discard(size)
                    del tabs[size]
                    continue
                tabs[size] = _marks(tab, l == 1)
            # a column's marks stay for good, a row's while its column grows
            if l == 1:
                self._droppable.discard(size)
            elif reach[l] <= self.height[l]:
                self._droppable.discard(size)
                del tabs[size]

    def _read_later(self, k, l) -> bool:
        """Whether a size still to be built reads table (k, l)."""
        reach, built, axes = self.reach, self.max1, self._axes
        for i, j, ax in _READERS:
            r = (k + i, l + j)
            if (r not in built and k + i <= reach[l + j]
                    and (ax is None or axes.get(r, ax) == ax)):
                return True
        return False

    def _flush(self) -> None:
        """Sink the held batches, in row-major order, up to the first size
        that is neither built nor known never to be."""
        k, l = self._next
        while k <= self.m:
            if (k, l) in self.max1:
                batch = self._held.pop((k, l), None)
                if batch is not None:
                    self.sink(k, l, *batch.astype(np.int64))
                k, l = (k, l + 1) if l < self.n else (k + 1, 1)
            elif k > self.reach[l]:
                k, l = k + 1, 1  # nor is the rest of row k
            else:
                break
        self._next = (k, l)

    # ---- (1,1) ----

    def _build_11(self) -> None:
        mn, J = self.mn, self.J
        lo = np.zeros(J - 1, dtype=np.int64)
        hi = lo + (mn - 1)
        at = None
        if self.truth is not None:
            counts = np.bincount(self.truth.ravel(), minlength=J)
            at = ((counts > 0).cumsum(dtype=np.int32) - 1)[self.truth]
            self.sink(1, 1, lo, hi, counts[:-1])
        else:
            counts = np.zeros(J, dtype=np.int64)
            counts[:-1] = self._pulled(1, 1, lo, hi)
            counts[J - 1] = mn - counts[:-1].sum()
        if counts[J - 1] < 0 or counts[J - 1] > mn - 1:
            raise InconsistentCountsError("single counts do not sum to the area")
        pos = (counts > 0).nonzero()[0]
        if len(pos) < 2:
            raise InconsistentCountsError("fewer than two symbols present")
        t = _Table(len(pos))
        t.count = counts[pos]
        self.sym = pos.astype(np.int64)
        _one_wide(t, 0)
        _one_wide(t, 1)
        t.is_extremal = self.sym == J - 1
        t.at = at
        self._install((1, 1), t)

    def _install(self, size, tab: _Table) -> None:
        self.tabs[size] = tab
        self.max1[size] = distinct = bool(np.maximum.reduce(tab.count) == 1)
        k, l = size
        self.height[l] = k
        if l >= 2 or k >= 2:
            self._droppable.add(size)
        if (distinct and k >= 2 and l >= 2
                and (self.readout is None or size < self.readout[0])
                and (l == self.n or self.max1[(k, l - 1)])
                and (k == self.m or self.max1[(k - 1, l)])):
            self.readout = (size, tab)

    # ---- candidate construction ----

    def _join_cost(self, ax, k, l) -> int:
        """How many slab pairs the join of size (k, l) along `ax` expands,
        counted on first use where its slab's build left it open."""
        slab = self.tabs[(k - 1, l) if ax == 0 else (k, l - 1)]
        if slab.pairs[ax] is None:
            overlap = self.tabs[(k - 2, l) if ax == 0 else (k, l - 2)]
            slab.pairs[ax] = _pair_counts(slab.link[ax], overlap)[0]
        return slab.pairs[ax]

    def _join(self, k, l):
        """The join axis of size (k, l) and the slab pairs its join expands:
        the axis with fewer, ties to columns, where it has both.  That
        choice is for speed only, as either join gives the same candidates,
        sorted to the native key.

        It stays because it pays.  Encoder walks, forced column joins against
        this choice, interleaved, best of 5 per grid, unscaled (2-vCPU x86
        VM, Python 3.11, numpy 2.4): 5.19 s vs 0.10 s on a 64x64
        Bernoulli(0.2) grid, 0.65 s vs 0.095 s on three 32x32 markov2d
        textures, 0.98 s vs 0.89 s on 200 grids of sides 4..16; only three
        near-periodic 32x32 tiles walk faster forced, 0.48 s vs 0.52 s."""
        if k == 1 or l == 1:
            ax = 0 if k > 1 else 1
            return ax, self._join_cost(ax, k, l)
        rows, columns = self._join_cost(0, k, l), self._join_cost(1, k, l)
        return (0, rows) if rows < columns else (1, columns)

    def _fields(self, grp: _Group, first, second):
        """Links and edges of the group's candidates, joined along `ax`
        from the stacked slab pairs; drops the ones whose slab along the
        other axis, `o`, is absent.  Returns the candidates and the mask of
        the pairs kept, or None where all are.  A strip's candidates get
        placeholder links along `o`, where it is one wide.

        The cross slabs are read off the cross table's own join along `ax`.
        Dropping a line along `o` commutes with dropping one along `ax`, so
        the candidate less its last line along `o` joins, along `ax`, its
        two slabs less theirs, `head[first]` and `head[second]`, both ids of
        (k-1, l-1).  The pair index of (k-1, l-1) along `ax` places that
        pair at `base[head[first]] + pos[head[second]]`, and a scatter of
        the cross table's own pairs says which cross id, if any, sits there;
        the candidate less its first line along `o` works the same way with
        `tail`.  The place stays inside the listing on any stream: it
        depends on the links alone, never on the counts, and the links of
        every table are true sub-window links however the counts were
        decoded, so the two slabs are the `ax`-slabs of one window and agree
        on their overlap.
        """
        ax, o, S = grp.ax, 1 - grp.ax, grp.S
        cand = _Table(len(first))
        cand.link[ax] = (first, second)
        start, end = S.edges(ax, grp.T)
        cand.edge[ax] = (start[first], end[second])
        if grp.full is None:
            return cand, None
        f0, f1 = grp.full
        p0, p1 = grp.po[f0], grp.po[f1]
        C, X = grp.C, grp.X
        base, pos, runs = _pair_index(X, grp.Y, ax)[:3]
        listed = np.empty(int(np.add.reduce(runs)), dtype=np.int64)
        listed.fill(-1)
        cf, cs = C.links(ax, X)
        listed[_place(base, pos, cf, cs)] = np.arange(C.n)
        # each slab less its last line along o, and less its first
        Sf = (S if f1 - f0 == grp.g else S.tabs[f0] if f1 - f0 == 1
              else _Stack(S.tabs[f0:f1]))
        head, tail = Sf.links(o, X)
        f, s = first[p0:p1], second[p0:p1]
        if Sf is not S:
            f, s = f - S.off[f0], s - S.off[f0]
        p = listed[_place(base, pos, head[f], head[s])]
        q = listed[_place(base, pos, tail[f], tail[s])]
        keep = np.minimum(p, q) >= 0
        if Sf is not S:
            p, q = _padded(p, p0, cand.n, 0), _padded(q, p0, cand.n, 0)
        cand.link[o] = (p, q)
        if np.logical_and.reduce(keep):
            keep = None
        else:
            if Sf is not S:
                keep = _padded(keep, p0, cand.n, True)
            cand = _take(cand, keep)
        # the first cross slab starts with the candidate's first line, the
        # second ends with its last
        p, q = cand.link[o]
        start, end = C.edges(o, grp.U)
        cand.edge[o] = (start[p], end[q])
        return cand, keep

    # ---- group build ----

    def _build(self, sizes, ax) -> None:
        """Build the group `sizes`, ascending in k, all joined along `ax`,
        and sorted to the native key: columns, except for a strip one
        column wide, which comes last in a row group."""
        self.building = sizes
        grp = _Group(self.tabs, sizes, ax)
        base, pos, runs, perm, grp.second = _pair_index(grp.S, grp.O, ax)
        first, member = _expand_runs(base, runs)
        second = member if perm is None else perm[member]
        grp.po = [0, len(first)] if grp.g == 1 else np.concatenate(
            ([0], np.add.reduceat(runs, grp.S.off[:-1]))).cumsum()
        cand, keep = self._fields(grp, first, second)
        # past here only the encoder's anchors read the join, so the rest
        # of it is let go before the build's peak
        del first, second, member
        if self.truth is None:
            base = pos = keep = None
        # a size's candidates are the ones whose first slab is its slab;
        # the join lists them by first slab, so they run size by size
        grp.cof = ([0, cand.n] if grp.g == 1 else
                   cand.link[ax][0].searchsorted(grp.S.off))
        order = None
        if ax == 0 and grp.full is not None:
            c1 = int(grp.cof[grp.full[1]])
            probe = cand.link[1][0][:c1] * _KEY + cand.edge[1][1][:c1]
            order = probe.argsort(kind="stable")
            if c1 < cand.n:
                order = np.concatenate((order, np.arange(c1, cand.n)))
            cand = _take(cand, order)

        lo, hi, transmit = self._dispositions(grp, cand)
        at = None
        if self.truth is not None:
            at = self._anchors(grp, cand, base, pos, keep, order)
        values = self._resolve(grp, cand, at, lo, hi, transmit)
        self._split(grp, cand, values, at)

    def _anchors(self, grp, cand, base, pos, keep, order) -> np.ndarray:
        """Each anchor's candidate index, the group's sizes one after
        another, read off the join.

        The anchor's window joins its slab `a` along `ax` with `b`, the
        slab one step further along `ax`, and the join lists that pair at
        `base[a] + pos[b]` (`_place`).  The `keep` mask
        of `_fields` and the reorder to native `order` then carry that place
        to the candidate.  Each candidate must be made of its anchors' two
        slabs: that is the encoder's one table check.  An anchor whose pair
        was dropped, or whose place falls off a range, lands (clipped) on
        some other candidate, so the same check catches it.
        """
        ax, S = grp.ax, grp.S
        # the ids are kept as int32, but int64 indices gather faster
        if grp.g == 1:
            a = S.at.ravel().astype(np.int64)
            b = a[self.step[ax]]
        else:
            a = np.stack([t.at.ravel() for t in S.tabs]).astype(np.int64)
            a += S.off[:-1, None]
            b = a.take(self.step[ax], axis=1).ravel()
            a = a.ravel()
        at = _place(base, pos, a, b)
        if keep is not None:
            at = (np.add.accumulate(keep, dtype=np.int64) - 1).take(
                at, mode="clip")
        if order is not None:  # a permutation of the candidates
            at = _inverse(order).take(at, mode="clip")
        else:
            np.minimum(np.maximum(at, 0, out=at), cand.n - 1, out=at)
        first, second = cand.link[ax]
        made = (first[at] == a) & (second[at] == b)
        if not np.logical_and.reduce(made):
            k, l = grp.sizes[int(np.argmin(made)) // self.mn]
            raise InconsistentCountsError(
                f"walked table diverges from the grid at size ({k},{l})")
        return at

    def _dispositions(self, grp, cand):
        """Each candidate's interval [lo, hi] and whether it is transmitted.

        Per axis, two slabs with counts a and b and an overlap with count w
        bound the count by `slab_bounds`; the overlap of a width-2 or
        height-2 size is the empty window.  A slab that fills its overlap
        (a >= w) makes that axis's bounds meet or cross, so once crossed
        bounds are rejected the count's interval is the one point min(a, b).
        A count is transmitted when it is open along every axis and no edge
        column or row is its strip's extremal line: J-1 at both ends around
        the largest interior that occurs, the strip's largest id if it occurs.
        """
        if grp.g == 1:
            empty = [0] if cand.n == 0 else []
        else:
            empty = (grp.cof[1:] == grp.cof[:-1]).nonzero()[0]
        if len(empty):
            k, l = grp.sizes[int(empty[0])]
            raise InconsistentCountsError(f"no candidates at size ({k},{l})")
        ax, o = grp.ax, 1 - grp.ax
        # every size has slabs along its join axis, and all but a strip
        # along the other
        count = grp.S.count
        first, second = cand.link[ax]
        lo, hi, transmit = slab_bounds(
            count[first], count[second], grp.O.count[grp.second[first]])
        top = grp.T.is_extremal
        transmit &= ~(top[cand.edge[ax][0]] | top[cand.edge[ax][1]])
        if grp.full is not None:
            C = grp.C
            c0, c1 = int(grp.cof[grp.full[0]]), int(grp.cof[grp.full[1]])
            part = slice(c0, c1) if c1 - c0 < cand.n else slice(None)
            first, second = cand.link[o]
            start, end = cand.edge[o]
            if c1 - c0 < cand.n:
                first, second, start, end = (first[part], second[part],
                                             start[part], end[part])
            count = C.count
            o_lo, o_hi, open_ = slab_bounds(
                count[first], count[second],
                grp.W.count[C.links(o, grp.W)[1][first]])
            top = grp.U.is_extremal
            np.maximum(lo[part], o_lo, out=lo[part])
            np.minimum(hi[part], o_hi, out=hi[part])
            open_ &= ~(top[start] | top[end])
            transmit[part] &= open_
        # true counts sit inside [lo, hi], so crossed bounds mean corrupt
        # counts; pulling a crossed interval would ask the coder for width <= 0
        crossed = lo > hi
        if np.logical_or.reduce(crossed):
            k, l = grp.size_of(int(np.argmax(crossed)))
            raise InconsistentCountsError(
                f"interval bounds crossed at size ({k},{l})")
        return lo, hi, transmit

    def _pulled(self, k, l, lo, hi) -> np.ndarray:
        """One size's transmitted counts from `pull`, checked in one step."""
        values = np.asarray(self.pull(k, l, lo, hi), dtype=np.int64)
        if values.shape != lo.shape:
            raise InconsistentCountsError(
                f"pulled {values.size} counts for {lo.size} at size ({k},{l})")
        if np.logical_or.reduce((values < lo) | (values > hi)):
            raise InconsistentCountsError(
                f"decoded count outside its interval at size ({k},{l})")
        return values

    def _resolve(self, grp, cand, at, lo, hi, transmit):
        """Fill in every candidate count; code the ones marked `transmit`.

        The encoder counts the candidate positions `at` of its anchors and
        holds each size's batch for `_flush`.  The decoder, one size at a
        time, starts from the counts whose interval is one point and the
        pulled ones.  One sweep over the four slab families derives the
        rest on a consistent stream.  Only when the sweep leaves a count
        unknown or out of its interval, or the family sums then fail, does
        the narrowing of `_derive` run, from the counts known before the
        sweep, to name what is wrong.  The family sums over every
        candidate, checked last, are the consistency gate; they alone cover
        a size with nothing to derive.
        """
        t_idx = transmit.nonzero()[0]
        if at is not None:
            true_vals = np.bincount(at, minlength=cand.n)
            if not len(t_idx):
                return true_vals
            lo_t, hi_t, sent = lo[t_idx], hi[t_idx], true_vals[t_idx]
            out = (sent < lo_t) | (sent > hi_t)
            if np.logical_or.reduce(out):
                k, l = grp.size_of(int(t_idx[np.argmax(out)]))
                raise InconsistentCountsError(
                    f"true count escapes its interval at size ({k},{l})")
            # held in the narrowest type that holds mn
            batch = np.array((lo_t, hi_t, sent),
                             dtype=self._count_type)
            cuts = ([0, len(t_idx)] if grp.g == 1 else
                    t_idx.searchsorted(grp.cof).tolist())
            for size, a, b in zip(grp.sizes, cuts, cuts[1:]):
                if a < b:
                    self._held[size] = batch[:, a:b]
            return true_vals

        [(k, l)] = grp.sizes
        values = np.where(lo == hi, lo, np.int64(-1))
        if len(t_idx):
            values[t_idx] = self._pulled(k, l, lo[t_idx], hi[t_idx])

        fams = []
        for ax in (1, 0):
            slabs = grp.S if ax == grp.ax else grp.full and grp.C
            if slabs:
                count = slabs.count
                fams += [(cand.link[ax][0], count), (cand.link[ax][1], count)]

        u = (values < 0).nonzero()[0]
        if len(u):
            swept = _sweep(fams, values, u)
            if (swept is not None
                    and not np.logical_or.reduce((swept < lo) | (swept > hi))
                    and _sums_hold(fams, swept)):
                return swept
            self._derive(k, l, fams, values, u, lo[u], hi[u])

        if not _sums_hold(fams, values):
            raise InconsistentCountsError(f"family sums off at size ({k},{l})")
        return values

    @staticmethod
    def _derive(k, l, fams, values, u, lo, hi) -> None:
        """Narrow the unknown counts `u` of `values` in [lo, hi] through
        the slab families in one pass, pinning each that narrows to a point.

        Each family step takes its residual afresh, the group targets less
        the counts known by then, at one bincount over the candidates: only
        a bad stream gets here, so running residuals would buy speed that no
        valid stream uses.  The narrowing never crosses an interval: every
        unknown enters with lo <= hi, and once a group's residual r lies in
        [lo_s, hi_s], max(lo, r - (hi_s - hi)) <= min(hi, r - (lo_s - lo))
        holds term by term, since the other members' lo sum to no more than
        their hi.  Unknowns left after the pass are reported as such.
        """
        for g, targets in fams:
            G = len(targets)
            gu = g[u]
            ucnt = np.bincount(gu, minlength=G)
            # an unknown weighs -1 in the sum, so add their number back
            r = (targets - np.bincount(g, weights=values, minlength=G)
                 .astype(np.int64) - ucnt)
            if ((ucnt == 0) & (r != 0)).any() or (r < 0).any():
                raise InconsistentCountsError(
                    f"family sums off at size ({k},{l})")
            lo_s = np.bincount(gu, weights=lo, minlength=G).astype(np.int64)
            hi_s = np.bincount(gu, weights=hi, minlength=G).astype(np.int64)
            # a group without unknowns has r == 0 == lo_s == hi_s here
            if ((r < lo_s) | (r > hi_s)).any():
                raise InconsistentCountsError(
                    f"family cannot reach its residual at size ({k},{l})")
            rg = r[gu]
            lo, hi = (np.maximum(lo, rg - (hi_s[gu] - hi)),
                      np.minimum(hi, rg - (lo_s[gu] - lo)))
            settle = lo == hi
            if settle.all():
                values[u] = lo
                return
            if settle.any():
                values[u[settle]] = lo[settle]
                rest = ~settle
                u, lo, hi = u[rest], lo[rest], hi[rest]
        raise UnderdeterminedCountsError(
            f"{len(u)} counts unresolved at size ({k},{l})")

    # ---- splitting into tables ----

    def _split(self, grp, cand, values, at) -> None:
        """Make one table per size of the group from its positive counts
        and install them.

        The encoder's anchor ids follow each candidate to its table id.
        Counts need no area check: the encoder's are a bincount of the mn
        anchors.  The decoder's first-slab families sum to their slabs'
        counts (`_resolve`), and its values are >= 0, so a table sums to its
        slab table, and by induction from (1, 1) and the empty table to mn.
        """
        ax, o = grp.ax, 1 - grp.ax
        mask = values > 0
        kept = mask.nonzero()[0]
        if len(kept) == cand.n:  # every candidate occurs
            tab = cand
            tab.count = values
        else:
            tab = _take(cand, kept)
            tab.count = values[kept]
            if at is not None:
                at = (np.add.accumulate(mask, dtype=np.int32) - 1)[at]
        tabs = [tab] if grp.g == 1 else _unstack(grp, tab)
        if at is not None:
            at = at.astype(np.int32, copy=False).reshape(grp.g, self.m, self.n)
            if grp.g > 1:
                # each table's ids start at 0: less the ids before it
                at -= np.array([0] + [t.n for t in tabs[:-1]],
                               dtype=np.int32).cumsum()[:, None, None]
        for i, (size, t) in enumerate(zip(grp.sizes, tabs)):
            t.perm[1 if size[1] >= 2 else 0] = None  # the native key
            if at is not None:
                t.at = at[i]
            if size[o] < 2:
                self._finish_strip(size, t, ax)
            self._install(size, t)

    def _finish_strip(self, size, tab: _Table, ax) -> None:
        """Link a strip along the axis it is one wide on, the one that is
        not `ax`, and mark its extremal line.

        A strip's extremal line has J-1 as its first and last cell and the
        last id of the strip two shorter between them.
        """
        _one_wide(tab, 1 - ax)
        slab = self.tabs[_less(size, ax, 1)]
        overlap = self.tabs[_less(size, ax, 2)]
        top = self.tabs[(1, 1)].is_extremal
        mid = slab.link[ax][0][tab.link[ax][1]]
        tab.is_extremal = (top[tab.edge[ax][0]] & top[tab.edge[ax][1]]
                           & (mid == overlap.n - 1))

    # ---- final reconstruction (decoder) ----

    def _shift_links(self):
        """Per id of the readout size, the ids one column right and one row
        down on the torus.

        Dropping the first column of a window gives the id its right
        neighbour has after dropping its last column; while (K, L-1) has
        every window once, the first-slab link inverts to map it back.  At
        L = n the neighbour instead wraps onto the window's own first
        column, so its key (second slab, first edge) is looked up directly.
        Rows work the same way.
        """
        size, tab = self.readout
        shift = [None, None]
        for ax in (1, 0):
            first, second = tab.link[ax]
            if size[ax] == (self.m, self.n)[ax]:
                shift[ax] = _lookup(tab, ax, second, tab.edge[ax][0])[0]
            else:
                shift[ax] = _inverse(first)[second]
        down, right = shift
        return right, down

    def member_grid(self) -> np.ndarray:
        """The torus shift of the grid laid out from the readout size.

        Anchor ids are laid out from id 0 along the readout size's shift
        links, and each anchor's cell is the top-left symbol of its window.
        """
        m, n = self.m, self.n
        if self.readout is None:
            raise InconsistentCountsError(
                "no size has every window once with known shift links")
        (K, L), tab = self.readout
        right, down = self._shift_links()
        ids = np.empty((m, n), dtype=np.int64)
        ids[0, 0] = 0
        for i in range(1, m):
            ids[i, 0] = down[ids[i - 1, 0]]
        for j in range(1, n):
            ids[:, j] = right[ids[:, j - 1]]
        if not (np.array_equal(np.sort(ids, axis=None), np.arange(self.mn))
                and np.array_equal(right[ids], np.roll(ids, -1, axis=1))
                and np.array_equal(down[ids], np.roll(ids, -1, axis=0))):
            raise InconsistentCountsError(
                f"shift links do not tile the torus at size ({K},{L})")
        return self.sym[self.tabs[(K, 1)].edge[0][0][tab.edge[1][0][ids]]]
