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
each with a few gathers per size.  It lays out the join itself.  It finds
each candidate's two slabs along the other axis, the cross slabs, in the
cross table's own join, which is never expanded: a cross slab joins the
candidate's two slabs less the same line.  And the encoder reads each
anchor's candidate off the join with it: the anchor's window joins its
slab with the slab one step further along the join axis.  No build
searches a sorted key.  The decoder runs the exact same table builds as
the encoder, which keeps the two in lockstep by construction.  The
encoder's counts are the anchors per candidate, so its tables are the
grid's census by construction, and checking that each anchor's candidate
is made of its two slabs is its table check.  Each table holds its
anchors' ids only while a later build may read them.

The empty window is a size too: one shared table with a single id, counted
at all m*n anchors, stands for every (k, 0) and (0, l).  A table one wide
along an axis links both its slabs along that axis to it, so a width-2 or
height-2 size pairs its slabs and reads its overlap count exactly like every
larger size.

Once every window of (k, l-2) or (k-2, l) occurs exactly once, (k, l) and
every larger size extend uniquely and carry no transmissions: the walk stops
at this settled frontier and builds no table beyond it.  The sizes it does
build form a down-set, so no built size ever reads a skipped one.  The
frontier never moves right as k grows, so after each row the walk drops
every table wider than that row built.

The decoder reads the grid off one built size instead, the readout size: the
first (K, L) with K, L >= 2 whose windows are all distinct and whose torus
shift links are known, because (K, L-1) is all-distinct or L = n, and
(K-1, L) is all-distinct or K = m.  Its right and down links lay out every
anchor's id, and so one torus shift of the grid; which shift the encoder
sent is the codec's to say.

Transmitted counts cross the walk's boundary a size at a time.  The encoder
calls `sink(k, l, lo, hi, values)` and the decoder calls
`pull(k, l, lo, hi) -> values`, with int64 arrays in canonical candidate
order: once for the J-1 single-symbol counts at (1, 1), then once per size
that transmits at least one count.  The decoder checks a pulled batch
against its intervals in one step; a batch of the wrong length or with a
value outside [lo, hi] raises `InconsistentCountsError` naming the size.
The walk only counts; the caller books and codes the batches.

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

import numpy as np

from .blocks import _expand_runs, _find, _run_bases, slab_bounds
from .errors import InconsistentCountsError, UnderdeterminedCountsError

# key multiplier of every table: ids stay below 2^31, as the anchor ids
# are int32, so first * _KEY + last orders (first, last) pairs
_KEY = np.int64(1 << 31)

class _Table:
    """Positive windows of one size, canonically ordered, with slab links.

    Per-id fields are indexed by axis: `ax` 0 drops a row, `ax` 1 a column.
    `link[ax]` holds each id's (first, second) slab ids in the table one
    smaller along `ax`, and `edge[ax]` its (first, last) edge strip ids: rows
    (1, l) for ax 0, columns (k, 1) for ax 1.  `keys[ax]` is the ascending
    (first slab, last edge) key, `link[ax][0] * _KEY + edge[ax][1]`, with
    the permutation that sorts the ids by it, or None where the ids
    already run in that order.  Every table keys by the one multiplier
    `_KEY`, which exceeds any id.  The ids follow the native key: columns,
    or rows for a table one column wide.  The native keys are set when the
    table is built; the other axis is keyed on first use.  The encoder's
    `at` holds the (m, n) int32 id of the window at every anchor.
    """

    __slots__ = ("n", "count", "link", "edge", "keys", "is_extremal", "at")

    def __init__(self, n: int) -> None:
        self.n = n
        self.count = None
        self.link = [None, None]
        self.edge = [None, None]
        self.keys = [None, None]
        self.is_extremal = None  # strips: the extremal line, if it occurs
        self.at = None


def _native(l: int) -> int:
    """The axis whose key numbers the ids of a table l columns wide."""
    return 1 if l >= 2 else 0


def _one_wide(tab: _Table, ax: int) -> None:
    """Links of a table one wide along `ax`: both slabs are the empty
    window, reached by zero-stride links, and each id is its own edge
    strip, so it is keyed by itself."""
    ar = np.arange(tab.n, dtype=np.int64)
    empty = np.broadcast_to(np.int64(0), (tab.n,))
    tab.link[ax] = (empty, empty)
    tab.edge[ax] = (ar, ar)
    tab.keys[ax] = (ar, None)


def _inverse(perm: np.ndarray) -> np.ndarray:
    """Inverse of an id permutation; -1 where an id is never hit."""
    inv = np.full(len(perm), -1, dtype=np.int64)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    return inv


def _keyed(tab: _Table, ax: int):
    """(sorted key, perm or None) of `tab` along `ax`, built on first use."""
    if tab.keys[ax] is None:
        key = tab.link[ax][0] * _KEY + tab.edge[ax][1]
        perm = np.argsort(key, kind="stable")
        tab.keys[ax] = (key[perm], perm)
    return tab.keys[ax]


def _pair_index(slab: _Table, overlap: _Table, ax: int):
    """Where the join of `slab` with itself along `ax` lists each pair.

    The join lists the (first, second) slab pairs that agree on their
    overlap in one run per first slab, the first slabs ascending and each
    run in its second slabs' sorted order.  So pair (f, s) sits at
    `base[f] + pos[s]`, where `pos` is each slab's sorted position along
    `ax`; `runs` holds each first slab's pair count.
    """
    first, second = slab.link[ax]
    perm = _keyed(slab, ax)[1]
    # the slabs' sorted positions run by first slab, as `_run_bases` asks
    base, runs = _run_bases(first, second, overlap.n)
    pos = np.arange(slab.n, dtype=np.int64) if perm is None else _inverse(perm)
    return base, pos, runs


def _lookup(tab: _Table, ax: int, first: np.ndarray, last: np.ndarray):
    """Ids of `tab` whose first slab and last edge along `ax` are given,
    with a found mask; -1 where absent.  Only the readout's wrapped shift
    links search, once per decode; the builds place pairs instead."""
    key, perm = _keyed(tab, ax)
    ids, ok = _find(key, first * _KEY + last)
    if perm is None:
        return ids, ok
    return np.where(ok, perm[np.maximum(ids, 0)], -1), ok


def _take(tab: _Table, idx) -> _Table:
    """A table of the links and edges of `tab` at `idx`, without counts."""
    out = _Table(0)
    for ax in (0, 1):
        if tab.link[ax] is not None:
            first, second = tab.link[ax]
            out.link[ax] = (first[idx], second[idx])
            out.n = len(out.link[ax][0])
        if tab.edge[ax] is not None:
            first, last = tab.edge[ax]
            out.edge[ax] = (first[idx], last[idx])
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
        if alone.any():
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
    return all((np.bincount(g, weights=values, minlength=len(targets))
                == targets).all() for g, targets in fams)


class Walk:
    """Shared table walker; passing the `grid` switches encoder mode on.

    `truth` is the grid in encoder mode and None in decoder mode.  A
    build reads the anchor ids of the size one shorter along its join
    axis, so while row k builds only the tables of rows k-1 and k keep
    their `at`.  `step` holds the flat index of each anchor's neighbour
    one row down and one column right.
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
        self.sym = None  # (1,1) id -> symbol value
        # ((K, L), table) of the first size whose shift links are known
        self.readout: tuple[tuple[int, int], _Table] | None = None

    # ---- driving ----

    def run(self) -> None:
        for k in range(1, self.m + 1):
            width = 0
            for l in range(1, self.n + 1):
                if self._settled(k, l):
                    break  # so is every size right of it in row k
                if k == 1 and l == 1:
                    self._build_11()
                else:
                    self._full(k, l)
                width = l
            self._prune_row(k, width)

    def _settled(self, k: int, l: int) -> bool:
        """True when (k, l-2) or (k-2, l) has every window once.

        Such a size extends uniquely and transmits nothing, so no table is
        built for it.  Settled sizes are never entered in `max1`, so a
        missing entry reads as settled.
        """
        return ((l >= 3 and self.max1.get((k, l - 2), True))
                or (k >= 3 and self.max1.get((k - 2, l), True)))

    def _prune_row(self, k: int, width: int) -> None:
        """Drop the tables no later build reads once row k built up to
        `width`: row k-2, and every table of rows 1 and k-1 wider.  A
        dropped table lets go of its anchor ids too, since the readout may
        still refer to it.

        The settled frontier never moves right as k grows: if (k, l-2) or
        (k-2, l) has every window once, so does (k+1, l-2) or (k-1, l).  So
        no later row builds wider than row k.  Strips (k, 1) stay for good.
        """
        drop = []
        if k >= 4:
            drop += [(k - 2, l) for l in range(2, self.n + 1)]
        for r in {1, max(1, k - 1)}:
            drop += [(r, l) for l in range(max(width, 1) + 1, self.n + 1)]
        for size in drop:
            tab = self.tabs.pop(size, None)
            if tab is not None:
                tab.at = None

    # ---- (1,1) ----

    def _build_11(self) -> None:
        mn, J = self.mn, self.J
        lo = np.zeros(J - 1, dtype=np.int64)
        hi = np.full(J - 1, mn - 1, dtype=np.int64)
        at = None
        if self.truth is not None:
            counts = np.bincount(self.truth.ravel(), minlength=J)
            at = (np.cumsum(counts > 0, dtype=np.int32) - 1)[self.truth]
            self.sink(1, 1, lo, hi, counts[:-1])
        else:
            counts = np.zeros(J, dtype=np.int64)
            counts[:-1] = self._pulled(1, 1, lo, hi)
            counts[J - 1] = mn - counts[:-1].sum()
        if counts[J - 1] < 0 or counts[J - 1] > mn - 1:
            raise InconsistentCountsError("single counts do not sum to the area")
        pos = np.flatnonzero(counts > 0)
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
        self.max1[size] = distinct = bool(tab.count.max() == 1)
        k, l = size
        if (distinct and self.readout is None and k >= 2 and l >= 2
                and (l == self.n or self.max1[(k, l - 1)])
                and (k == self.m or self.max1[(k - 1, l)])):
            self.readout = (size, tab)

    # ---- candidate construction ----

    def _near(self, k, l):
        """Per axis, the (slab, overlap, edge strip) tables of size (k, l),
        or None along an axis where it is one wide."""
        t = self.tabs
        return [(t[(k - 1, l)], t[(k - 2, l)], t[(1, l)]) if k >= 2 else None,
                (t[(k, l - 1)], t[(k, l - 2)], t[(k, 1)]) if l >= 2 else None]

    def _join_cost(self, ax, near) -> int:
        """How many slab pairs the join along `ax` expands."""
        slab, overlap, _ = near[ax]
        first, second = slab.link[ax]
        return int(np.dot(np.bincount(second, minlength=overlap.n),
                          np.bincount(first, minlength=overlap.n)))

    @staticmethod
    def _pairs(ax, near):
        """(first, second) ids of every slab pair along `ax` that agrees on
        its overlap, in the order `_pair_index` lists them, and that
        index's `base` and `pos`."""
        slab, overlap, _ = near[ax]
        base, pos, runs = _pair_index(slab, overlap, ax)
        first, member = _expand_runs(base, runs)
        perm = _keyed(slab, ax)[1]
        return first, member if perm is None else perm[member], base, pos

    def _fields(self, k, l, ax, near, first, second):
        """Links and edges of the candidates of size (k, l) joined along
        `ax` from slab pairs; drops the ones whose slab along the other
        axis, `o`, is absent.  Returns the candidates and the mask of the
        pairs kept, or None where all are.

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
        slab = near[ax][0]
        last = slab.edge[ax][1][second]
        cand = _Table(len(first))
        cand.link[ax] = (first, second)
        cand.edge[ax] = (slab.edge[ax][0][first], last)
        o = 1 - ax
        if near[o] is None:
            return cand, None
        cross = near[o][0]
        base, pos, runs = _pair_index(
            self.tabs[(k - 1, l - 1)],
            self.tabs[(k - 2, l - 1) if ax == 0 else (k - 1, l - 2)], ax)
        listed = np.full(int(runs.sum()), -1, dtype=np.int64)
        cf, cs = cross.link[ax]
        listed[base[cf] + pos[cs]] = np.arange(cross.n, dtype=np.int64)
        # each slab less its last line along o, and less its first
        head, tail = slab.link[o]
        p = listed[base[head[first]] + pos[head[second]]]
        q = listed[base[tail[first]] + pos[tail[second]]]
        cand.link[o] = (p, q)
        keep = (p >= 0) & (q >= 0)
        if keep.all():
            keep = None
        else:
            cand = _take(cand, keep)
            p, q = cand.link[o]
        # the first cross slab starts with the candidate's first line, the
        # second ends with its last
        cand.edge[o] = (cross.edge[o][0][p], cross.edge[o][1][q])
        return cand, keep

    # ---- full path ----

    def _full(self, k, l) -> None:
        """Build size (k, l).  The join runs along the axis with fewer slab
        pairs, ties to columns; that choice is for speed only, as either
        join gives the same candidates, sorted to the native key.

        It stays because it pays.  Encoder walks, forced column joins against
        this choice, interleaved, best of 5 per grid, unscaled (2-vCPU x86
        VM, Python 3.11, numpy 2.4): 5.19 s vs 0.10 s on a 64x64
        Bernoulli(0.2) grid, 0.65 s vs 0.095 s on three 32x32 markov2d
        textures, 0.98 s vs 0.89 s on 200 grids of sides 4..16; only three
        near-periodic 32x32 tiles walk faster forced, 0.48 s vs 0.52 s."""
        near = self._near(k, l)
        if near[0] is None:
            ax = 1
        elif near[1] is None:
            ax = 0
        else:
            ax = 0 if self._join_cost(0, near) < self._join_cost(1, near) else 1
        first, second, base, pos = self._pairs(ax, near)
        cand, keep = self._fields(k, l, ax, near, first, second)
        # past here only the encoder's anchors read the join, so the rest
        # of it is let go before the build's peak
        del first, second
        if self.truth is None:
            base = pos = keep = None
        nat = _native(l)
        probe = cand.link[nat][0] * _KEY + cand.edge[nat][1]
        order = None
        if ax != nat:
            order = np.argsort(probe, kind="stable")
            cand = _take(cand, order)
            probe = probe[order]

        lo, hi, transmit = self._dispositions(k, l, cand, near)
        at = None
        if self.truth is not None:
            at = self._anchors(k, l, ax, near, cand, base, pos, keep, order)
        values = self._resolve(k, l, cand, near, at, lo, hi, transmit)

        mask = values > 0
        tab = _take(cand, mask)
        tab.count = values[mask]
        tab.keys[nat] = (probe[mask], None)
        self._finish_table(k, l, tab, near)
        if at is not None:
            tab.at = (np.cumsum(mask, dtype=np.int32) - 1)[at]
            # no later build reads (k-1, l)'s ids, nor, once (k, l+2) is
            # settled, those of row k-1 right of l+1
            right = range(l + 2, self.n + 1) if self.max1[(k, l)] else ()
            for r in (l, *right):
                if (k - 1, r) in self.tabs:
                    self.tabs[(k - 1, r)].at = None

    def _anchors(self, k, l, ax, near, cand, base, pos, keep,
                 order) -> np.ndarray:
        """Each anchor's candidate index at (k, l), read off the join.

        The anchor's window joins its slab `a` along `ax` with `b`, the
        slab one step further along `ax`, and the join lists that pair at
        `base[a] + pos[b]` (`_pair_index`).  The `keep` mask
        of `_fields` and the reorder to native `order` then carry that place
        to the candidate.  Each candidate must be made of its anchors' two
        slabs: that is the encoder's one table check.  An anchor whose pair
        was dropped, or whose place falls off a range, lands (clipped) on
        some other candidate, so the same check catches it.
        """
        # the ids are kept as int32, but int64 indices gather faster
        a = near[ax][0].at.ravel().astype(np.int64)
        b = a[self.step[ax]]
        at = base[a] + pos[b]
        if keep is not None:
            at = np.take(np.cumsum(keep) - 1, at, mode="clip")
        if order is not None:  # a permutation of the candidates
            at = np.take(_inverse(order), at, mode="clip")
        else:
            at = np.clip(at, 0, cand.n - 1)
        first, second = cand.link[ax]
        if not ((first[at] == a) & (second[at] == b)).all():
            raise InconsistentCountsError(
                f"walked table diverges from the grid at size ({k},{l})")
        return at.reshape(self.m, self.n)

    def _dispositions(self, k, l, cand, near):
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
        if cand.n == 0:
            raise InconsistentCountsError(f"no candidates at size ({k},{l})")
        # every size built here has slabs along one axis at least
        lo, hi, transmit = 0, self.mn, True
        for ax in (1, 0):
            if near[ax] is None:
                continue
            slab, overlap, strip = near[ax]
            first, second = cand.link[ax]
            ax_lo, ax_hi, open_ = slab_bounds(
                slab.count[first], slab.count[second],
                overlap.count[slab.link[ax][1][first]])
            lo = np.maximum(lo, ax_lo)
            hi = np.minimum(hi, ax_hi)
            transmit &= (open_ & ~strip.is_extremal[cand.edge[ax][0]]
                         & ~strip.is_extremal[cand.edge[ax][1]])
        # true counts sit inside [lo, hi], so crossed bounds mean corrupt
        # counts; pulling a crossed interval would ask the coder for width <= 0
        if (lo > hi).any():
            raise InconsistentCountsError(
                f"interval bounds crossed at size ({k},{l})")
        return lo, hi, transmit

    def _pulled(self, k, l, lo, hi) -> np.ndarray:
        """One size's transmitted counts from `pull`, checked in one step."""
        values = np.asarray(self.pull(k, l, lo, hi), dtype=np.int64)
        if values.shape != lo.shape:
            raise InconsistentCountsError(
                f"pulled {values.size} counts for {lo.size} at size ({k},{l})")
        if ((values < lo) | (values > hi)).any():
            raise InconsistentCountsError(
                f"decoded count outside its interval at size ({k},{l})")
        return values

    def _resolve(self, k, l, cand, near, at, lo, hi, transmit):
        """Fill in every candidate count; code the ones marked `transmit`.

        The encoder counts the candidate positions `at` of its anchors.
        The decoder starts from the counts whose interval is one point and
        the pulled ones.  One sweep over the four slab families derives the
        rest on a consistent stream.  Only when the sweep leaves a count
        unknown or out of its interval, or the family sums then fail, does
        the narrowing of `_derive` run, from the counts known before the
        sweep, to name what is wrong.  The family sums over every
        candidate, checked last, are the consistency gate; they alone cover
        a size with nothing to derive.
        """
        t_idx = np.flatnonzero(transmit)

        lo_t, hi_t = lo[t_idx], hi[t_idx]
        if at is not None:
            true_vals = np.bincount(at.ravel(), minlength=cand.n)
            sent = true_vals[t_idx]
            if ((sent < lo_t) | (sent > hi_t)).any():
                raise InconsistentCountsError(
                    f"true count escapes its interval at size ({k},{l})")
            if len(t_idx):
                self.sink(k, l, lo_t, hi_t, sent)
            return true_vals

        values = np.where(lo == hi, lo, np.int64(-1))
        if len(t_idx):
            values[t_idx] = self._pulled(k, l, lo_t, hi_t)

        fams = []
        for ax in (1, 0):
            if near[ax] is not None:
                count = near[ax][0].count
                fams += [(cand.link[ax][0], count), (cand.link[ax][1], count)]

        u = np.flatnonzero(values < 0)
        if len(u):
            swept = _sweep(fams, values, u)
            if (swept is not None and not ((swept < lo) | (swept > hi)).any()
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

    # ---- table finishing ----

    def _finish_table(self, k, l, tab: _Table, near) -> None:
        """Link a one-wide table, mark a strip's extremal line, install.

        Counts need no area check: the encoder's are a bincount of the mn
        anchors.  The decoder's first-slab families sum to their slabs'
        counts (`_resolve`), and its values are >= 0, so a table sums to its
        slab table, and by induction from (1, 1) and the empty table to mn.
        """
        for ax in (1, 0):
            if near[ax] is not None:
                continue
            _one_wide(tab, ax)
            # a strip's extremal line has J-1 as its first and last cell
            # and the last id of the strip two shorter between them
            o = 1 - ax
            slab, overlap, _ = near[o]
            top = self.tabs[(1, 1)].is_extremal
            mid = slab.link[o][0][tab.link[o][1]]
            tab.is_extremal = (top[tab.edge[o][0]] & top[tab.edge[o][1]]
                               & (mid == overlap.n - 1))
        self._install((k, l), tab)

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
