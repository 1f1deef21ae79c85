"""Vectorized encoder/decoder walker over torus window-count tables.

Tables live in id space: the positive windows of one size, sorted by their
column-major byte key, get ids 0..n-1.  Per-id fields point into the tables
of the four slab sizes (drop first/last column, drop first/last row), so
candidate construction, dispositions and count resolution become numpy
array programs.  The decoder runs the exact same table builds as the
encoder, which keeps the two in lockstep by construction.

The empty window is a size too: one shared table with a single id, counted
at all m*n anchors, stands for every (k, 0) and (0, l).  Column strips
(k, 1) link their column slabs to it and rows (1, l) their row slabs, so a
width-2 or height-2 size pairs its slabs and reads its overlap count exactly
like every larger size.

Once every window of (k, l-2) or (k-2, l) occurs exactly once, (k, l) and
every larger size extend uniquely and carry no transmissions: the walk stops
at this settled frontier and builds no table beyond it.  The sizes it does
build form a down-set, so no built size ever reads a skipped one.

The decoder reads the grid off one built size instead, the readout size: the
first (K, L) with K, L >= 2 whose windows are all distinct and whose torus
shift links are known, because (K, L-1) is all-distinct or L = n, and
(K-1, L) is all-distinct or K = m.  Its right and down links lay out every
anchor's id, and so one torus shift of the grid.  The (m, n) ids of that
shift's `Census` then say which shift carries the transmitted rank.

Transmitted counts cross the walk's boundary a size at a time.  The encoder
calls `sink(k, l, cls, lo, hi, values)` and the decoder calls
`pull(k, l, cls, lo, hi) -> values`, with int64 arrays in canonical
candidate order: once for the J-1 single-symbol counts at (1, 1), then once
per size that transmits at least one count.  The decoder checks a pulled
batch against its intervals in one step; a batch of the wrong length or
with a value outside [lo, hi] raises `InconsistentCountsError` naming the
size.

A count whose interval is one point is known to both sides; that covers
every count with a slab that fills its overlap.  Every other untransmitted
count is derived from the slab-family residuals: per family (shared first
or last column slab, first or last row slab), the slab's count less the
counts already known, narrowed over the unknown candidates alone until
each is pinned.  A size with nothing to derive skips this.  The family sums
over every candidate, checked last, are the consistency gate that catches a
lie at any size.
"""

from __future__ import annotations

import numpy as np

from .blocks import Census
from .counting import B1, B2, B3, block_caps
from .errors import InconsistentCountsError, UnderdeterminedCountsError

_MAX_PASSES = 500


class _Table:
    """Positive windows of one size, canonically ordered, with slab links."""

    __slots__ = ("n", "count", "pi_c", "sc", "pi_r", "sg",
                 "fc", "lc", "fr", "lr", "is_x", "key", "_rk")

    _FIELDS = ("count", "pi_c", "sc", "pi_r", "sg", "fc", "lc", "fr", "lr")

    def __init__(self, n: int) -> None:
        self.n = n
        for name in self._FIELDS:
            setattr(self, name, None)
        self.is_x = None
        self.key = None   # native (prefix, suffix) probe key, ascending
        self._rk = None   # lazy (sorted rowkey, perm) for (pi_r, lr) probes

    def rowkey(self, lr_space: int):
        if self._rk is None:
            rk = self.pi_r * np.int64(lr_space) + self.lr
            perm = np.argsort(rk, kind="stable")
            self._rk = (rk[perm], perm)
        return self._rk


def _find(sorted_keys: np.ndarray, probe: np.ndarray):
    """searchsorted with a found mask; -1 where absent."""
    idx = np.searchsorted(sorted_keys, probe)
    if len(sorted_keys) == 0:
        return np.full(len(probe), -1, dtype=np.int64), np.zeros(len(probe), bool)
    idx_c = np.minimum(idx, len(sorted_keys) - 1)
    ok = (idx < len(sorted_keys)) & (sorted_keys[idx_c] == probe)
    return np.where(ok, idx_c, -1), ok


def _to_empty(n: int) -> np.ndarray:
    """Zero-stride links from n ids to the empty window's one id."""
    return np.broadcast_to(np.int64(0), (n,))


def _inverse(perm: np.ndarray) -> np.ndarray:
    """Inverse of an id permutation; -1 where an id is never hit."""
    inv = np.full(len(perm), -1, dtype=np.int64)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    return inv


def _native_lookup(tab: _Table, a: np.ndarray, b: np.ndarray, space: int):
    return _find(tab.key, a * np.int64(space) + b)


def _row_lookup(tab: _Table, a: np.ndarray, b: np.ndarray, space: int):
    rk_sorted, perm = tab.rowkey(space)
    ids, ok = _find(rk_sorted, a * np.int64(space) + b)
    return np.where(ok, perm[np.maximum(ids, 0)], -1), ok


def _expand_groups(order, group_of: np.ndarray, probes: np.ndarray,
                   ngroups: int):
    """Per probe, the contiguous run of positions whose group matches.

    `group_of` must be ascending over the dense ids 0..ngroups-1, so each
    group's run starts at the exclusive cumsum of the group sizes.  Returns
    (left index repeated per match, matched positions mapped through
    `order` when given).
    """
    sizes = np.bincount(group_of, minlength=ngroups)
    first = np.cumsum(sizes) - sizes
    runs = sizes[probes]
    starts = first[probes]
    total = int(runs.sum())
    left = np.repeat(np.arange(len(probes), dtype=np.int64), runs)
    if total == 0:
        return left, np.zeros(0, dtype=np.int64)
    offs = np.cumsum(runs) - runs
    member = np.arange(total, dtype=np.int64) - offs[left] + starts[left]
    return left, order[member] if order is not None else member


class Walk:
    """Shared table walker; passing `truth` switches encoder mode on."""

    def __init__(self, m, n, alphabet, *, truth=None, pull=None, sink=None):
        self.m = m
        self.n = n
        self.mn = m * n
        self.J = alphabet
        self.cap_k, self.cap_l = block_caps(m, n, alphabet)
        self.truth = truth
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
            for l in range(1, self.n + 1):
                if self._settled(k, l):
                    break  # so is every size right of it in row k
                if k == 1 and l == 1:
                    self._build_11()
                else:
                    self._full(k, l)
            self._prune_row(k)

    def _settled(self, k: int, l: int) -> bool:
        """True when (k, l-2) or (k-2, l) has every window once.

        Such a size extends uniquely and transmits nothing, so no table is
        built for it.  Settled sizes are never entered in `max1`, so a
        missing entry reads as settled.
        """
        return ((l >= 3 and self.max1.get((k, l - 2), True))
                or (k >= 3 and self.max1.get((k - 2, l), True)))

    def _cls(self, k: int, l: int) -> str:
        if k == 1 and l == 1:
            return B1
        return B2 if (k <= self.cap_k and l <= self.cap_l) else B3

    def _prune_row(self, k: int) -> None:
        # row k-2 has fed its last lookup; strips and row 1 stay for good
        r = k - 2
        if r >= 2:
            for l in range(2, self.n + 1):
                self.tabs.pop((r, l), None)

    # ---- (1,1) ----

    def _build_11(self) -> None:
        mn, J = self.mn, self.J
        lo = np.zeros(J - 1, dtype=np.int64)
        hi = np.full(J - 1, mn - 1, dtype=np.int64)
        if self.truth is not None:
            counts = self.truth.single_counts(J)
            self.sink(1, 1, B1, lo, hi, counts[:-1])
        else:
            counts = np.zeros(J, dtype=np.int64)
            counts[:-1] = self._pulled(1, 1, B1, lo, hi)
            counts[J - 1] = mn - counts[:-1].sum()
        if counts[J - 1] < 0 or counts[J - 1] > mn - 1:
            raise InconsistentCountsError("single counts do not sum to the area")
        pos = np.flatnonzero(counts > 0)
        if len(pos) < 2:
            raise InconsistentCountsError("fewer than two symbols present")
        t = _Table(len(pos))
        t.count = counts[pos]
        self.sym = pos.astype(np.int64)
        ar = np.arange(len(pos), dtype=np.int64)
        t.fc = t.lc = t.fr = t.lr = ar
        t.pi_c = t.sc = t.pi_r = t.sg = _to_empty(t.n)
        t.is_x = self.sym == J - 1
        t.key = ar
        self._install((1, 1), t)

    def _install(self, size, tab: _Table) -> None:
        self.tabs[size] = tab
        self.max1[size] = distinct = bool(tab.count.max() == 1)
        k, l = size
        if (distinct and self.readout is None and k >= 2 and l >= 2
                and (l == self.n or self.max1[(k, l - 1)])
                and (k == self.m or self.max1[(k - 1, l)])):
            self.readout = (size, tab)

    # ---- candidate field construction ----

    def _fields_cols(self, k, l, cand_s, cand_t):
        """Slab ids for col-joined candidates; drops ones with a zero row slab."""
        s_tab = self.tabs[(k, l - 1)]
        out = {"pi_c": cand_s, "sc": cand_t,
               "lc": s_tab.lc[cand_t], "fc": s_tab.fc[cand_s]}
        if k == 1:
            return out
        strip = self.tabs[(k, 1)]
        up_tab = self.tabs[(k - 1, l)]
        sp_up = self.tabs[(k - 1, 1)].n
        prb, ok1 = _native_lookup(
            up_tab, s_tab.pi_r[cand_s], strip.pi_r[out["lc"]], sp_up)
        srb, ok2 = _native_lookup(
            up_tab, s_tab.sg[cand_s], strip.sg[out["lc"]], sp_up)
        keep = ok1 & ok2
        if not keep.all():
            cand_s = cand_s[keep]
            for name in out:
                out[name] = out[name][keep]
            prb, srb = prb[keep], srb[keep]
        out["pi_r"] = prb
        out["sg"] = srb
        row_tab = self.tabs[(1, l)]
        sp_sym = self.tabs[(1, 1)].n
        fr, okf = _native_lookup(
            row_tab, s_tab.fr[cand_s], strip.fr[out["lc"]], sp_sym)
        lr, okl = _native_lookup(
            row_tab, s_tab.lr[cand_s], strip.lr[out["lc"]], sp_sym)
        if not (okf.all() and okl.all()):
            raise InconsistentCountsError(
                f"slab tables disagree at size ({k},{l})")
        out["fr"] = fr
        out["lr"] = lr
        return out

    def _fields_rows(self, k, l, cand_u, cand_d):
        """Slab ids for row-joined candidates; drops ones with a zero col slab."""
        u_tab = self.tabs[(k - 1, l)]
        out = {"pi_r": cand_u, "sg": cand_d,
               "lr": u_tab.lr[cand_d], "fr": u_tab.fr[cand_u]}
        if l == 1:
            return out
        row1 = self.tabs[(1, l)]
        left_tab = self.tabs[(k, l - 1)]
        sp_left = self.tabs[(1, l - 1)].n
        lr = out["lr"]
        pic, ok1 = _row_lookup(
            left_tab, u_tab.pi_c[cand_u], row1.pi_c[lr], sp_left)
        scn, ok2 = _row_lookup(
            left_tab, u_tab.sc[cand_u], row1.sc[lr], sp_left)
        keep = ok1 & ok2
        if not keep.all():
            cand_u = cand_u[keep]
            for name in out:
                out[name] = out[name][keep]
            lr = out["lr"]
            pic, scn = pic[keep], scn[keep]
        out["pi_c"] = pic
        out["sc"] = scn
        strip = self.tabs[(k, 1)]
        sp_sym = self.tabs[(1, 1)].n
        fc, okf = _native_lookup(strip, u_tab.fc[cand_u], row1.fc[lr], sp_sym)
        lc, okl = _native_lookup(strip, u_tab.lc[cand_u], row1.lc[lr], sp_sym)
        if not (okf.all() and okl.all()):
            raise InconsistentCountsError(
                f"slab tables disagree at size ({k},{l})")
        out["fc"] = fc
        out["lc"] = lc
        return out

    def _col_pairs(self, k, l):
        s_tab = self.tabs[(k, l - 1)]
        return _expand_groups(None, s_tab.pi_c, s_tab.sc,
                              self.tabs[(k, l - 2)].n)

    def _row_pairs(self, k, l):
        u_tab = self.tabs[(k - 1, l)]
        nv = self.tabs[(k - 2, l)].n
        if l == 1:
            return _expand_groups(None, u_tab.pi_r, u_tab.sg, nv)
        rk_sorted, perm = u_tab.rowkey(self.tabs[(1, l)].n)
        return _expand_groups(perm, u_tab.pi_r[perm], u_tab.sg, nv)

    def _orientation(self, k, l) -> str:
        if l == 1:
            return "rows"
        if k == 1:
            return "cols"
        s_tab = self.tabs[(k, l - 1)]
        nw = self.tabs[(k, l - 2)].n
        col_est = int(np.dot(np.bincount(s_tab.sc, minlength=nw),
                             np.bincount(s_tab.pi_c, minlength=nw)))
        u_tab = self.tabs[(k - 1, l)]
        nv = self.tabs[(k - 2, l)].n
        row_est = int(np.dot(np.bincount(u_tab.sg, minlength=nv),
                             np.bincount(u_tab.pi_r, minlength=nv)))
        return "cols" if col_est <= row_est else "rows"

    def _probe_of(self, k, l, f):
        if l == 1:
            return f["pi_r"] * np.int64(self.tabs[(1, 1)].n) + f["lr"]
        return f["pi_c"] * np.int64(self.tabs[(k, 1)].n) + f["lc"]

    # ---- full path ----

    def _full(self, k, l) -> None:
        orient = self._orientation(k, l)
        if orient == "cols":
            cand_s, cand_t = self._col_pairs(k, l)
            f = self._fields_cols(k, l, cand_s, cand_t)
        else:
            cand_u, cand_d = self._row_pairs(k, l)
            f = self._fields_rows(k, l, cand_u, cand_d)
        probe = self._probe_of(k, l, f)
        if orient == "rows" and l >= 2:
            order = np.argsort(probe, kind="stable")
            for name in f:
                f[name] = f[name][order]
            probe = probe[order]
        ncand = len(probe)

        lo, hi, transmit = self._dispositions(k, l, f, ncand)
        values = self._resolve(k, l, f, probe, lo, hi, transmit)

        mask = values > 0
        tab = _Table(int(mask.sum()))
        tab.count = values[mask]
        for name in f:
            setattr(tab, name, f[name][mask])
        self._finish_table(k, l, tab, probe[mask])

    def _dispositions(self, k, l, f, ncand):
        """Each candidate's interval [lo, hi] and whether it is transmitted.

        Per axis, two slabs with counts a and b and an overlap with count w
        bound the count to [a + b - w, min(a, b)]; the overlap of a width-2
        or height-2 size is the empty window.  A slab that fills its overlap
        (a >= w) makes that axis's bounds meet or cross, so once crossed
        bounds are rejected the count's interval is the one point min(a, b).
        A count is transmitted when no slab fills its overlap and no edge
        column or row is its strip's largest member.
        """
        if ncand == 0:
            raise InconsistentCountsError(f"no candidates at size ({k},{l})")
        axes = []
        if l >= 2:
            s_tab = self.tabs[(k, l - 1)]
            axes.append((s_tab.count[f["pi_c"]], s_tab.count[f["sc"]],
                         self.tabs[(k, l - 2)].count[s_tab.sc[f["pi_c"]]],
                         self.tabs[(k, 1)].is_x, f["fc"], f["lc"]))
        if k >= 2:
            u_tab = self.tabs[(k - 1, l)]
            axes.append((u_tab.count[f["pi_r"]], u_tab.count[f["sg"]],
                         self.tabs[(k - 2, l)].count[u_tab.pi_r[f["sg"]]],
                         self.tabs[(1, l)].is_x, f["fr"], f["lr"]))
        lo = np.zeros(ncand, dtype=np.int64)
        hi = np.full(ncand, self.mn, dtype=np.int64)
        transmit = np.ones(ncand, dtype=bool)
        for a, b, w, is_x, first, last in axes:
            lo = np.maximum(lo, a + b - w)
            hi = np.minimum(hi, np.minimum(a, b))
            transmit &= (a < w) & (b < w) & ~is_x[first] & ~is_x[last]
        # true counts sit inside [lo, hi], so crossed bounds mean corrupt
        # counts; pulling a crossed interval would ask the coder for width <= 0
        if (lo > hi).any():
            raise InconsistentCountsError(
                f"interval bounds crossed at size ({k},{l})")
        return lo, hi, transmit

    def _pulled(self, k, l, cls, lo, hi) -> np.ndarray:
        """One size's transmitted counts from `pull`, checked in one step."""
        values = np.asarray(self.pull(k, l, cls, lo, hi), dtype=np.int64)
        if values.shape != lo.shape:
            raise InconsistentCountsError(
                f"pulled {values.size} counts for {lo.size} at size ({k},{l})")
        if ((values < lo) | (values > hi)).any():
            raise InconsistentCountsError(
                f"decoded count outside its interval at size ({k},{l})")
        return values

    def _resolve(self, k, l, f, probe, lo, hi, transmit):
        """Fill in every candidate count; code the ones marked `transmit`.

        The decoder starts from the counts whose interval is one point and
        the pulled ones.  It derives the rest from the residuals of the
        four slab families over the unknowns alone, and stops as soon as
        none is left.  The family sums over every candidate, checked last,
        are the consistency gate; they alone cover a size with nothing to
        derive.
        """
        cls = self._cls(k, l)
        t_idx = np.flatnonzero(transmit)

        lo_t, hi_t = lo[t_idx], hi[t_idx]
        if self.truth is not None:
            true_vals = self.truth.counts_for(k, l, probe)
            sent = true_vals[t_idx]
            if ((sent < lo_t) | (sent > hi_t)).any():
                raise InconsistentCountsError(
                    f"true count escapes its interval at size ({k},{l})")
            if len(t_idx):
                self.sink(k, l, cls, lo_t, hi_t, sent)
            return true_vals

        values = np.where(lo == hi, lo, np.int64(-1))
        if len(t_idx):
            values[t_idx] = self._pulled(k, l, cls, lo_t, hi_t)

        fams = []
        if l >= 2:
            count = self.tabs[(k, l - 1)].count
            fams += [(f["pi_c"], count), (f["sc"], count)]
        if k >= 2:
            count = self.tabs[(k - 1, l)].count
            fams += [(f["pi_r"], count), (f["sg"], count)]

        u = np.flatnonzero(values < 0)
        if len(u):
            self._derive(k, l, fams, values, u, lo[u], hi[u])

        for g, targets in fams:
            sums = np.bincount(g, weights=values,
                               minlength=len(targets)).astype(np.int64)
            if not np.array_equal(sums, targets):
                raise InconsistentCountsError(
                    f"family sums off at size ({k},{l})")
        return values

    @staticmethod
    def _derive(k, l, fams, values, u, lo, hi) -> None:
        """Narrow the unknown counts `u` of `values` in [lo, hi] through
        the slab families until every one is pinned.

        Each family's residual (its group targets less the known counts) is
        taken once; a count pinned later leaves `u` and comes off the
        residual of every family, so each pass touches the unknowns only.
        """
        known = np.maximum(values, 0)  # an unknown (-1) weighs nothing
        res = [targets - np.bincount(g, weights=known,
                                     minlength=len(targets)).astype(np.int64)
               for g, targets in fams]
        gs = [g[u] for g, _ in fams]
        for _ in range(_MAX_PASSES):
            changed = False
            for i in range(len(fams)):
                gu, r = gs[i], res[i]
                G = len(r)
                ucnt = np.bincount(gu, minlength=G)
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
                new_lo = np.maximum(lo, rg - (hi_s[gu] - hi))
                new_hi = np.minimum(hi, rg - (lo_s[gu] - lo))
                if (new_lo > new_hi).any():
                    raise InconsistentCountsError(
                        f"interval bounds crossed at size ({k},{l})")
                if (new_lo > lo).any() or (new_hi < hi).any():
                    changed = True
                lo, hi = new_lo, new_hi
                settle = lo == hi
                if settle.all():
                    values[u] = lo
                    return
                if settle.any():
                    pinned = lo[settle]
                    values[u[settle]] = pinned
                    for j, gj in enumerate(gs):
                        res[j] = res[j] - np.bincount(
                            gj[settle], weights=pinned,
                            minlength=len(res[j])).astype(np.int64)
                    rest = ~settle
                    u, lo, hi = u[rest], lo[rest], hi[rest]
                    gs = [gj[rest] for gj in gs]
            if not changed:
                break
        else:
            raise UnderdeterminedCountsError(
                f"count propagation did not settle at size ({k},{l})")
        raise UnderdeterminedCountsError(
            f"{len(u)} counts unresolved at size ({k},{l})")

    # ---- table finishing ----

    def _finish_table(self, k, l, tab: _Table, key) -> None:
        tab.key = key
        ar = np.arange(tab.n, dtype=np.int64)
        s11 = self.tabs[(1, 1)]
        if l == 1:
            tab.fc = tab.lc = ar
            tab.pi_c = tab.sc = _to_empty(tab.n)
            mid = self.tabs[(k - 1, 1)].pi_r[tab.sg]
            tab.is_x = (s11.is_x[tab.fr] & s11.is_x[tab.lr]
                        & (mid == self.tabs[(k - 2, 1)].n - 1))
        elif k == 1:
            tab.fr = tab.lr = ar
            tab.pi_r = tab.sg = _to_empty(tab.n)
            mid = self.tabs[(1, l - 1)].pi_c[tab.sc]
            tab.is_x = (s11.is_x[tab.fc] & s11.is_x[tab.lc]
                        & (mid == self.tabs[(1, l - 2)].n - 1))
        if self.truth is not None:
            self.truth.check_table(k, l, tab)
        if int(tab.count.sum()) != self.mn:
            raise InconsistentCountsError(
                f"counts at size ({k},{l}) do not sum to the area")
        self._install((k, l), tab)

    # ---- final reconstruction (decoder) ----

    def _shift_links(self):
        """Per id of the readout size, the ids one column right and one row
        down on the torus.

        Dropping the first column of a window gives the id its right
        neighbour has after dropping its last column; while (K, L-1) has
        every window once, `pi_c` inverts to map it back.  At L = n the
        neighbour instead wraps onto the window's own first column, so its
        key (sc, fc) is looked up directly.  Rows work the same way.
        """
        (K, L), tab = self.readout
        if L == self.n:
            right = _native_lookup(tab, tab.sc, tab.fc, self.tabs[(K, 1)].n)[0]
        else:
            right = _inverse(tab.pi_c)[tab.sc]
        if K == self.m:
            down = _row_lookup(tab, tab.sg, tab.fr, self.tabs[(1, L)].n)[0]
        else:
            down = _inverse(tab.pi_r)[tab.sg]
        return right, down

    def member_grid(self, rank: int) -> np.ndarray:
        """The member of the shift class whose (m, n) census id is `rank`.

        Anchor ids are laid out from id 0 along the readout size's shift
        links, each anchor's cell is the top-left symbol of its window, and
        the torus shift that puts id `rank` at the origin is returned.
        """
        m, n = self.m, self.n
        if not 0 <= rank < self.mn:
            raise InconsistentCountsError(f"rank {rank} out of range")
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
        grid = self.sym[self.tabs[(K, 1)].fr[tab.fc[ids]]]
        at = np.flatnonzero(Census(grid).ids(m, n) == rank)
        if len(at) != 1:
            raise InconsistentCountsError(
                f"rank {rank} does not pick one shift of the grid read at "
                f"size ({K},{L})")
        i, j = divmod(int(at[0]), n)
        return np.roll(grid, (-i, -j), axis=(0, 1))


class Truth(Census):
    """The grid's torus census, read the way the encoder walk asks for it."""

    def single_counts(self, alphabet: int) -> np.ndarray:
        counts = np.zeros(alphabet, dtype=np.int64)
        counts[self.keys(1, 1)] = self.counts(1, 1)
        return counts

    def counts_for(self, k, l, probe) -> np.ndarray:
        """True counts for candidate probes keyed like the walk's tables."""
        idx, ok = _find(self.keys(k, l), probe)
        return np.where(ok, self.counts(k, l)[np.maximum(idx, 0)], np.int64(0))

    def check_table(self, k, l, tab: _Table) -> None:
        """The walked table must replicate the grid's own window census."""
        if (k, l) not in self._sizes:  # checking would build the size
            return
        keys, counts = self.keys(k, l), self.counts(k, l)
        if tab.n != len(keys) or not np.array_equal(tab.count, counts):
            raise InconsistentCountsError(
                f"walked table diverges from the grid at size ({k},{l})")
        if not np.array_equal(tab.key, keys):
            raise InconsistentCountsError(
                f"walked ids diverge from the grid at size ({k},{l})")
