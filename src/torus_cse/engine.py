"""Vectorized encoder/decoder walker over torus window-count tables.

Tables live in id space: the positive windows of one size, sorted by their
column-major byte key, get ids 0..n-1.  Per-id fields point into the tables
of the four slab sizes (drop first/last column, drop first/last row), so
candidate construction, dispositions and count resolution become numpy
array programs.  The decoder runs the exact same table builds as the
encoder, which keeps the two in lockstep by construction.

Once every window of some ancestor size occurs exactly once, all larger
sizes extend uniquely and carry no transmissions, so the walk switches to
a cheap join-only path for them.
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


def _native_lookup(tab: _Table, a: np.ndarray, b: np.ndarray, space: int):
    return _find(tab.key, a * np.int64(space) + b)


def _row_lookup(tab: _Table, a: np.ndarray, b: np.ndarray, space: int):
    rk_sorted, perm = tab.rowkey(space)
    ids, ok = _find(rk_sorted, a * np.int64(space) + b)
    return np.where(ok, perm[np.maximum(ids, 0)], -1), ok


def _expand_groups(order, group_of: np.ndarray, probes: np.ndarray):
    """Per probe, the contiguous run of positions whose group matches.

    `group_of` must be ascending.  Returns (left index repeated per match,
    matched positions mapped through `order` when given).
    """
    starts = np.searchsorted(group_of, probes, side="left")
    ends = np.searchsorted(group_of, probes, side="right")
    runs = ends - starts
    total = int(runs.sum())
    left = np.repeat(np.arange(len(probes), dtype=np.int64), runs)
    if total == 0:
        return left, np.zeros(0, dtype=np.int64)
    offs = np.concatenate(([0], np.cumsum(runs)[:-1]))
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
        self.tabs: dict[tuple[int, int], _Table] = {}
        self.cnts: dict[tuple[int, int], np.ndarray] = {}
        self.max1: dict[tuple[int, int], bool] = {}
        self.sym = None  # (1,1) id -> symbol value

    # ---- driving ----

    def run(self) -> None:
        for k in range(1, self.m + 1):
            for l in range(1, self.n + 1):
                self._build_size(k, l)
            self._prune_row(k)

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
                self.cnts.pop((r, l), None)

    # ---- (1,1) ----

    def _build_11(self) -> None:
        mn, J = self.mn, self.J
        if self.truth is not None:
            counts = self.truth.single_counts(J)
            for s in range(J - 1):
                self.sink(1, 1, B1, 0, mn - 1, int(counts[s]))
        else:
            counts = np.zeros(J, dtype=np.int64)
            for s in range(J - 1):
                counts[s] = self.pull(1, 1, B1, 0, mn - 1)
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
        t.is_x = self.sym == J - 1
        t.key = ar
        self._install((1, 1), t)

    def _install(self, size, tab: _Table) -> None:
        self.tabs[size] = tab
        self.cnts[size] = tab.count
        self.max1[size] = bool(tab.count.max() == 1)

    # ---- size dispatch ----

    def _build_size(self, k: int, l: int) -> None:
        if k == 1 and l == 1:
            self._build_11()
            return
        if l >= 3 and self.max1[(k, l - 2)]:
            self._tail_cols(k, l)
        elif k >= 3 and self.max1[(k - 2, l)]:
            self._tail_rows(k, l)
        else:
            self._full(k, l)

    # ---- candidate field construction ----

    def _fields_cols(self, k, l, cand_s, cand_t):
        """Slab ids for col-joined candidates; drops ones with a zero row slab."""
        s_tab = self.tabs[(k, l - 1)]
        out = {"pi_c": cand_s, "sc": cand_t}
        out["lc"] = cand_t if l == 2 else s_tab.lc[cand_t]
        out["fc"] = cand_s if l == 2 else s_tab.fc[cand_s]
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
        out = {"pi_r": cand_u, "sg": cand_d}
        out["lr"] = cand_d if k == 2 else u_tab.lr[cand_d]
        out["fr"] = cand_u if k == 2 else u_tab.fr[cand_u]
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
        if l == 2:
            ns = s_tab.n
            cand_s = np.repeat(np.arange(ns, dtype=np.int64), ns)
            cand_t = np.tile(np.arange(ns, dtype=np.int64), ns)
            return cand_s, cand_t
        return _expand_groups(None, s_tab.pi_c, s_tab.sc)

    def _row_pairs(self, k, l):
        u_tab = self.tabs[(k - 1, l)]
        if k == 2:
            nu = u_tab.n
            cand_u = np.repeat(np.arange(nu, dtype=np.int64), nu)
            cand_d = np.tile(np.arange(nu, dtype=np.int64), nu)
            return cand_u, cand_d
        if l == 1:
            return _expand_groups(None, u_tab.pi_r, u_tab.sg)
        rk_sorted, perm = u_tab.rowkey(self.tabs[(1, l)].n)
        return _expand_groups(perm, u_tab.pi_r[perm], u_tab.sg)

    def _orientation(self, k, l) -> str:
        if l == 1:
            return "rows"
        if k == 1:
            return "cols"
        s_tab = self.tabs[(k, l - 1)]
        if l == 2:
            col_est = s_tab.n * s_tab.n
        else:
            nw = len(self.cnts[(k, l - 2)])
            col_est = int(np.dot(np.bincount(s_tab.sc, minlength=nw),
                                 np.bincount(s_tab.pi_c, minlength=nw)))
        u_tab = self.tabs[(k - 1, l)]
        if k == 2:
            row_est = u_tab.n * u_tab.n
        else:
            nv = len(self.cnts[(k - 2, l)])
            row_est = int(np.dot(np.bincount(u_tab.sg, minlength=nv),
                                 np.bincount(u_tab.pi_r, minlength=nv)))
        return "cols" if col_est <= row_est else "rows"

    def _probe_of(self, k, l, f):
        if l == 1:
            space = self.tabs[(1, 1)].n
            return f["pi_r"] * np.int64(space) + f["lr"]
        space = self.tabs[(k, 1)].n if k >= 2 else self.tabs[(1, 1)].n
        return f["pi_c"] * np.int64(space) + f["lc"]

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

        lo, hi, forced, excl = self._dispositions(k, l, f, ncand)
        values = self._resolve(k, l, f, probe, lo, hi, forced, excl)

        mask = values > 0
        tab = _Table(int(mask.sum()))
        tab.count = values[mask]
        for name in f:
            setattr(tab, name, f[name][mask])
        self._finish_table(k, l, tab, probe[mask])

    def _dispositions(self, k, l, f, ncand):
        mn = self.mn
        if ncand == 0:
            raise InconsistentCountsError(f"no candidates at size ({k},{l})")
        lo = np.zeros(ncand, dtype=np.int64)
        hi = np.full(ncand, mn, dtype=np.int64)
        col_ok = np.ones(ncand, dtype=bool)
        row_ok = np.ones(ncand, dtype=bool)
        forced = np.full(ncand, -1, dtype=np.int64)
        if l >= 2:
            c1 = self.cnts[(k, l - 1)][f["pi_c"]]
            c2 = self.cnts[(k, l - 1)][f["sc"]]
            if l == 2:
                nw = np.int64(mn)
            else:
                w = self.tabs[(k, l - 1)].sc[f["pi_c"]]
                nw = self.cnts[(k, l - 2)][w]
            lo = np.maximum(lo, c1 + c2 - nw)
            hi = np.minimum(hi, np.minimum(c1, c2))
            col_ok = (nw - c1 >= 1) & (nw - c2 >= 1)
            forced_col = np.minimum(c1, c2)
        if k >= 2:
            r1 = self.cnts[(k - 1, l)][f["pi_r"]]
            r2 = self.cnts[(k - 1, l)][f["sg"]]
            if k == 2:
                nv = np.int64(mn)
            else:
                v = self.tabs[(k - 1, l)].pi_r[f["sg"]]
                nv = self.cnts[(k - 2, l)][v]
            lo = np.maximum(lo, r1 + r2 - nv)
            hi = np.minimum(hi, np.minimum(r1, r2))
            row_ok = (nv - r1 >= 1) & (nv - r2 >= 1)
            forced_row = np.minimum(r1, r2)
        lo = np.maximum(lo, 0)

        # precedence: column condition first, then row, then exclusion
        if k >= 2:
            forced = np.where(~row_ok, forced_row, forced)
        if l >= 2:
            forced = np.where(~col_ok, forced_col, forced)
        if l >= 2 and k >= 2:
            xs = self.tabs[(k, 1)].is_x
            xr = self.tabs[(1, l)].is_x
            excl = xs[f["fc"]] | xs[f["lc"]] | xr[f["fr"]] | xr[f["lr"]]
        elif l >= 2:
            x11 = self.tabs[(1, 1)].is_x
            excl = x11[f["fc"]] | x11[f["lc"]]
        else:
            x11 = self.tabs[(1, 1)].is_x
            excl = x11[f["fr"]] | x11[f["lr"]]
        # true counts sit inside [lo, hi], so crossed bounds mean corrupt
        # counts; pulling a crossed interval would ask the coder for width <= 0
        if (lo > hi).any():
            raise InconsistentCountsError(
                f"interval bounds crossed at size ({k},{l})")
        if ((forced >= 0) & ((forced < lo) | (forced > hi))).any():
            raise InconsistentCountsError(
                f"forced count outside its interval at size ({k},{l})")
        return lo, hi, forced, excl & (col_ok & row_ok)

    def _resolve(self, k, l, f, probe, lo, hi, forced, excl):
        """Fill in every candidate count; transmit the undetermined ones."""
        cls = self._cls(k, l)
        transmit = (forced < 0) & ~excl
        t_idx = np.flatnonzero(transmit)

        if self.truth is not None:
            true_vals = self.truth.counts_for(k, l, probe)
            bad = (true_vals[t_idx] < lo[t_idx]) | (true_vals[t_idx] > hi[t_idx])
            if bad.any():
                raise InconsistentCountsError(
                    f"true count escapes its interval at size ({k},{l})")
            for i in t_idx:
                self.sink(k, l, cls, int(lo[i]), int(hi[i]), int(true_vals[i]))
            return true_vals

        values = np.where(forced >= 0, forced, np.int64(-1))
        for i in t_idx:
            v = self.pull(k, l, cls, int(lo[i]), int(hi[i]))
            if not lo[i] <= v <= hi[i]:
                raise InconsistentCountsError(
                    f"decoded count outside its interval at size ({k},{l})")
            values[i] = v

        # the rest are derived: narrow [lo, hi] through the slab families;
        # a cross-axis intersection can pin a count before any family pass
        lo = lo.copy()
        hi = hi.copy()
        deg = (values < 0) & (lo == hi)
        values[deg] = lo[deg]

        fams = []
        if l >= 2:
            fams.append((f["pi_c"], self.cnts[(k, l - 1)]))
            fams.append((f["sc"], self.cnts[(k, l - 1)]))
        if k >= 2:
            fams.append((f["pi_r"], self.cnts[(k - 1, l)]))
            fams.append((f["sg"], self.cnts[(k - 1, l)]))

        for _ in range(_MAX_PASSES):
            changed = False
            for g, targets in fams:
                known = values >= 0
                G = len(targets)
                ksum = np.bincount(g[known], weights=values[known],
                                   minlength=G).astype(np.int64)
                res = targets - ksum
                ucnt = np.bincount(g[~known], minlength=G)
                if ((ucnt == 0) & (res != 0)).any() or (res < 0).any():
                    raise InconsistentCountsError(
                        f"family sums off at size ({k},{l})")
                u = np.flatnonzero(~known)
                if len(u) == 0:
                    continue
                gu = g[u]
                lo_s = np.bincount(gu, weights=lo[u],
                                   minlength=G).astype(np.int64)
                hi_s = np.bincount(gu, weights=hi[u],
                                   minlength=G).astype(np.int64)
                live = ucnt > 0
                if ((res[live] < lo_s[live]) | (res[live] > hi_s[live])).any():
                    raise InconsistentCountsError(
                        f"family cannot reach its residual at size ({k},{l})")
                new_lo = np.maximum(lo[u], res[gu] - (hi_s[gu] - hi[u]))
                new_hi = np.minimum(hi[u], res[gu] - (lo_s[gu] - lo[u]))
                if (new_lo > new_hi).any():
                    raise InconsistentCountsError(
                        f"interval bounds crossed at size ({k},{l})")
                if (new_lo > lo[u]).any() or (new_hi < hi[u]).any():
                    changed = True
                lo[u] = new_lo
                hi[u] = new_hi
                settle = new_lo == new_hi
                if settle.any():
                    values[u[settle]] = new_lo[settle]
                    changed = True
            if not changed:
                break
        else:
            raise UnderdeterminedCountsError(
                f"count propagation did not settle at size ({k},{l})")
        if (values < 0).any():
            raise UnderdeterminedCountsError(
                f"{int((values < 0).sum())} counts unresolved at size ({k},{l})")

        for g, targets in fams:
            sums = np.bincount(g, weights=values,
                               minlength=len(targets)).astype(np.int64)
            if not np.array_equal(sums, targets):
                raise InconsistentCountsError(
                    f"family sums off at size ({k},{l})")
        return values

    # ---- settled-zone fast path ----

    def _tail_cols(self, k, l) -> None:
        s_tab = self.tabs[(k, l - 1)]
        ns = s_tab.n
        starts = np.searchsorted(s_tab.pi_c, s_tab.sc, side="left")
        ends = np.searchsorted(s_tab.pi_c, s_tab.sc, side="right")
        if not (ends - starts == 1).all():
            raise InconsistentCountsError(
                f"non-unique extension in the settled zone at size ({k},{l})")
        cand_s = np.arange(ns, dtype=np.int64)
        f = self._fields_cols(k, l, cand_s, starts)
        if len(f["pi_c"]) != ns:
            raise InconsistentCountsError(
                f"settled-zone slab missing at size ({k},{l})")
        self._tail_finish(k, l, f, ns)

    def _tail_rows(self, k, l) -> None:
        u_tab = self.tabs[(k - 1, l)]
        nu = u_tab.n
        if l == 1:
            order, group_of = None, u_tab.pi_r
        else:
            rk_sorted, order = u_tab.rowkey(self.tabs[(1, l)].n)
            group_of = u_tab.pi_r[order]
        starts = np.searchsorted(group_of, u_tab.sg, side="left")
        ends = np.searchsorted(group_of, u_tab.sg, side="right")
        if not (ends - starts == 1).all():
            raise InconsistentCountsError(
                f"non-unique extension in the settled zone at size ({k},{l})")
        cand_d = order[starts] if order is not None else starts
        cand_u = np.arange(nu, dtype=np.int64)
        f = self._fields_rows(k, l, cand_u, cand_d)
        if len(f["pi_r"]) != nu:
            raise InconsistentCountsError(
                f"settled-zone slab missing at size ({k},{l})")
        if l >= 2:
            probe = self._probe_of(k, l, f)
            order = np.argsort(probe, kind="stable")
            for name in f:
                f[name] = f[name][order]
        self._tail_finish(k, l, f, nu)

    def _tail_finish(self, k, l, f, n) -> None:
        tab = _Table(n)
        tab.count = np.ones(n, dtype=np.int64)
        for name in f:
            setattr(tab, name, f[name])
        self._finish_table(k, l, tab, self._probe_of(k, l, f))

    # ---- table finishing ----

    def _finish_table(self, k, l, tab: _Table, key) -> None:
        tab.key = key
        ar = np.arange(tab.n, dtype=np.int64)
        s11 = self.tabs[(1, 1)]
        if l == 1:
            tab.fc = tab.lc = ar
            isx = s11.is_x[tab.fr] & s11.is_x[tab.lr]
            if k >= 3:
                mid = self.tabs[(k - 1, 1)].pi_r[tab.sg]
                isx &= mid == self.tabs[(k - 2, 1)].n - 1
            tab.is_x = isx
        elif k == 1:
            tab.fr = tab.lr = ar
            isx = s11.is_x[tab.fc] & s11.is_x[tab.lc]
            if l >= 3:
                mid = self.tabs[(1, l - 1)].pi_c[tab.sc]
                isx &= mid == self.tabs[(1, l - 2)].n - 1
            tab.is_x = isx
        if self.truth is not None:
            self.truth.check_table(k, l, tab)
        if int(tab.count.sum()) != self.mn:
            raise InconsistentCountsError(
                f"counts at size ({k},{l}) do not sum to the area")
        self._install((k, l), tab)

    # ---- final reconstruction (decoder) ----

    def member_grid(self, rank: int) -> np.ndarray:
        m, n = self.m, self.n
        final = self.tabs[(m, n)]
        if final.n != self.mn:
            raise InconsistentCountsError(
                "full-size table does not enumerate one window per anchor")
        if not 0 <= rank < self.mn:
            raise InconsistentCountsError(f"rank {rank} out of range")
        cols = []
        cur = int(rank)
        for l in range(n, 1, -1):
            t = self.tabs[(m, l)]
            cols.append(int(t.lc[cur]))
            cur = int(t.pi_c[cur])
        cols.append(cur)
        cols.reverse()
        grid = np.empty((m, n), dtype=np.int64)
        for j, cid in enumerate(cols):
            cur = cid
            syms = []
            for k in range(m, 1, -1):
                t = self.tabs[(k, 1)]
                syms.append(int(t.lr[cur]))
                cur = int(t.pi_r[cur])
            syms.append(cur)
            syms.reverse()
            grid[:, j] = self.sym[np.array(syms, dtype=np.int64)]
        return grid


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
