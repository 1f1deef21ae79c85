"""Layer spans and layer memory peaks, recorded from outside the program.

Both recorders patch the names the program really calls (module functions
and class methods) for the duration of a `with` block and restore them on
exit.  A name that a build no longer has is skipped, so its layer reads zero
instead of being timed in a stale copy.
"""

from __future__ import annotations

import importlib
import tracemalloc
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

WALK_RUN = "engine.walk"  # split into walk_enc / walk_dec by the walk's mode

# (owner, attribute, span name); owner is "module" or "module:Class"
LAYER_POINTS = (
    ("torus_cse", "compress", "codec.compress"),
    ("torus_cse", "decompress", "codec.decompress"),
    ("torus_cse.cli", "main", "cli.main"),
    ("torus_cse.cli", "compress", "codec.compress"),
    ("torus_cse.cli", "decompress", "codec.decompress"),
    ("torus_cse.cli", "stats", "cli.stats"),
    ("torus_cse.cli", "read_grid", "gridio.read"),
    ("torus_cse.cli", "write_grid", "gridio.write"),
    ("torus_cse.codec", "is_primitive", "blocks.is_primitive"),
    ("torus_cse.codec", "rank_of", "blocks.rank_of"),
    ("torus_cse.codec", "from_numpy", "blocks.from_numpy"),
    ("torus_cse.engine:Walk", "run", WALK_RUN),
    ("torus_cse.engine:Walk", "member_grid", "engine.member_grid"),
    ("torus_cse.engine:Truth", "counts_for", "engine.census"),
    ("torus_cse.rangecoder:RangeEncoder", "encode", "rangecoder.encode"),
    ("torus_cse.rangecoder:RangeDecoder", "decode", "rangecoder.decode"),
    ("torus_cse.bits:BitWriter", "write_bits", "bits.write_bits"),
    ("torus_cse.bits:BitReader", "read_bits", "bits.read_bits"),
)

# layers whose memory peak the layer-memory pass records
PEAK_POINTS = (
    ("torus_cse.engine:Walk", "run", "engine.walk"),
    ("torus_cse.codec", "is_primitive", "blocks.primitive"),
    ("torus_cse.codec", "rank_of", "blocks.primitive"),
)


def _owner(path: str):
    mod, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(mod)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


@contextmanager
def _patched(points, make_wrapper):
    saved = []
    try:
        for path, attr, name in points:
            owner = _owner(path)
            if owner is None or attr not in vars(owner):
                continue
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, make_wrapper(name, orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def settled_counts(max1: dict) -> tuple[int, int]:
    """(sizes walked, settled sizes) from a finished walk's `max1` table.

    A size is settled when the size two columns or two rows smaller has every
    window occurring once; the walk then extends it without transmitting.
    """
    settled = sum(1 for (k, l) in max1
                  if max1.get((k, l - 2)) or max1.get((k - 2, l)))
    return len(max1), settled


class SpanRecorder:
    """In-memory spans (name, start, end, parent); written out at the end.

    Spans are kept in flat arrays so that a pass with a million range-coder
    calls stays cheap.  A span with no parent is one benchmark op; every
    span belongs to the op whose root span precedes it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.walk_tables: list[dict] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack

        def span(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return span

    def _wrap_walk(self, fn):
        enc = self._wrap("engine.walk_enc", fn)
        dec = self._wrap("engine.walk_dec", fn)
        tables = self.walk_tables

        def run(walk, *args, **kwargs):
            out = (enc if getattr(walk, "truth", None) is not None else dec)(
                walk, *args, **kwargs)
            tables.append(getattr(walk, "max1", {}))
            return out

        return run

    def installed(self):
        return _patched(LAYER_POINTS, lambda name, fn: (
            self._wrap_walk(fn) if name == WALK_RUN else self._wrap(name, fn)))

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (self seconds, inclusive seconds, calls)."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.uint16)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        own = dur - child
        out = {}
        for nid, n in enumerate(self.names):
            sel = name == nid
            out[n] = (float(own[sel].sum()), float(dur[sel].sum()),
                      int(sel.sum()))
        return out

    def save(self, path) -> None:
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start)
        t0 = start[0] if len(start) else 0.0
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=start - t0, end=np.frombuffer(self.end) - t0, parent=parent,
            op=np.cumsum(parent < 0) - 1)


class PeakRecorder:
    """Largest tracemalloc peak inside each named layer, nesting-safe.

    The global peak is reset on entry to each layer; on entry the peak seen
    so far is folded into the enclosing layer, and on exit the layer's own
    peak is read, so an enclosing layer still sees its children's peaks.
    Peaks are measured above the traced memory at the layer's entry.
    """

    def __init__(self) -> None:
        self.peak: dict[str, int] = {}
        self._stack: list[list] = []  # [name, base bytes, running peak]

    def _wrap(self, name: str, fn):
        stack = self._stack

        def layer(*args, **kwargs):
            cur, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][2] = max(stack[-1][2], peak)
            tracemalloc.reset_peak()
            frame = [name, cur, cur]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
                stack.pop()
                if stack:
                    stack[-1][2] = max(stack[-1][2], frame[2])
                self.peak[name] = max(self.peak.get(name, 0), frame[2] - frame[1])

        return layer

    def installed(self):
        return _patched(PEAK_POINTS, self._wrap)
