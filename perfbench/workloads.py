"""Seeded input corpora for the benchmark workloads.

Everything here is the benchmark's own numpy code: the program under test
receives only the finished grids (or PGM files written from them).  The same
seed always gives the same corpus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("iid64", "mixed-small", "cli32")

# binary markov2d source: cell = left-driven step with weight W, else up-driven
_H = np.array([[0.9, 0.1], [0.1, 0.9]])
_V = np.array([[0.85, 0.15], [0.15, 0.85]])
_W = 0.5


@dataclass(frozen=True)
class Item:
    """One grid of a corpus; `kind` names the source that drew it."""

    kind: str
    grid: np.ndarray  # int64, shape (m, n)
    alphabet: int

    @property
    def cells(self) -> int:
        return int(self.grid.size)


@dataclass(frozen=True)
class Corpus:
    items: tuple[Item, ...]
    peak_items: tuple[int, ...]  # indices measured in the memory pass

    @property
    def cells(self) -> int:
        return sum(it.cells for it in self.items)

    def sha256(self) -> str:
        h = hashlib.sha256()
        for it in self.items:
            m, n = it.grid.shape
            h.update(f"{it.kind} {m} {n} {it.alphabet}\n".encode())
            h.update(it.grid.astype(np.uint8).tobytes())
        return h.hexdigest()


def _markov2d(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    g = np.zeros((m, n), dtype=np.int64)
    u = rng.random((m, n))
    g[0, 0] = u[0, 0] < 0.5
    for j in range(1, n):
        g[0, j] = u[0, j] < _H[g[0, j - 1], 1]
    for i in range(1, m):
        g[i, 0] = u[i, 0] < _V[g[i - 1, 0], 1]
        for j in range(1, n):
            p1 = _W * _H[g[i, j - 1], 1] + (1 - _W) * _V[g[i - 1, j], 1]
            g[i, j] = u[i, j] < p1
    return g


def _iid(rng: np.random.Generator, m: int, n: int, alphabet: int) -> np.ndarray:
    return rng.integers(alphabet, size=(m, n), dtype=np.int64)


def _iid64(rng: np.random.Generator) -> Corpus:
    grid = (rng.random((64, 64)) < 0.2).astype(np.int64)
    return Corpus((Item("bernoulli0.2", grid, 2),), (0,))


_SMALL_KINDS = (("iid2", 2), ("iid4", 4), ("iid16", 16), ("markov2", 2))
# (tile rows, tile cols, vertical repeats, horizontal repeats)
_TILINGS = ((2, 2, 2, 3), (2, 3, 3, 2), (3, 2, 2, 4), (2, 4, 4, 2),
            (4, 2, 2, 2), (3, 3, 2, 3), (4, 4, 3, 2), (2, 5, 3, 3),
            (5, 2, 2, 5), (4, 3, 4, 4))


def _mixed_small(rng: np.random.Generator) -> Corpus:
    items = []
    # Every shape 4..16 x 4..16 twice, with the source fixed by the shape, so
    # that the seed varies cell contents and order but not the mix of sizes
    # and alphabets; two draws per shape halve the share of the op-time
    # quantiles that a single grid's contents can move.
    for _ in range(2):
        for m in range(4, 17):
            for n in range(4, 17):
                kind, alphabet = _SMALL_KINDS[(m + n) % 4]
                if kind == "markov2":
                    grid = _markov2d(rng, m, n)
                else:
                    grid = _iid(rng, m, n, alphabet)
                items.append(Item(kind, grid, alphabet))
        # about a tenth must take the escape path: periodic tiles and strips
        for th, tw, ry, rx in _TILINGS:
            tile = _iid(rng, th, tw, 2)
            items.append(Item("periodic", np.tile(tile, (ry, rx)), 2))
        for i in range(10):
            _, alphabet = _SMALL_KINDS[i % 3]
            items.append(Item("strip", _iid(rng, 1, 4 + i, alphabet), alphabet))
    order = rng.permutation(len(items))
    items = tuple(items[i] for i in order)
    # the largest grids, where the ops' memory peaks lie
    by_size = sorted(range(len(items)),
                     key=lambda i: (items[i].cells, items[i].alphabet, -i))
    return Corpus(items, tuple(sorted(by_size[-9:])))


def _near_periodic(rng: np.random.Generator) -> np.ndarray:
    tile = _iid(rng, 4, 8, 2)
    grid = np.tile(tile, (8, 4))
    i, j = rng.integers(32, size=2)
    grid[i, j] ^= 1  # one flip breaks every nontrivial shift symmetry
    return grid


def _cli32(rng: np.random.Generator) -> Corpus:
    items = []
    for _ in range(3):
        items.append(Item("markov2", _markov2d(rng, 32, 32), 2))
        items.append(Item("near-periodic", _near_periodic(rng), 2))
    return Corpus(tuple(items), (0, 1))


_BUILDERS = {"iid64": _iid64, "mixed-small": _mixed_small, "cli32": _cli32}


def build(workload: str, seed: int) -> Corpus:
    return _BUILDERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


def pgm_bytes(item: Item) -> bytes:
    """Binary PGM with maxval = alphabet - 1, the layout the program writes."""
    m, n = item.grid.shape
    header = f"P5\n{n} {m}\n{item.alphabet - 1}\n".encode()
    return header + item.grid.astype(np.uint8).tobytes()
