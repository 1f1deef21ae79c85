"""Blocks, strategies and readers that several test modules share."""

import numpy as np
from hypothesis import strategies as st

from torus_cse.blocks import make_block
from torus_cse.engine import Walk
from torus_cse.oracle import _view, torus_subblock

P2 = make_block([[0, 1], [1, 1]])
P4 = make_block([[0, 1, 1], [1, 1, 1]])


def near_periodic_tile():
    """A 32x32 binary grid: a 4x8 tile repeated, with one cell flipped to
    break every nontrivial shift symmetry."""
    rng = np.random.default_rng(8)
    g = np.tile(rng.integers(0, 2, size=(4, 8)), (8, 4))
    g[5, 19] ^= 1
    return g


def one_dot(side):
    """A side x side binary grid of zeros with a single 1: every window
    size up to the full one repeats a window, so the walk never settles."""
    g = np.zeros((side, side), dtype=np.int64)
    g[5, 9] = 1
    return g


def grids(max_m=4, max_n=4, alphabet=2):
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n),
                min_size=m, max_size=m,
            )
        )
    )


def col_major(b):
    """b's cells column by column: the canonical sort key, read off the
    oracle's column view."""
    return sum(_view(b.rows, 1), ())


def shifts(p):
    """p's distinct torus shifts by direct wrapped reads, in canonical
    column-major order."""
    return sorted({torus_subblock(p, i, j, p.m, p.n)
                   for i in range(1, p.m + 1) for j in range(1, p.n + 1)},
                  key=col_major)


def pull_from(records, check=True):
    """A pull that answers each batch with the next (k, l, lo, hi, value)
    records, one per count."""
    stream = iter(records)

    def pull(k, l, lo, hi):
        batch = [next(stream) for _ in range(len(lo))]
        if check:
            assert [r[:4] for r in batch] == [
                (k, l, int(a), int(b)) for a, b in zip(lo, hi)]
        return [r[4] for r in batch]

    return stream, pull


def decode_grid(m, n, alphabet, records):
    """The torus shift of the grid that the decoder walk reads off records."""
    stream, pull = pull_from(records)

    walk = Walk(m, n, alphabet, pull=pull)
    walk.run()
    assert next(stream, None) is None, "decoder consumed too few values"
    return walk.member_grid()


def is_shift(a, g):
    """Whether the array a is one of g's torus shifts."""
    m, n = g.shape
    return a.shape == g.shape and any(
        np.array_equal(np.roll(g, (-i, -j), axis=(0, 1)), a)
        for i in range(m) for j in range(n))
