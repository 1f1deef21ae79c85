"""Conventional single-axis coder measurements."""

import json
from pathlib import Path

import numpy as np
import pytest

from shared import P2
from torus_cse.baseline1d import Comparison, compare, conv_lengths
from torus_cse.blocks import Census, from_numpy, is_primitive, make_block
from torus_cse.errors import CapExceededError, NotPrimitiveError

PINNED = json.loads(
    (Path(__file__).parent / "data" / "conv_lengths_pinned.json").read_text())


def test_single_counts_sum_to_n():
    # the column super-symbols are the full-height windows of row 0
    rng = np.random.default_rng(2)
    for shape in [(2, 5), (4, 9), (8, 16)]:
        p = from_numpy(rng.integers(0, 2, size=shape), alphabet=2)
        counts = Census(Census(p.to_numpy()).ids(p.m, 1)[:1]).counts(1, 1)
        assert counts.sum() == p.n
        assert len(counts) <= min(2 ** p.m, p.n)


def test_conv_lengths_pinned():
    # recorded from the tuple-census implementation the census join replaced:
    # 3 draws per shape, m 1..8, n over short, odd and power-of-two widths
    rng = np.random.default_rng(0)
    shapes = [(m, n) for m in range(1, 9)
              for n in (1, 2, 3, 5, 8, 16, 17, 33, 64) for _ in range(3)]
    assert len(PINNED["rows"]) == len(shapes) == 216
    for (m, n), row in zip(shapes, PINNED["rows"]):
        b = conv_lengths(from_numpy(rng.integers(0, 2, size=(m, n)),
                                    alphabet=2))
        t = b.transmitted
        got = [m, n, t["C1"], t["C2"], t["C3"], b.l0, b.l1,
               b.middle_regime_empty]
        assert got == row[:8]
        assert b.l2 == pytest.approx(row[8], abs=1e-9)
        assert b.l3 == pytest.approx(row[9], abs=1e-9)


def test_p2_frozen_sections():
    b = conv_lengths(P2)
    # E(2) is 4 bits plus 1 rank bit; 3 of 4 super-symbols charged 1 bit each
    assert b.l0 == 5.0
    assert b.l1 == 3.0
    assert b.transmitted["C1"] == 3
    assert b.middle_regime_empty
    assert b.total == pytest.approx(b.l0 + b.l1 + b.l2 + b.l3)


def test_compare_p2():
    c = compare(P2)
    assert isinstance(c, Comparison)
    assert c.singles_baseline == 3
    assert c.singles_codec == 1
    assert c.baseline.l1 > c.codec.l1
    assert c.baseline.total > 0 and c.codec.total > 0


def test_8x64_transmitted_scaling():
    rng = np.random.default_rng(8)
    p = from_numpy(rng.integers(0, 2, size=(8, 64)), alphabet=2)
    assert is_primitive(p)
    c = compare(p)
    assert c.singles_baseline == 255
    assert c.singles_codec == 1


def test_middle_regime_threshold():
    # floor(log2 log2 n) reaches 2 only at n = 16
    rng = np.random.default_rng(3)
    short = from_numpy(rng.integers(0, 2, size=(2, 8)), alphabet=2)
    long = from_numpy(rng.integers(0, 2, size=(2, 16)), alphabet=2)
    assert conv_lengths(short).middle_regime_empty
    b = conv_lengths(long)
    assert not b.middle_regime_empty
    assert b.transmitted["C2"] > 0


def test_degenerate_width_one():
    b = conv_lengths(make_block([[0], [1]]))
    assert b.l0 == 1.0  # E(1) plus zero rank bits
    assert b.l1 == 0.0


def test_guards():
    rng = np.random.default_rng(4)
    with pytest.raises(CapExceededError):
        conv_lengths(from_numpy(rng.integers(0, 2, size=(9, 4)), alphabet=2))
    with pytest.raises(CapExceededError):
        conv_lengths(make_block([[0, 1], [2, 0]], alphabet=3))


def test_compare_propagates_escape_inputs():
    with pytest.raises(NotPrimitiveError):
        compare(make_block([[0, 1], [0, 1]]))


def test_deterministic():
    rng = np.random.default_rng(5)
    p = from_numpy(rng.integers(0, 2, size=(4, 12)), alphabet=2)
    assert conv_lengths(p) == conv_lengths(p)
