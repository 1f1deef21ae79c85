"""Container round-trips, frozen layouts, and fault injection."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_cse.bits import elias_delta_length
from torus_cse.blocks import Block, from_numpy, is_primitive, make_block
from torus_cse.codec import (FLAG_ESCAPE, HEADER_LEN, MAGIC, VERSION,
                             CodewordStats, compress, decompress, stats)
from torus_cse.errors import (BadMagicError, InconsistentCountsError,
                              NotPrimitiveError, TorusCseError,
                              TruncatedStreamError, UnsupportedVersionError)

P2 = make_block([[0, 1], [1, 1]])


def grids(m, n, alphabet=2):
    for cells in itertools.product(range(alphabet), repeat=m * n):
        yield make_block([list(cells[r * n:(r + 1) * n]) for r in range(m)],
                         alphabet=alphabet)


# ---- round trips ----

@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 1), (2, 2), (2, 3), (3, 3)])
def test_roundtrip_exhaustive_binary(m, n):
    for p in grids(m, n):
        assert decompress(compress(p)) == p


def test_roundtrip_exhaustive_ternary_2x2():
    for p in grids(2, 2, alphabet=3):
        assert decompress(compress(p)) == p


@pytest.mark.parametrize("alphabet,seed", [(2, 21), (4, 22), (16, 23)])
def test_roundtrip_random_32x32(alphabet, seed):
    rng = np.random.default_rng(seed)
    p = from_numpy(rng.integers(0, alphabet, size=(32, 32)), alphabet=alphabet)
    c = compress(p)
    assert not c[7] & FLAG_ESCAPE
    assert decompress(c) == p
    assert len(c) == stats(p).container_bytes


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_roundtrip_random_small(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    alphabet = data.draw(st.integers(2, 5))
    cells = data.draw(st.lists(st.integers(0, alphabet - 1),
                               min_size=m * n, max_size=m * n))
    p = make_block([cells[r * n:(r + 1) * n] for r in range(m)],
                   alphabet=alphabet)
    assert decompress(compress(p)) == p


# ---- container layout ----

def test_header_layout_coded():
    c = compress(P2)
    assert c[:6] == MAGIC
    assert c[6] == VERSION
    assert c[7] == 0
    assert c[8] == P2.alphabet - 1
    # payload starts with E(2) E(2) = 0100 0100
    assert c[9] == 0x44
    assert len(c) == stats(P2).container_bytes


def test_escape_container_frozen_bytes():
    # non-primitive 2x2, cells 0 1 0 1: payload is E(2) E(2) then one bit
    # per cell row-major, zero padded to the byte: 01000100 01010000
    p = make_block([[0, 1], [0, 1]])
    assert compress(p) == MAGIC + bytes([VERSION, FLAG_ESCAPE, 1, 0x44, 0x50])


def test_escape_length_formula():
    for p in [make_block([[1]], alphabet=2),
              make_block([[0, 1, 2, 1]], alphabet=3),
              make_block([[0], [1], [0]], alphabet=2),
              make_block([[0, 1], [0, 1]]),
              make_block([[3, 3], [3, 3]], alphabet=4)]:
        c = compress(p)
        assert c[7] & FLAG_ESCAPE
        cell_bits = max(1, (p.alphabet - 1).bit_length())
        bits = (elias_delta_length(p.m) + elias_delta_length(p.n)
                + p.size * cell_bits)
        assert len(c) == HEADER_LEN + (bits + 7) // 8


def test_alphabet_byte_tracks_block():
    for alphabet in (2, 3, 16, 200):
        p = make_block([[0, 1], [1, 1]], alphabet=alphabet)
        assert compress(p)[8] == alphabet - 1


# ---- stats ----

def test_stats_p2_frozen():
    s = stats(P2)
    assert s.l1 == 2.0
    assert s.l2 == 0.0
    assert s.transmitted == {"B1": 1, "B2": 0, "B3": 4}
    assert s.total == pytest.approx(s.l0 + s.l1 + s.l2 + s.l3)
    assert s.container_bytes == len(compress(P2))
    assert s.bits_per_symbol == pytest.approx(8 * s.container_bytes / 4)


def test_stats_binary_transmits_one_single():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p = from_numpy(rng.integers(0, 2, size=(8, 8)), alphabet=2)
        if is_primitive(p):
            assert stats(p).transmitted["B1"] == 1


def test_stats_rejects_escape_inputs():
    with pytest.raises(NotPrimitiveError):
        stats(make_block([[0, 1], [0, 1]]))
    with pytest.raises(NotPrimitiveError):
        stats(make_block([[0, 1, 0, 1]]))


def test_coder_slack_within_contract():
    # container payload may exceed the ideal length by the coder flush
    # (< 8 bits) plus byte padding (< 8 bits), never more
    rng = np.random.default_rng(41)
    blocks = [P2, make_block([[0, 1, 0], [1, 1, 0], [0, 0, 1]])]
    blocks += [from_numpy(rng.integers(0, a, size=(d, d)), alphabet=a)
               for a, d in [(2, 8), (2, 16), (4, 12), (16, 6)]]
    for p in blocks:
        if not is_primitive(p):
            continue
        s = stats(p)
        ideal = (s.l1 + s.l2 + s.l3
                 + elias_delta_length(p.m) + elias_delta_length(p.n)
                 + math.ceil(math.log2(p.size)))
        assert 0 <= s.total_bits - ideal < 16


# ---- decompress validation ----

def test_decompress_rejects_short_input():
    for cut in range(HEADER_LEN):
        with pytest.raises(TruncatedStreamError):
            decompress(compress(P2)[:cut])


def test_decompress_rejects_bad_magic():
    c = bytearray(compress(P2))
    c[0] ^= 0xFF
    with pytest.raises(BadMagicError):
        decompress(bytes(c))


def test_decompress_rejects_future_version():
    c = bytearray(compress(P2))
    c[6] = 2
    with pytest.raises(UnsupportedVersionError):
        decompress(bytes(c))


def test_decompress_rejects_unknown_flags():
    c = bytearray(compress(P2))
    c[7] |= 0x02
    with pytest.raises(UnsupportedVersionError):
        decompress(bytes(c))


def test_decompress_rejects_zero_alphabet():
    c = bytearray(compress(P2))
    c[8] = 0
    with pytest.raises(InconsistentCountsError):
        decompress(bytes(c))


def test_decompress_rejects_oversize_dims():
    # escape container claiming a 2^15 x 2^15 grid: the cell payload is
    # absent, so the decoder must bail on the area check before reading it
    from torus_cse.bits import BitWriter, elias_delta_encode
    bw = BitWriter()
    elias_delta_encode(1 << 15, bw)
    elias_delta_encode(1 << 15, bw)
    data = MAGIC + bytes([VERSION, FLAG_ESCAPE, 1]) + bw.to_bytes()
    with pytest.raises(InconsistentCountsError):
        decompress(data)


def test_decompress_rejects_coded_degenerate_dims():
    # coded container (no escape flag) with m = 1 is malformed
    from torus_cse.bits import BitWriter, elias_delta_encode
    bw = BitWriter()
    elias_delta_encode(1, bw)
    elias_delta_encode(4, bw)
    data = MAGIC + bytes([VERSION, 0, 1]) + bw.to_bytes()
    with pytest.raises(TorusCseError):
        decompress(data)


def test_decompress_rejects_escape_symbol_overflow():
    # ternary cells are two bits wide, so the pattern 11 names symbol 3,
    # which J = 3 does not have; hand-build a 1x1 escape carrying it
    data = MAGIC + bytes([VERSION, FLAG_ESCAPE, 2]) + bytes([0b11110000])
    with pytest.raises(InconsistentCountsError):
        decompress(data)


# ---- fault injection ----

def test_bit_flips_fail_loudly_or_decode_to_some_block():
    corpus = [P2,
              make_block([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
              from_numpy(np.random.default_rng(51).integers(0, 2, size=(6, 6)),
                         alphabet=2)]
    for p in corpus:
        c = compress(p)
        for bit in range(8 * len(c)):
            bad = bytearray(c)
            bad[bit // 8] ^= 1 << (7 - bit % 8)
            try:
                out = decompress(bytes(bad))
            except TorusCseError:
                continue
            assert isinstance(out, Block)


def test_truncations_fail_loudly_or_decode_to_some_block():
    corpus = [make_block([[0, 1, 1], [1, 0, 1], [1, 1, 0]])]
    for side in range(4, 9):
        # at side 6, a cut to 44 bytes leaves a crossed interval to pull
        rng = np.random.default_rng(19)
        corpus.append(from_numpy(
            rng.choice(2, size=(side, side), p=[0.7, 0.3]), alphabet=2))
    for p in corpus:
        c = compress(p)
        for cut in range(HEADER_LEN, len(c)):
            try:
                out = decompress(c[:cut])
            except TorusCseError:
                continue
            assert isinstance(out, Block)


def test_crossed_interval_names_its_size():
    rng = np.random.default_rng(19)
    c = compress(from_numpy(rng.choice(2, size=(6, 6), p=[0.7, 0.3]),
                            alphabet=2))
    with pytest.raises(InconsistentCountsError, match=r"size \(\d+,\d+\)"):
        decompress(c[:44])


# ---- golden containers ----

def _golden_corpus():
    rng = np.random.default_rng(20170124)
    shapes = [(2, 4, 4), (2, 5, 7), (2, 9, 6), (2, 12, 12), (4, 4, 5),
              (4, 7, 7), (16, 5, 4), (16, 3, 9)]
    out = [from_numpy(rng.integers(0, j, size=(m, n)), j) for j, m, n in shapes]
    tile = np.tile(rng.integers(0, 2, size=(2, 4)), (4, 2))
    out.append(from_numpy(tile, 2))
    tile[3, 5] ^= 1
    out.append(from_numpy(tile, 2))
    out.append(from_numpy(rng.integers(0, 4, size=(1, 9)), 4))
    return out


# (escape flag, SHA-256) of each golden container.  These pin the v1 bytes:
# a refactor must reproduce them, and a format change bumps VERSION.
GOLDEN = [
    (True, "b1c0f7445b6046799b8a510a32facc9158b65dfe001dfa3d9c008520bea02b3f"),
    (False, "c93a3ace10f10b69ab3d7f4b27764283933cb079e8576c224e77d3e41934f8f0"),
    (False, "b94014c18a0ce930c6be8136f6b39a363d770b6b34c90d396a420c8577241b12"),
    (False, "4b04d73dd21dbe2d370420f8eaa3b356343b1028658dc5d900dfa3bb88c7d71c"),
    (False, "e115295e904d916e3e807467150376f873210c18b259d08e821c01b59d125a90"),
    (False, "c286fa5926d33d226e8b70c5086b6259fa04949d533aacc5463c8b55bb25fd6b"),
    (False, "f3926b9744dbf8a7cef46e5462c0213c118bee6cc5b8a788278ae14afb715a84"),
    (False, "4934698526b8905e5f50400b1619ed6d65e6fdd843c3f3d4fd77576b5ada75a9"),
    (True, "83552d35d10552143130699670f0d53415d6793007e6b296497f1037c814075f"),
    (False, "6b70ae123c56ad54245a70f55125f5e632f985587b6f7439ae3941e24c4cd597"),
    (True, "b9734ac71bb498f6177d108b043bd55c0ed5659c7b7d9619055bcb40e1276b9f"),
]


def test_golden_container_digests():
    got = []
    for p in _golden_corpus():
        c = compress(p)
        got.append((bool(c[7] & FLAG_ESCAPE), hashlib.sha256(c).hexdigest()))
    assert got == GOLDEN
