"""Container round-trips, frozen layouts, and fault injection."""

import collections
import hashlib
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shared import P2, near_periodic_tile, one_dot
from torus_cse import codec
from torus_cse.blocks import (Block, Census, from_numpy, is_primitive,
                              make_block)
from torus_cse.cli import main
from torus_cse.codec import (_MAX_CELLS, FLAG_ESCAPE, HEADER_LEN, MAGIC,
                             VERSION, _encode, block_caps, compress,
                             compress_with_stats, decompress,
                             elias_delta_length, stats)
from torus_cse.engine import Walk
from torus_cse.errors import (BadMagicError, EmptyBlockError,
                              InconsistentCountsError,
                              NotPrimitiveError, TooLargeError, TorusCseError,
                              TrailingDataError, TruncatedStreamError,
                              UnsupportedVersionError)
from torus_cse.gridio import write_grid
from torus_cse.oracle import all_blocks


def delta_code(v):
    """Elias delta code of v as a 0/1 string, spelled out by hand."""
    n = v.bit_length()
    return "0" * (n.bit_length() - 1) + f"{n:b}" + f"{v:b}"[1:]


def container(flags, alphabet, bits):
    """A container around the payload bit string `bits`, zero-padded."""
    bits += "0" * (-len(bits) % 8)
    return MAGIC + bytes([VERSION, flags, alphabet - 1]) + bytes(
        int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


# ---- round trips ----

@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 1), (2, 2), (2, 3), (3, 3)])
def test_roundtrip_exhaustive_binary(m, n):
    for p in all_blocks(m, n):
        assert decompress(compress(p)) == p


def test_roundtrip_exhaustive_ternary_2x2():
    for p in all_blocks(2, 2, alphabet=3):
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


def test_readme_freebie_hex():
    # the reader check README gives: the 2x2 grid rows (0 1),(1 1)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [hexed] = re.findall(r"compresses to hex `([0-9a-f]+)`", readme)
    assert compress(make_block([[0, 1], [1, 1]])) == bytes.fromhex(hexed)


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


def escape_reference(p):
    """The escape container written one cell at a time."""
    cb = max(1, (p.alphabet - 1).bit_length())
    cells = "".join(f"{cell:0{cb}b}" for cell in p.cells)
    return container(FLAG_ESCAPE, p.alphabet,
                     delta_code(p.m) + delta_code(p.n) + cells)


@pytest.mark.parametrize("alphabet", [2, 3, 5, 16, 17, 200, 256])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (3, 5), (6, 6)])
def test_escape_bytes_match_cell_by_cell_writes(shape, alphabet):
    rng = np.random.default_rng(alphabet * 100 + shape[0] * 10 + shape[1])
    tile = rng.integers(0, alphabet, size=(1, shape[1]))
    # a repeated row makes every grid of two or more rows non-primitive
    p = from_numpy(np.repeat(tile, shape[0], axis=0), alphabet=alphabet)
    c = compress(p)
    assert c[7] & FLAG_ESCAPE
    assert c == escape_reference(p)
    assert decompress(c) == p
    for cut in range(HEADER_LEN, len(c)):
        with pytest.raises(TruncatedStreamError):
            decompress(c[:cut])


@pytest.mark.parametrize("p", [make_block([]), Block(0, 3, (), 2),
                               Block(3, 0, (), 5)], ids=["0x0", "0x3", "3x0"])
def test_compress_refuses_empty_block(p):
    # as is_primitive and rank_of do, not from inside the dimension code
    for run in (compress, stats):
        with pytest.raises(EmptyBlockError):
            run(p)


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


def test_caps_clamp_to_one():
    assert block_caps(2, 2, 2) == (1, 1)
    assert block_caps(16, 16, 2) == (1, 1)
    assert block_caps(64, 64, 2) == (1, 1)


def test_caps_grow_eventually():
    assert block_caps(65536, 4, 2) == (2, 1)
    # the widest binary grid this tall that the codec takes still has a B2
    # size, which is why the class is kept
    assert 65536 * 64 == _MAX_CELLS
    assert block_caps(65536, 64, 2) == (2, 1)
    assert block_caps(1 << 22, 1, 3) == (1, 1)


def test_stats_books_the_size_under_the_caps_to_l2():
    # 65536 rows is the shortest binary height with cap 2, so (2, 1) is
    # the one size under the caps past the singles, and its one transmitted
    # count is the only B2
    g = np.random.default_rng(1).integers(0, 2, size=(65536, 2))
    s = stats(from_numpy(g, alphabet=2))
    assert s.transmitted["B1"] == s.transmitted["B2"] == 1
    assert s.l2 > 0


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
    data = container(FLAG_ESCAPE, 2, delta_code(1 << 15) * 2)
    with pytest.raises(InconsistentCountsError):
        decompress(data)


def test_decompress_rejects_coded_degenerate_dims():
    # coded container (no escape flag) with m = 1 is malformed
    data = container(0, 2, delta_code(1) + delta_code(4))
    with pytest.raises(TorusCseError):
        decompress(data)


def test_decompress_rejects_escape_symbol_overflow():
    # ternary cells are two bits wide, so the pattern 11 names symbol 3,
    # which J = 3 does not have; hand-build a 1x1 escape carrying it
    data = MAGIC + bytes([VERSION, FLAG_ESCAPE, 2]) + bytes([0b11110000])
    with pytest.raises(InconsistentCountsError):
        decompress(data)


# ---- fault injection ----

def _interior_readout_block():
    """12x12 Bernoulli(0.3) grid that the decoder reads off size (4,6),
    so its consistency checks run on tables short of the full size."""
    g = np.random.default_rng(0).choice(2, size=(12, 12), p=[0.7, 0.3])
    walk = Walk(12, 12, 2, grid=g, sink=lambda *a: None)
    walk.run()
    assert walk.readout[0] == (4, 6)
    return from_numpy(g, alphabet=2)


def _flip_corpus():
    return [P2,
            make_block([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
            from_numpy(np.random.default_rng(51).integers(0, 2, size=(6, 6)),
                       alphabet=2),
            _interior_readout_block()]


def _truncation_corpus():
    corpus = [make_block([[0, 1, 1], [1, 0, 1], [1, 1, 0]])]
    for side in range(4, 9):
        # at side 6, a cut to 44 bytes leaves a crossed interval to pull
        rng = np.random.default_rng(19)
        corpus.append(from_numpy(
            rng.choice(2, size=(side, side), p=[0.7, 0.3]), alphabet=2))
    corpus.append(_interior_readout_block())
    return corpus


def test_bit_flips_fail_loudly_or_decode_to_some_block():
    for p in _flip_corpus():
        c = compress(p)
        for bit in range(8 * len(c)):
            bad = bytearray(c)
            bad[bit // 8] ^= 1 << (7 - bit % 8)
            try:
                out = decompress(bytes(bad))
            except TorusCseError:
                continue
            assert isinstance(out, Block)


def test_truncations_fail_loudly():
    # the end-of-stream check sees every cut: too few bits for the bytes the
    # range decoder pulled, or a walk that breaks first
    for p in _truncation_corpus():
        c = compress(p)
        for cut in range(HEADER_LEN, len(c)):
            with pytest.raises(TorusCseError):
                decompress(c[:cut])


def _coded_stream_errors():
    """Every error the flip and truncation corpora raise once a flip or a
    cut leaves the header and dims whole, so that the coded walk or the
    rank raises it."""
    for p in _flip_corpus() + _truncation_corpus():
        c = compress(p)
        if c[7] & FLAG_ESCAPE:
            continue
        head = 8 * HEADER_LEN + len(delta_code(p.m)) + len(delta_code(p.n))
        bad = []
        for bit in range(head, 8 * len(c)):
            flipped = bytearray(c)
            flipped[bit // 8] ^= 1 << (7 - bit % 8)
            bad.append(bytes(flipped))
        bad += [c[:cut] for cut in range(-(-head // 8), len(c))]
        for data in bad:
            try:
                decompress(data)
            except TorusCseError as e:
                yield e


def test_coded_stream_errors_name_size_and_offset():
    # each carries the size the walk was building (None past the walk)
    # and the bytes the range decoder had used, and names both
    seen = collections.Counter()
    for e in _coded_stream_errors():
        assert isinstance(e.offset, int) and e.offset >= 0, e
        assert f"stream offset {e.offset} bytes" in str(e), e
        if e.size is None:
            assert "past the walk" in str(e), e
        else:
            k, l = e.size
            assert f"walk size ({k},{l})" in str(e), e
            # a message that names a size names the one being built
            named = re.search(r"at size \((\d+),(\d+)\)", str(e))
            assert named is None or named.groups() == (str(k), str(l)), e
        seen["past" if e.size is None else "walk"] += 1
    assert seen["walk"] > 100 and seen["past"] > 10, seen


@pytest.mark.parametrize("extra", [
    0x00, 0xFF, int(np.random.default_rng(61).integers(1, 255))],
    ids=["0x00", "0xff", "seeded"])
def test_appended_byte_fails_loudly(extra):
    coded = {c for c in map(compress, _flip_corpus() + _truncation_corpus())
             if not c[7] & FLAG_ESCAPE}
    escape = [c for c in map(compress, _golden_corpus()) if c[7] & FLAG_ESCAPE]
    assert len(coded) >= 6 and len(escape) == 3
    for c in sorted(coded) + escape:
        with pytest.raises(TorusCseError):
            decompress(c + bytes([extra]))


def test_set_padding_bit_rejected():
    # the frozen escape container of test_escape_container_frozen_bytes,
    # with the last of its four padding bits set
    data = MAGIC + bytes([VERSION, FLAG_ESCAPE, 1, 0x44, 0x51])
    with pytest.raises(TrailingDataError):
        decompress(data)


def test_crossed_interval_names_its_size():
    rng = np.random.default_rng(19)
    c = compress(from_numpy(rng.choice(2, size=(6, 6), p=[0.7, 0.3]),
                            alphabet=2))
    with pytest.raises(InconsistentCountsError, match=r"size \(\d+,\d+\)"):
        decompress(c[:44])


def _realignment_block(m, n):
    """A coded m x n grid: a 2x2 tile repeated, one cell flipped."""
    g = np.tile(np.random.default_rng(7).integers(0, 2, size=(2, 2)),
                (m // 2, n // 2))
    g[0, 0] ^= 1
    return from_numpy(g, alphabet=2)


# shapes whose delta(m) + delta(n) length is 0..7 mod 8, so the range
# coder's bytes start at every bit offset of the payload
REALIGNMENT_SHAPES = [(2, 2), (2, 4), (4, 4), (16, 32), (2, 8), (4, 8),
                      (4, 16), (4, 32)]


@pytest.mark.parametrize("m,n", REALIGNMENT_SHAPES,
                         ids=[f"residue{r}" for r in range(8)])
def test_coded_body_at_every_bit_offset(m, n):
    p = _realignment_block(m, n)
    c, s = compress_with_stats(p)
    head = len(delta_code(m)) + len(delta_code(n))
    assert not s.escape
    assert s.total_bits % 8 == head % 8 == REALIGNMENT_SHAPES.index((m, n))
    assert decompress(c) == p
    with pytest.raises(TrailingDataError):
        decompress(c + b"\x00")
    for pad in range(-head % 8):
        bad = bytearray(c)
        bad[-1] |= 1 << pad
        with pytest.raises(TrailingDataError):
            decompress(bytes(bad))
    # cuts inside the dims, or of the last byte, leave the bits short; a cut
    # in between may instead break the walk first
    for cut in range(HEADER_LEN, len(c)):
        in_dims = 8 * (cut - HEADER_LEN) < head
        short = (TruncatedStreamError if in_dims or cut == len(c) - 1
                 else TorusCseError)
        with pytest.raises(short):
            decompress(c[:cut])


@pytest.mark.parametrize("seed", range(4))
def test_payload_budget_stops_a_large_claim(seed):
    # 16 random payload bytes under dims that claim 256x256: the decoder
    # must stop once it has used 64 bits more than the payload holds,
    # rather than walk the claimed size
    bits = delta_code(256) * 2
    bits += "0" * (-len(bits) % 8)
    data = container(0, 2, bits) + np.random.default_rng(seed).bytes(16)
    with pytest.raises(TruncatedStreamError,
                       match=r"used up at size \(\d+,\d+\): \d+ bytes"):
        decompress(data)


def test_corrupt_delta_length_does_not_allocate():
    # 36 leading zeros announce a value of about 2^(2^36) bits
    data = container(0, 2, "0" * 36 + "1" * 100)
    with pytest.raises(TruncatedStreamError, match="needed"):
        decompress(data)


FUZZ_ALPHABETS = (2, 3, 4, 16, 256)


def fuzz_containers(count, seed):
    """Valid headers and delta-coded dims up to 16x16, then random bits."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(x) for x in rng.integers(1, 17, size=2))
        alphabet = int(rng.choice(FUZZ_ALPHABETS))
        flags = int(rng.choice([0, FLAG_ESCAPE]))
        cb = max(1, (alphabet - 1).bit_length())
        body = rng.integers(0, 2, size=int(rng.integers(0, cb * m * n + 64)))
        yield container(flags, alphabet, delta_code(m) + delta_code(n)
                        + "".join(map(str, body)))


def test_decompress_is_total_on_random_payloads():
    verdicts = collections.Counter()
    for data in fuzz_containers(3000, seed=15):
        t0 = time.perf_counter()
        try:
            out = decompress(data)
        except TorusCseError as e:
            verdicts[type(e).__name__] += 1
        else:
            assert isinstance(out, Block)
            verdicts["decoded"] += 1
        assert time.perf_counter() - t0 < 2.0, data.hex()
    assert {"decoded", "TruncatedStreamError", "InconsistentCountsError",
            "TrailingDataError"} <= set(verdicts)


def test_rank_out_of_range_is_refused():
    # the rank is coded ceil(log2 mn) bits wide, so a 3x3 container can
    # carry a rank 9..15 that names no shift
    g = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 1]])
    p = from_numpy(g, alphabet=2)
    for rank in (9, 15):
        with pytest.raises(InconsistentCountsError,
                           match=rf"rank {rank} out of range"):
            decompress(_encode(p, g, rank)[0])


# ---- size cap ----

def test_cap_binds_compress(monkeypatch):
    monkeypatch.setattr(codec, "_MAX_CELLS", 12)
    rng = np.random.default_rng(3)
    coded = from_numpy(rng.integers(0, 2, size=(3, 4)), alphabet=2)
    escape = make_block([[0, 1] * 6])
    for p in (coded, escape):
        assert decompress(compress(p)) == p
    assert not compress(coded)[7] & FLAG_ESCAPE
    for rows in ([[0] * 13], [[0]] * 13, [[0, 1] * 7, [1, 0] * 7]):
        with pytest.raises(TooLargeError):
            compress(make_block(rows))


def test_cap_refuses_the_oversize_row():
    # 2^22 + 1 cells would make an escape container decompress refuses
    p = from_numpy(np.zeros((1, (1 << 22) + 1), dtype=np.uint8), alphabet=2)
    with pytest.raises(TooLargeError):
        compress(p)


def test_cli_compress_oversize_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(codec, "_MAX_CELLS", 12)
    src = tmp_path / "wide.txt"
    write_grid(str(src), make_block([[0, 1] * 7]))
    assert main(["compress", "-i", str(src),
                 "-o", str(tmp_path / "wide.tcse")]) == 1
    assert "cap" in capsys.readouterr().err


# ---- encoder resources ----

def test_compress_builds_no_census_size(monkeypatch):
    # both sides count each size on the tables they walk, and the shift ids
    # come by doubling, so neither compress nor decompress makes a Census
    def refuse(self, grid):
        raise AssertionError("the codec constructed a Census")

    p = from_numpy(np.random.default_rng(5).integers(0, 3, size=(9, 11)), 3)
    monkeypatch.setattr(Census, "__init__", refuse)
    assert decompress(compress(p, strict=True)) == p


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak it reached above its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        return fn(*args), tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid", [
    (np.random.default_rng(1).random((64, 64)) < 0.2).astype(np.uint8),
    near_periodic_tile(),
    one_dot(32),
], ids=["bernoulli64", "tile32", "dot32"])
def test_encoder_peak_stays_near_the_decoders(grid):
    # both sides build the same tables; the encoder adds only the anchor
    # ids of the few sizes its next build reads
    p = from_numpy(grid, 2)
    data, enc = traced_peak(compress, p)
    back, dec = traced_peak(decompress, data)
    assert back == p and not data[7] & FLAG_ESCAPE
    assert enc <= 1.2 * dec, (enc, dec)


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
