"""Bit buffer, Elias delta, and range coder round-trips."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from torus_cse.bits import (
    BitReader,
    BitWriter,
    elias_delta_decode,
    elias_delta_encode,
    elias_delta_length,
)
from torus_cse.errors import NonPositiveError, TruncatedStreamError
from torus_cse.rangecoder import RangeDecoder, RangeEncoder


def delta_bits(v):
    w = BitWriter()
    elias_delta_encode(v, w)
    return "".join(
        str((byte >> (7 - i)) & 1)
        for k, byte in enumerate(w.to_bytes())
        for i in range(8)
        if 8 * k + i < w.bit_length
    )


class TestBits:
    def test_writer_packs_msb_first(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b01, 2)
        w.write_bits(0b110, 3)
        assert w.to_bytes() == bytes([0b10101110])

    def test_partial_byte_zero_padded(self):
        w = BitWriter()
        w.write_bits(0b11, 2)
        assert w.to_bytes() == bytes([0b11000000])
        assert w.bit_length == 2

    def test_reader_round_trip(self):
        w = BitWriter()
        chunks = [(5, 3), (0, 1), (977, 10), (1, 1), (255, 8)]
        for v, width in chunks:
            w.write_bits(v, width)
        r = BitReader(w.to_bytes(), w.bit_length)
        assert [r.read_bits(width) for _, width in chunks] == [v for v, _ in chunks]
        assert r.remaining == 0

    def test_reader_truncation(self):
        r = BitReader(b"\xff", 3)
        r.read_bits(3)
        with pytest.raises(TruncatedStreamError):
            r.read_bit()

    def test_padded_byte_reads(self):
        r = BitReader(bytes([0b10111111]), 3)
        assert r.tail_bytes() == bytes([0b10100000])
        r.read_bits(3)
        assert r.tail_bytes() == b""

    @pytest.mark.parametrize("bit_length", [None, 45, 40, 33])
    @pytest.mark.parametrize("start", range(8))
    def test_tail_bytes_match_padded_byte_reads(self, start, bit_length):
        data = bytes([0xA5, 0x3C, 0xFF, 0x01, 0x96, 0x7E])
        r = BitReader(data, bit_length)
        r.read_bits(start)
        tail = r.tail_bytes()
        want = bytearray()
        while r.remaining:
            take = min(8, r.remaining)
            want.append(r.read_bits(take) << (8 - take))
        assert tail == bytes(want)

    @given(st.integers(0, 7), st.binary(max_size=40))
    def test_unaligned_write_bytes_matches_byte_writes(self, lead, data):
        one, many = BitWriter(), BitWriter()
        for w in (one, many):
            w.write_bits((1 << lead) - 1, lead)
        one.write_bytes(data)
        for b in data:
            many.write_bits(b, 8)
        assert one.bit_length == many.bit_length
        assert one.to_bytes() == many.to_bytes()

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(4, 2)

    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 24))))
    def test_random_round_trip(self, chunks):
        chunks = [(v & ((1 << w) - 1), w) for v, w in chunks]
        wtr = BitWriter()
        for v, w in chunks:
            wtr.write_bits(v, w)
        r = BitReader(wtr.to_bytes(), wtr.bit_length)
        assert [r.read_bits(w) for _, w in chunks] == [v for v, _ in chunks]


class TestEliasDelta:
    def test_pinned_codes(self):
        assert delta_bits(1) == "1"
        assert delta_bits(2) == "0100"
        assert delta_bits(5) == "01101"

    def test_pinned_lengths(self):
        assert elias_delta_length(1) == 1
        assert elias_delta_length(2) == 4
        assert elias_delta_length(64) == 11
        for v in range(1, 300):
            assert elias_delta_length(v) == len(delta_bits(v))

    def test_rejects_nonpositive(self):
        for v in (0, -3):
            with pytest.raises(NonPositiveError):
                elias_delta_encode(v, BitWriter())
            with pytest.raises(NonPositiveError):
                elias_delta_length(v)

    @given(st.integers(1, 2**40))
    def test_round_trip(self, v):
        w = BitWriter()
        elias_delta_encode(v, w)
        assert elias_delta_decode(BitReader(w.to_bytes(), w.bit_length)) == v

    def test_back_to_back_values(self):
        w = BitWriter()
        vals = [1, 7, 2, 64, 100000, 3]
        for v in vals:
            elias_delta_encode(v, w)
        r = BitReader(w.to_bytes(), w.bit_length)
        assert [elias_delta_decode(r) for _ in vals] == vals


def feed(data):
    pos = [0]

    def next_byte():
        b = data[pos[0]] if pos[0] < len(data) else 0
        pos[0] += 1
        return b

    return next_byte


def roundtrip(steps):
    """Code each step as a one-element batch."""
    enc = RangeEncoder()
    for v, w in steps:
        enc.encode([v], [w])
    data = enc.flush()
    dec = RangeDecoder(feed(data))
    got = [v for _, w in steps for v in dec.decode([w])]
    return data, got


def split_points(draw, n):
    cuts = draw(st.lists(st.integers(0, n), max_size=8))
    return sorted(set(cuts) | {0, n})


class TestRangeCoder:
    def test_simple_round_trip(self):
        steps = [(3, 10), (0, 2), (6, 7), (1, 2), (4096, 5000)]
        _, got = roundtrip(steps)
        assert got == [v for v, _ in steps]

    def test_width_one_is_free(self):
        steps = [(1, 3)] + [(0, 1)] * 50 + [(2, 3)]
        data, got = roundtrip(steps)
        assert got == [v for v, _ in steps]
        assert len(data) <= 2

    def test_ten_ternary_values_fit_two_bytes(self):
        # 10 values of width 3 carry ~15.85 bits of content; the stream must
        # stay within the 8-bit overhead contract
        steps = [(i % 3, 3) for i in range(10)]
        data, got = roundtrip(steps)
        assert got == [v for v, _ in steps]
        assert 8 * len(data) <= math.ceil(10 * math.log2(3)) + 8

    def test_overhead_contract_random(self):
        rng = random.Random(7)
        for trial in range(200):
            steps = []
            for _ in range(rng.randrange(0, 40)):
                w = rng.choice([2, 3, 4, 5, 17, 256, 4096, 1 << 20])
                steps.append((rng.randrange(w), w))
            data, got = roundtrip(steps)
            assert got == [v for v, _ in steps]
            content = sum(math.log2(w) for _, w in steps)
            assert 8 * len(data) <= content + 8, (trial, len(data), content)

    def test_extreme_values_round_trip(self):
        # repeatedly coding the top slot exercises carry propagation
        steps = [(w - 1, w) for w in [2] * 100 + [4096] * 20 + [3] * 50]
        _, got = roundtrip(steps)
        assert got == [v for v, _ in steps]

    def test_low_slots_round_trip(self):
        steps = [(0, w) for w in [2] * 100 + [1 << 30] * 5]
        data, got = roundtrip(steps)
        assert got == [v for v, _ in steps]

    def test_empty_stream(self):
        data, got = roundtrip([])
        assert got == []
        assert len(data) <= 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RangeEncoder().encode([5], [5])
        with pytest.raises(ValueError):
            RangeEncoder().encode([0], [1 << 41])
        with pytest.raises(ValueError):
            RangeDecoder(feed(b"")).decode([1 << 41])

    def test_rejects_out_of_range_inside_a_batch(self):
        with pytest.raises(ValueError):
            RangeEncoder().encode([1, 2, 5, 0], [3, 4, 5, 6])
        with pytest.raises(ValueError):
            RangeEncoder().encode([1, 0, 2], [3, (1 << 40) + 1, 4])
        with pytest.raises(ValueError):
            RangeDecoder(feed(b"\x12\x34")).decode([3, 7, (1 << 40) + 1, 2])

    def test_encode_after_flush_rejected(self):
        enc = RangeEncoder()
        enc.encode([1], [2])
        enc.flush()
        with pytest.raises(RuntimeError):
            enc.encode([1], [2])

    @given(
        st.lists(
            st.integers(1, 1 << 22).flatmap(
                lambda w: st.tuples(st.integers(0, w - 1), st.just(w))
            ),
            max_size=60,
        )
    )
    def test_random_sequences(self, steps):
        data, got = roundtrip(steps)
        assert got == [v for v, _ in steps]
        content = sum(math.log2(w) for _, w in steps)
        assert 8 * len(data) <= content + 8

    @given(
        st.lists(
            st.integers(1, 1 << 22).flatmap(
                lambda w: st.tuples(st.integers(0, w - 1), st.just(w))
            ),
            max_size=60,
        ),
        st.data(),
    )
    def test_any_batch_split_codes_the_same_bytes(self, steps, data):
        values = [v for v, _ in steps]
        widths = [w for _, w in steps]
        enc_cuts = split_points(data.draw, len(steps))
        dec_cuts = split_points(data.draw, len(steps))
        enc = RangeEncoder()
        for a, b in zip(enc_cuts, enc_cuts[1:]):
            enc.encode(values[a:b], widths[a:b])
        batched = enc.flush()
        assert batched == roundtrip(steps)[0]
        dec = RangeDecoder(feed(batched))
        got = [v for a, b in zip(dec_cuts, dec_cuts[1:])
               for v in dec.decode(widths[a:b])]
        assert got == values
