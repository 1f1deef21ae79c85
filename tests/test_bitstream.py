"""Elias delta codes over bit arrays, and range coder round-trips."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torus_cse.codec import (elias_delta_bits, elias_delta_decode,
                             elias_delta_length)
from torus_cse.errors import NonPositiveError, TruncatedStreamError
from torus_cse.rangecoder import RangeDecoder, RangeEncoder


def delta_bits(v):
    return "".join(map(str, elias_delta_bits(v)))


def as_bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def pack(bits):
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack(data, bit_length=None):
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:bit_length]


def padded_bytes(text):
    """Bytes of a 0/1 string read 8 bits at a time, the last one zero-padded."""
    return bytes(int(text[i:i + 8].ljust(8, "0"), 2)
                 for i in range(0, len(text), 8))


class TestBits:
    """The bit-array conventions the container is built on: codes are
    concatenated MSB first, packed once with a zero-padded last byte, and
    read back by position after one unpack."""

    def test_codes_concatenate_and_pack_msb_first(self):
        assert pack(as_bits("101" "01" "110")) == bytes([0b10101110])
        # delta(2) then delta(5), as the container writes m then n
        bits = np.concatenate([elias_delta_bits(2), elias_delta_bits(5)])
        assert pack(bits) == bytes([0b01000110, 0b10000000])

    def test_partial_byte_zero_padded(self):
        assert pack(as_bits("11")) == bytes([0b11000000])
        code = elias_delta_bits(1)
        assert len(code) == 1
        assert pack(code) == bytes([0b10000000])

    def test_codes_read_back_by_position_after_one_unpack(self):
        vals = [5, 1, 977, 1, 255]
        bits = np.concatenate([elias_delta_bits(v) for v in vals])
        data = pack(bits)
        back = unpack(data)
        pos, got = 0, []
        for _ in vals:
            v, pos = elias_delta_decode(back, pos)
            got.append(v)
        assert got == vals
        assert pos == len(bits)
        assert len(back) - pos < 8 and not back[pos:].any()

    def test_code_past_the_last_bit_is_truncated(self):
        bits = unpack(b"\xff", 3)
        pos = 0
        for _ in range(3):
            v, pos = elias_delta_decode(bits, pos)
            assert v == 1
        with pytest.raises(TruncatedStreamError, match="needed 1 bits"):
            elias_delta_decode(bits, pos)

    def test_padded_byte_reads(self):
        bits = unpack(bytes([0b10111111]), 3)
        assert pack(bits) == bytes([0b10100000])
        _, pos = elias_delta_decode(bits, 0)
        assert pack(bits[pos:]) == bytes([0b01000000])
        assert pack(bits[3:]) == b""

    @pytest.mark.parametrize("bit_length", [None, 45, 40, 33])
    @pytest.mark.parametrize("start", range(8))
    def test_tail_bytes_match_padded_byte_reads(self, start, bit_length):
        # decompress re-packs the body after the dims, at any bit offset
        data = bytes([0xA5, 0x3C, 0xFF, 0x01, 0x96, 0x7E])
        text = "".join(f"{b:08b}" for b in data)[:bit_length]
        bits = unpack(data, bit_length)
        assert pack(bits[start:]) == padded_bytes(text[start:])

    @given(st.integers(0, 7), st.binary(max_size=40))
    def test_bytes_after_unaligned_lead_pack_as_their_bits(self, lead, data):
        # the coded body: range coder bytes appended after an unaligned lead
        one = np.concatenate([np.ones(lead, np.uint8), unpack(data)])
        many = np.concatenate([np.ones(lead, np.uint8)]
                              + [as_bits(f"{b:08b}") for b in data])
        assert len(one) == len(many) == lead + 8 * len(data)
        assert pack(one) == pack(many)
        assert pack(one) == padded_bytes("1" * lead
                                         + "".join(f"{b:08b}" for b in data))

    @given(st.lists(st.integers(1, 2**40)))
    def test_random_round_trip(self, vals):
        bits = np.concatenate([elias_delta_bits(v) for v in vals]
                              + [np.zeros(0, np.uint8)])
        back = unpack(pack(bits))
        pos, got = 0, []
        for _ in vals:
            v, pos = elias_delta_decode(back, pos)
            got.append(v)
        assert got == vals
        assert pos == len(bits)


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
                elias_delta_bits(v)
            with pytest.raises(NonPositiveError):
                elias_delta_length(v)

    @given(st.integers(1, 2**40))
    def test_round_trip(self, v):
        code = elias_delta_bits(v)
        assert code.dtype == np.uint8
        assert elias_delta_decode(code, 0) == (v, len(code))

    def test_back_to_back_values(self):
        vals = [1, 7, 2, 64, 100000, 3]
        bits = np.concatenate([elias_delta_bits(v) for v in vals])
        pos, got = 0, []
        for _ in vals:
            v, pos = elias_delta_decode(bits, pos)
            got.append(v)
        assert got == vals
        assert pos == len(bits)

    @pytest.mark.parametrize("v", [1, 2, 5, 64, 100000])
    def test_every_cut_is_truncated(self, v):
        code = elias_delta_bits(v)
        lead = as_bits("101")
        for cut in range(len(code)):
            bits = np.concatenate([lead, code[:cut]])
            with pytest.raises(TruncatedStreamError, match="needed"):
                elias_delta_decode(bits, len(lead))

    def test_runaway_prefix(self):
        with pytest.raises(TruncatedStreamError, match="runaway"):
            elias_delta_decode(as_bits("0" * 65 + "1" * 200), 0)
        # 64 zeros still announce a length; the value bits then run out
        with pytest.raises(TruncatedStreamError, match="needed"):
            elias_delta_decode(as_bits("0" * 64 + "1" * 200), 0)


def roundtrip(steps):
    """Code each step as a one-element batch."""
    enc = RangeEncoder()
    for v, w in steps:
        enc.encode([v], [w])
    data = enc.flush()
    dec = RangeDecoder(data)
    got = [v for _, w in steps for v in dec.decode([w])]
    assert dec.used == len(data)
    return data, got


def model_bytes(steps):
    """The coder's bytes from the same 48-bit range arithmetic with `low`
    never masked, so every carry lands where it belongs by itself."""
    low, rng, shifts = 0, (1 << 48) - 1, 0
    for v, w in steps:
        if w == 1:
            continue
        r = rng // w
        low += v * r
        rng = rng - v * r if v == w - 1 else r
        while rng < 1 << 40:
            low <<= 8
            rng <<= 8
            shifts += 1
    g = min(rng.bit_length() - 1, 47)
    low = ((low + (1 << g) - 1) >> g) << g
    return (low >> 40).to_bytes(shifts + 1, "big")


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

    def test_bytes_match_unbounded_model(self):
        # 40% top slots leave runs of 0xFF bytes for a carry to ripple over
        rng = random.Random(19)
        for trial in range(2000):
            steps = []
            for _ in range(rng.randrange(0, 60)):
                w = rng.choice([2, 3, 7, 256, 1 << 20, 1 << 40,
                                rng.randint(1, 1 << 40)])
                steps.append((w - 1 if rng.random() < 0.4
                              else rng.randrange(w), w))
            enc = RangeEncoder()
            at = 0
            while at < len(steps):
                batch = steps[at:at + rng.randrange(1, 12)]
                enc.encode([v for v, _ in batch], [w for _, w in batch])
                at += len(batch)
            data = enc.flush()
            assert data == model_bytes(steps), trial

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
            RangeDecoder(b"").decode([1 << 41])

    def test_rejects_out_of_range_inside_a_batch(self):
        with pytest.raises(ValueError):
            RangeEncoder().encode([1, 2, 5, 0], [3, 4, 5, 6])
        with pytest.raises(ValueError):
            RangeEncoder().encode([1, 0, 2], [3, (1 << 40) + 1, 4])
        with pytest.raises(ValueError):
            RangeDecoder(b"\x12\x34").decode([3, 7, (1 << 40) + 1, 2])

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
        dec = RangeDecoder(batched)
        got = [v for a, b in zip(dec_cuts, dec_cuts[1:])
               for v in dec.decode(widths[a:b])]
        assert got == values
        assert dec.used == len(batched)
