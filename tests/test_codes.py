import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdec.codes import (
    ConvCode,
    LengthMismatch,
    TapLengthError,
    encode_block,
    encode_conv,
    parse_octal_generators,
)
from seqdec.trellis import build_trellis


class TestExtendedGolay:
    def test_shape(self, golay):
        assert (golay.n, golay.k) == (24, 12)

    def test_minimum_distance(self, golay):
        # exhaustive weight enumeration over all 4096 codewords
        assert golay.minimum_distance() == 8

    def test_weight_enumerator_a8(self, golay):
        assert golay.weight_count(8) == 759

    def test_zero_word(self, golay):
        assert not encode_block(golay, np.zeros(12, dtype=np.uint8)).any()

    def test_all_weights_even(self, golay):
        info = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0], dtype=np.uint8)
        assert encode_block(golay, info).sum() % 2 == 0

    def test_systematic_reencode(self, golay):
        rng = np.random.default_rng(4)
        for _ in range(32):
            info = rng.integers(0, 2, golay.k).astype(np.uint8)
            word = encode_block(golay, info)
            assert np.array_equal(word[:golay.k], info)
            assert np.array_equal(encode_block(golay, word[:golay.k]), word)


class TestExtendedQr48:
    def test_shape(self, qr48):
        assert (qr48.n, qr48.k) == (48, 24)

    def test_minimum_distance(self, qr48):
        # compiled-speed exhaustive enumeration of all 2^24 words,
        # computed once per process and cached on the code
        assert qr48.minimum_distance() == 12

    def test_even_weights(self, qr48):
        rng = np.random.default_rng(9)
        for _ in range(64):
            info = rng.integers(0, 2, qr48.k).astype(np.uint8)
            assert encode_block(qr48, info).sum() % 2 == 0

    def test_systematic(self, qr48):
        rng = np.random.default_rng(10)
        info = rng.integers(0, 2, qr48.k).astype(np.uint8)
        assert np.array_equal(encode_block(qr48, info)[:qr48.k], info)


class TestEncodeBlock:
    def test_unit_vectors_give_rows(self, golay):
        for i in range(golay.k):
            info = np.zeros(golay.k, dtype=np.uint8)
            info[i] = 1
            want = np.array([(golay.rows[i] >> j) & 1 for j in range(golay.n)],
                            dtype=np.uint8)
            assert np.array_equal(encode_block(golay, info), want)

    def test_length_check(self, golay):
        with pytest.raises(LengthMismatch):
            encode_block(golay, np.zeros(11, dtype=np.uint8))

    @given(st.integers(0, 4095), st.integers(0, 4095))
    @settings(max_examples=50)
    def test_linearity(self, golay, a, b):
        ia = np.array([(a >> i) & 1 for i in range(12)], dtype=np.uint8)
        ib = np.array([(b >> i) & 1 for i in range(12)], dtype=np.uint8)
        lhs = encode_block(golay, ia ^ ib)
        rhs = encode_block(golay, ia) ^ encode_block(golay, ib)
        assert np.array_equal(lhs, rhs)


class TestParseOctalGenerators:
    def test_seven_tap_pair(self):
        code = parse_octal_generators(["634", "564"], m=6)
        assert code.taps == ((1, 1, 0, 0, 1, 1, 1), (1, 0, 1, 1, 1, 0, 1))

    def test_three_tap_triple_matches_known_transitions(self):
        code = parse_octal_generators(["6", "5", "7"], m=2)
        assert code.taps == ((1, 1, 0), (1, 0, 1), (1, 1, 1))
        # branch labels: s0 --1--> s1 emits 111, s1 --0--> s2 emits 101,
        # s2 --0--> s0 emits 011 (bit i of the pattern is output line i)
        trellis = build_trellis(code, L=3)
        for state, bit, out, nxt in ((0, 1, 0b111, 1), (1, 0, 0b101, 2),
                                     (2, 0, 0b110, 0)):  # 011 read as bits 0,1,2
            assert trellis.outputs[state, bit] == out
            assert trellis.next_state[state, bit] == nxt

    def test_memory_16_pair_overflows(self):
        with pytest.raises(TapLengthError):
            parse_octal_generators(["1632044", "1145734"], m=16)

    def test_trailing_zero_padding(self):
        code = parse_octal_generators(["4"], m=4)
        assert code.taps == ((1, 0, 0, 0, 0),)

    def test_rejects_pure_delay(self):
        with pytest.raises(ValueError):
            parse_octal_generators(["2"], m=2)  # taps 010 on the only output


class TestEncodeConv:
    def test_known_codeword(self, fig_trellis_code):
        got = encode_conv(fig_trellis_code, [1, 1, 1, 0, 1])
        want = [int(c) for c in "111010001110100101011"]
        assert np.array_equal(got, want)

    def test_zero_in_zero_out(self, conv_634_564):
        assert not encode_conv(conv_634_564, np.zeros(40, dtype=np.uint8)).any()

    def test_output_length(self, conv_634_564):
        assert len(encode_conv(conv_634_564, np.zeros(60, dtype=np.uint8))) == 2 * 66

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    @settings(max_examples=40)
    def test_superposition(self, fig_trellis_code, a, b):
        ia = np.array([(a >> i) & 1 for i in range(10)], dtype=np.uint8)
        ib = np.array([(b >> i) & 1 for i in range(10)], dtype=np.uint8)
        lhs = encode_conv(fig_trellis_code, ia ^ ib)
        rhs = encode_conv(fig_trellis_code, ia) ^ encode_conv(fig_trellis_code, ib)
        assert np.array_equal(lhs, rhs)

    def test_time_invariance(self, fig_trellis_code):
        # shifting the input by one step shifts the output by one block,
        # up to the termination tail
        rng = np.random.default_rng(2)
        info = rng.integers(0, 2, 8).astype(np.uint8)
        shifted = np.concatenate([[0], info])
        base = encode_conv(fig_trellis_code, info)
        moved = encode_conv(fig_trellis_code, shifted)
        n = fig_trellis_code.n_out
        assert np.array_equal(moved[n:n + len(base) - n * fig_trellis_code.m],
                              base[:-n * fig_trellis_code.m])

    def test_rejects_empty(self, fig_trellis_code):
        with pytest.raises(LengthMismatch):
            encode_conv(fig_trellis_code, [])


class TestConvCodeValidation:
    def test_tap_length_enforced(self):
        with pytest.raises(ValueError):
            ConvCode(n_out=2, m=3, taps=((1, 0, 1), (1, 1, 1, 0)))

    def test_needs_current_input(self):
        with pytest.raises(ValueError):
            ConvCode(n_out=1, m=1, taps=((0, 1),))

    @pytest.mark.parametrize("taps", [((1, 2), (1, 1)), ((1, 0), (-1, 1)), ((1, 0), (1, 3))])
    def test_taps_are_bits(self, taps):
        # an entry other than 0 or 1 would make the trellis's tap mask
        # (which shifts the entry itself) disagree with the encoder
        with pytest.raises(ValueError, match="0 or 1"):
            ConvCode(n_out=2, m=1, taps=taps)
