import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdec.codes import (
    BlockCode,
    ConvCode,
    LengthMismatch,
    TapLengthError,
    _build_extended_qr,
    _extend_parity,
    _systematic_rows,
    encode_block,
    encode_conv,
    parse_octal_generators,
)
from seqdec.trellis import build_trellis


class TestExtendedGolay:
    def test_shape(self, golay):
        assert (golay.n, golay.k) == (24, 12)

    def test_minimum_distance(self, golay):
        assert golay.minimum_distance() == 8

    def test_weight_enumerator_a8(self, golay):
        assert golay.weight_count(8) == 759

    def test_weight_enumerator(self, golay):
        hist = golay.weight_histogram
        assert {w: int(hist[w]) for w in np.flatnonzero(hist)} == {
            0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}

    def test_corrupted_polynomial_fails_self_check(self):
        # one flipped coefficient of the length-23 generator leaves a
        # code of minimum distance 4
        with pytest.raises(AssertionError, match="minimum distance 4, expected 8"):
            _build_extended_qr(0xAE3 ^ 0b100, 23, "golay24", 8)

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
        # the two-set search stops at weight 5 on each set; the full
        # enumerator below confirms the 17,296 words of weight 12
        assert qr48.minimum_distance() == 12

    def test_self_check_does_not_enumerate(self):
        # built afresh: the cached builder's object is shared with tests
        # that fill its weight_histogram
        code = _build_extended_qr(0x8C76EF, 47, "qr48", 12)
        assert "weight_histogram" not in vars(code)

    def test_corrupted_polynomial_fails_self_check(self):
        poly = 0x8C76EF ^ 0b100
        code = BlockCode(n=48, k=24, rows=tuple(_extend_parity(_systematic_rows(poly, 24), 47)))
        dmin = int(np.flatnonzero(code.weight_histogram[1:])[0]) + 1
        assert dmin != 12
        with pytest.raises(AssertionError, match=f"minimum distance {dmin}, expected 12"):
            _build_extended_qr(poly, 47, "qr48", 12)

    def test_weight_enumerator(self, qr48):
        hist = qr48.weight_histogram
        assert {w: int(hist[w]) for w in np.flatnonzero(hist)} == {
            0: 1, 12: 17296, 16: 535095, 20: 3995376, 24: 7681680,
            28: 3995376, 32: 535095, 36: 17296, 48: 1}

    def test_even_weights(self, qr48):
        rng = np.random.default_rng(9)
        for _ in range(64):
            info = rng.integers(0, 2, qr48.k).astype(np.uint8)
            assert encode_block(qr48, info).sum() % 2 == 0

    def test_systematic(self, qr48):
        rng = np.random.default_rng(10)
        info = rng.integers(0, 2, qr48.k).astype(np.uint8)
        assert np.array_equal(encode_block(qr48, info)[:qr48.k], info)


@st.composite
def systematic_codes(draw):
    """A random systematic code, k <= 10, whose parity part P = A B has
    rank at most t, t drawn from 0 (P = 0) to full."""
    k = draw(st.integers(1, 10))
    m = draw(st.integers(1, 2 * k + 2))  # n - k, below and above k
    t = draw(st.integers(0, min(k, m)))
    basis = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=t, max_size=t))
    rows = []
    for i in range(k):
        mix = draw(st.integers(0, (1 << t) - 1))
        parity = 0
        for j, word in enumerate(basis):
            if (mix >> j) & 1:
                parity ^= word
        rows.append((1 << i) | (parity << k))
    return BlockCode(n=k + m, k=k, rows=tuple(rows))


def _code(n, parities):
    k = len(parities)
    return BlockCode(n=n, k=k, rows=tuple((1 << i) | (p << k) for i, p in enumerate(parities)))


class TestMinimumDistance:
    @given(systematic_codes())
    @settings(max_examples=300, deadline=None)
    @example(_code(7, [0b011, 0b101, 0b110, 0b111]))  # Hamming (7, 4): 3, full rank
    @example(_code(8, [0b0111, 0b1011, 0b1101, 0b1110]))  # extended: 4
    @example(_code(5, [0b1111]))  # repetition (5, 1): 5, n - k above k
    @example(_code(6, [0b111, 0b111, 0b111]))  # rank 1: 2
    @example(_code(6, [0, 0, 0]))  # rank 0: 1
    def test_equals_least_enumerated_weight(self, code):
        hist = code.weight_histogram
        assert code.minimum_distance() == int(np.flatnonzero(hist[1:])[0]) + 1

    def test_rejects_words_wider_than_64_bits(self):
        with pytest.raises(ValueError, match="64 bits"):
            _code(65, [1 << 63]).minimum_distance()


@st.composite
def packable_codes(draw):
    """A random systematic code with k from 1 to 20 and n <= 64."""
    k = draw(st.integers(1, 20))
    n = draw(st.integers(k + 1, 64))
    return _code(n, draw(st.lists(st.integers(0, (1 << (n - k)) - 1), min_size=k, max_size=k)))


def _packed_encode_block(code, info: np.ndarray) -> np.ndarray:
    """encode_block of the information words info (uint64), packed bit j
    at position j."""
    bits = (info[:, None] >> np.arange(code.k, dtype=np.uint64)) & np.uint64(1)
    words = encode_block(code, bits.astype(np.uint8)).astype(np.uint64)
    return (words << np.arange(code.n, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)


class TestPackedEncoder:
    @given(packable_codes(), st.lists(st.integers(0, (1 << 20) - 1), max_size=40))
    @settings(max_examples=100, deadline=None)
    # k = 12, not a multiple of 8
    @example(_code(64, [(1 << 52) - 1 - i for i in range(12)]), [0, 1, 4095, 2048])
    def test_encode_words_equals_encode_block(self, code, infos):
        info = np.array(infos, dtype=np.uint64) & np.uint64((1 << code.k) - 1)
        assert np.array_equal(code.encode_words(info), _packed_encode_block(code, info))

    @given(packable_codes(), st.lists(st.integers(0, (1 << 20) - 1), max_size=40))
    @settings(max_examples=40, deadline=None)
    @example(_code(40, list(range(1, 16))), [])  # k below 16: one chunk
    @example(_code(64, [(3 << 40) + i for i in range(16)]), [])  # k at 16: one chunk
    @example(_code(33, [i * i + 1 for i in range(17)]), [70000])  # k above 16: two chunks
    @example(_code(64, [(1 << 44) - 1 - i for i in range(20)]), [1 << 19])  # sixteen chunks
    def test_codeword_chunks_in_info_order(self, code, infos):
        # every codeword, in info order, in chunks of 2^min(k, 16); checked at
        # the first 4096 info words, each chunk's ends and the drawn ones
        size = 1 << min(code.k, 16)
        chunks = list(code.codeword_chunks())
        assert [len(chunk) for chunk in chunks] == [size] * ((1 << code.k) // size)
        ends = np.arange(0, 1 << code.k, size)
        info = np.unique(np.concatenate((np.arange(min(4096, 1 << code.k)), ends, ends + size - 1,
                                         np.array(infos, dtype=np.int64) % (1 << code.k))))
        info = info.astype(np.uint64)
        assert np.array_equal(np.concatenate(chunks)[info], _packed_encode_block(code, info))

    def test_wider_words_raise_from_the_tables(self):
        code = _code(65, [1 << 63])
        assert code.word_tables == ([0, code.rows[0]],)
        for packed in (lambda: code.encode_words(np.zeros(1, dtype=np.uint64)),
                       lambda: next(code.codeword_chunks())):
            with pytest.raises(ValueError, match="64 bits"):
                packed()


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
            assert trellis.outputs[bit, state] == out
            assert ((state << 1) | bit) & (trellis.num_states - 1) == nxt

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
