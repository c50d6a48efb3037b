import math
import sys

import numpy as np
import pytest

from seqdec.channel import (
    ChannelConfig,
    InvalidSnr,
    NonFiniteLLR,
    check_lengths,
    db_to_linear,
    hard_decision,
    llr,
    transmit,
)
from seqdec.codes import encode_block, encode_conv
from seqdec.decoders import brute_force_ml_block, gda_decode, mlsda_decode, viterbi_ml
from seqdec.numerics import RngStream


class TestSnrBookkeeping:
    def test_rate_half_block(self, golay):
        cfg = ChannelConfig.for_block_code(golay, 3.0)
        assert db_to_linear(3.0) == pytest.approx(2.0 * cfg.gamma, rel=1e-12)

    def test_db_roundtrip(self):
        for db in (-7.3, 0.0, 4.21, 11.0):
            assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_conv_rate_accounting(self, conv_634_564):
        # gamma = R gamma_b L/(L+m), strictly below R gamma_b
        for L in (60, 100):
            cfg = ChannelConfig.for_conv_code(conv_634_564, L, 5.0)
            r_gamma_b = 0.5 * db_to_linear(5.0)
            assert cfg.gamma == pytest.approx(r_gamma_b * L / (L + 6), rel=1e-12)
            assert cfg.gamma < r_gamma_b

    def test_noise_variance(self, golay):
        cfg = ChannelConfig.for_block_code(golay, 2.0)
        assert cfg.noise_variance == pytest.approx(1.0 / (2.0 * cfg.gamma))


class TestTransmit:
    def test_near_noiseless_signs(self, golay):
        cfg = ChannelConfig(gamma_b_db=120.0, gamma=1e12)
        word = encode_block(golay, np.ones(12, dtype=np.uint8))
        r = transmit(word, cfg, RngStream(1))
        assert np.allclose(r, 1.0 - 2.0 * word.astype(float), atol=1e-4)

    def test_sample_mean(self):
        cfg = ChannelConfig(gamma_b_db=0.0, gamma=1.0)
        r = transmit(np.zeros(1_000_000, dtype=np.uint8), cfg, RngStream(3))
        sigma = math.sqrt(cfg.noise_variance)
        assert abs(r.mean() - 1.0) < 4.0 * sigma / 1000.0

    def test_bit_flip_symmetry(self, golay):
        cfg = ChannelConfig.for_block_code(golay, 1.0)
        word = encode_block(golay, RngStream(8).bits(12))
        r_a = transmit(word, cfg, RngStream(55))
        r_b = transmit(word ^ 1, cfg, RngStream(55))
        signs = 1.0 - 2.0 * word.astype(float)
        assert np.allclose(r_a - r_b, 2.0 * signs, atol=1e-12)


class TestLlr:
    def test_zero_maps_to_zero(self):
        cfg = ChannelConfig(gamma_b_db=0.0, gamma=1.0)
        assert llr(np.array([0.0]), cfg)[0] == 0.0

    def test_sign_preserved(self):
        cfg = ChannelConfig(gamma_b_db=0.0, gamma=0.7)
        r = np.array([-2.0, -0.1, 0.4, 3.0])
        assert np.array_equal(np.sign(llr(r, cfg)), np.sign(r))

    def test_scale(self):
        # phi = 4 sqrt(E) r / N0 with E = 1, N0 = 1/gamma
        cfg = ChannelConfig(gamma_b_db=0.0, gamma=0.5)
        assert llr(np.array([1.0]), cfg)[0] == pytest.approx(2.0)

    def test_decode_invariant_under_positive_scaling(self, golay):
        # scaling every LLR by a positive constant must not change the
        # decoded word or any of the counters
        cfg = ChannelConfig.for_block_code(golay, 1.0)
        for t in range(200):
            rng = RngStream(1000 + t)
            word = encode_block(golay, rng.bits(12))
            phi = llr(transmit(word, cfg, rng), cfg)
            a = gda_decode(golay, phi)
            b = gda_decode(golay, 7.5 * phi)
            assert np.array_equal(a.decoded, b.decoded)
            assert a.branch_computations == b.branch_computations
            assert a.extensions == b.extensions


class TestHardDecision:
    def test_fixture(self):
        assert np.array_equal(hard_decision(np.array([2.0, -3.0, 0.0])),
                              np.array([0, 1, 0], dtype=np.uint8))

    def test_noiseless_zero_word(self, golay):
        cfg = ChannelConfig(gamma_b_db=120.0, gamma=1e12)
        word = np.zeros(24, dtype=np.uint8)
        phi = llr(transmit(word, cfg, RngStream(2)), cfg)
        assert not hard_decision(phi).any()

    def test_negation_flips_nonzero(self):
        phi = np.array([1.5, -0.5, 0.0, 3.0])
        y_pos = hard_decision(phi)
        y_neg = hard_decision(-phi)
        nz = phi != 0.0
        assert np.array_equal(y_pos[nz] ^ y_neg[nz], np.ones(nz.sum(), dtype=np.uint8))
        assert y_pos[~nz] == y_neg[~nz]


class TestChannelRoundTrip:
    def test_conv_codeword_recovery_at_high_snr(self, conv_634_564):
        cfg = ChannelConfig.for_conv_code(conv_634_564, 20, 12.0)
        rng = RngStream(77)
        word = encode_conv(conv_634_564, rng.bits(20))
        phi = llr(transmit(word, cfg, rng), cfg)
        assert np.array_equal(hard_decision(phi), word)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_check_lengths_rejects(self, bad):
        phi = np.array([1.0, -0.5, bad, 2.0])
        with pytest.raises(NonFiniteLLR):
            check_lengths(phi, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_block_decoders_reject(self, golay, bad):
        phi = np.ones(24)
        phi[5] = bad
        with pytest.raises(NonFiniteLLR):
            gda_decode(golay, phi)
        with pytest.raises(NonFiniteLLR):
            brute_force_ml_block(golay, phi)

    def test_block_decoder_rejects_overflowing_squares(self, golay):
        # finite, but at -2e154 (|phi| - 1)^2 overflows, so the branch
        # metrics would be inf - inf = nan; at -1e16 (above 2^53) phi - 1
        # and phi + 1 round to one float, so both labels would add 0.  Either
        # way the search would return a word that is not ML.
        for big in (-2e154, -1e16):
            phi = np.ones(24)
            phi[3] = big
            with pytest.raises(NonFiniteLLR):
                gda_decode(golay, phi)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_trellis_decoders_reject(self, fig_trellis, bad):
        phi = np.ones(3 * fig_trellis.levels)
        phi[4] = bad
        with pytest.raises(NonFiniteLLR):
            mlsda_decode(fig_trellis, phi)
        with pytest.raises(NonFiniteLLR):
            viterbi_ml(fig_trellis, phi)

    @pytest.mark.parametrize("seed", [1, 5, 7])
    def test_trellis_decoders_reject_overflowing_metrics(self, fig_trellis, seed):
        # N(0, 1) LLRs scaled to max |phi| = 1.7e308: path metrics, sums
        # of |phi|, overflow to inf and tie, and an unchecked search
        # returns a word other than viterbi_ml's on the unscaled vector
        phi = np.random.default_rng(seed).normal(size=3 * fig_trellis.levels)
        phi *= 1.7e308 / np.abs(phi).max()
        with pytest.raises(NonFiniteLLR):
            mlsda_decode(fig_trellis, phi)
        with pytest.raises(NonFiniteLLR):
            viterbi_ml(fig_trellis, phi)

    def test_trellis_metric_limit(self, fig_trellis):
        # the row's sum of |phi| may reach half the largest float, not pass it
        phi = np.full(3 * fig_trellis.levels, -1.0)
        phi[0] = -0.5 * sys.float_info.max  # the other 20 magnitudes round away
        assert math.isfinite(mlsda_decode(fig_trellis, phi).metric)
        phi[1] = -1e300
        with pytest.raises(NonFiniteLLR):
            mlsda_decode(fig_trellis, phi)

    @pytest.mark.parametrize("db", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_db(self, db):
        with pytest.raises(InvalidSnr):
            ChannelConfig(gamma_b_db=db, gamma=1.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_config_rejects_bad_gamma(self, gamma):
        with pytest.raises(InvalidSnr):
            ChannelConfig(gamma_b_db=0.0, gamma=gamma)

    def test_constructors_reject_nan_db(self, golay, conv_634_564):
        with pytest.raises(InvalidSnr):
            ChannelConfig.for_block_code(golay, math.nan)
        with pytest.raises(InvalidSnr):
            ChannelConfig.for_conv_code(conv_634_564, 20, math.nan)

    def test_negative_db_is_legal(self, golay):
        cfg = ChannelConfig.for_block_code(golay, -7.5)
        assert 0.0 < cfg.gamma < 1.0
