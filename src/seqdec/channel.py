"""Antipodal signaling over AWGN, SNR bookkeeping, and LLRs.

Signal energy is fixed at E = 1 and the noise level is derived from the
SNR, since only the ratio matters to every decoder and bound here.  The
per-information-bit SNR gamma_b (always handled in dB at the public
surface) maps to the channel SNR gamma = E/N0 as (k/n) gamma_b for an
(n, k) block code and k L gamma_b / N for a terminated convolutional
code of codeword length N.
"""

import math
from dataclasses import dataclass

import numpy as np

from seqdec.bounds import db_to_linear
from seqdec.codes import LengthMismatch
from seqdec.numerics import RngStream


class NonFiniteLLR(ValueError):
    """An LLR vector holds a NaN or an infinity."""


class InvalidSnr(ValueError):
    """An SNR is NaN or infinite, or its linear value is not positive."""


@dataclass(frozen=True)
class ChannelConfig:
    gamma_b_db: float
    gamma: float          # E/N0, linear
    e_signal: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.gamma_b_db):
            raise InvalidSnr(f"gamma_b_db must be finite, got {self.gamma_b_db}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidSnr(f"gamma must be positive and finite, got {self.gamma}")

    @property
    def noise_variance(self) -> float:
        """Per-dimension noise variance N0/2."""
        return self.e_signal / (2.0 * self.gamma)

    @property
    def llr_scale(self) -> float:
        """phi_j = llr_scale * r_j on this channel (4 sqrt(E) / N0)."""
        n0 = self.e_signal / self.gamma
        return 4.0 * math.sqrt(self.e_signal) / n0

    @classmethod
    def for_block_code(cls, code, gamma_b_db: float) -> "ChannelConfig":
        gamma = (code.k / code.n) * db_to_linear(gamma_b_db)
        return cls(gamma_b_db=gamma_b_db, gamma=gamma)

    @classmethod
    def for_conv_code(cls, code, L: int, gamma_b_db: float) -> "ChannelConfig":
        N = code.n_out * (L + code.m)
        gamma = (code.k_in * L / N) * db_to_linear(gamma_b_db)
        return cls(gamma_b_db=gamma_b_db, gamma=gamma)


def transmit(codeword, cfg: ChannelConfig, rng: RngStream) -> np.ndarray:
    """r_j = (-1)^{x_j} sqrt(E) + e_j with e_j ~ N(0, N0/2) independent."""
    bits = np.asarray(codeword, dtype=np.uint8)
    signs = 1.0 - 2.0 * bits.astype(np.float64)
    noise = rng.gaussians(len(bits), 0.0, math.sqrt(cfg.noise_variance))
    return signs * math.sqrt(cfg.e_signal) + noise


def llr(received, cfg: ChannelConfig) -> np.ndarray:
    """Per-symbol log-likelihood ratios ln[Pr(r|0)/Pr(r|1)]."""
    return cfg.llr_scale * np.asarray(received, dtype=np.float64)


def hard_decision(phi) -> np.ndarray:
    """y_j = 1 iff phi_j < 0 (zero LLR decides 0, deterministically)."""
    return (np.asarray(phi) < 0.0).astype(np.uint8)


def check_lengths(phi, expected: int):
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (expected,):
        raise LengthMismatch(f"LLR vector length {phi.shape} != {expected}")
    if not np.isfinite(phi).all():
        raise NonFiniteLLR("LLR vector holds NaN or infinite entries")
    return phi
