"""Antipodal signaling over AWGN, SNR bookkeeping, and LLRs.

Signal energy is fixed at E = 1 and the noise level is derived from the
SNR, since only the ratio matters to every decoder and bound here.  The
per-information-bit SNR gamma_b (always handled in dB at the public
surface) maps to the channel SNR gamma = E/N0 as (k/n) gamma_b for an
(n, k) block code and L gamma_b / N for a terminated rate-1/n
convolutional code of codeword length N.  This is the one place that
mapping is stated; the complexity bounds take gamma from here too.
"""

import math
from dataclasses import dataclass

import numpy as np

from seqdec.codes import LengthMismatch
from seqdec.numerics import RngStream


class NonFiniteLLR(ValueError):
    """An LLR vector holds a NaN or an infinity."""


class InvalidSnr(ValueError):
    """An SNR is NaN or infinite, or its linear value is not positive."""


def db_to_linear(db: float) -> float:
    """10^(db/10); raises InvalidSnr unless that is positive and finite."""
    try:
        value = 10.0 ** (db / 10.0)
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidSnr(f"SNR {db} dB has no positive finite linear value")
    return value


@dataclass(frozen=True)
class ChannelConfig:
    gamma_b_db: float
    gamma: float          # E/N0, linear

    def __post_init__(self):
        if not math.isfinite(self.gamma_b_db):
            raise InvalidSnr(f"gamma_b_db must be finite, got {self.gamma_b_db}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidSnr(f"gamma must be positive and finite, got {self.gamma}")

    @property
    def noise_variance(self) -> float:
        """Per-dimension noise variance N0/2."""
        return 1.0 / (2.0 * self.gamma)

    @property
    def noise_stddev(self) -> float:
        """Per-dimension noise standard deviation sqrt(N0/2)."""
        return math.sqrt(self.noise_variance)

    @property
    def llr_scale(self) -> float:
        """phi_j = llr_scale * r_j on this channel (4 sqrt(E) / N0)."""
        return 4.0 / (1.0 / self.gamma)

    @classmethod
    def for_block_code(cls, code, gamma_b_db: float) -> "ChannelConfig":
        gamma = (code.k / code.n) * db_to_linear(gamma_b_db)
        return cls(gamma_b_db=gamma_b_db, gamma=gamma)

    @classmethod
    def for_conv_code(cls, code, L: int, gamma_b_db: float) -> "ChannelConfig":
        N = code.n_out * (L + code.m)
        gamma = (L / N) * db_to_linear(gamma_b_db)
        return cls(gamma_b_db=gamma_b_db, gamma=gamma)


def transmit(codeword, cfg: ChannelConfig, rng: RngStream) -> np.ndarray:
    """r_j = (-1)^{x_j} sqrt(E) + e_j with e_j ~ N(0, N0/2) independent."""
    bits = np.asarray(codeword, dtype=np.uint8)
    return channel_output(bits, rng.gaussians(len(bits), cfg.noise_stddev))


def channel_output(codewords, noise, out=None) -> np.ndarray:
    """(-1)^{x_j} sqrt(E) + noise_j, elementwise over codeword bits of any
    shape (one codeword per row of a batch), written to out where it is
    given (out may be noise itself)."""
    signs = 1 - 2 * np.asarray(codewords, dtype=np.int8)  # +-1, +-1.0 in the add
    return np.add(signs, noise, out=out)


def llr(received, cfg: ChannelConfig, out=None) -> np.ndarray:
    """Per-symbol log-likelihood ratios ln[Pr(r|0)/Pr(r|1)], written to
    out where it is given (out may be received itself)."""
    return np.multiply(cfg.llr_scale, np.asarray(received, dtype=np.float64), out=out)


def hard_decision(phi) -> np.ndarray:
    """y_j = 1 iff phi_j < 0 (zero LLR decides 0, deterministically)."""
    return (np.asarray(phi) < 0.0).astype(np.uint8)


def check_lengths(phi, *shape: int) -> np.ndarray:
    """phi as float64; raises LengthMismatch unless its shape is `shape`
    (one LLR vector of length n: shape (n,); a batch: (trials, n)), and
    NonFiniteLLR if any entry is NaN or infinite."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != shape:
        raise LengthMismatch(f"LLR array shape {phi.shape} != {shape}")
    if not np.isfinite(phi).all():
        raise NonFiniteLLR("LLR vector holds NaN or infinite entries")
    return phi
