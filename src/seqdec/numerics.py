"""Scalar numerics shared by every other module.

Gaussian cdf evaluation (linear and log domain), a deterministic
bracketing root solver, log-binomials, and a seeded bit and Gaussian
stream whose bit and Box-Muller rules also apply to stacked rows of
uniforms.
"""

import math

import numpy as np
from scipy.special import erfcx

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)

_MASK64 = (1 << 64) - 1


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class NoSignChange(ArithmeticError):
    """Bracket endpoints do not straddle a root."""


def std_normal_cdf(x: float) -> float:
    """Unit Gaussian cdf via the complementary error function.

    Saturates cleanly at 0.0 / 1.0 in the extreme tails.
    """
    return 0.5 * math.erfc(-x / SQRT2)


def log_std_normal_cdf(x: float) -> float:
    """Natural log of the unit Gaussian cdf, finite far into the left tail.

    For x < -5 the scaled complementary error function is used, so the
    result stays finite (about -804.6 at x = -40) where the linear-domain
    cdf has long underflowed.
    """
    if x >= -5.0:
        return math.log(std_normal_cdf(x))
    return math.log(0.5) + math.log(erfcx(-x / SQRT2)) - 0.5 * x * x


def bisect_root(f, lo: float, hi: float) -> float:
    """Bisection on [lo, hi]; requires a sign change over the bracket.

    Deterministic: always returns the midpoint of the final bracket,
    after the bracket width has shrunk below 1e-12.

    Raises NoSignChange when f(lo) * f(hi) > 0; the caller decides what
    a missing root means.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def log_binomial(n: int, d: int) -> float:
    """ln C(n, d) via log-gamma."""
    if d < 0 or n < 0 or d > n:
        raise DomainError(f"C({n}, {d}) undefined")
    return math.lgamma(n + 1) - math.lgamma(d + 1) - math.lgamma(n - d + 1)


def bits_from_uniforms(u) -> np.ndarray:
    """One equiprobable bit per uniform draw: 1 iff the draw is below 1/2."""
    return (u < 0.5).astype(np.uint8)


def gaussians_from_uniforms(u, stddev: float = 1.0) -> np.ndarray:
    """Box-Muller along the last axis: n N(0, stddev^2) draws from 2n
    uniforms [..., 2n], one fresh pair per draw, the sine branch
    discarded.  Every element takes the same float operations whatever
    the leading axes, so a row of a batch equals a draw of its own."""
    if stddev <= 0.0:
        raise DomainError("stddev must be positive")
    u1 = 1.0 - u[..., 0::2]  # (0, 1]: keeps log finite
    u2 = u[..., 1::2]
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    return stddev * z


class RngStream:
    """Seeded random stream whose draws do not depend on call pattern.

    Uniforms come from a PCG64 generator, which spends one 64-bit output
    per uniform, so one call for n uniforms equals any split of it into
    consecutive calls.  Bits take one uniform each and Gaussians a pair
    each, so n single Gaussians equal one call for n.  Identical seeds
    give identical sequences.

    A stream is single-owner: never draw from one stream in two
    concurrent activities.  Parallel work derives one stream per unit of
    work instead.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed) & _MASK64))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform draws on [0, 1)."""
        return self._gen.random(n)

    def bits(self, n: int) -> np.ndarray:
        """n equiprobable bits, one uniform draw per bit."""
        return bits_from_uniforms(self.uniforms(n))

    def gaussians(self, n: int, stddev: float = 1.0) -> np.ndarray:
        """n independent N(0, stddev^2) draws."""
        return gaussians_from_uniforms(self.uniforms(2 * n), stddev)
