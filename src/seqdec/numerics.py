"""Numerics shared by every other module.

Gaussian cdf evaluation (linear and log domain), a deterministic
bracketing root solver (scalar, or elementwise over arrays),
log-binomials, and a seeded bit and Gaussian stream whose bit and
Box-Muller rules also apply to stacked rows of uniforms.
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


def bisect_root(f, lo, hi):
    """Bisection on [lo, hi]; requires a sign change over the bracket.

    Deterministic: always returns the midpoint of the final bracket,
    after the bracket width has shrunk below 1e-12, or the first point
    tried where f is exactly 0.

    Raises NoSignChange when f(lo) * f(hi) > 0; the caller decides what
    a missing root means.

    Elementwise when lo and hi are arrays: f then maps an array of points
    to the array of their values, each element takes exactly the steps
    of a scalar call on its own bracket, and an element whose bracket
    shows no sign change comes out nan instead of raising.
    """
    if np.ndim(lo) == 0 and np.ndim(hi) == 0:
        root = float(bisect_root(lambda x: np.array([f(float(x[0]))]),
                                 np.array([lo], dtype=float), np.array([hi], dtype=float))[0])
        if math.isnan(root):
            raise NoSignChange(f"no sign change on [{lo}, {hi}]")
        return root
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    flo = f(lo)
    fhi = f(hi)
    root = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, np.nan))
    lo_positive = flo > 0.0  # the sign of f(lo) never changes as lo moves
    active = (flo != 0.0) & (fhi != 0.0) & (lo_positive != (fhi > 0.0))
    for _ in range(200):
        if not active.any():
            return root
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        up = active & ((fmid > 0.0) == lo_positive)
        lo = np.where(up, mid, lo)
        hi = np.where(active ^ up, mid, hi)
        zero = fmid == 0.0
        stop = active & (zero | (hi - lo <= 1e-12))
        if stop.any():
            root = np.where(stop, np.where(zero, mid, 0.5 * (lo + hi)), root)
            active ^= stop
    return np.where(active, 0.5 * (lo + hi), root)


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
