"""Numerics shared by every other module.

Gaussian cdf evaluation (linear and log domain), a deterministic
bracketing root solver and log-binomials, each scalar or elementwise
over arrays, and a seeded bit and Gaussian stream whose bit and
Box-Muller rules also apply to stacked rows of uniforms.

Elementwise code runs + - * / and sqrt in numpy, which rounds them as
Python floats do, but maps the math module's exp, log, log1p, erfc and
lgamma over the elements (math_map): numpy's and scipy's own versions
of these differ from the math module's in the last ulp for some
arguments.  So an element of an array call equals the scalar call bit
for bit.
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


def math_map(f, x) -> np.ndarray:
    """The math-module function f applied to each element of x, as a
    float array of x's shape.  It raises what f raises on an element
    (OverflowError from math.exp, ValueError from math.log of 0)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def std_normal_cdf(x):
    """Unit Gaussian cdf via the complementary error function;
    elementwise on arrays.

    Saturates cleanly at 0.0 / 1.0 in the extreme tails.
    """
    if np.ndim(x):
        return 0.5 * math_map(math.erfc, -np.asarray(x) / SQRT2)
    return 0.5 * math.erfc(-x / SQRT2)


def log_std_normal_cdf(x):
    """Natural log of the unit Gaussian cdf, finite far into the left
    tail; elementwise on arrays, a float for a scalar.

    For x < -5 the scaled complementary error function is used, so the
    result stays finite (about -804.6 at x = -40) where the linear-domain
    cdf has long underflowed.  scipy's erfcx runs the same code on an
    array as on a scalar, so it is called on arrays directly.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    near = x >= -5.0
    out[near] = math_map(math.log, std_normal_cdf(x[near]))
    far = x[~near]
    out[~near] = math.log(0.5) + math_map(math.log, erfcx(-far / SQRT2)) - 0.5 * far * far
    return out if out.ndim else float(out)


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


def log_binomial(n, d):
    """ln C(n, d) via log-gamma; elementwise on int arrays, a float for
    scalars."""
    n, d = np.asarray(n), np.asarray(d)
    if np.any((d < 0) | (n < 0) | (d > n)):
        raise DomainError(f"C({n}, {d}) undefined")
    value = (math_map(math.lgamma, n + 1) - math_map(math.lgamma, d + 1)
             - math_map(math.lgamma, n - d + 1))
    return value if value.ndim else float(value)


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
