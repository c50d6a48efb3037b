"""Numerics shared by every other module.

Gaussian cdf evaluation (linear and log domain) and log-binomials,
each scalar or elementwise over arrays, a deterministic elementwise
bracketing root solver, and a seeded bit and Gaussian stream whose bit
and Box-Muller rules also apply to stacked rows of uniforms.

stream_uniforms draws the uniforms of many seeds at once.  Row i
equals RngStream(seeds[i]).uniforms(n) bit for bit: it runs numpy's
SeedSequence hash (O'Neill's seed_seq_fe, whose output NEP 19 keeps
stable) on every seed together in uint32 arrays and hands each row's
state words to PCG64, so no SeedSequence object is built per seed.
stream_uniforms and gaussians_from_uniforms write to a caller's array
where one is given (out=), by the same float operations as into a fresh
one, so a batch can be built in a workspace held across batches.

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
_MASK32 = (1 << 32) - 1


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


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
    """Elementwise bisection on the brackets [lo, hi] of two arrays; f
    maps an array of points to the array of their values.

    Deterministic: each element comes out as the midpoint of its final
    bracket, after the bracket width has shrunk below 1e-12 (or after
    200 halvings), or the first point tried where f is exactly 0.  An
    element whose bracket shows no sign change comes out nan; the caller
    decides what a missing root means.
    """
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


def gaussians_from_uniforms(u, stddev: float = 1.0, out=None) -> np.ndarray:
    """Box-Muller along the last axis: n N(0, stddev^2) draws from 2n
    uniforms [..., 2n], one fresh pair per draw, the sine branch
    discarded.  Every element takes the same float operations whatever
    the leading axes, so a row of a batch equals a draw of its own.  The
    draws are written to out [..., n] where it is given, and in place
    there, with one temporary for the cosines."""
    if stddev <= 0.0:
        raise DomainError("stddev must be positive")
    z = np.subtract(1.0, u[..., 0::2], out=out)  # (0, 1]: keeps log finite
    np.log(z, out=z)
    np.multiply(-2.0, z, out=z)
    np.sqrt(z, out=z)
    cosine = np.multiply(2.0 * math.pi, u[..., 1::2])
    z *= np.cos(cosine, out=cosine)
    return np.multiply(stddev, z, out=z)


def _hash_consts(init: int, mult: int, count: int) -> tuple:
    """The xor and multiply constants [count, 1] of count successive
    SeedSequence hash steps, as uint32 columns: step i xors with
    init * mult^i and multiplies by init * mult^(i+1), mod 2^32.  They
    are built from Python ints, because numpy scalar products of uint32
    warn on overflow where array products wrap silently."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hash(value, xor, mult):
    """One SeedSequence hash step per row of xor and mult, on uint32 rows
    of value (or one row for all): xor, multiply, xorshift."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


# numpy.random.SeedSequence on a pool of 4 uint32 words: a seed's words
# fill the pool through hashmix calls 0-3 and mix it through calls 4-15,
# and a 4-word uint64 state is 8 hashes of the pool words, cycled.
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_HASHMIX = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_GENERATE = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_POOL_PAD = _hash(np.zeros(1, np.uint32), _HASHMIX[0][2:4], _HASHMIX[1][2:4])


def seed_states(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) of every seed s, each
    masked to 64 bits as RngStream masks it, as rows of a [len(seeds), 4]
    uint64 array computed for all seeds together.

    A 64-bit seed is one or two uint32 entropy words (low word first).
    The pool pads missing words with hashmix(0), so a zero high word
    hashes as no word and every seed takes two.  Mixing a source word
    into the three others hashes it once for each, so one source's three
    mixes are one step on three rows."""
    s = np.array([int(x) & _MASK64 for x in seeds], dtype=np.uint64)
    pool = np.empty((4, len(s)), np.uint32)
    pool[0], pool[1] = s & _MASK32, s >> 32
    pool[:2] = _hash(pool[:2], _HASHMIX[0][:2], _HASHMIX[1][:2])
    pool[2:] = _POOL_PAD
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _HASHMIX[0][calls],
                                                     _HASHMIX[1][calls])
        pool[dst] = mixed ^ mixed >> 16
    words = _hash(np.concatenate([pool, pool]), *_GENERATE).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 the 4 uint64 state words it asks
    for, computed already (a row of seed_states)."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def stream_uniforms(seeds, n: int, out=None) -> np.ndarray:
    """Uniforms [len(seeds), n] on [0, 1) whose row i equals
    RngStream(seeds[i]).uniforms(n) bit for bit, with the seeding hash
    run on all seeds at once (seed_states).  They are written to out, an
    array of that shape with contiguous rows, where it is given."""
    states = seed_states(seeds)
    if out is None:
        out = np.empty((len(states), n))
    elif out.shape != (len(states), n):
        raise ValueError(f"out has shape {out.shape}, not {(len(states), n)}")
    for row, words in zip(out, states):
        np.random.Generator(np.random.PCG64(_StateWords(words))).random(out=row)
    return out


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

    This is the one-seed reference: stream_uniforms draws the uniforms
    of many seeds at once, and its row for a seed equals this stream's
    uniforms bit for bit.
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
