"""Upper bounds on tail probabilities and decoder complexity.

The central object is an upper bound on Pr{Y <= 0} where Y is a sum of
d i.i.d. Gaussians N(mu, sigma^2) with positive mean plus `clipped`
independent copies of min(N(mu, sigma^2), 0).  Only the signal-to-noise
ratio gamma = mu^2 / (2 sigma^2) enters the bound.  An exponential
tilt centers the tail event; the subexponential prefactor in front of
the exponential term is either forced to 1 (plain Chernoff variant) or
sharpened with a normal-approximation error bound carrying the absolute
constant 0.7655 for i.i.d. sums.

Summing these per-node extension probabilities over a code tree or a
trellis yields the average branch-metric-computation bounds exposed as
gda_complexity_bound and mlsda_complexity_bound.

A complexity bound first collects every (d, clipped) pair it needs and
evaluates all their bounds as numpy arrays.  The tilts come from one
elementwise bisection over the distinct ratios d/total (solve_tilts),
memoized for the last few (ratios, gamma), so the two variants at one
SNR point share one solve.  Residuals within TILT_SIGN_MARGIN of 0 are
recomputed with the math module, so every bisection step, and with it
every tilt, is bit-equal to a scalar solve.  The rest of each bound runs
in the operand order of the scalar formula, with + - * / and sqrt in
numpy and exp, log, log1p and erfc mapped from the math module
(numerics.math_map), so every bound value is bit-equal to a scalar
evaluation too.  Per-gamma constants are computed once per evaluation
and per-tilt terms once per distinct tilt.
"""

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from seqdec.channel import ChannelConfig
from seqdec.numerics import (
    SQRT2,
    SQRT_2PI,
    DomainError,
    bisect_root,
    log_binomial,
    log_std_normal_cdf,
    math_map,
    std_normal_cdf,
)
from seqdec.trellis import dstar_levels

log = logging.getLogger(__name__)

#: Best known absolute constant in the normal-approximation error bound
#: for sums of i.i.d. variables.
IID_NORMAL_APPROX_CONSTANT = 0.7655

#: Bound on d + clipped in the prefactor: below it every integer product
#: there (n * n, d * (n + d)) is exact in a float and in an int64, so the
#: array arithmetic rounds as Python-int arithmetic does.
MAX_SUMMANDS = 1 << 26


class NoRoot(ArithmeticError):
    """The tilt equation has no root inside its bracket."""


@dataclass(frozen=True)
class BoundVariant:
    """Selects the subexponential treatment of the tail bound.

    kind "chernoff" forces the prefactor to 1; kind "be" keeps the
    normal-approximation prefactor with IID_NORMAL_APPROX_CONSTANT.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("be", "chernoff"):
            raise ValueError(f"unknown variant kind {self.kind!r}")

    @property
    def is_chernoff(self) -> bool:
        return self.kind == "chernoff"


BERRY_ESSEEN = BoundVariant("be")
CHERNOFF = BoundVariant("chernoff")


def clipped_gaussian_mean(gamma: float) -> float:
    """E[min(X, 0)] / sigma for X ~ N(mu, sigma^2), gamma = mu^2/(2 sigma^2).

    Always negative; tends to 0 from below as gamma grows.
    """
    s = math.sqrt(2.0 * gamma)
    return -math.exp(-gamma) / SQRT_2PI + s * std_normal_cdf(-s)


#: Batched residuals within this distance of 0 are recomputed with the
#: math module.  np.exp and scipy's erfc differ from math.exp and
#: math.erfc by a few ulps, which near a root could flip the sign a
#: scalar solve sees; outside the margin the two residuals agree in sign
#: (test_bounds.py shows them within TILT_SIGN_MARGIN / 100 of each other
#: wherever the residual is below 1 in magnitude, over a dense grid of
#: ratios in (0, 1) and gammas in [0.05, 20]).
TILT_SIGN_MARGIN = 1e-13


def _exp_gamma(gamma: float) -> float:
    """e^gamma, the one factor of a bound that overflows: DomainError past
    gamma of about 709.78, where it exceeds the largest float."""
    try:
        return math.exp(gamma)
    except OverflowError:
        raise DomainError(f"gamma = {gamma:g} is too large: e^gamma overflows a float") from None


def _tilt_residual(lam, offset, slope, exp=math.exp, erfc=math.erfc):
    """lam e^(lam^2/2) Phi(-lam) - offset + slope lam, for offset =
    (1 - d/total)/sqrt(2 pi) and slope = (d/total) e^gamma
    Phi(sqrt(2 gamma)), multiplied in that order.  Scalar with the
    default math functions; elementwise on arrays with np.exp and
    scipy.special.erfc."""
    return lam * exp(0.5 * lam * lam) * (0.5 * erfc(lam / SQRT2)) - offset + slope * lam


def solve_tilts(ratios, gamma: float) -> np.ndarray:
    """Optimal tilts for an array of ratios d/total at one gamma, in one
    elementwise bisection on [0, sqrt(2 gamma) - 1e-9].

    Solves lam e^(lam^2/2) Phi(-lam) = (1 - d/total)/sqrt(2 pi)
    - (d/total) e^gamma Phi(sqrt(2 gamma)) lam, the stationarity
    condition of the exponential factor in the tilt parameter.  Each
    tilt is bit-equal to a scalar bisection on the math-module residual:
    every residual within TILT_SIGN_MARGIN of 0 is recomputed that way.
    A ratio whose bracket shows no sign change gets nan.

    The last four solves are memoized on (ratios, gamma): both bound
    variants need the same tilts at an SNR point.  The array returned is
    read-only.
    """
    ratios = np.ascontiguousarray(ratios, dtype=float)
    return _solve_tilts(ratios.tobytes(), gamma).reshape(ratios.shape)


@lru_cache(maxsize=4)
def _solve_tilts(ratio_bytes: bytes, gamma: float) -> np.ndarray:
    ratios = np.frombuffer(ratio_bytes)
    offsets = (1.0 - ratios) / SQRT_2PI
    slopes = ratios * _exp_gamma(gamma) * std_normal_cdf(math.sqrt(2.0 * gamma))

    def residual(lam):
        r = _tilt_residual(lam, offsets, slopes, np.exp, special.erfc)
        near = np.abs(r) <= TILT_SIGN_MARGIN
        if near.any():
            for i in np.flatnonzero(near).tolist():
                r[i] = _tilt_residual(float(lam[i]), float(offsets[i]), float(slopes[i]))
        return r

    hi = math.sqrt(2.0 * gamma) - 1e-9
    lams = bisect_root(residual, np.zeros(ratios.shape), np.full(ratios.shape, hi))
    lams.flags.writeable = False
    return lams


def solve_tilt(d: int, total: int, gamma: float) -> float:
    """Optimal tilt parameter for the mixed Gaussian/clipped sum; the
    one-ratio case of solve_tilts.  It depends on (d/total, gamma) only.

    Raises NoRoot when the bracket shows no sign change (the bound then
    falls back to 1).
    """
    if not 1 <= d < total:
        raise DomainError("need 1 <= d < total")
    lam = float(solve_tilts([d / total], gamma)[0])
    if math.isnan(lam):
        raise NoRoot(f"no sign change for d/total = {d / total} at gamma = {gamma}")
    return lam


def subexponential_factor(d, clipped, gamma: float, lam, variant: BoundVariant):
    """Prefactor multiplying the exponential part of the mixed-sum bound;
    elementwise over int arrays d and clipped and float array lam
    (broadcast together), a float for scalars.

    Evaluates the tilted mean/variance/third moment of the clipped
    marginal in closed form (valid at the tilt returned by solve_tilt)
    and assembles the normal-approximation prefactor; 1 whenever that
    analysis cannot help (non-positive variance estimate, non-positive
    margin a, or the Chernoff variant).  Needs clipped >= 1 and
    d + clipped < MAX_SUMMANDS.
    """
    d, clipped, lam = np.broadcast_arrays(np.asarray(d, dtype=np.int64),
                                          np.asarray(clipped, dtype=np.int64),
                                          np.asarray(lam, dtype=float))
    if np.any(clipped < 1):
        raise DomainError("need at least one clipped summand")
    if np.any(d + clipped >= MAX_SUMMANDS):
        raise DomainError(f"need d + clipped < {MAX_SUMMANDS}")
    value = np.ones(d.shape)
    if not variant.is_chernoff:
        value[...] = _prefactors(d.ravel(), clipped.ravel(), gamma, lam.ravel()).reshape(d.shape)
    return value if value.ndim else float(value)


def _prefactors(d, clipped, gamma: float, lam) -> np.ndarray:
    """The normal-approximation prefactor of each pair, 1-D arrays; each
    step runs on the pairs that reach it in the scalar formula."""
    n = d + clipped
    s = math.sqrt(2.0 * gamma)
    e_gamma, phi_s = _exp_gamma(gamma), std_normal_cdf(s)
    value = np.ones(len(d))
    q = 1.0 + SQRT_2PI * lam * e_gamma * phi_s
    mean_t = -d * lam / clipped
    var_t = (-d / clipped - n * d * lam * lam / (clipped * clipped)
             + (n / clipped) / q)
    flat = var_t <= 0.0
    if flat.any():
        log.debug("non-positive tilted variance in %d of %d pairs at gamma=%g",
                  np.count_nonzero(flat), len(d), gamma)
    live = np.flatnonzero(~flat)
    d, clipped, n, lam, q, mean_t, var_t = (x[live] for x in
                                            (d, clipped, n, lam, q, mean_t, var_t))
    c2 = clipped * clipped
    tilts, inverse = np.unique(lam, return_inverse=True)
    exp_half_lam2 = math_map(math.exp, 0.5 * tilts * tilts)[inverse]
    rho_t = (n / clipped) * (lam / q) * (
        1.0
        - d * (n + d) * lam * lam / c2
        + 2.0 * ((n * n / c2) * lam * lam + 2.0)
        * math_map(math.exp, -d * (2.0 * n - d) * lam * lam / (2.0 * c2))
        - (d / clipped) * (((n + d) / clipped) * lam * lam + 3.0)
        * SQRT_2PI * lam * e_gamma * phi_s
        - (2.0 * n / clipped) * ((n * n / c2) * lam * lam + 3.0)
        * SQRT_2PI * lam * exp_half_lam2 * std_normal_cdf(-n * lam / clipped))
    a = -clipped_gaussian_mean(gamma) + (s - lam) * var_t + mean_t
    margin = ~(a <= 0.0)
    live, clipped, a, rho_t, var_t = (x[margin] for x in (live, clipped, a, rho_t, var_t))
    sig_t = np.sqrt(var_t)
    value[live] = np.minimum(sig_t / (a * np.sqrt(2.0 * math.pi * clipped))
                             + 2.0 * IID_NORMAL_APPROX_CONSTANT * rho_t
                             / (var_t * sig_t * np.sqrt(clipped)), 1.0)
    return value


def _mean_positivity_threshold(gamma: float) -> float:
    t = math.sqrt(4.0 * math.pi * gamma) * _exp_gamma(gamma)
    return 1.0 - t / (1.0 + t * std_normal_cdf(math.sqrt(2.0 * gamma)))


def _log_bounds(pairs, gamma: float, variant: BoundVariant) -> np.ndarray:
    """ln of the extension-probability bound for each (d, clipped) row of
    the int array pairs at one gamma (see extension_probability_bounds).

    d = 0 gives 0 (the event is certain), clipped = 0 the plain Gaussian
    tail, and a ratio d/total below the mean-positivity threshold or
    without a tilt root gives 0.  The other pairs take the tilted bound,
    with their tilts from one solve_tilts call over the distinct ratios.
    """
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    d, clipped = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    if np.any((d < 0) | (clipped < 0) | (d + clipped < 1)):
        raise DomainError("need d, clipped >= 0 with d + clipped >= 1")
    logs = np.zeros(len(d))
    gauss = np.flatnonzero(clipped == 0)
    logs[gauss] = log_std_normal_cdf(-np.sqrt(2.0 * gamma * d[gauss]))
    tilted = np.flatnonzero((d > 0) & (clipped > 0))
    if tilted.size:
        ratios = d[tilted] / (d[tilted] + clipped[tilted])
        keep = ratios >= _mean_positivity_threshold(gamma)
        tilted, ratios = tilted[keep], ratios[keep]
        distinct, inverse = np.unique(ratios, return_inverse=True)
        lams = solve_tilts(distinct, gamma)
        rooted = ~np.isnan(lams[inverse])
        tilted, inverse = tilted[rooted], inverse[rooted]
        logs[tilted] = _log_tilted_bounds(d[tilted], clipped[tilted], gamma, lams, inverse,
                                          variant)
    return logs


def _log_tilted_bounds(d, clipped, gamma: float, lams, inverse, variant: BoundVariant):
    """ln of the tilted bound of each pair (d, clipped >= 1) at tilt
    lams[inverse]; the terms that depend on the tilt alone are computed
    once per entry of lams (a nan entry just gives nan terms)."""
    s = math.sqrt(2.0 * gamma)
    mh = clipped_gaussian_mean(gamma)
    half_lam2 = 0.5 * lams * lams
    log_mgf = _logaddexp(log_std_normal_cdf(-lams) - gamma + half_lam2,
                         log_std_normal_cdf(s))[inverse]
    lam = lams[inverse]
    log_prefactor = (0.0 if variant.is_chernoff else
                     math_map(math.log, subexponential_factor(d, clipped, gamma, lam, variant)))
    sqrt_d = np.sqrt(d)
    gauss_tail = log_std_normal_cdf(-(clipped * mh + d * s) / sqrt_d)
    tilted = (log_prefactor + clipped * log_mgf
              + d * (-gamma + half_lam2)[inverse]
              + log_std_normal_cdf((clipped * mh + lam * d) / sqrt_d))
    return np.minimum(_logaddexp(gauss_tail, tilted), 0.0)


def _logaddexp(a, b):
    """ln(e^a + e^b) elementwise, as the larger plus log1p(exp(smaller
    - larger))."""
    swap = a < b
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    return a + math_map(math.log1p, math_map(math.exp, b - a))


def extension_probability_bounds(d, clipped, gamma: float,
                                 variant: BoundVariant = BERRY_ESSEEN) -> np.ndarray:
    """Upper bounds on the probability that a search node is extended,
    elementwise over int arrays d and clipped (broadcast together) at one
    gamma, with one tilt solve for all of them.

    The bounded event is {sum_{i<=d} X_i + sum_{j<=clipped} min(W_j, 0)
    <= 0} with X, W i.i.d. Gaussian of SNR gamma = mu^2/(2 sigma^2):
    d counts the disagreement positions accumulated so far and clipped
    the not-yet-decoded positions.  Each bound is in [0, 1]; it is exactly
    1 when d = 0 and whenever the mean-positivity condition fails or the
    tilt equation has no usable root.
    """
    d, clipped = np.broadcast_arrays(d, clipped)
    logs = _log_bounds(np.stack((d, clipped), axis=-1), gamma, variant)
    return math_map(math.exp, logs).reshape(d.shape)


def gda_complexity_bound(code, gamma_b_db: float,
                         variant: BoundVariant = BERRY_ESSEEN) -> float:
    """Average branch-metric computations of the tree decoder, bounded.

    Sums 2 C(l, d) B(d, n - l, gamma) over levels l < k and weights
    d <= l at the channel SNR gamma of ChannelConfig.for_block_code.
    The level-0 term (value 1) counts the start-node extension; the
    result is at least 2k.  Terms below e^-700 are left out, and the
    others are added one by one in ascending (l, d) order.
    """
    gamma = ChannelConfig.for_block_code(code, gamma_b_db).gamma
    level, d = np.tril_indices(code.k)
    logs = log_binomial(level, d) + _log_bounds(np.column_stack((d, code.n - level)),
                                                gamma, variant)
    return 2.0 * float(np.cumsum(math_map(math.exp, logs[logs > -700.0]))[-1])


def mlsda_complexity_bound(trellis, gamma_b_db: float,
                           variant: BoundVariant = BERRY_ESSEEN) -> float:
    """Average branch-metric computations of the trellis decoder, bounded.

    Sums 2 B(d*_j(l), N - l n, gamma) over levels l < L and states j
    present at level l, at the channel SNR gamma of
    ChannelConfig.for_conv_code.  Absent states contribute nothing.

    B is evaluated once per distinct d* of a level (dstar_levels), all
    levels in one _log_bounds call.  The terms are then added one by one
    in ascending (level, state) order: each level gathers its terms into
    one buffer after the running total and takes a sequential cumulative
    sum there, so the result does not depend on how many states share a
    d* value; a pairwise or count-weighted sum would move it in the last
    digits.
    """
    code = trellis.code
    n_out = code.n_out
    N = n_out * (trellis.L + code.m)
    gamma = ChannelConfig.for_conv_code(code, trellis.L, gamma_b_db).gamma
    levels = dstar_levels(trellis)
    d = np.concatenate([vs for _, vs in levels])
    level = np.repeat(np.arange(trellis.L), [len(vs) for _, vs in levels])
    lut = np.empty((trellis.L, d.max() + 1))  # [level, d*] -> term
    lut[level, d] = math_map(math.exp, _log_bounds(np.column_stack((d, N - level * n_out)),
                                                   gamma, variant))
    buf = np.empty(max(len(row) for row, _ in levels) + 1)
    total = 0.0
    for terms, (row, _) in zip(lut, levels):
        sums = buf[:len(row) + 1]
        sums[0] = total
        terms.take(row, out=sums[1:], mode="clip")
        sums.cumsum(out=sums)
        total = sums[-1]
    return 2 * float(total)
