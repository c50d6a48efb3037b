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
solves their tilts in one elementwise numpy bisection over the distinct
ratios d/total (solve_tilts).  Residuals within TILT_SIGN_MARGIN of 0
are recomputed with the math module, so every bisection step, and with
it every tilt and bound value, is bit-equal to a scalar solve.  The rest
of each per-node bound is scalar.
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
    std_normal_cdf,
)
from seqdec.trellis import compute_dstar

log = logging.getLogger(__name__)

#: Best known absolute constant in the normal-approximation error bound
#: for sums of i.i.d. variables.
IID_NORMAL_APPROX_CONSTANT = 0.7655


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
    """
    ratios = np.asarray(ratios, dtype=float)
    offsets = (1.0 - ratios) / SQRT_2PI
    slopes = ratios * math.exp(gamma) * std_normal_cdf(math.sqrt(2.0 * gamma))

    def residual(lam):
        r = _tilt_residual(lam, offsets, slopes, np.exp, special.erfc)
        near = np.abs(r) <= TILT_SIGN_MARGIN
        if near.any():
            for i in np.flatnonzero(near).tolist():
                r[i] = _tilt_residual(float(lam[i]), float(offsets[i]), float(slopes[i]))
        return r

    hi = math.sqrt(2.0 * gamma) - 1e-9
    return bisect_root(residual, np.zeros(ratios.shape), np.full(ratios.shape, hi))


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


def subexponential_factor(d: int, clipped: int, gamma: float, lam: float,
                          variant: BoundVariant) -> float:
    """Prefactor multiplying the exponential part of the mixed-sum bound.

    Evaluates the tilted mean/variance/third moment of the clipped
    marginal in closed form (valid at the tilt returned by solve_tilt)
    and assembles the normal-approximation prefactor; 1 whenever that
    analysis cannot help (non-positive variance estimate, non-positive
    margin a, or the Chernoff variant).
    """
    if clipped < 1:
        raise DomainError("need at least one clipped summand")
    if variant.is_chernoff:
        return 1.0
    n = d + clipped
    s = math.sqrt(2.0 * gamma)
    q = 1.0 + SQRT_2PI * lam * math.exp(gamma) * std_normal_cdf(s)
    mean_t = -d * lam / clipped
    var_t = (-d / clipped - n * d * lam * lam / (clipped * clipped)
             + (n / clipped) / q)
    if var_t <= 0.0:
        log.debug("non-positive tilted variance at d=%d clipped=%d gamma=%g", d, clipped, gamma)
        return 1.0
    c2 = clipped * clipped
    rho_t = (n / clipped) * (lam / q) * (
        1.0
        - d * (n + d) * lam * lam / c2
        + 2.0 * ((n * n / c2) * lam * lam + 2.0)
        * math.exp(-d * (2.0 * n - d) * lam * lam / (2.0 * c2))
        - (d / clipped) * (((n + d) / clipped) * lam * lam + 3.0)
        * SQRT_2PI * lam * math.exp(gamma) * std_normal_cdf(s)
        - (2.0 * n / clipped) * ((n * n / c2) * lam * lam + 3.0)
        * SQRT_2PI * lam * math.exp(0.5 * lam * lam) * std_normal_cdf(-n * lam / clipped))
    a = -clipped_gaussian_mean(gamma) + (s - lam) * var_t + mean_t
    if a <= 0.0:
        return 1.0
    sig_t = math.sqrt(var_t)
    value = (sig_t / (a * math.sqrt(2.0 * math.pi * clipped))
             + 2.0 * IID_NORMAL_APPROX_CONSTANT * rho_t
             / (var_t * sig_t * math.sqrt(clipped)))
    return min(value, 1.0)


def _mean_positivity_threshold(gamma: float) -> float:
    t = math.sqrt(4.0 * math.pi * gamma) * math.exp(gamma)
    return 1.0 - t / (1.0 + t * std_normal_cdf(math.sqrt(2.0 * gamma)))


def _log_bounds(pairs, gamma: float, variant: BoundVariant) -> list:
    """ln of the extension-probability bound for each (d, clipped) pair
    at one gamma (see extension_probability_bound).  The tilts of all
    pairs are solved in one solve_tilts call, one per distinct d/total;
    the rest of each bound is scalar."""
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    logs = []
    tilted = {}  # d/total -> its position in the batch of tilts
    threshold = None
    for d, clipped in pairs:
        if d < 0 or clipped < 0 or d + clipped < 1:
            raise DomainError("need d, clipped >= 0 with d + clipped >= 1")
        if d == 0:
            # every clipped summand is <= 0, so the event is certain
            logs.append(0.0)
        elif clipped == 0:
            logs.append(log_std_normal_cdf(-math.sqrt(2.0 * gamma * d)))
        else:
            if threshold is None:
                threshold = _mean_positivity_threshold(gamma)
            if d / (d + clipped) < threshold:
                logs.append(0.0)
            else:
                logs.append(None)
                tilted.setdefault(d / (d + clipped), len(tilted))
    if not tilted:
        return logs
    lams = solve_tilts(list(tilted), gamma).tolist()
    for i, (d, clipped) in enumerate(pairs):
        if logs[i] is None:
            lam = lams[tilted[d / (d + clipped)]]
            logs[i] = 0.0 if math.isnan(lam) else _log_tilted_bound(d, clipped, gamma, lam, variant)
    return logs


def _log_tilted_bound(d: int, clipped: int, gamma: float, lam: float,
                      variant: BoundVariant) -> float:
    s = math.sqrt(2.0 * gamma)
    mh = clipped_gaussian_mean(gamma)
    prefactor = subexponential_factor(d, clipped, gamma, lam, variant)
    log_mgf = _logaddexp(log_std_normal_cdf(-lam) - gamma + 0.5 * lam * lam,
                         log_std_normal_cdf(s))
    sqrt_d = math.sqrt(d)
    gauss_tail = log_std_normal_cdf(-(clipped * mh + d * s) / sqrt_d)
    tilted = (math.log(prefactor) + clipped * log_mgf
              + d * (-gamma + 0.5 * lam * lam)
              + log_std_normal_cdf((clipped * mh + lam * d) / sqrt_d))
    return min(_logaddexp(gauss_tail, tilted), 0.0)


@lru_cache(maxsize=1 << 18)
def log_extension_probability_bound(d: int, clipped: int, gamma: float,
                                    variant: BoundVariant) -> float:
    """ln of the upper bound on Pr{sum of d Gaussians + clipped
    min-clipped Gaussians <= 0}; see extension_probability_bound."""
    return _log_bounds([(d, clipped)], gamma, variant)[0]


def extension_probability_bound(d: int, clipped: int, gamma: float,
                                variant: BoundVariant = BERRY_ESSEEN) -> float:
    """Upper bound on the probability that a search node is extended.

    The bounded event is {sum_{i<=d} X_i + sum_{j<=clipped} min(W_j, 0)
    <= 0} with X, W i.i.d. Gaussian of SNR gamma = mu^2/(2 sigma^2):
    d counts the disagreement positions accumulated so far and clipped
    the not-yet-decoded positions.  Result is in [0, 1]; it is exactly 1
    when d = 0 and whenever the mean-positivity condition fails or the
    tilt equation has no usable root.
    """
    return math.exp(log_extension_probability_bound(d, clipped, gamma, variant))


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def gda_complexity_bound(code, gamma_b_db: float,
                         variant: BoundVariant = BERRY_ESSEEN) -> float:
    """Average branch-metric computations of the tree decoder, bounded.

    Sums 2 C(l, d) B(d, n - l, gamma) over levels l < k and weights
    d <= l at the channel SNR gamma of ChannelConfig.for_block_code.
    The level-0 term (value 1) counts the start-node extension; the
    result is at least 2k.
    """
    gamma = ChannelConfig.for_block_code(code, gamma_b_db).gamma
    pairs = [(level, d) for level in range(code.k) for d in range(level + 1)]
    logs = _log_bounds([(d, code.n - level) for level, d in pairs], gamma, variant)
    total = 0.0
    for (level, d), log_bound in zip(pairs, logs):
        log_term = log_binomial(level, d) + log_bound
        if log_term > -700.0:
            total += math.exp(log_term)
    return 2.0 * total


def mlsda_complexity_bound(trellis, gamma_b_db: float,
                           variant: BoundVariant = BERRY_ESSEEN) -> float:
    """Average branch-metric computations of the trellis decoder, bounded.

    Sums 2 B(d*_j(l), N - l n, gamma) over levels l < L and states j
    present at level l, at the channel SNR gamma of
    ChannelConfig.for_conv_code.  Absent states contribute nothing.

    B is evaluated once per distinct d* of a level, and the tilts of all
    levels are solved in one batched bisection (see _log_bounds).  A
    level whose states are all present reads its d* row as it is; other
    levels gather the present states.  The terms are then added one by
    one in ascending (level, state) order, with a sequential cumulative
    sum, so the result does not depend on how many states share a d*
    value; a pairwise or count-weighted sum would move it in the last
    digits.
    """
    code = trellis.code
    n_out = code.n_out
    N = n_out * (trellis.L + code.m)
    gamma = ChannelConfig.for_conv_code(code, trellis.L, gamma_b_db).gamma
    dstar = compute_dstar(trellis)

    def present(level):
        row, mask = dstar[level], trellis.reachable[level]
        return row if mask.all() else row[mask]

    distinct = [np.flatnonzero(np.bincount(present(level))).tolist()
                for level in range(trellis.L)]
    pairs = [(v, N - level * n_out) for level, vs in enumerate(distinct) for v in vs]
    bounds = iter(_log_bounds(pairs, gamma, variant))
    total = 0.0
    for level, vs in enumerate(distinct):
        d = present(level)
        lut = np.zeros(vs[-1] + 1)
        for v in vs:
            lut[v] = math.exp(next(bounds))
        total = float(np.cumsum(np.concatenate(([total], lut[d])))[-1])
    return 2 * total
