import heapq
import math

import pytest
from scipy.special import erfcx

from seqdec import cli
from seqdec.bounds import IID_NORMAL_APPROX_CONSTANT, NoRoot, clipped_gaussian_mean
from seqdec.codes import ConvCode, build_extended_golay, build_extended_qr48, parse_octal_generators
from seqdec.numerics import SQRT2, SQRT_2PI, DomainError, std_normal_cdf
from seqdec.trellis import build_trellis


@pytest.fixture(scope="session")
def golay():
    return build_extended_golay()


@pytest.fixture(scope="session")
def qr48():
    return build_extended_qr48()


@pytest.fixture(scope="session")
def fig_trellis_code():
    """(3,1,2) code with generators 6,5,7 (octal)."""
    return parse_octal_generators(["6", "5", "7"], m=2, name="conv-657")


@pytest.fixture(scope="session")
def fig_trellis(fig_trellis_code):
    return build_trellis(fig_trellis_code, L=5)


@pytest.fixture(scope="session")
def conv_634_564():
    """(2,1,6) code with generators 634,564 (octal)."""
    return parse_octal_generators(["634", "564"], m=6, name="conv-634-564")


@pytest.fixture(scope="session")
def conv_m16():
    """The memory-16 (2,1,16) code of fig7 (see src/seqdec/configs/fig7.json)."""
    taps = tuple(tuple(int(c) for c in t) for t in ("11100110100001001", "10011001011110111"))
    return ConvCode(n_out=2, m=16, taps=taps, name="conv-m16")


def textbook_gda_search(code, bm0: list, bm1: list) -> tuple:
    """The plain priority-first tree search on branch-metric lists (see
    decoders._gda_tables), with no budget: pop the least open path by
    (metric, insertion number) and push every child, label 0 first.  A
    tail bit is read from the codeword encoded from code.rows.

    Returns (branch_computations, branch_computations_total, extensions,
    metric, path bits as an int, the metric of each extended path in
    extension order).
    """
    k, n = code.k, code.n
    heap = [(0.0, 0, 0, 0)]  # (metric, insertion number, level, path bits)
    seq, low, tail, extended = 1, 0, 0, []
    while True:
        f, _, level, bits = heapq.heappop(heap)
        if level == n:
            return 2 * low, 2 * low + tail, low + tail, f, bits, extended
        extended.append(f)
        if level < k:
            low += 1
            labels = (0, 1)
        else:
            tail += 1
            word = 0
            for i, row in enumerate(code.rows):
                if (bits >> i) & 1:
                    word ^= row
            labels = ((word >> level) & 1,)
        for b in labels:
            heapq.heappush(heap, (f + (bm1 if b else bm0)[level], seq, level + 1,
                                  bits | (b << level)))
            seq += 1


@pytest.fixture(scope="session")
def textbook_gda():
    """The reference tree search that the decoder's search must match
    step for step (see textbook_gda_search)."""
    return textbook_gda_search


def textbook_mlsda_search(trellis, inc: list) -> tuple:
    """The plain two-stack trellis search on a metric row (see
    decoders._metric_table), with no budget: pop the least open entry by
    (metric, insertion number), skip it if its node is closed or holds a
    better path, close its node, and push every child, input 0 first,
    whose node is not closed and whose metric beats the node's incumbent
    (ties keep the incumbent).

    Returns (branch_computations, branch_computations_total, extensions,
    metric, information bits as an int).
    """
    outputs = trellis.outputs.tolist()
    n_out, m, mask = trellis.code.n_out, trellis.code.m, trellis.num_states - 1
    goal = trellis.levels << m
    closed = set()
    live = {0: 0}  # node -> insertion number of its open entry
    best = {0: 0.0}  # node -> least metric that reached it
    heap = [(0.0, 0, 0, 0, 0)]  # (metric, insertion number, level, state, info bits)
    seq, low, tail = 1, 0, 0
    while True:
        zeta, number, level, state, info = heapq.heappop(heap)
        node = (level << m) | state
        if node in closed or live[node] != number:
            continue
        if node == goal:
            return 2 * low, 2 * low + tail, low + tail, zeta, info
        closed.add(node)
        if level < trellis.L:
            low += 1
        else:
            tail += 1
        for b in (0, 1) if level < trellis.L else (0,):
            ns = ((state << 1) | b) & mask
            child = ((level + 1) << m) | ns
            child_zeta = zeta + inc[(level << n_out) | outputs[b][state]]
            incumbent = best.get(child)
            if child in closed or (incumbent is not None and incumbent <= child_zeta):
                continue
            best[child], live[child] = child_zeta, seq
            heapq.heappush(heap, (child_zeta, seq, level + 1, ns, info | (b << level)))
            seq += 1


@pytest.fixture(scope="session")
def textbook_mlsda():
    """The reference trellis search that the decoder's search must match
    step for step (see textbook_mlsda_search)."""
    return textbook_mlsda_search


class NoSignChange(ArithmeticError):
    """Bracket endpoints do not straddle a root."""


def scalar_bisect_root(f, lo: float, hi: float) -> float:
    """Plain scalar bisection on [lo, hi]: the midpoint of the final
    bracket once it is at most 1e-12 wide (or after 200 halvings), an
    endpoint or midpoint where f is exactly 0, and NoSignChange when
    f(lo) and f(hi) have one sign."""
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


def scalar_tilt_residual(lam: float, ratio: float, gamma: float) -> float:
    """The tilt equation's residual in plain math-module arithmetic."""
    s = math.sqrt(2.0 * gamma)
    return (lam * math.exp(0.5 * lam * lam) * std_normal_cdf(-lam)
            - (1.0 - ratio) / SQRT_2PI
            + ratio * math.exp(gamma) * std_normal_cdf(s) * lam)


def scalar_solve_tilt(ratio: float, gamma: float) -> float:
    """The tilt for d/total = ratio, one scalar bisection on
    [0, sqrt(2 gamma) - 1e-9]; NoRoot when the bracket has no sign
    change."""
    hi = math.sqrt(2.0 * gamma) - 1e-9
    try:
        return scalar_bisect_root(lambda x: scalar_tilt_residual(x, ratio, gamma), 0.0, hi)
    except NoSignChange as exc:
        raise NoRoot(str(exc)) from exc


@pytest.fixture(scope="session")
def scalar_tilt():
    """The scalar tilt solve that the batched one must match bit for bit
    (see scalar_solve_tilt)."""
    return scalar_solve_tilt


@pytest.fixture(scope="session")
def scalar_bisect():
    """The scalar bisection that each element of an array call of
    numerics.bisect_root must match (see scalar_bisect_root)."""
    return scalar_bisect_root


@pytest.fixture(scope="session")
def scalar_residual():
    """The tilt equation's residual in math-module arithmetic (see
    scalar_tilt_residual)."""
    return scalar_tilt_residual


def scalar_log_std_normal_cdf(x: float) -> float:
    """ln Phi(x) in plain math-module arithmetic, the scaled erfc below
    x = -5."""
    if x >= -5.0:
        return math.log(std_normal_cdf(x))
    return math.log(0.5) + math.log(erfcx(-x / SQRT2)) - 0.5 * x * x


def scalar_logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def scalar_subexponential_factor(d: int, clipped: int, gamma: float, lam: float,
                                 variant) -> float:
    """The prefactor of one (d, clipped) pair at tilt lam, one scalar
    expression at a time (a BoundVariant selects the variant): 1 for the
    Chernoff variant, a non-positive
    tilted variance or a non-positive margin a, and at most 1 always."""
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


def scalar_log_tilted_bound(d: int, clipped: int, gamma: float, lam: float,
                            variant) -> float:
    """ln of the tilted bound of one pair with d, clipped >= 1 at tilt lam."""
    s = math.sqrt(2.0 * gamma)
    mh = clipped_gaussian_mean(gamma)
    prefactor = scalar_subexponential_factor(d, clipped, gamma, lam, variant)
    log_mgf = scalar_logaddexp(scalar_log_std_normal_cdf(-lam) - gamma + 0.5 * lam * lam,
                               scalar_log_std_normal_cdf(s))
    sqrt_d = math.sqrt(d)
    gauss_tail = scalar_log_std_normal_cdf(-(clipped * mh + d * s) / sqrt_d)
    tilted = (math.log(prefactor) + clipped * log_mgf
              + d * (-gamma + 0.5 * lam * lam)
              + scalar_log_std_normal_cdf((clipped * mh + lam * d) / sqrt_d))
    return min(scalar_logaddexp(gauss_tail, tilted), 0.0)


def scalar_log_extension_bound(d: int, clipped: int, gamma: float, variant) -> float:
    """ln of the extension-probability bound of one (d, clipped) pair,
    one pair at a time: 0 for d = 0, the Gaussian tail for clipped = 0,
    0 below the mean-positivity threshold or without a tilt root, and
    else the tilted bound at the scalar tilt."""
    if d == 0:
        return 0.0
    if clipped == 0:
        return scalar_log_std_normal_cdf(-math.sqrt(2.0 * gamma * d))
    t = math.sqrt(4.0 * math.pi * gamma) * math.exp(gamma)
    if d / (d + clipped) < 1.0 - t / (1.0 + t * std_normal_cdf(math.sqrt(2.0 * gamma))):
        return 0.0
    try:
        lam = scalar_solve_tilt(d / (d + clipped), gamma)
    except NoRoot:
        return 0.0
    return scalar_log_tilted_bound(d, clipped, gamma, lam, variant)


@pytest.fixture(scope="session")
def scalar_log_bound():
    """The per-pair log bound that every element of an array evaluation
    must match bit for bit (see scalar_log_extension_bound)."""
    return scalar_log_extension_bound


@pytest.fixture(scope="session")
def scalar_prefactor():
    """The scalar prefactor that every element of an array call of
    bounds.subexponential_factor must match (see
    scalar_subexponential_factor)."""
    return scalar_subexponential_factor


@pytest.fixture(scope="session")
def scalar_log_cdf():
    """The scalar ln Phi that every element of an array call of
    numerics.log_std_normal_cdf must match (see
    scalar_log_std_normal_cdf)."""
    return scalar_log_std_normal_cdf


def curve_option_strings(name: str) -> list:
    """The option strings of a curve subcommand's parser in the order it
    registers them, bar -h/--help."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return [flag for action in sub.choices[name]._actions
            for flag in action.option_strings if flag not in ("-h", "--help")]


@pytest.fixture(scope="session")
def curve_flags():
    """curve_option_strings, which the CLI tests and the README's flag
    list are checked against."""
    return curve_option_strings
