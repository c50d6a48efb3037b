import logging
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from seqdec import bounds
from seqdec.bounds import (
    BERRY_ESSEEN,
    CHERNOFF,
    IID_NORMAL_APPROX_CONSTANT,
    MAX_SUMMANDS,
    TILT_SIGN_MARGIN,
    BoundVariant,
    NoRoot,
    clipped_gaussian_mean,
    extension_probability_bounds,
    gda_complexity_bound,
    mlsda_complexity_bound,
    _tilt_residual,
    solve_tilt,
    solve_tilts,
    subexponential_factor,
)
from seqdec.harness import ExperimentConfig, extension_event_hits, run_bound_curve
from seqdec.numerics import SQRT_2PI, DomainError, std_normal_cdf
from seqdec.trellis import build_trellis


def standard_error(p, samples):
    """Of a Monte Carlo probability estimate p over samples draws."""
    return math.sqrt(max(p * (1.0 - p), 1e-12) / samples)


class TestClippedGaussianMean:
    def test_quadrature_oracle(self):
        # E[min(N(sqrt(2 gamma), 1), 0)] by adaptive integration
        for gamma in (0.25, 0.5, 1.0, 2.0):
            mu = math.sqrt(2.0 * gamma)
            want, _ = quad(lambda x: x * math.exp(-0.5 * (x - mu) ** 2) / SQRT_2PI,
                           -40.0, 0.0)
            assert clipped_gaussian_mean(gamma) == pytest.approx(want, abs=1e-12)

    def test_reference_value(self):
        assert clipped_gaussian_mean(0.5) == pytest.approx(-0.083315, abs=1e-5)

    def test_monte_carlo_oracle(self):
        gen = np.random.Generator(np.random.PCG64(42))
        draws = np.minimum(gen.normal(math.sqrt(2.0), 1.0, 10_000_000), 0.0)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(clipped_gaussian_mean(1.0) - draws.mean()) < 3.0 * se

    def test_vanishes_at_high_snr(self):
        assert clipped_gaussian_mean(40.0) == pytest.approx(0.0, abs=1e-12)
        assert clipped_gaussian_mean(40.0) < 0.0
        assert clipped_gaussian_mean(2.0) > clipped_gaussian_mean(0.5)


class TestSolveTilt:
    def test_residual_small(self, scalar_residual):
        lam = solve_tilt(20, 100, 0.5)
        assert 0.0 <= lam < math.sqrt(1.0)
        assert abs(scalar_residual(lam, 0.2, 0.5)) < 1e-9

    def test_stationary_point(self):
        # the root must zero the derivative of the log of the
        # exponential factor [Phi(-lam) e^{-g} e^{l^2/2} + Phi(s)]^(n-d)
        # * e^{d(-g + l^2/2)} in lam
        d, n, gamma = 20, 100, 0.5
        s = math.sqrt(2.0 * gamma)

        def log_factor(lam):
            m = std_normal_cdf(-lam) * math.exp(-gamma + 0.5 * lam * lam) + std_normal_cdf(s)
            return (n - d) * math.log(m) + d * (-gamma + 0.5 * lam * lam)

        lam = solve_tilt(d, n, gamma)
        h = 1e-6
        deriv = (log_factor(lam + h) - log_factor(lam - h)) / (2.0 * h)
        assert abs(deriv) < 1e-6

    def test_depends_only_on_ratio(self):
        assert solve_tilt(10, 50, 0.5) == pytest.approx(solve_tilt(20, 100, 0.5), abs=1e-10)
        assert solve_tilt(3, 30, 1.25) == pytest.approx(solve_tilt(9, 90, 1.25), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_tilt(0, 10, 0.5)
        with pytest.raises(DomainError):
            solve_tilt(10, 10, 0.5)

    def test_no_root_when_mean_negative(self):
        # tiny d/n at low SNR: mean-positivity fails and no root exists
        with pytest.raises(NoRoot):
            solve_tilt(1, 1000, 0.05)


class TestSolveTilts:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=30),
           st.floats(0.05, 20.0))
    # ratios 0.001 and 0.01 have no root at gamma 0.05; the rest do
    @example([0.001, 0.01, 0.2, 0.5, 0.999], 0.05)
    @example([0.2, 0.2, 1e-300, 1.0 - 2.0 ** -53], 20.0)
    # the scalar residual is exactly 0 at a midpoint near 0.648, where the
    # numpy one is 2.8e-17: without the exact-sign guard the tilts differ
    @example([0.014278991897404447], 3.0113131693802564)
    def test_bit_equal_to_scalar_solve(self, scalar_tilt, ratios, gamma):
        got = solve_tilts(ratios, gamma).tolist()
        for ratio, lam in zip(ratios, got):
            try:
                want = scalar_tilt(ratio, gamma)
            except NoRoot:
                assert math.isnan(lam)
            else:
                assert lam.hex() == want.hex()

    def test_numpy_residual_within_margin(self, scalar_residual):
        # the guard recomputes residuals within TILT_SIGN_MARGIN of 0 with
        # the math module; outside it the numpy residual must carry the
        # scalar one's sign, which holds since the two differ by at most
        # TILT_SIGN_MARGIN / 100, relative to the residual where it is
        # above 1 in magnitude
        worst = 0.0
        for gamma in np.linspace(0.05, 20.0, 40).tolist():
            s = math.sqrt(2.0 * gamma)
            lam = np.linspace(0.0, s - 1e-9, 150)
            for ratio in np.linspace(0.001, 0.999, 40).tolist():
                slope = ratio * math.exp(gamma) * std_normal_cdf(s)
                fast = _tilt_residual(lam, (1.0 - ratio) / SQRT_2PI, slope, np.exp, special.erfc)
                exact = np.array([scalar_residual(x, ratio, gamma) for x in lam.tolist()])
                worst = max(worst, float((np.abs(fast - exact)
                                          / np.maximum(np.abs(exact), 1.0)).max()))
        assert worst <= TILT_SIGN_MARGIN / 100


class TestSharedSolve:
    @pytest.fixture
    def solves(self, monkeypatch):
        """The (ratios, gamma) of every tilt solve that misses the memo,
        on a fresh memo of the same size."""
        calls = []
        solve = bounds._solve_tilts.__wrapped__

        def counted(ratio_bytes, gamma):
            calls.append((ratio_bytes, gamma))
            return solve(ratio_bytes, gamma)

        monkeypatch.setattr(bounds, "_solve_tilts", lru_cache(maxsize=4)(counted))
        return calls

    def test_both_variants_share_one_solve(self, solves):
        cfg = ExperimentConfig(code={"type": "conv", "m": 2, "octal": ["6", "5", "7"]}, L=8,
                               snr_db=(1.0, 4.0, 7.0), variant="both", mode="bound")
        points = run_bound_curve(cfg)
        assert len(solves) == 3
        assert [p.bound_be for p in points] == [GOLDEN_BOUNDS["657-L8", "be", db]
                                                for db in (1.0, 4.0, 7.0)]

    def test_variant_order_does_not_matter(self, solves):
        # cells where the Berry-Esseen prefactor is below 1, so that the
        # two variants differ
        d, clipped, gamma = np.array([40, 60, 3, 0]), np.array([160, 240, 9, 5]), 10.0 ** 0.1
        be_first = [extension_probability_bounds(d, clipped, gamma, v).tolist()
                    for v in (BERRY_ESSEEN, CHERNOFF)]
        bounds._solve_tilts.cache_clear()
        chernoff_first = [extension_probability_bounds(d, clipped, gamma, v).tolist()
                          for v in (CHERNOFF, BERRY_ESSEEN)]
        assert be_first == chernoff_first[::-1]
        assert be_first[0][0] < be_first[1][0]
        assert len(solves) == 2

    def test_memoized_tilts_are_read_only(self):
        lams = solve_tilts([0.2, 0.5], 1.0)
        with pytest.raises(ValueError):
            lams[0] = 0.0
        assert solve_tilts([0.2, 0.5], 1.0).tolist() == lams.tolist()


class TestSubexponentialFactor:
    def test_elementwise_equals_scalar_reference(self, scalar_prefactor):
        # every branch: clamped at 1, below 1, non-positive tilted
        # variance and non-positive margin a
        cells = [(1, 1, 1.2589), (40, 160, 10.0 ** 0.1), (2, 1, 25.795), (1, 1, 14.57),
                 (3, 7, 14.979), (20, 80, 0.5), (7, 300, 2.0)]
        for gamma in sorted({g for _, _, g in cells}):
            d = np.array([c[0] for c in cells if c[2] == gamma] * 2)
            clipped = np.array([c[1] for c in cells if c[2] == gamma] * 2)
            lam = np.array([solve_tilt(a, a + b, gamma) for a, b in zip(d, clipped)])
            for variant in (BERRY_ESSEEN, CHERNOFF):
                got = subexponential_factor(d, clipped, gamma, lam, variant)
                want = [scalar_prefactor(int(a), int(b), gamma, float(x), variant)
                        for a, b, x in zip(d, clipped, lam)]
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert isinstance(subexponential_factor(40, 160, 1.2589, 0.1, BERRY_ESSEEN), float)

    def test_domain(self):
        with pytest.raises(DomainError):
            subexponential_factor(3, 0, 1.0, 0.1, BERRY_ESSEEN)
        with pytest.raises(DomainError):
            subexponential_factor([3, 3], [2, 0], 1.0, 0.1, CHERNOFF)
        with pytest.raises(DomainError):
            subexponential_factor(1, MAX_SUMMANDS - 1, 1.0, 0.1, BERRY_ESSEEN)

    def test_non_positive_variance_logged_once(self, caplog):
        # (1, 1) at gamma 14.57 has a non-positive tilted variance
        gamma = 14.57
        lam = [solve_tilt(1, 2, gamma), solve_tilt(1, 2, gamma), solve_tilt(20, 100, gamma)]
        with caplog.at_level(logging.DEBUG, logger="seqdec.bounds"):
            subexponential_factor([1, 1, 20], [1, 1, 80], gamma, lam, BERRY_ESSEEN)
        assert [r.getMessage() for r in caplog.records] == [
            "non-positive tilted variance in 2 of 3 pairs at gamma=14.57"]

    def test_chernoff_always_one(self):
        lam = solve_tilt(40, 200, 1.2589)
        assert subexponential_factor(40, 160, 1.2589, lam, CHERNOFF) == 1.0

    def test_small_samples_stay_at_one(self):
        # d/n = 0.2: no reduction below ~50 samples at 1 dB
        gamma = 10.0 ** 0.1
        for n in (10, 25, 50):
            d = round(0.2 * n)
            lam = solve_tilt(d, n, gamma)
            assert subexponential_factor(d, n - d, gamma, lam, BERRY_ESSEEN) == 1.0

    def test_large_samples_dip_below_one(self):
        gamma = 10.0 ** 0.1
        lam = solve_tilt(40, 200, gamma)
        value = subexponential_factor(40, 160, gamma, lam, BERRY_ESSEEN)
        assert value < 1.0

    def test_closed_forms_match_numeric_moments(self):
        # the closed-form tilted variance used inside the factor equals
        # the actual variance of the reweighted clipped marginal at the
        # root tilt (differentiating the mgf twice)
        d, clipped, gamma = 40, 160, 1.2589
        n = d + clipped
        lam = solve_tilt(d, n, gamma)
        s = math.sqrt(2.0 * gamma)
        theta = lam - s
        g = theta * s + 0.5 * theta * theta
        m0 = std_normal_cdf(s) + math.exp(g) * std_normal_cdf(-lam)
        phi_l = math.exp(-0.5 * lam * lam) / SQRT_2PI
        m1 = math.exp(g) * (lam * std_normal_cdf(-lam) - phi_l)
        m2 = math.exp(g) * ((lam * lam + 1.0) * std_normal_cdf(-lam) - lam * phi_l)
        var_numeric = m2 / m0 - (m1 / m0) ** 2

        q = 1.0 + SQRT_2PI * lam * math.exp(gamma) * std_normal_cdf(s)
        var_closed = (-d / clipped - n * d * lam * lam / clipped**2
                      + (n / clipped) / q)
        assert var_closed == pytest.approx(var_numeric, rel=1e-9)


class TestExtensionProbabilityBound:
    def test_no_gaussians_is_certain(self):
        assert extension_probability_bounds(0, 10, 1.0) == 1.0

    def test_pure_gaussian_case(self):
        # d = total: plain Gaussian tail
        want = std_normal_cdf(-1.0)
        assert extension_probability_bounds(1, 0, 0.5) == pytest.approx(want, rel=1e-12)
        assert extension_probability_bounds(1, 0, 0.5) == pytest.approx(0.158655, abs=1e-6)

    def test_upper_bounds_monte_carlo(self):
        # 2,750 hits of the event in 1M draws at seed 17, the count pinned
        # in test_harness.py::TestExtensionEventHits::test_single_cells
        samples = 1_000_000
        p = 2750 / samples
        se = standard_error(p, samples)
        for variant in (BERRY_ESSEEN, CHERNOFF):
            assert extension_probability_bounds(5, 15, 1.0, variant) >= p - 4.0 * se

    def test_dominance_spot_grid(self):
        samples = 200_000
        for (d, clipped, gamma) in [(1, 5, 0.5), (3, 10, 0.25), (8, 4, 2.0), (2, 30, 1.0)]:
            gen = np.random.Generator(np.random.PCG64(d * 31 + clipped))
            p = extension_event_hits(gen, gamma, [d], [clipped], samples)[0, 0] / samples
            b = extension_probability_bounds(d, clipped, gamma, BERRY_ESSEEN)
            assert b >= p - 4.0 * standard_error(p, samples)

    def test_scale_invariance_of_event(self):
        # the event probability depends on (mu, sigma) only through
        # gamma, so scaling both leaves the MC estimate put (and the
        # bound takes only gamma to begin with); the estimator draws
        # sigma = 1 only, so the sigma = 2 side is drawn here
        samples = 400_000
        gen = np.random.Generator(np.random.PCG64(5))
        p1 = extension_event_hits(gen, 0.8, [4], [12], samples)[0, 0] / samples
        gen = np.random.Generator(np.random.PCG64(6))
        mu = math.sqrt(2.0 * 0.8) * 2.0
        total = gen.normal(mu, 2.0, size=(samples, 4)).sum(axis=1)
        total += np.minimum(gen.normal(mu, 2.0, size=(samples, 12)), 0.0).sum(axis=1)
        p2 = float(np.mean(total <= 0.0))
        assert abs(p1 - p2) < 4.0 * (standard_error(p1, samples) + standard_error(p2, samples))

    def test_variant_ordering_grid(self):
        for d in (1, 3, 7):
            for clipped in (2, 11, 29):
                for gamma in (0.25, 1.0, 2.0):
                    be = extension_probability_bounds(d, clipped, gamma, BERRY_ESSEEN)
                    ch = extension_probability_bounds(d, clipped, gamma, CHERNOFF)
                    assert be <= ch + 1e-15
                    assert 0.0 <= be <= 1.0 and 0.0 <= ch <= 1.0

    def test_batched_equals_one_cell_calls(self):
        d, clipped = np.meshgrid(range(0, 11, 2), range(0, 31, 6), indexing="ij")
        for gamma in (0.25, 1.0):
            for variant in (BERRY_ESSEEN, CHERNOFF):
                got = extension_probability_bounds(d[1:], clipped[1:], gamma, variant)
                assert got.shape == d[1:].shape
                want = [[float(extension_probability_bounds(int(a), int(b), gamma, variant))
                         for a, b in zip(ra, rb)] for ra, rb in zip(d[1:], clipped[1:])]
                assert got.tolist() == want

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            extension_probability_bounds(0, 0, 1.0)
        with pytest.raises(DomainError):
            extension_probability_bounds([1, 0], [1, 0], 1.0)
        with pytest.raises(DomainError):
            extension_probability_bounds(2, 2, 0.0)

    def test_monotone_in_gaussian_count_mc(self):
        # the bounded probability itself decreases as Gaussians are added
        last = 1.1
        for d in range(1, 7):
            gen = np.random.Generator(np.random.PCG64(101))
            p = extension_event_hits(gen, 0.5, [d], [10], 300_000)[0, 0] / 300_000
            assert p < last
            last = p


class TestComplexityBounds:
    def test_block_high_snr_plateau(self, golay):
        value = gda_complexity_bound(golay, 10.0)
        assert 24.0 <= value <= 1.5 * 24.0

    def test_block_reference_level(self, golay):
        # matches the published curve for this code at 1 dB
        value = gda_complexity_bound(golay, 1.0)
        assert value == pytest.approx(1558.75, rel=1e-3)

    def test_block_lower_limit(self, golay, qr48):
        for code in (golay, qr48):
            for db in (-2.0, 3.0, 8.0):
                value = gda_complexity_bound(code, db)
                assert math.isfinite(value)
                assert value >= 2.0 * code.k

    def test_block_monotone_in_snr(self, golay):
        grid = [gda_complexity_bound(golay, db) for db in np.arange(-8.0, 10.5, 1.0)]
        assert all(a >= b - 1e-9 for a, b in zip(grid, grid[1:]))

    def test_conv_high_snr_plateau(self, conv_634_564):
        trellis = build_trellis(conv_634_564, 100)
        value = mlsda_complexity_bound(trellis, 10.0)
        assert 200.0 <= value <= 1.5 * 200.0

    def test_conv_variant_ordering_and_floor(self, conv_634_564):
        trellis = build_trellis(conv_634_564, 20)
        for db in (1.0, 4.0, 7.0):
            be = mlsda_complexity_bound(trellis, db, BERRY_ESSEEN)
            ch = mlsda_complexity_bound(trellis, db, CHERNOFF)
            assert be <= ch + 1e-9
            assert be >= 2.0 * trellis.L

    def test_conv_monotone_in_snr(self, conv_634_564):
        trellis = build_trellis(conv_634_564, 60)
        grid = [mlsda_complexity_bound(trellis, db) for db in np.arange(1.0, 11.5, 1.0)]
        assert all(a >= b - 1e-9 for a, b in zip(grid, grid[1:]))

    def test_absent_states_contribute_nothing(self, fig_trellis_code):
        # with L = 1 the only level summed is level 0, where just the
        # zero state exists; its term is exactly 1, so the whole bound
        # collapses to 2 at any SNR iff the three absent states add 0
        trellis = build_trellis(fig_trellis_code, 1)
        for db in (-5.0, 0.0, 6.0):
            assert mlsda_complexity_bound(trellis, db) == pytest.approx(2.0, abs=1e-12)


# (code, variant, SNR in dB) -> bound value, pinned by repr from the
# scalar-solve implementation; any change of the summation order or of a
# single tilt moves the last digits.
GOLDEN_BOUNDS = {
    ("golay", "be", 1.0): 1558.7480374617041,
    ("golay", "chernoff", 1.0): 1558.7480374617041,
    ("golay", "be", 4.0): 231.299279817183,
    ("golay", "chernoff", 4.0): 231.299279817183,
    ("golay", "be", 8.0): 29.581200497969224,
    ("golay", "chernoff", 8.0): 29.581200497969224,
    ("qr48", "be", 1.0): 839569.1707452103,
    ("qr48", "chernoff", 1.0): 839569.1707452103,
    ("qr48", "be", 4.5): 5230.717177310351,
    ("qr48", "chernoff", 4.5): 5230.717177310351,
    ("qr48", "be", 8.0): 82.96626929087269,
    ("qr48", "chernoff", 8.0): 82.96626929087269,
    ("657-L8", "be", 1.0): 44.292824913301104,
    ("657-L8", "chernoff", 1.0): 44.292824913301104,
    ("657-L8", "be", 4.0): 25.951586992442362,
    ("657-L8", "chernoff", 4.0): 25.951586992442362,
    ("657-L8", "be", 7.0): 16.728743540923787,
    ("657-L8", "chernoff", 7.0): 16.728743540923787,
    ("634-L100", "be", 2.0): 8575.836860020052,
    ("634-L100", "chernoff", 2.0): 8575.836860020052,
    ("634-L100", "be", 5.0): 901.6223475510969,
    ("634-L100", "chernoff", 5.0): 901.6223475510969,
    ("634-L100", "be", 8.0): 202.2030434006625,
    ("634-L100", "chernoff", 8.0): 202.2030434006625,
    ("m16-L100", "be", 4.0): 46555.030849048075,
    ("m16-L100", "chernoff", 4.0): 46555.32169456859,
}


def test_golden_bounds(golay, qr48, fig_trellis_code, conv_634_564, conv_m16):
    targets = {
        "golay": (gda_complexity_bound, golay),
        "qr48": (gda_complexity_bound, qr48),
        "657-L8": (mlsda_complexity_bound, build_trellis(fig_trellis_code, 8)),
        "634-L100": (mlsda_complexity_bound, build_trellis(conv_634_564, 100)),
        "m16-L100": (mlsda_complexity_bound, build_trellis(conv_m16, 100)),
    }
    variants = {"be": BERRY_ESSEEN, "chernoff": CHERNOFF}
    got = {}
    for name, kind, db in GOLDEN_BOUNDS:
        fn, target = targets[name]
        got[name, kind, db] = fn(target, db, variants[kind])
    assert got == GOLDEN_BOUNDS


class TestBoundVariant:
    def test_constant_default(self):
        assert IID_NORMAL_APPROX_CONSTANT == pytest.approx(0.7655)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            BoundVariant("both")
