import logging
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

import seqdec
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


def running_totals(total, terms, counts, starts):
    """np.cumsum from total over each term repeated counts times, read at
    the end of every level."""
    sums = np.cumsum(np.concatenate(([total], np.repeat(terms, counts))))
    ends = np.append(starts[1:], len(terms))
    return sums[np.cumsum(counts)[ends - 1]]


def levels_of(rows):
    """(row, distinct, counts) per level, as Trellis.dstar_levels has them."""
    levels = []
    for row in rows:
        distinct, counts = np.unique(row, return_counts=True)
        levels.append((np.asarray(row), distinct, counts))
    return levels


def one_by_one(levels, terms):
    """Each state's term added to a Python float in (level, state) order."""
    total, first = 0.0, 0
    for row, distinct, _ in levels:
        term = dict(zip(distinct.tolist(), terms[first:first + len(distinct)].tolist()))
        first += len(distinct)
        for value in row.tolist():
            total += term[value]
    return total


class TestBinadeLevels:
    U = 2.0 ** -52  # the float step in [1, 2)

    def check(self, total, terms, counts, starts, taken):
        terms, counts, starts = (np.asarray(x) for x in (terms, counts, starts))
        got = bounds._binade_levels(total, terms, counts, starts)
        assert got[0] == taken
        want = running_totals(total, terms, counts, starts)
        assert got[1] == (want[taken - 1] if taken else total)
        if taken:  # the order of the run's terms does not move its sum
            run = np.repeat(terms, counts)[:counts[:np.append(starts, len(terms))[taken]].sum()]
            shuffled = np.random.default_rng(7).permutation(run)
            assert np.cumsum(np.concatenate(([total], shuffled)))[-1] == got[1]

    def test_sums_within_a_binade(self):
        terms = [0.3 * self.U, 0.7 * self.U, 1.49 * self.U, 0.125, 1e-5, 2.6 * self.U]
        self.check(1.0, terms, [3, 5, 1, 2, 400, 7], [0, 2, 4], 3)

    def test_a_tie_stops_the_run(self):
        # half a step rounds to even: from 1 it adds nothing, from 1 + u
        # a whole step, so the closed form cannot know it
        assert 1.0 + self.U / 2 == 1.0 and (1.0 + self.U) + self.U / 2 == 1.0 + 2 * self.U
        self.check(1.0, [self.U / 2], [1], [0], 0)
        self.check(1.0, [0.3 * self.U, 2.5 * self.U, 0.1], [2, 1, 1], [0, 1], 1)
        # from 2 the step is 2u, so 3u is a tie there
        self.check(2.0, [1.5 * self.U * 2], [4], [0], 0)

    def test_totals_just_below_a_power_of_two(self):
        top = np.nextafter(2.0, 0.0)  # one step below 2
        self.check(top, [0.49 * self.U], [1 << 16], [0], 1)  # each rounds back to top
        self.check(top, [0.51 * self.U], [1], [0], 0)  # a whole step reaches 2
        self.check(np.nextafter(1024.0, 0.0), [1e-20, 1e-14], [3, 5], [0, 1], 2)
        self.check(np.nextafter(1024.0, 0.0), [1e-20, 1e-12], [3, 5], [0, 1], 1)

    def test_runs_that_leave_the_binade(self):
        # levels of 0.25 from 1: the fourth reaches 2
        self.check(1.0, [0.25] * 6, [1] * 6, list(range(6)), 3)
        # one level that crosses several binades, and a run that crosses
        # one in its third level
        self.check(1.0, [0.3], [1 << 16], [0], 0)
        self.check(3.0, [1e-3, 2e-3, 0.75, 1e-3], [100, 100, 1, 7], [0, 1, 2, 3], 2)
        # a term of at least the total always leaves the binade
        self.check(1.5, [1.5], [1], [0], 0)
        self.check(1.5, [4.0, 0.0], [1, 1], [0, 1], 0)

    def test_zero_and_subnormal_terms(self):
        tiny = np.finfo(float).tiny
        terms = [0.0, 5e-324, tiny / 3, tiny, 1e-300]
        self.check(1.0, terms, [1 << 16, 9, 2, 5, 1], [0, 2, 4], 3)
        self.check(tiny, [0.0, 5e-324, tiny / 3, tiny / 4], [4, 1, 1, 2], [0, 3], 2)
        self.check(2.0 ** 60, [1e-300, 5e-324], [3, 3], [0, 1], 2)  # scaled below the grid

    def test_zero_or_subnormal_total_takes_no_level(self):
        for total in (0.0, 5e-324, np.finfo(float).tiny / 2):
            self.check(total, [1e-310, 0.25], [1, 1], [0, 1], 0)

    def test_many_copies_of_one_term(self):
        for total, term in ((1000.0, 1e-4), (1.0, 1.0 / 3.0 * 2.0 ** -17), (1e6, 0.1234567)):
            n = 1 << 16
            taken = int(total + n * term < 2.0 ** math.frexp(total)[1])
            self.check(total, [term], [n], [0], taken)

    def test_random_levels_equal_cumsum(self):
        rng = np.random.default_rng(3)
        taken = []
        for _ in range(300):
            levels = int(rng.integers(1, 6))
            sizes = rng.integers(1, 8, levels)
            terms = rng.random(sizes.sum()) * 10.0 ** rng.integers(-18, 1, sizes.sum())
            counts = rng.integers(1, 1 << 16, sizes.sum())
            total = float(rng.random() * 2.0 ** rng.integers(-3, 20))
            starts = np.cumsum(sizes) - sizes
            got = bounds._binade_levels(total, terms, counts, starts)
            want = running_totals(total, terms, counts, starts)
            assert got[1] == (want[got[0] - 1] if got[0] else total)
            taken.append(got[0] == levels)
        assert 0 < sum(taken) < len(taken)  # both whole runs and cut ones


class TestLevelSum:
    @pytest.fixture
    def paths(self, monkeypatch):
        """(levels in a run, levels it took) of each closed-form step."""
        real, steps = bounds._binade_levels, []

        def recorded(total, terms, counts, starts):
            taken, total = real(total, terms, counts, starts)
            steps.append((len(starts), taken))
            return taken, total

        monkeypatch.setattr(bounds, "_binade_levels", recorded)
        return steps

    def test_closed_form_crossing_and_tie_levels(self, paths):
        u = 2.0 ** -52
        rows = [[0], [0, 1], [0] * 8 + [1] * 8, [0] * 20 + [2] * 20,
                [1] * 30 + [0] * 10, [0] * 64, [0] * 40 + [1] * 40]
        terms = np.array([1.0,  # from a zero total: one by one, total 1
                          0.25, 0.125,  # closed form within [1, 2): total 1.375
                          1e-6, 3e-9,  # closed form
                          1e-3, 2e-5,  # closed form
                          0.1, 1e-7,  # crosses 2: one by one
                          u,  # a tie in [2, 4): one by one
                          1e-9, 2e-9])  # closed form to the end
        levels = levels_of(rows)
        assert bounds._level_sum(levels, terms) == one_by_one(levels, terms)
        assert paths == [(7, 0), (6, 3), (2, 0), (1, 1)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 200), st.integers(1, 4), st.integers(-20, 0)),
                    min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_equals_one_by_one(self, shapes, seed):
        rng = np.random.default_rng(seed)
        rows, terms = [], []
        for states, values, scale in shapes:
            rows.append(rng.integers(0, values, states))
            distinct = np.unique(rows[-1])
            # whole multiples of a power of two make ties likely
            terms += (np.round(rng.random(len(distinct)) * 8) / 8 * 2.0 ** scale).tolist()
        levels = levels_of(rows)
        assert bounds._level_sum(levels, np.array(terms)) == one_by_one(levels, np.array(terms))

    def test_memory16_levels_take_the_closed_form(self, conv_m16, paths):
        # the point of the binade rule: most memory-16 levels skip the
        # 65,536-term cumulative sum
        mlsda_complexity_bound(build_trellis(conv_m16, 100), 4.0)
        assert sum(taken for _, taken in paths) >= 80


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

    def test_looks_up_the_one_member_of_each_kind(self):
        # the package's names and a lookup by kind give the same members
        assert BoundVariant("be") is BERRY_ESSEEN is seqdec.BERRY_ESSEEN
        assert BoundVariant("chernoff") is CHERNOFF is seqdec.CHERNOFF
        assert list(BoundVariant) == [BERRY_ESSEEN, CHERNOFF]


def test_no_valid_constant_mends_the_known_red_criteria(monkeypatch, conv_634_564):
    # Below its clamp at 1 the prefactor is affine in the Berry-Esseen
    # constant C: first term + C * slope.  Criteria 1 and 10 of
    # tests/test_acceptance.py fail for every C at or above Esseen's lower
    # limit, so only another construction of the prefactor could mend them.
    esseen = (math.sqrt(10.0) + 3.0) / (6.0 * math.sqrt(2.0 * math.pi))

    def at(constant, fn, *args):
        monkeypatch.setattr(bounds, "IID_NORMAL_APPROX_CONSTANT", constant)
        return fn(*args)

    # criterion 10: d = 40 of n = 200 at -3 dB wants a prefactor below 1
    gamma = 10.0 ** -0.3
    cell = (subexponential_factor, 40, 160, gamma, solve_tilt(40, 200, gamma), BERRY_ESSEEN)
    first, tenth = at(0.0, *cell), at(0.1, *cell)
    assert tenth < 1.0  # both below the clamp
    slope = (tenth - first) / 0.1
    second = slope * IID_NORMAL_APPROX_CONSTANT
    least = (1.0 - first) / slope
    assert (first, second, first + second) == pytest.approx((0.7959, 0.4222, 1.2181), abs=1e-4)
    assert least == pytest.approx(0.3700, abs=1e-4)
    assert esseen == pytest.approx(0.4097, abs=1e-4)
    assert least < esseen

    # criterion 1: the (2,1,6) L=100 ratio of BE over Chernoff wants
    # 0.86 and 0.90 (+- 0.03) at 4.0 and 4.5 dB; at C = 0 it is already
    # above those bands, and the BE bound only grows with C
    trellis = build_trellis(conv_634_564, 100)
    for db, top, want in ((4.0, 0.89, 0.9829), (4.5, 0.93, 0.9592)):
        chernoff = mlsda_complexity_bound(trellis, db, CHERNOFF)
        ratio = at(0.0, mlsda_complexity_bound, trellis, db, BERRY_ESSEEN) / chernoff
        assert ratio == pytest.approx(want, abs=1e-4)
        assert top < ratio <= at(esseen, mlsda_complexity_bound, trellis, db,
                                 BERRY_ESSEEN) / chernoff
