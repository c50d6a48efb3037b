import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from seqdec.numerics import (
    DomainError,
    RngStream,
    bisect_root,
    gaussians_from_uniforms,
    log_binomial,
    log_std_normal_cdf,
    math_map,
    std_normal_cdf,
    stream_uniforms,
)


def gaussian_density(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_matches_quadrature(self):
        # independent oracle: adaptive integration of the density
        for x in (-3.0, -1.0, -0.3, 0.7, 2.5):
            want, err = quad(gaussian_density, -40.0, x)
            assert std_normal_cdf(x) == pytest.approx(want, abs=max(err, 1e-13))

    def test_minus_one_reference(self):
        assert std_normal_cdf(-1.0) == pytest.approx(0.15865525393145707, abs=1e-14)

    def test_tail_saturation(self):
        assert std_normal_cdf(40.0) == 1.0
        assert std_normal_cdf(-40.0) == 0.0

    @given(st.floats(-8.0, 8.0))
    def test_symmetry(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(-10.0, 10.0), st.floats(1e-6, 5.0))
    def test_monotone(self, x, dx):
        assert std_normal_cdf(x + dx) >= std_normal_cdf(x)


class TestLogStdNormalCdf:
    def test_center(self):
        assert log_std_normal_cdf(0.0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_deep_tail_finite(self):
        # reference value from 50-digit arithmetic (mpmath.log(mpmath.ncdf(-40)))
        assert log_std_normal_cdf(-40.0) == pytest.approx(-804.608442013754, abs=1e-9)

    def test_right_tail(self):
        # ln Phi(5) = ln(1 - Q(5)) with Q(5) from erfc
        q5 = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
        assert log_std_normal_cdf(5.0) == pytest.approx(math.log1p(-q5), rel=1e-12)
        assert log_std_normal_cdf(5.0) == pytest.approx(-2.8665157e-07, rel=1e-6)

    def test_agrees_with_linear_domain(self):
        for x in np.linspace(-5.0, 8.0, 53):
            assert math.exp(log_std_normal_cdf(x)) == pytest.approx(
                std_normal_cdf(x), rel=1e-12)

    def test_continuous_at_switchover(self):
        assert log_std_normal_cdf(-5.0 - 1e-12) == pytest.approx(
            log_std_normal_cdf(-5.0 + 1e-12), rel=1e-9)


class TestBisectRoot:
    @staticmethod
    def one(f, lo, hi):
        """bisect_root on the one-element brackets [lo] and [hi]."""
        return bisect_root(f, np.array([lo]), np.array([hi]))[0]

    def test_linear(self):
        assert self.one(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt2(self):
        root = self.one(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_no_sign_change(self):
        assert math.isnan(self.one(lambda x: x * x + 1.0, -1.0, 1.0))

    def test_tilt_equation_instance(self, scalar_residual):
        # the root solver's main customer: grid-scan oracle shows exactly
        # one sign change in [0, sqrt(2 gamma)) for d=20, n=100, gamma=0.5
        gamma, ratio = 0.5, 0.2
        s = math.sqrt(2.0 * gamma)

        def resid(lam):
            return scalar_residual(lam, ratio, gamma)

        grid = np.linspace(0.0, s - 1e-9, 10_000)
        vals = np.array([resid(x) for x in grid])
        changes = np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))
        assert changes == 1
        root = self.one(lambda x: np.array([resid(v) for v in x.tolist()]), 0.0, s - 1e-9)
        lo = grid[np.flatnonzero(np.diff(np.sign(vals)))[0]]
        assert lo <= root <= lo + grid[1]

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=30)
    def test_monotone_bracket_property(self, shift):
        f = lambda x: (x - shift) ** 3 + (x - shift)
        root = self.one(f, shift - 4.0, shift + 5.0)
        assert f(root - 1e-10) * f(root + 1e-10) <= 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 4.0),
                              st.sampled_from(["lo", "hi", "mid", "inside", "outside"]),
                              st.floats(0.0, 1.0)),
                    min_size=1, max_size=20))
    def test_elementwise_matches_scalar(self, scalar_bisect, cases):
        # f(x) = x - c per element, with c at an endpoint (f exactly 0
        # there), at the bracket's first midpoint, inside or outside it
        lo, hi, c = [], [], []
        for a, width, kind, u in cases:
            b = a + width
            lo.append(a)
            hi.append(b)
            c.append({"lo": a, "hi": b, "mid": 0.5 * (a + b), "inside": a + u * (b - a),
                      "outside": b + 1.0 + u}[kind])
        lo, hi, c = np.array(lo), np.array(hi), np.array(c)
        got = bisect_root(lambda x: x - c, lo, hi).tolist()
        for lam, a, b, root in zip(got, lo.tolist(), hi.tolist(), c.tolist()):
            try:
                want = scalar_bisect(lambda x: x - root, a, b)
            except ArithmeticError:  # the reference's NoSignChange
                assert math.isnan(lam)
            else:
                assert lam.hex() == want.hex()

    def test_elementwise_stalled_bracket(self, scalar_bisect):
        # the root lies halfway between two adjacent floats near 1e6, whose
        # step 2^-33 exceeds 1e-12: the bracket stops shrinking there and
        # the search ends after its 200 halvings
        def f(x):
            return (x - 1e6) - 2.0 ** -34

        want = scalar_bisect(f, 1e6, 1e6 + 1.0)
        assert bisect_root(f, np.array([1e6]), np.array([1e6 + 1.0]))[0] == want
        assert abs(want - 1e6) <= 2.0 ** -33


class TestElementwise:
    GRID = np.concatenate((np.linspace(-40.0, 10.0, 2001),
                           [-5.0, -5.0 - 1e-15, -5.0 + 1e-15, np.inf, np.nan]))

    def test_math_map(self):
        x = np.array([[0.0, 1.0], [2.0, -1.0]])
        assert math_map(math.exp, x).tolist() == [[math.exp(v) for v in row] for row in x.tolist()]
        with pytest.raises(OverflowError):
            math_map(math.exp, [1000.0])

    def test_cdf_equals_scalar_calls(self):
        got = std_normal_cdf(self.GRID).tolist()
        assert [v.hex() for v in got] == [std_normal_cdf(x).hex() for x in self.GRID.tolist()]

    def test_log_cdf_equals_scalar_reference(self, scalar_log_cdf):
        got = log_std_normal_cdf(self.GRID).tolist()
        assert [v.hex() for v in got] == [scalar_log_cdf(x).hex() for x in self.GRID.tolist()]
        assert isinstance(log_std_normal_cdf(-6.0), float)
        # ln 0 raises in both, as math.log does
        with pytest.raises(ValueError):
            scalar_log_cdf(-math.inf)
        with pytest.raises(ValueError):
            log_std_normal_cdf(np.array([0.0, -math.inf]))

    def test_log_binomial_equals_lgamma_formula(self):
        n, d = np.tril_indices(60)
        want = [math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
                for a, b in zip(n.tolist(), d.tolist())]
        assert log_binomial(n, d).tolist() == want
        with pytest.raises(DomainError):
            log_binomial(np.array([3, 4]), np.array([1, 5]))


class TestLogBinomial:
    def test_edge(self):
        assert log_binomial(5, 0) == pytest.approx(0.0, abs=1e-12)

    def test_central_value(self):
        # math.comb is the exact big-integer oracle
        assert log_binomial(24, 12) == pytest.approx(math.log(math.comb(24, 12)), rel=1e-12)
        assert math.comb(24, 12) == 2704156

    def test_large_against_bigint(self):
        assert log_binomial(47, 23) == pytest.approx(math.log(math.comb(47, 23)), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_binomial(4, 5)

    @given(st.integers(1, 40), st.integers(0, 40))
    def test_pascal_identity(self, n, d):
        if d > n - 1:
            d = d % n if n > 1 else 0
        lhs = log_binomial(n, d) if 0 <= d <= n else None
        if 1 <= d <= n - 1:
            rhs = np.logaddexp(log_binomial(n - 1, d - 1), log_binomial(n - 1, d))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestRngStream:
    def test_determinism(self):
        a = RngStream(123456789).gaussians(1000)
        b = RngStream(123456789).gaussians(1000)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(1).gaussians(8)
        b = RngStream(2).gaussians(8)
        assert not np.array_equal(a, b)

    def test_moments(self):
        z = RngStream(99).gaussians(1_000_000)
        assert abs(z.mean()) < 4e-3
        assert abs(z.var() - 1.0) < 0.01

    def test_stddev_scaling(self):
        a = RngStream(7).gaussians(64, 1.0)
        b = RngStream(7).gaussians(64, 2.0)
        assert np.allclose(2.0 * a, b)

    def test_scalar_matches_vector_stream(self):
        a = RngStream(11)
        b = RngStream(11)
        singles = np.concatenate([a.gaussians(1) for _ in range(6)])
        assert np.allclose(singles, b.gaussians(6))

    def test_bad_stddev(self):
        with pytest.raises(DomainError):
            RngStream(1).gaussians(1, 0.0)

    def test_bits_balanced(self):
        bits = RngStream(3).bits(100_000)
        assert abs(bits.mean() - 0.5) < 0.01


class TestOutArrays:
    # a batch written to out=, a view of the first rows of a larger buffer
    # holding a stale earlier batch and NaN, equals the call without out=
    # bit for bit, and the rows past the view keep what they held

    def test_stream_uniforms(self, stale):
        earlier = stream_uniforms(range(100, 140), 50)
        buffer = stale(earlier)
        got = stream_uniforms(range(7, 30), 50, out=buffer[:23])
        assert np.shares_memory(got, buffer)
        assert got.tobytes() == stream_uniforms(range(7, 30), 50).tobytes()
        assert buffer[23:40].tobytes() == earlier[23:].tobytes() and np.isnan(buffer[40:]).all()
        with pytest.raises(ValueError):
            stream_uniforms(range(3), 50, out=buffer[:4])

    def test_gaussians_from_uniforms(self, stale):
        earlier = gaussians_from_uniforms(stream_uniforms(range(40), 66), 0.7)
        buffer = stale(earlier)
        u = stream_uniforms(range(50, 70), 66)
        got = gaussians_from_uniforms(u, 0.7, out=buffer[:20])
        assert np.shares_memory(got, buffer)
        assert got.tobytes() == gaussians_from_uniforms(u, 0.7).tobytes()
        assert buffer[20:40].tobytes() == earlier[20:].tobytes() and np.isnan(buffer[40:]).all()
        # one row alone, as RngStream.gaussians draws it
        row = np.full(33, np.nan)
        assert (gaussians_from_uniforms(u[3], 0.7, out=row).tobytes()
                == RngStream(53).gaussians(33, 0.7).tobytes() == got[3].tobytes())
