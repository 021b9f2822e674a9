import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import beta
from scipy.stats import beta as beta_dist, kstest

from noma_tdma.order_stats import (
    PairingConfig,
    joint_pdf,
    marginal_cdf_n,
    sample_pairs,
)


class TestPairingConfig:
    def test_invariants(self):
        PairingConfig(10, 1, 10, 316.0)
        with pytest.raises(ValueError):
            PairingConfig(1, 1, 1, 1.0)  # m = n disallowed
        with pytest.raises(ValueError):
            PairingConfig(10, 5, 5, 1.0)
        with pytest.raises(ValueError):
            PairingConfig(10, 0, 3, 1.0)
        with pytest.raises(ValueError):
            PairingConfig(10, 1, 11, 1.0)
        with pytest.raises(ValueError):
            PairingConfig(10, 1, 2, -1.0)
        with pytest.raises(ValueError):
            PairingConfig(10.0, 1, 2, 1.0)  # M must be an int
        # rho up to 1e300 (3000 dB), where no drawn or integrated x or y
        # overflows; NaN fails the check too
        PairingConfig(10, 1, 2, 1e300)
        for rho in (1e301, 1e308, math.inf, math.nan):
            with pytest.raises(ValueError, match="rho <= 1e300"):
                PairingConfig(10, 1, 2, rho)

    def test_constants(self):
        cfg = PairingConfig(10, 2, 7, 100.0)
        # u = exp(-x/rho) and s = exp(-(y-x)/rho) are independent Betas
        assert cfg.u_shape == (9, 2) and cfg.s_shape == (4, 5)
        # their normalisers make up the textbook joint order-statistic one,
        # w1 F(x)^(m-1) (F(y)-F(x))^(n-m-1) (1-F(y))^(M-n) f(x) f(y)
        w1 = math.factorial(10) // (
            math.factorial(1) * math.factorial(4) * math.factorial(3))
        assert w1 * beta(*cfg.u_shape) * beta(*cfg.s_shape) == \
            pytest.approx(1.0, rel=1e-14)
        x, y = 30.0, 120.0
        F = lambda t: -math.expm1(-t / 100.0)
        f = lambda t: math.exp(-t / 100.0) / 100.0
        assert joint_pdf(x, y, cfg) == pytest.approx(
            w1 * F(x) * (F(y) - F(x))**4 * (1 - F(y))**3 * f(x) * f(y),
            rel=1e-13, abs=0.0)


class TestJointPdf:
    def test_two_user_case(self):
        # M=2, m=1, n=2, rho=1: pdf(x, y) = 2 e^(-x) e^(-y) on x < y
        cfg = PairingConfig(2, 1, 2, 1.0)
        assert joint_pdf(0.5, 1.0, cfg) == pytest.approx(
            2.0 * math.exp(-1.5), rel=1e-13)

    def test_support(self):
        cfg = PairingConfig(5, 2, 4, 2.0)
        assert joint_pdf(3.0, 1.0, cfg) == 0.0
        assert joint_pdf(1.0, 1.0, cfg) == 0.0
        with pytest.raises(ValueError):
            joint_pdf(-1.0, 2.0, cfg)
        with pytest.raises(ValueError):
            joint_pdf(1.0, 0.0, cfg)

    @pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.nan),
                                      ([0.5, math.nan], 1.0)])
    def test_nan_raises(self, x, y):
        with pytest.raises(ValueError):
            joint_pdf(x, y, PairingConfig(10, 2, 7, 100.0))

    def test_large_population(self):
        # 1/(B(u_shape) B(s_shape)) overflows a float at M = 700; compare with
        # the two Beta densities times the Jacobian u s / rho^2
        cfg = PairingConfig(700, 233, 466, 300.0)
        x, y = 50.0, 400.0
        u, s = math.exp(-x / cfg.rho), math.exp(-(y - x) / cfg.rho)
        expect = (beta_dist.pdf(u, *cfg.u_shape) * beta_dist.pdf(s, *cfg.s_shape)
                  * u * s / cfg.rho**2)
        assert joint_pdf(x, y, cfg) == pytest.approx(expect, rel=1e-9, abs=0.0)

    def test_endpoint_exponents(self):
        # x/rho underflows to 0, so u = 1 and log(1 - u) = -inf: a Beta term
        # with exponent 0 counts as 0 log 0 = 0, any other makes the density
        # 0, both without a warning
        x, y = 5e-324, 1.0
        assert joint_pdf(x, y, PairingConfig(2, 1, 2, 10.0)) == pytest.approx(
            0.02 * math.exp(-0.1), rel=1e-13, abs=0.0)
        assert joint_pdf(x, y, PairingConfig(5, 2, 4, 10.0)) == 0.0

    def test_small_x_keeps_its_digits(self):
        # at x/rho = 1e-10, 1 - u from a rounded u = exp(-x/rho) is 8e-8 off
        cfg = PairingConfig(5, 2, 4, 10.0)
        x, y = 1e-9, 7.0
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            F = lambda t: -mp.expm1(-mp.mpf(t) / 10)
            f = lambda t: mp.exp(-mp.mpf(t) / 10) / 10
            # M! / ((m-1)! (n-m-1)! (M-n)!) = 120
            expect = float(120 * F(x) * (F(y) - F(x)) * (1 - F(y)) * f(x) * f(y))
        assert joint_pdf(x, y, cfg) == pytest.approx(expect, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("M,m,n", [(2, 1, 2), (10, 2, 7), (10, 5, 6)])
    def test_normalization(self, M, m, n):
        cfg = PairingConfig(M, m, n, 3.0)
        mass, _ = dblquad(lambda y, x: joint_pdf(x, y, cfg),
                          0.0, np.inf, lambda x: x, np.inf,
                          epsabs=1e-10, epsrel=1e-10)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_marginal_consistency(self):
        # integrating the joint pdf over x recovers the derivative of the
        # n-th order-statistic CDF
        cfg = PairingConfig(6, 2, 4, 2.0)
        h = 1e-4
        for y in (0.7, 1.5, 4.0):
            dens, _ = quad(lambda x: joint_pdf(x, y, cfg), 1e-14, y,
                           epsabs=1e-12, epsrel=1e-10)
            fd = (marginal_cdf_n(y + h, cfg) - marginal_cdf_n(y - h, cfg)) / (2 * h)
            assert dens == pytest.approx(fd, rel=1e-4)


class TestMarginalCdf:
    def test_endpoints(self):
        cfg = PairingConfig(10, 3, 8, 2.0)
        assert marginal_cdf_n(0.0, cfg) == 0.0
        assert marginal_cdf_n(1e6, cfg) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [math.nan, [1.0, math.nan], -1.0])
    def test_outside_domain_raises(self, t):
        with pytest.raises(ValueError):
            marginal_cdf_n(t, PairingConfig(10, 2, 7, 100.0))

    def test_two_user_binomial(self):
        # M=2, n=2, rho=1, t=ln 2: F = 1/2, CDF = F^2 = 1/4
        cfg = PairingConfig(2, 1, 2, 1.0)
        assert marginal_cdf_n(math.log(2.0), cfg) == pytest.approx(0.25, rel=1e-12)

    def test_monotone(self):
        cfg = PairingConfig(8, 2, 5, 3.0)
        t = np.linspace(0.0, 30.0, 200)
        c = marginal_cdf_n(t, cfg)
        assert np.all(np.diff(c) >= 0.0)


class TestSampler:
    def test_ordering_and_determinism(self):
        cfg = PairingConfig(10, 2, 7, 100.0)
        x1, y1 = sample_pairs(cfg, np.random.default_rng(5), 10_000)
        x2, y2 = sample_pairs(cfg, np.random.default_rng(5), 10_000)
        assert np.all(x1 < y1)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_single_pair(self):
        cfg = PairingConfig(4, 1, 3, 10.0)
        x, y = sample_pairs(cfg, np.random.default_rng(6), 1)
        assert 0.0 < x[0] < y[0]

    def test_rounded_ties_are_redrawn(self):
        class ZeroRunFirst:
            """Draws 1/2 for a uniform and 1 for a gamma, except 0 on the
            listed calls of the first pass, which make every first pair's
            y - x zero (a uniform U = 0 is a zero spacing), so y == x."""

            def __init__(self, zero):
                self.zero, self.calls = zero, 0

            def _draw(self, out, value):
                self.calls += 1
                out[...] = 0.0 if self.calls in self.zero else value
                return out

            def random(self, out):
                return self._draw(out, 0.5)

            def standard_gamma(self, shape, out):
                return self._draw(out, 1.0)

        for cfg, zero, per_pass in [
            # x then y - x as sums of spacings: uniforms 3-7 are y - x
            (PairingConfig(10, 2, 7, 100.0), {3, 4, 5, 6, 7}, 7),
            # x one spacing, y - x one uniform by inversion: draw 2 is U
            (PairingConfig(10, 1, 10, 100.0), {2}, 2),
            # both runs gamma ratios: draw 3 is the numerator of y - x
            (PairingConfig(30, 10, 20, 100.0), {3}, 4),
        ]:
            rng = ZeroRunFirst(zero)
            x, y = sample_pairs(cfg, rng, 5)
            assert np.all(0.0 < x) and np.all(x < y)
            assert rng.calls == 2 * per_pass

    # sums of 2 and 5 spacings, a single spacing and an inversion, sums of
    # 8 spacings, and two gamma ratios
    @pytest.mark.parametrize("M,m,n", [(10, 2, 7), (10, 1, 10), (20, 8, 16),
                                       (30, 10, 20)])
    def test_caller_buffer_gives_the_same_pairs(self, M, m, n):
        cfg = PairingConfig(M, m, n, 100.0)
        for size in (1000, 700):
            x, y = sample_pairs(cfg, np.random.default_rng(9), size)
            buf = np.full((3, 1000), np.nan)
            bx, by = sample_pairs(cfg, np.random.default_rng(9), size, buf)
            assert x.tobytes() == bx.tobytes() and y.tobytes() == by.tobytes()
            assert np.shares_memory(bx, buf[0]) and np.shares_memory(by, buf[1])
            assert np.isnan(buf[:, size:]).all()

    def test_caller_buffer_must_fit(self):
        cfg = PairingConfig(10, 2, 7, 100.0)
        for buf in (np.empty((3, 9)), np.empty((2, 10)), np.empty(30),
                    np.empty((3, 10), dtype=np.float32)):
            with pytest.raises(ValueError):
                sample_pairs(cfg, np.random.default_rng(1), 10, buf)

    def test_mean_of_max_of_two(self):
        cfg = PairingConfig(2, 1, 2, 1.0)
        _, y = sample_pairs(cfg, np.random.default_rng(7), 200_000)
        se = y.std() / math.sqrt(len(y))
        assert abs(y.mean() - 1.5) <= 3 * se

    @pytest.mark.parametrize("M,m,n", [(10, 1, 10), (200, 5, 6), (10, 2, 7)])
    def test_marginal_ks(self, M, m, n):
        # x, the m-th order statistic, is the n-th of the pairing (M, m-1, m);
        # at (10,2,7) both runs are sums of spacings
        cfg = PairingConfig(M, m, n, 316.0)
        x, y = sample_pairs(cfg, np.random.default_rng(8), 100_000)
        crit = 1.628 / math.sqrt(len(y))  # 1% critical value
        assert kstest(y, lambda t: marginal_cdf_n(t, cfg)).statistic < crit
        if m > 1:
            cfg_x = PairingConfig(M, m - 1, m, 316.0)
            assert kstest(x, lambda t: marginal_cdf_n(t, cfg_x)).statistic \
                < crit
