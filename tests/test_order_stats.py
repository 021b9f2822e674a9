import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import beta
from scipy.stats import kstest

from noma_tdma import (
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

    def test_constants(self):
        cfg = PairingConfig(10, 2, 7, 100.0)
        assert cfg.w1 == math.factorial(10) // (
            math.factorial(1) * math.factorial(4) * math.factorial(3))
        assert cfg.w3 == math.factorial(10) // (
            math.factorial(6) * math.factorial(3))
        # u = exp(-x/rho) and s = exp(-(y-x)/rho) are independent Betas
        assert cfg.u_shape == (9, 2) and cfg.s_shape == (4, 5)
        assert cfg.w1 * beta(*cfg.u_shape) * beta(*cfg.s_shape) == \
            pytest.approx(1.0, rel=1e-14)


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
        class ZeroSpacingsFirst:
            """Draws 1, except 0 for the spacings past the m-th on the first
            pass, so that every first pair has y == x."""

            def __init__(self, cfg):
                self.cfg, self.calls = cfg, 0

            def standard_exponential(self, size):
                self.calls += 1
                zero = self.calls <= self.cfg.n and self.calls > self.cfg.m
                return np.zeros(size) if zero else np.ones(size)

        cfg = PairingConfig(10, 2, 7, 100.0)
        rng = ZeroSpacingsFirst(cfg)
        x, y = sample_pairs(cfg, rng, 5)
        assert np.all(x < y)
        assert rng.calls == 2 * cfg.n

    def test_mean_of_max_of_two(self):
        cfg = PairingConfig(2, 1, 2, 1.0)
        _, y = sample_pairs(cfg, np.random.default_rng(7), 200_000)
        se = y.std() / math.sqrt(len(y))
        assert abs(y.mean() - 1.5) <= 3 * se

    @pytest.mark.parametrize("M,m,n", [(10, 1, 10), (200, 5, 6)])
    def test_marginal_ks(self, M, m, n):
        cfg = PairingConfig(M, m, n, 316.0)
        _, y = sample_pairs(cfg, np.random.default_rng(8), 100_000)
        ks = kstest(y, lambda t: marginal_cdf_n(t, cfg)).statistic
        assert ks < 1.628 / math.sqrt(len(y))  # 1% critical value
