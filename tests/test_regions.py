import math

import numpy as np
import pytest

from noma_tdma import (
    ChannelPair,
    InfeasibleSplitError,
    PowerSplit,
    RatePair,
    TimeSplit,
    noma_arc_z_max,
    noma_boundary,
    noma_rate_pair,
    region_boundary_samples,
    single_user_rates,
    tdma_boundary,
    tdma_rate_pair,
)
from noma_tdma.regions import f_noma_slope


CH13 = ChannelPair(1.0, 3.0)


class TestDomainTypes:
    def test_channel_ordering_enforced(self):
        with pytest.raises(ValueError):
            ChannelPair(3.0, 1.0)
        with pytest.raises(ValueError):
            ChannelPair(2.0, 2.0)  # ties violate strict degradedness
        with pytest.raises(ValueError):
            ChannelPair(0.0, 1.0)
        with pytest.raises(ValueError):
            ChannelPair(1.0, math.inf)

    def test_power_split_sums_exactly(self):
        p = PowerSplit(0.3)
        assert p.a1 + p.a2 == 1.0
        with pytest.raises(ValueError):
            PowerSplit(1.2)
        with pytest.raises(ValueError):
            PowerSplit(-0.1)

    def test_noma_feasibility(self):
        PowerSplit(0.5).require_noma()  # boundary split is admitted
        with pytest.raises(InfeasibleSplitError):
            PowerSplit(0.6).require_noma()

    def test_time_split(self):
        t = TimeSplit(0.25)
        assert t.b1 == 0.75
        with pytest.raises(ValueError):
            TimeSplit(1.5)

    def test_rate_pair_nonnegative(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 0.5)


class TestSingleUserRates:
    def test_basic(self):
        assert single_user_rates(CH13) == (1.0, 2.0)
        assert single_user_rates(ChannelPair(3.0, 15.0)) == (2.0, 4.0)

    def test_zero_snr_limit(self):
        r1, r2 = single_user_rates(ChannelPair(1e-12, 3.0))
        assert 0.0 < r1 < 2e-12
        assert r2 == 2.0


class TestNomaRatePair:
    def test_quarter_split(self):
        pt = noma_rate_pair(CH13, PowerSplit(0.25))
        assert pt.r1 == pytest.approx(math.log2(1.6), abs=1e-12)  # 0.67807
        assert pt.r2 == pytest.approx(math.log2(1.75), abs=1e-12)  # 0.80735

    def test_all_power_to_weak_user(self):
        pt = noma_rate_pair(CH13, PowerSplit(0.0))
        assert (pt.r1, pt.r2) == (1.0, 0.0)

    def test_half_split_is_point_f(self):
        pt = noma_rate_pair(CH13, PowerSplit(0.5))
        assert pt.r1 == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)
        assert pt.r2 == pytest.approx(math.log2(2.5), abs=1e-12)

    def test_infeasible_split(self):
        with pytest.raises(InfeasibleSplitError):
            noma_rate_pair(CH13, PowerSplit(0.75))

    def test_point_lies_on_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(0.05, 40.0)
            ch = ChannelPair(x, x * (1 + rng.uniform(0.01, 20.0)))
            pt = noma_rate_pair(ch, PowerSplit(rng.uniform(0.0, 0.5)))
            assert abs(pt.r1 - noma_boundary(pt.r2, ch)) <= 1e-10


class TestTdmaRatePair:
    @pytest.mark.parametrize("b2,expected", [
        (0.5, (0.5, 1.0)),
        (1.0, (0.0, 2.0)),
        (0.0, (1.0, 0.0)),
    ])
    def test_examples(self, b2, expected):
        pt = tdma_rate_pair(CH13, TimeSplit(b2))
        assert (pt.r1, pt.r2) == pytest.approx(expected, abs=1e-12)


class TestBoundaries:
    def test_noma_endpoints_and_midpoint(self):
        assert noma_boundary(0.0, CH13) == pytest.approx(1.0, abs=1e-12)
        assert noma_boundary(2.0, CH13) == pytest.approx(0.0, abs=1e-12)
        assert noma_boundary(1.0, CH13) == pytest.approx(math.log2(1.5), abs=1e-12)

    def test_tdma_linear(self):
        assert tdma_boundary(0.0, CH13) == pytest.approx(1.0, abs=1e-12)
        assert tdma_boundary(2.0, CH13) == pytest.approx(0.0, abs=1e-12)
        assert tdma_boundary(1.0, CH13) == pytest.approx(0.5, abs=1e-12)

    def test_capacity_matches_noma_curve(self):
        z = math.log2(2.5)  # a2 = 1/2 point
        assert noma_boundary(z, CH13) == pytest.approx(
            math.log2(4.0 / 3.0), abs=1e-12)
        # the capacity boundary is the NOMA curve over all of [0, R2*]
        pts = region_boundary_samples("capacity", CH13, 3)
        assert [(p.r1, p.r2) for p in pts] == pytest.approx(
            [(1.0, 0.0), (math.log2(1.5), 1.0), (0.0, 2.0)], abs=1e-12)

    def test_domain_slack_and_errors(self):
        # round-off slack inside 1e-12 is clamped
        assert noma_boundary(-1e-13, CH13) == pytest.approx(1.0, abs=1e-12)
        assert tdma_boundary(2.0 + 1e-13, CH13) == pytest.approx(0.0, abs=1e-12)
        for fn in (noma_boundary, tdma_boundary):
            with pytest.raises(ValueError):
                fn(-1e-6, CH13)
            with pytest.raises(ValueError):
                fn(2.1, CH13)

    def test_dominance(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = rng.uniform(0.05, 40.0)
            ch = ChannelPair(x, x * (1 + rng.uniform(0.01, 20.0)))
            z = rng.uniform(0.0, single_user_rates(ch)[1])
            assert noma_boundary(z, ch) >= tdma_boundary(z, ch) - 1e-12

    def test_monotone_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.uniform(0.05, 40.0)
            ch = ChannelPair(x, x * (1 + rng.uniform(0.01, 20.0)))
            z = np.sort(rng.uniform(0.0, single_user_rates(ch)[1], 32))
            vals = np.array([noma_boundary(float(zi), ch) + zi for zi in z])
            assert np.all(np.diff(vals) > 0.0)

    def test_concavity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.uniform(0.05, 40.0)
            ch = ChannelPair(x, x * (1 + rng.uniform(0.01, 20.0)))
            r2s = single_user_rates(ch)[1]
            h = r2s / 64.0
            z = rng.uniform(2 * h, r2s - 2 * h)
            second = (noma_boundary(z + h, ch) - 2 * noma_boundary(z, ch)
                      + noma_boundary(z - h, ch))
            assert second <= 1e-8 * abs(second) + 1e-15

    def test_analytic_slope_matches_finite_difference(self):
        rng = np.random.default_rng(14)
        h = 1e-5
        for _ in range(200):
            x = rng.uniform(0.05, 40.0)
            ch = ChannelPair(x, x * (1 + rng.uniform(0.01, 20.0)))
            r2s = single_user_rates(ch)[1]
            z = rng.uniform(2 * h, r2s - 2 * h)
            fd = (noma_boundary(z + h, ch) - noma_boundary(z - h, ch)) / (2 * h)
            an = f_noma_slope(z, ch.x, ch.y)
            assert abs(fd - an) <= 1e-6 * abs(an)


class TestBoundarySamples:
    def test_tdma_three_points(self):
        pts = region_boundary_samples("tdma", CH13, 3)
        assert [(p.r1, p.r2) for p in pts] == pytest.approx(
            [(1.0, 0.0), (0.5, 1.0), (0.0, 2.0)], abs=1e-12)

    def test_noma_endpoints(self):
        pts = region_boundary_samples("noma", CH13, 2)
        assert (pts[0].r1, pts[0].r2) == pytest.approx((1.0, 0.0), abs=1e-12)
        # point F at a2 = 1/2
        assert pts[1].r2 == pytest.approx(math.log2(2.5), abs=1e-12)
        assert pts[1].r1 == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)
        assert noma_arc_z_max(CH13) == pytest.approx(math.log2(2.5), abs=1e-12)

    @pytest.mark.parametrize("kind", ["capacity", "noma", "tdma"])
    def test_first_point_and_monotonicity(self, kind):
        pts = region_boundary_samples(kind, CH13, 33)
        assert (pts[0].r1, pts[0].r2) == pytest.approx((1.0, 0.0), abs=1e-12)
        r1 = [p.r1 for p in pts]
        assert all(a >= b - 1e-12 for a, b in zip(r1, r1[1:]))

    @pytest.mark.parametrize("kind,boundary", [("capacity", noma_boundary),
                                               ("noma", noma_boundary),
                                               ("tdma", tdma_boundary)])
    @pytest.mark.parametrize("x,y", [(1.0, 3.0), (0.01, 1e6), (5.0, 5.0001),
                                     (100.0, 3000.0), (1e-9, 2e-9)])
    def test_matches_scalar_boundary_bit_for_bit(self, kind, boundary, x, y):
        ch = ChannelPair(x, y)
        pts = region_boundary_samples(kind, ch, 201)
        got = [p.r1.hex() for p in pts]
        want = [max(boundary(p.r2, ch), 0.0).hex() for p in pts]
        assert got == want

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            region_boundary_samples("bogus", CH13, 10)
        with pytest.raises(ValueError):
            region_boundary_samples("tdma", CH13, 1)
