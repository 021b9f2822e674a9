import math

import numpy as np
import pytest

from noma_tdma.cli import EXIT_OK, EXIT_USAGE, main
from noma_tdma.regions import (
    f_noma,
    f_noma_slope,
    f_tdma,
    log2_1p,
    noma_rates,
    region_boundary_samples,
    tdma_rates,
)


CH13 = (1.0, 3.0)


def _channels(rng, size):
    """Random channel pairs x < y as arrays."""
    x = rng.uniform(0.05, 40.0, size)
    return x, x * (1 + rng.uniform(0.01, 20.0, size))


def _regions(*argv):
    """Exit code of `noma-tdma regions` at (x, y) = (1, 3) with more options."""
    return main(["regions", "--x", "1", "--y", "3", "--points", "3", *argv])


class TestDomainTypes:
    """The domain of x, y, a2 and b2, checked where each value is used: the
    channel pair by `region_boundary_samples`, the marked splits by the
    `regions` command."""

    def test_channel_ordering_enforced(self):
        # ties violate strict degradedness; NaN fails like any other value
        for x, y in [(3.0, 1.0), (2.0, 2.0), (0.0, 1.0), (1.0, math.inf),
                     (math.nan, 1.0)]:
            for kind in ("capacity", "noma", "tdma"):
                with pytest.raises(ValueError, match="0 < x < y"):
                    region_boundary_samples(kind, x, y, 3)

    def test_power_split_sums_exactly(self, capsys):
        # the weak user gets the rest of the power, a1 = 1 - a2: its rate is
        # log2(1 + a1 x / (1 + a2 x))
        x, y, a2 = 1.0, 3.0, 0.3
        r1, _ = noma_rates(x, y, a2)
        assert r1 == pytest.approx(
            math.log2(1 + (1 - a2) * x / (1 + a2 * x)), abs=1e-15)
        for bad in ("-0.1", "1.2", "nan"):
            assert _regions("--mark-a2", bad) == EXIT_USAGE

    def test_noma_feasibility(self, capsys):
        # the boundary split is admitted, and so is no power to the strong user
        assert _regions("--mark-a2", "0") == EXIT_OK
        assert _regions("--mark-a2", "0.5") == EXIT_OK
        assert _regions("--mark-a2", "0.6") == EXIT_USAGE

    def test_time_split(self, capsys):
        # the weak user keeps the rest of the time, b1 = 1 - b2
        assert tdma_rates(1.0, 3.0, 0.25) == (0.75, 0.5)
        assert _regions("--mark-a2", "0.25", "--mark-b2", "1.5") == EXIT_USAGE
        # --mark-b2 is read only with --mark-a2
        assert _regions("--mark-b2", "1.5") == EXIT_OK

    def test_rate_pair_nonnegative(self):
        rng = np.random.default_rng(2)
        x, y = _channels(rng, 10_000)
        for r in (*noma_rates(x, y, rng.uniform(0.0, 0.5, x.size)),
                  *tdma_rates(x, y, rng.uniform(0.0, 1.0, x.size))):
            assert np.all(r >= 0.0)


class TestSingleUserRates:
    def test_basic(self):
        assert log2_1p(np.array([1.0, 3.0, 15.0])).tolist() == [1.0, 2.0, 4.0]
        # the TDMA end points A and E are the single-user rates
        assert tdma_rates(1.0, 3.0, 0.0) == (1.0, 0.0)
        assert tdma_rates(1.0, 3.0, 1.0) == (0.0, 2.0)

    def test_zero_snr_limit(self):
        assert 0.0 < log2_1p(1e-12) < 2e-12


class TestNomaRatePair:
    def test_quarter_split(self):
        r1, r2 = noma_rates(1.0, 3.0, 0.25)
        assert r1 == pytest.approx(math.log2(1.6), abs=1e-12)  # 0.67807
        assert r2 == pytest.approx(math.log2(1.75), abs=1e-12)  # 0.80735

    def test_all_power_to_weak_user(self):
        assert noma_rates(1.0, 3.0, 0.0) == (1.0, 0.0)

    def test_half_split_is_point_f(self):
        r1, r2 = noma_rates(1.0, 3.0, 0.5)
        assert r1 == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)
        assert r2 == pytest.approx(math.log2(2.5), abs=1e-12)

    def test_infeasible_split(self, capsys):
        # more than half the power to the strong user is not NOMA: exit 2
        assert _regions("--mark-a2", "0.75") == EXIT_USAGE
        assert "a2 <= 1/2" in capsys.readouterr().err

    def test_point_lies_on_boundary(self):
        rng = np.random.default_rng(3)
        x, y = _channels(rng, 200)
        r1, r2 = noma_rates(x, y, rng.uniform(0.0, 0.5, 200))
        assert np.all(np.abs(r1 - f_noma(r2, x, y)) <= 1e-10)


class TestTdmaRatePair:
    @pytest.mark.parametrize("b2,expected", [
        (0.5, (0.5, 1.0)),
        (1.0, (0.0, 2.0)),
        (0.0, (1.0, 0.0)),
    ])
    def test_examples(self, b2, expected):
        assert tdma_rates(1.0, 3.0, b2) == pytest.approx(expected, abs=1e-12)


class TestBoundaries:
    def test_noma_endpoints_and_midpoint(self):
        assert f_noma(np.array([0.0, 2.0, 1.0]), 1.0, 3.0) == pytest.approx(
            [1.0, 0.0, math.log2(1.5)], abs=1e-12)

    def test_tdma_linear(self):
        assert f_tdma(np.array([0.0, 2.0, 1.0]), 1.0, 3.0) == pytest.approx(
            [1.0, 0.0, 0.5], abs=1e-12)

    def test_capacity_matches_noma_curve(self):
        z = math.log2(2.5)  # a2 = 1/2 point
        assert f_noma(z, 1.0, 3.0) == pytest.approx(
            math.log2(4.0 / 3.0), abs=1e-12)
        # the capacity boundary is the NOMA curve over all of [0, R2*]
        r1, r2 = region_boundary_samples("capacity", *CH13, 3)
        assert r1 == pytest.approx([1.0, math.log2(1.5), 0.0], abs=1e-12)
        assert r2 == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)

    def test_dominance(self):
        rng = np.random.default_rng(11)
        x, y = _channels(rng, 1000)
        z = rng.uniform(0.0, log2_1p(y))
        assert np.all(f_noma(z, x, y) >= f_tdma(z, x, y) - 1e-12)

    def test_monotone_sum(self):
        rng = np.random.default_rng(12)
        x, y = (v[:, None] for v in _channels(rng, 100))
        z = np.sort(rng.uniform(0.0, log2_1p(y), (100, 32)), axis=1)
        assert np.all(np.diff(f_noma(z, x, y) + z, axis=1) > 0.0)

    def test_concavity(self):
        rng = np.random.default_rng(13)
        x, y = _channels(rng, 100)
        h = log2_1p(y) / 64.0
        z = rng.uniform(2 * h, log2_1p(y) - 2 * h)
        second = (f_noma(z + h, x, y) - 2 * f_noma(z, x, y)
                  + f_noma(z - h, x, y))
        assert np.all(second <= 1e-8 * np.abs(second) + 1e-15)

    def test_analytic_slope_matches_finite_difference(self):
        rng = np.random.default_rng(14)
        h = 1e-5
        x, y = _channels(rng, 200)
        z = rng.uniform(2 * h, log2_1p(y) - 2 * h)
        fd = (f_noma(z + h, x, y) - f_noma(z - h, x, y)) / (2 * h)
        an = f_noma_slope(z, x, y)
        assert np.all(np.abs(fd - an) <= 1e-6 * np.abs(an))

    @pytest.mark.parametrize("x, y", [(1e300, 1e308), (1e-200, 1e-150)])
    def test_extreme_snr_stays_in_float_range(self, x, y):
        # (2^z - 1) x overflows past x y ~ 1.8e308, which read as a NOMA
        # rate of 0 in the middle of the arc, and underflows below
        # x y ~ 2.2e-308, which read as R1* all along it
        mp = pytest.importorskip("mpmath")
        z = np.array([0.25, 0.5, 0.75]) * log2_1p(y)
        with mp.workdps(500):  # enough for 1 + x at x = 1e-200
            xm, ym = mp.mpf(x), mp.mpf(y)
            want = [mp.log((1 + xm) * ym / (ym + (2**mp.mpf(zi) - 1) * xm), 2)
                    for zi in z.tolist()]
        assert f_noma(z, x, y) == pytest.approx(
            [float(w) for w in want], rel=1e-14, abs=0.0)


class TestBoundarySamples:
    def test_tdma_three_points(self):
        r1, r2 = region_boundary_samples("tdma", *CH13, 3)
        assert r1 == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)
        assert r2 == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)

    def test_noma_endpoints(self):
        r1, r2 = region_boundary_samples("noma", *CH13, 2)
        assert (r1[0], r2[0]) == pytest.approx((1.0, 0.0), abs=1e-12)
        # point F at a2 = 1/2
        assert (r1[1], r2[1]) == pytest.approx(noma_rates(1.0, 3.0, 0.5),
                                               abs=1e-12)
        assert r2[1] == pytest.approx(math.log2(2.5), abs=1e-12)

    @pytest.mark.parametrize("kind", ["capacity", "noma", "tdma"])
    def test_first_point_and_monotonicity(self, kind):
        r1, r2 = region_boundary_samples(kind, *CH13, 33)
        assert (r1[0], r2[0]) == pytest.approx((1.0, 0.0), abs=1e-12)
        assert np.all(np.diff(r1) <= 1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            region_boundary_samples("bogus", *CH13, 10)
        with pytest.raises(ValueError):
            region_boundary_samples("tdma", *CH13, 1)
