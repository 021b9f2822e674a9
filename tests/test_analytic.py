import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import dblquad, quad
from scipy.special import bdtrc, betainc, betaln
from scipy.stats import beta as beta_dist

from noma_tdma import analytic, quadrature
from noma_tdma.analytic import (
    QUAD_TOL,
    beta_expect,
    event_probabilities_closed,
    p_eps2_closed,
    p_eps2_special,
    p_eps4_closed,
    strong_user_tail,
)
from noma_tdma.events import (
    ConvergenceError,
    InconsistencyError,
    classify_many,
    e2_threshold,
    optimal_a2_special,
)
from noma_tdma.order_stats import PairingConfig, joint_pdf, marginal_cdf_n
from noma_tdma.quadrature import event_probabilities_quadrature
from test_agreement import event_points

RHO25 = 10.0**2.5


class TestSpecialCase:
    def test_values(self):
        assert p_eps2_special(10, 0.5) == pytest.approx(0.998046875, abs=1e-15)
        assert p_eps2_special(5, 1.0) == 0.0
        assert p_eps2_special(3, 0.3) == pytest.approx(0.63, abs=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            p_eps2_special(10, 0.0)
        with pytest.raises(ValueError):
            p_eps2_special(10, 1.1)
        with pytest.raises(ValueError):
            p_eps2_special(1, 0.5)

    def test_large_population_limit(self):
        assert p_eps2_special(20, 0.5) == pytest.approx(
            1.0 - 2.0**-19, abs=1e-12)

    def test_half_is_optimal(self):
        d = np.arange(1e-3, 1.0, 1e-3)
        vals = 1.0 - (1.0 - d)**10 - d**10
        assert d[np.argmax(vals)] == pytest.approx(0.5, abs=1e-3)
        assert np.max(vals) <= p_eps2_special(10, 0.5)


class TestOptimalSplit:
    def test_round_trip_gives_half(self):
        rng = np.random.default_rng(31)
        for rho in rng.uniform(1.0, 1e6, 50):
            a2 = optimal_a2_special(float(rho))
            assert a2 < 0.5
            d = math.exp(-e2_threshold(a2) / rho)
            assert d == pytest.approx(0.5, rel=1e-10)

    def test_25db_value(self):
        assert optimal_a2_special(RHO25) == pytest.approx(0.06314, abs=5e-5)

    def test_high_snr_limit(self):
        assert optimal_a2_special(1e12) < 1e-5


class TestEps2Closed:
    def test_reduces_to_special_case(self):
        rng = np.random.default_rng(32)
        for M in (2, 5, 10):
            cfg = PairingConfig(M, 1, M, RHO25)
            for a2 in rng.uniform(0.01, 0.5, 10):
                d = math.exp(-e2_threshold(float(a2)) / cfg.rho)
                assert p_eps2_closed(cfg, float(a2)) == pytest.approx(
                    p_eps2_special(M, d), abs=1e-10)

    def test_special_d_half(self):
        a2 = optimal_a2_special(RHO25)
        assert p_eps2_closed(PairingConfig(2, 1, 2, RHO25), a2) == \
            pytest.approx(0.5, abs=1e-12)
        assert p_eps2_closed(PairingConfig(10, 1, 10, RHO25), a2) == \
            pytest.approx(0.998046875, abs=1e-12)

    def test_boundary_split_vanishes(self):
        assert p_eps2_closed(PairingConfig(10, 2, 7, RHO25), 0.5) == 0.0

    def test_against_threshold_integral(self):
        # P(E2) = P(x < w2 < y) computed directly from the joint pdf
        cfg = PairingConfig(10, 2, 7, RHO25)
        a2 = 1.0 / math.sqrt(RHO25)
        w2 = e2_threshold(a2)
        val, _ = dblquad(lambda y, x: joint_pdf(x, y, cfg),
                         1e-12, w2, w2, 50.0 * RHO25,
                         epsabs=1e-10, epsrel=1e-9)
        assert p_eps2_closed(cfg, a2) == pytest.approx(val, abs=1e-7)

    def test_monotone_in_n(self):
        a2 = 1.0 / math.sqrt(RHO25)
        vals = [p_eps2_closed(PairingConfig(10, 1, n, RHO25), a2)
                for n in range(2, 11)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestEps1Closed:
    def test_marginal_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            M = int(rng.integers(2, 12))
            m = int(rng.integers(1, M))
            n = int(rng.integers(m + 1, M + 1))
            cfg = PairingConfig(M, m, n, float(rng.uniform(1.0, 1e4)))
            a2 = float(rng.uniform(0.01, 0.5))
            w2 = e2_threshold(a2)
            expect = 1.0 - marginal_cdf_n(w2, cfg) - p_eps2_closed(cfg, a2)
            assert event_probabilities_closed(cfg, a2).p1 == pytest.approx(
                expect, abs=1e-10)

    def test_two_user_d_half(self):
        # P(y > w2) = 1 - (1-d)^2 = 3/4 at d = 1/2; P(E1) = 3/4 - 1/2
        cfg = PairingConfig(2, 1, 2, RHO25)
        a2 = optimal_a2_special(RHO25)
        assert strong_user_tail(cfg, a2) == pytest.approx(0.75, abs=1e-12)
        assert event_probabilities_closed(cfg, a2).p1 == pytest.approx(
            0.25, abs=1e-12)

    def test_boundary_split(self):
        # w2 = 0: every y exceeds the threshold but no x is below it,
        # so E1 happens with certainty
        cfg = PairingConfig(10, 2, 7, RHO25)
        assert event_probabilities_closed(cfg, 0.5).p1 == pytest.approx(
            1.0, abs=1e-12)


def _quadpack_p_eps4(cfg, a2):
    """P(E4) by scipy's QUADPACK over the q = F(x) integrand of
    `p_eps4_closed`, one scalar node at a time.  Breakpoints a decade apart
    toward q = 0 and q = 1 let it see mass packed near x = 0 at high SNR,
    or far out in x's tail, which it misses without them."""
    M, m, n, rho = cfg.M, cfg.m, cfg.n, cfg.rho
    w2 = e2_threshold(a2)
    top = -math.expm1(-math.expm1(0.5 * math.log1p(w2)) / rho)
    if top == 0.0:
        return 0.0
    log_norm = -betaln(m, M - m + 1)

    def integrand(q):
        # a node rounded onto q = 1, where the density vanishes
        if q >= 1.0:
            return 0.0
        x = -rho * math.log1p(-q)
        density = math.exp(log_norm + (m - 1) * math.log(q)
                           + (M - m) * math.log1p(-q))
        gap = (w2 - x) / (1.0 + x) - x
        return density * bdtrc(n - m - 1, M - m, -math.expm1(-gap / rho))

    decades = 10.0**-np.arange(1, 16)
    points = np.concatenate((top * decades, 1.0 - decades))
    val, *_ = quad(integrand, 0.0, top, epsabs=1e-13, epsrel=1e-13,
                   limit=500, points=points[points < top], full_output=1)
    # as p_eps4_closed, a probability
    return min(val, 1.0)


class TestBetaExpect:
    @pytest.mark.parametrize("a, b", [
        (1, 1), (10, 1), (6, 5),
        # laws within ~4e-4 of t = 1 or t = 0, beyond every node of one
        # panel over (0, 1) and of its halves: only the law's own sd edges,
        # which beta_expect adds, let the integral see their mass
        (10_000, 4), (4, 10_000),
        # the law of q = F(x) at (M, m) = (10000, 2500), where the density's
        # log normaliser, -betaln(a, b) ~ -5,600, loses ~4e-12 to rounding
        pytest.param(2500, 7501, marks=pytest.mark.xfail(
            strict=True, reason="no accurate Beta density at M ~ 1e4 yet")),
    ])
    def test_moments_and_mass(self, a, b):
        # E[1] = 1, E[t] = a / (a + b), and the mass below top is the
        # regularised incomplete Beta function: witnesses of the density
        # and of the starting edges apart from both solvers that integrate
        # against them.  No caller cuts: the law's own are beta_expect's
        mean = a / (a + b)
        sd = math.sqrt(mean * (1.0 - mean) / (a + b + 1))
        cuts = np.array([])
        moments = beta_expect(
            (a, b), lambda t, _: np.stack((np.ones_like(t), t), axis=1), cuts)
        assert moments == pytest.approx([1.0, mean], abs=QUAD_TOL)
        top = mean + 0.5 * sd
        (mass,) = beta_expect((a, b), lambda t, _: np.ones((t.size, 1)),
                              cuts, top)
        assert mass == pytest.approx(betainc(a, b, top), abs=QUAD_TOL)

    @pytest.mark.parametrize("p", [-0.5, -0.6])
    def test_panel_whose_halves_are_as_far_off_as_the_whole(self, p):
        # the integral of t^p, p < 0: the halves of the panel at t = 0 are
        # off by 2^-(1+p) of the whole, more than the difference of the
        # two estimates, so only the quarter margin on a panel's share of
        # the tol keeps the sum within it (1.2-1.4 tol without it)
        tol = 1e-5
        (val,) = beta_expect((1, 1), lambda t, _: (t**p)[:, None],
                             np.array([]), tol=tol)
        assert val == pytest.approx(1.0 / (1.0 + p), rel=0.0, abs=tol)


class TestEps4Closed:
    def test_boundary_split_vanishes(self):
        # w2 = 0 empties both the integration interval and the event: no
        # node may land on q = 0, where log(q) warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p_eps4_closed(PairingConfig(10, 2, 7, RHO25), 0.5) == 0.0

    @pytest.mark.parametrize("a2", [1e-20, 1e-100])
    def test_tiny_split_is_all_e4(self, a2):
        # E4 needs x < lo = sqrt(1 + w2) - 1, here 1e20 or 1e100, while x is
        # of order rho: the integral must still see all of x's mass
        cfg = PairingConfig(10, 2, 7, RHO25)
        assert p_eps4_closed(cfg, a2) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_split_sees_a_narrow_x(self):
        # at M = 1e5, q = F(x) has sd 1.4e-3 about its mean 1/4; the nearest
        # nodes of one panel over (0, 1) and its halves lie 33 sd away
        cfg = PairingConfig(100_000, 25_000, 26_000, RHO25)
        assert p_eps4_closed(cfg, 1e-20) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("M, m, n, rho, a2", [
        (2000, 230, 250, 10.0, 0.4),
        (2000, 230, 250, 10.0, 0.3),
        # P(E4 | x) falls from ~1/2 to ~0 within x < 1, the first 1e-3 of
        # the interval in q, where no node of one panel over all of it lies
        (173, 3, 110, 12772.574661532124, 0.008848319072266938),
        # P(E4 | x) decays as (1 + x)^-5 from x ~ 1 to 6,500
        (6, 1, 6, 60682653.59843265, 0.00015416579395467568),
        # QUADPACK without breakpoints returns 4.5e-20 here, for 1.96e-5
        (308, 1, 127, 5127415.153266604, 0.0005301608576121111),
    ])
    def test_narrow_integrands_match_quadpack(self, M, m, n, rho, a2):
        cfg = PairingConfig(M, m, n, rho)
        assert p_eps4_closed(cfg, a2) == pytest.approx(
            _quadpack_p_eps4(cfg, a2), abs=1e-12)

    @pytest.mark.parametrize("budget", ["_QUAD_LEVELS", "_QUAD_PANELS"])
    def test_budget_exhaustion_raises(self, monkeypatch, budget):
        # this integral splits two of its starting panels once: one level,
        # or room for one panel per level, is too little
        monkeypatch.setattr(analytic, budget, 1)
        with pytest.raises(ConvergenceError, match="residual error estimate"):
            p_eps4_closed(PairingConfig(20, 1, 10, RHO25),
                          1.0 / math.sqrt(RHO25))

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(event_points(max_M=1000, max_db=80.0))
    def test_matches_quadpack(self, point):
        cfg, a2 = point
        assert p_eps4_closed(cfg, a2) == pytest.approx(
            _quadpack_p_eps4(cfg, a2), abs=1e-12)


class TestEps3AndDistribution:
    def test_complement(self):
        cfg = PairingConfig(10, 1, 10, RHO25)
        a2 = 1.0 / math.sqrt(RHO25)
        probs = event_probabilities_closed(cfg, a2)
        total = (probs.p1 + p_eps2_closed(cfg, a2)
                 + probs.p3 + p_eps4_closed(cfg, a2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_distribution_object(self):
        cfg = PairingConfig(10, 4, 5, RHO25)
        probs = event_probabilities_closed(cfg, 1.0 / math.sqrt(RHO25))
        assert math.fsum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cfg, a2, expect", [
        (PairingConfig(10, 2, 7, RHO25), 1.0 / math.sqrt(RHO25),
         ("0x1.183088fb15984p-9", "0x1.49efe6120978ep-1",
          "0x1.69b6797d9bd15p-2", "0x1.caca62d88cdb1p-13")),
        (PairingConfig(20, 5, 6, 100.0), 0.1,
         ("0x1.8980d241dac16p-10", "0x1.3c1e8d9e2a664p-8",
          "0x1.f9c23da8b438cp-1", "0x1.806269774289fp-8")),
    ], ids=["M10_m2_n7_25dB", "M20_m5_n6_20dB"])
    def test_pinned_output(self, cfg, a2, expect):
        # exact values, within 2.3e-16 absolute and 1.8e-15 relative of
        # 40-digit mpmath: any change to the binomial tails, the P(E4)
        # integrand or its tolerance moves the bits
        probs = event_probabilities_closed(cfg, a2)
        assert tuple(p.hex() for p in probs.as_tuple()) == expect

    def test_each_series_evaluated_once(self, monkeypatch):
        calls = {}

        def counting(name):
            fn = getattr(analytic, name)

            def wrapped(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("p_eps2_closed", "p_eps4_closed", "strong_user_tail"):
            monkeypatch.setattr(analytic, name, counting(name))
        event_probabilities_closed(PairingConfig(10, 2, 7, RHO25),
                                   1.0 / math.sqrt(RHO25))
        assert calls == {"p_eps2_closed": 1, "p_eps4_closed": 1,
                         "strong_user_tail": 1}

    def test_sum_is_checked(self, monkeypatch):
        # no probability is one minus the others, so an error in P(E2)
        # shows in the sum of the four
        p2 = analytic.p_eps2_closed
        monkeypatch.setattr(analytic, "p_eps2_closed",
                            lambda cfg, a2: p2(cfg, a2) + 1e-6)
        with pytest.raises(InconsistencyError, match="sum to"):
            event_probabilities_closed(PairingConfig(10, 2, 7, RHO25),
                                       1.0 / math.sqrt(RHO25))

    def test_value_just_outside_unit_interval_is_rejected(self, monkeypatch):
        # P(E3) = P(K >= n) - P(E4) with P(E4) 1e-6 too large lands 1e-6
        # below 0: past the clamp's slack, which is for rounding only
        cfg, a2 = PairingConfig(10, 2, 7, RHO25), 1.0 / math.sqrt(RHO25)
        probs = event_probabilities_closed(cfg, a2)
        monkeypatch.setattr(analytic, "p_eps4_closed",
                            lambda cfg, a2: probs.p3 + probs.p4 + 1e-6)
        with pytest.raises(InconsistencyError, match="outside"):
            event_probabilities_closed(cfg, a2)


def _mpmath_event_probs(M, m, n, rho, a2):
    """[P(E1), ..., P(E4)] at 40 digits for the float inputs, from the
    binomial count of gains below w2 and, for P(E4), the integral over the
    n-th order statistic y of P(x < (w2 - y)/(1 + y) | y); each keeps its
    relative accuracy, however small."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        rho, a2 = mp.mpf(rho), mp.mpf(a2)
        w2 = (1 - 2 * a2) / a2**2

        def F(t):
            return -mp.expm1(-t / rho)

        def pmf(k, q):
            return mp.binomial(M, k) * q**k * (1 - q)**(M - k)

        q = F(w2)
        p1 = mp.fsum(pmf(k, q) for k in range(m))
        p2 = mp.fsum(pmf(k, q) for k in range(m, n))
        lo = mp.sqrt(1 + w2) - 1
        below_lo = mp.fsum(pmf(k, F(lo)) for k in range(n, M + 1))

        def integrand(y):
            Fy = F(y)
            share = mp.betainc(m, n - m, 0, F((w2 - y) / (1 + y)) / Fy,
                               regularized=True)
            return (n * mp.binomial(M, n) * Fy**(n - 1) * (1 - Fy)**(M - n)
                    * mp.exp(-y / rho) / rho * share)

        # mp.quad stops at an absolute error of 10^-dps, so the integrand is
        # taken relative to its largest value at the edges; 20 digits of the
        # integral are plenty against a float and cost half the time of 40
        edges = mp.linspace(lo, w2, 5)
        scale = max(integrand(y) for y in edges) or 1
        with mp.workdps(20):
            part = mp.quad(lambda y: integrand(y) / scale, edges)
        p4 = below_lo + scale * part
        # E4 implies y < w2; 1 - p1 - p2 - p4 would lose every digit below
        # 1e-40
        p3 = mp.fsum(pmf(k, q) for k in range(n, M + 1)) - p4
        return [float(p) for p in (p1, p2, p3, p4)]


def _large_m_points():
    points = [(200, 50, 150, 25.0, "inv_sqrt_rho"),
              (200, 1, 200, 25.0, "inv_sqrt_rho"),
              (200, 199, 200, 25.0, "inv_sqrt_rho"),
              (80, 40, 41, 25.0, "inv_sqrt_rho"),
              (30, 7, 22, 25.0, "special"),
              # a2 near 1/2 keeps w2 small, so P(E4) is far from 0 at large M
              (200, 20, 50, 10.0, 0.3),
              (120, 30, 60, 5.0, 0.4),
              # scipy's quad called this integral "probably divergent"
              (91, 6, 10, 52.9, 0.0022722),
              # P(E3) = 1.47e-11 needs the P(E4) integral's edges at
              # x = rho 2^k: without them it is 9.3e-12 off
              (5, 4, 5, 24.366285265792925, 0.00025073852360610256)]
    rng = np.random.default_rng(2015)
    modes = ["inv_sqrt_rho", "special", "fixed"]
    for _ in range(10):
        M = int(rng.integers(2, 201))
        m = int(rng.integers(1, M))
        n = int(rng.integers(m + 1, M + 1))
        rho_db = round(float(rng.uniform(0.0, 60.0)), 1)
        mode = modes[int(rng.integers(3))]
        if mode == "fixed":
            mode = round(float(rng.uniform(0.05, 0.5)), 3)
        points.append((M, m, n, rho_db, mode))
    return points


@pytest.mark.parametrize("M, m, n, rho_db, a2_mode", _large_m_points())
def test_closed_forms_match_mpmath_up_to_m200(M, m, n, rho_db, a2_mode):
    rho = 10.0**(rho_db / 10.0)
    a2 = {"inv_sqrt_rho": 1.0 / math.sqrt(rho),
          "special": optimal_a2_special(rho)}.get(a2_mode, a2_mode)
    expect = _mpmath_event_probs(M, m, n, rho, a2)
    probs = event_probabilities_closed(PairingConfig(M, m, n, rho), a2)
    assert probs.as_tuple() == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("M, m, n, rho_db, a2", [
    (10, 2, 7, 40.0, 0.45),
    (10, 3, 5, 50.0, 0.4),
    (50, 10, 30, 60.0, None),
    (20, 3, 9, 70.0, 0.49),
    (20, 1, 14, 80.0, 0.45),
])
def test_small_probabilities_keep_relative_accuracy(M, m, n, rho_db, a2):
    # at high SNR and a split near 1/2 the gains crowd above w2, and P(E2)
    # or P(E3) falls far below 1e-16; a difference of numbers near 1 would
    # keep none of its digits
    rho = 10.0**(rho_db / 10.0)
    a2 = a2 or 1.0 / math.sqrt(rho)
    expect = _mpmath_event_probs(M, m, n, rho, a2)
    probs = event_probabilities_closed(PairingConfig(M, m, n, rho), a2)
    assert probs.p1 == pytest.approx(expect[0], rel=1e-13, abs=0.0)
    assert probs.p2 == pytest.approx(expect[1], rel=1e-13, abs=0.0)
    # P(E3) = P(K >= n) - P(E4) carries the absolute error of the P(E4)
    # integral
    assert probs.p3 == pytest.approx(expect[2], rel=1e-10, abs=0.0)


_QUAD_PINS = [
    (PairingConfig(6, 2, 5, 100.0), 0.2, 0.3, 1e-5,
     ("0x1.fd94f86b66f8ap-1", "0x1.358397e138c79p-8",
      "0x1.648bad59fc5c8p-27", "0x1.76755387adea1p-30")),
    # within 1e-12 of refs.json and of the closed forms
    (PairingConfig(10, 4, 5, RHO25), 1.0 / math.sqrt(RHO25), 0.5, 1e-6,
     ("0x1.05f266cc85f75p-4", "0x1.f59a8265934d3p-4",
      "0x1.a07d24c7eb525p-1", "0x1.13e11d1850f82p-13")),
    (PairingConfig(20, 3, 17, 300.0), 0.1, 0.7, 1e-7,
     ("0x1.b53dcfc8c683fp-177", "0x1.4de8633f104b1p-29",
      "0x1.fff2de34e0e39p-1", "0x1.a436c812c765ap-14")),
    (PairingConfig(10, 1, 10, RHO25), 0.3, 0.5, 1e-6,
     ("0x1.bcde5c61fc8c4p-1", "0x1.0c868e780dcfcp-3",
      "0x0.0p+0", "0x0.0p+0")),
    (PairingConfig(2000, 230, 250, 10.0), 0.4, 0.5, 1e-6,
     ("0x1.6a6b0f992c946p-2", "0x1.f4b5c3ffffe8bp-2",
      "0x1.41be58cd4f3f3p-3", "0x1.2d26f0cc270adp-123")),
]
_QUAD_PIN_IDS = ["b2_0.3", "m4_n5_25dB", "b2_0.7_tol1e-7", "a2_0.3_m1_n10",
                 "M2000"]


class TestQuadratureOracle:
    def test_partition_of_unity(self):
        cfg = PairingConfig(10, 2, 7, RHO25)
        probs = event_probabilities_quadrature(cfg, 1.0 / math.sqrt(RHO25),
                                               tol=1e-5)
        assert math.fsum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-4)

    def test_special_case_value(self):
        cfg = PairingConfig(10, 1, 10, RHO25)
        a2 = optimal_a2_special(RHO25)
        assert event_probabilities_quadrature(cfg, a2, tol=1e-6).p2 == \
            pytest.approx(0.998046875, abs=1e-4)

    def test_threshold_form(self):
        # E2 mass equals P(x < w2 < y) from the joint density
        cfg = PairingConfig(10, 4, 5, RHO25)
        a2 = 1.0 / math.sqrt(RHO25)
        w2 = e2_threshold(a2)
        val, _ = dblquad(lambda y, x: joint_pdf(x, y, cfg),
                         1e-12, w2, w2, 50.0 * RHO25,
                         epsabs=1e-10, epsrel=1e-9)
        assert event_probabilities_quadrature(cfg, a2, tol=1e-6).p2 == \
            pytest.approx(val, abs=1e-4)

    def test_general_time_split(self):
        # no closed form exists for b2 != 1/2; the oracle still integrates a
        # valid distribution
        cfg = PairingConfig(6, 2, 5, 100.0)
        probs = event_probabilities_quadrature(cfg, 0.2, b2=0.3, tol=1e-5)
        assert math.fsum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-4)
        assert all(0.0 <= p <= 1.0 for p in probs.as_tuple())

    @pytest.mark.parametrize("cfg, a2, b2, tol, expect", _QUAD_PINS,
                             ids=_QUAD_PIN_IDS)
    def test_pinned_output(self, cfg, a2, b2, tol, expect, monkeypatch):
        # exact values with every cut bisected onto adjacent floats: any
        # change to the panels refined, their order or the per-node
        # arithmetic moves the last bits; so does a change to the starting
        # edges, or to which label changes are cut where a bracket holds
        # several, as the classifier's rounding makes near a boundary at
        # adjacent-float scale
        monkeypatch.setattr(quadrature, "_CUT_SHARE", 0.0)
        probs = event_probabilities_quadrature(cfg, a2, b2, tol)
        assert tuple(p.hex() for p in probs.as_tuple()) == expect

    @pytest.mark.parametrize("cfg, a2, b2, tol, expect", _QUAD_PINS,
                             ids=_QUAD_PIN_IDS)
    def test_cut_share_moves_output_within_its_share(self, cfg, a2, b2, tol,
                                                     expect):
        # cuts bisected only as far as the tol needs move each probability
        # by at most their share of it
        probs = event_probabilities_quadrature(cfg, a2, b2, tol)
        exact = [float.fromhex(p) for p in expect]
        assert probs.as_tuple() == pytest.approx(
            exact, rel=0.0, abs=quadrature._CUT_SHARE * tol)

    def test_one_classifier_batch_per_refinement_level(self, monkeypatch):
        shapes = []

        def counting(x, y, *args, **kwargs):
            shapes.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
            return classify_many(x, y, *args, **kwargs)

        monkeypatch.setattr(quadrature, "classify_many", counting)
        cfg = PairingConfig(10, 4, 5, RHO25)
        event_probabilities_quadrature(cfg, 1.0 / math.sqrt(RHO25), tol=1e-6)
        # one scan call on the (u-probes x s-probes) grid, bisection calls
        # onto the changes of a column's event set, each on a (changes x
        # points x s-probes) grid, then per refinement level one (columns
        # x probes) call and bisection calls on the brackets of all its
        # columns; each bisection call classifies the 2**L - 1 interior
        # points of the depth-L bisection tree below every bracket
        probes = shapes[0][0]
        assert shapes[0] == (probes, probes)
        scan = [shape for shape in shapes if len(shape) == 3]
        assert shapes[1:len(scan) + 1] == scan and len(scan) >= 2
        rest = shapes[len(scan) + 1:]
        assert all(len(shape) == 2 for shape in rest)
        levels = [i for i, shape in enumerate(rest) if shape[1] == probes]
        (width,) = {shape[1] for shape in scan + rest if shape[1] != probes}
        depth = (width + 1).bit_length() - 1
        assert 2**depth == width + 1 and depth >= 2
        assert levels[0] == 0
        assert all(c >= 1 for c in np.diff(levels + [len(rest)]) - 1)
        # the event set changes at 3 u; with the u-law's 4 sd edges inside
        # (0, 1) and the 4 x-scale edges they make 12 starting panels,
        # whose 8 nodes and 16 half nodes each make the only level
        assert {shape[:2] for shape in scan} == {(3, width)}
        assert [rest[i][0] for i in levels] == [288]
        # bisected only as far as the tol needs, not onto adjacent floats
        # (64 calls)
        assert len(shapes) <= 20

    def test_s_cuts_stop_at_their_share_of_the_tol(self, monkeypatch):
        # a level's s-brackets stop at tol / 100 / (c * peak), c the most
        # cuts in one of its columns and peak the Beta(s_shape) density at
        # its mode; here c = 3 and peak = 6.  At this tol the walk's last
        # call leaves them under 3/16 of that stop, so a stop 3x looser or
        # more, without c or peak, ends the walk a call earlier, with
        # brackets 16x wider
        calls = []

        def recording(x, y, *args, **kwargs):
            labels = classify_many(x, y, *args, **kwargs)
            calls.append((np.broadcast_to(x, np.shape(y)), np.asarray(y),
                          labels))
            return labels

        monkeypatch.setattr(quadrature, "classify_many", recording)
        cfg, tol = PairingConfig(10, 4, 5, RHO25), 5e-7
        event_probabilities_quadrature(cfg, 1.0 / math.sqrt(RHO25), tol=tol)
        a, b = cfg.s_shape
        peak = beta_dist(a, b).pdf((a - 1) / (a + b - 2))
        # the first calls scan and bisect the u-columns' event sets
        probes = calls[0][1].shape[1]
        calls = [call for call in calls if call[1].ndim == 2][1:]
        scans = [i for i, (_, y, _) in enumerate(calls)
                 if y.shape[1:] == (probes,)]
        assert len(scans) >= 1
        for scan, end in zip(scans, scans[1:] + [len(calls)]):
            labels = calls[scan][2]
            # the cuts a column's probes show; a bracket found to hold
            # more than one change adds to them, and tightens the stop
            cuts = (labels[:, 1:] != labels[:, :-1]).sum(axis=1).max()
            assert cuts >= 2 and end >= scan + 2
            # the last call labels the 15 inner points of the bisection
            # tree below each bracket, a 16th of its width apart
            x, y, _ = calls[end - 1]
            s = np.exp((x - y) / cfg.rho)
            width = (s[:, -1] - s[:, 0]) / 14.0
            stop = tol / 100 / (cuts * peak)
            # s is read back from y, to about 1e-5 of a bracket
            assert 16 * width.max() <= 3 * stop

    def test_every_label_change_in_a_bracket_is_cut(self, monkeypatch):
        # a labeller of s alone that reads E2 | E3 | E2 | E4 inside one
        # probe bracket: the bracket reads E2 then E4, and each of its
        # three changes is cut, with its own two labels; a cut at the first
        # change alone loses the E3 sliver and the second E2 stretch, and
        # moves P(E2) by ~1e-2
        cfg, tol = PairingConfig(10, 4, 5, RHO25), 1e-6
        probes = quadrature._SPROBES
        k = np.searchsorted(probes, 0.7)
        lo, hi = probes[k - 1], probes[k]
        c1, c2, c3 = lo + np.array([0.1, 0.2, 0.7]) * (hi - lo)

        def labeller(x, y, a2, b2):
            s = np.exp((x - y) / cfg.rho)
            return np.select([s < c1, s < c2, s < c3], [2, 3, 2],
                             4).astype(np.int8)

        monkeypatch.setattr(quadrature, "classify_many", labeller)
        probs = event_probabilities_quadrature(cfg, 1.0 / math.sqrt(RHO25),
                                               tol=tol)
        f1, f2, f3 = betainc(*cfg.s_shape, np.array([c1, c2, c3]))
        assert probs.as_tuple() == pytest.approx(
            (0.0, f1 + f3 - f2, f2 - f1, 1.0 - f3), rel=0.0, abs=tol)

    def test_bisection_cap_raises(self, monkeypatch):
        # one call of 4 halvings leaves the brackets ~1/1024 wide, far
        # above their stop
        monkeypatch.setattr(quadrature, "_BISECT_ITERS", 4)
        cfg = PairingConfig(10, 4, 5, RHO25)
        with pytest.raises(ConvergenceError, match="bisection cap"):
            event_probabilities_quadrature(cfg, 1.0 / math.sqrt(RHO25),
                                           tol=1e-6)

    @pytest.mark.parametrize("m, n", [(1, 2), (4, 20)])
    def test_sum_check_or_closed_forms_at_huge_population(self, m, n):
        # at M = 100000 the u-law lies within ~m/M of u = 1: the starting
        # panels end at its own sd edges, so the oracle finds its mass and
        # agrees with the closed forms; with eight fixed starting panels the
        # masses summed to 0.87 and 0.15, and the sum check raised
        cfg = PairingConfig(100_000, m, n, RHO25)
        a2, tol = 1.0 / math.sqrt(RHO25), 1e-6
        closed = event_probabilities_closed(cfg, a2)
        quad = event_probabilities_quadrature(cfg, a2, tol=tol)
        assert quad.as_tuple() == pytest.approx(closed.as_tuple(), abs=tol)

    @pytest.mark.parametrize("excess", [5.0, 20.0])
    def test_sum_check_window_is_ten_tol(self, monkeypatch, excess):
        # masses that sum to 1 + excess * tol, as an integral whose nodes
        # miss part of the u-law leaves them: returned within the 10 * tol
        # window, ConvergenceError past it
        tol = 1e-6
        beta_expect = quadrature.beta_expect
        monkeypatch.setattr(quadrature, "beta_expect",
                            lambda *args, **kwargs: (1.0 + excess * tol)
                            * beta_expect(*args, **kwargs))
        cfg, a2 = PairingConfig(10, 4, 5, RHO25), 1.0 / math.sqrt(RHO25)
        if excess > 10.0:
            with pytest.raises(ConvergenceError, match="event masses sum"):
                event_probabilities_quadrature(cfg, a2, tol=tol)
        else:
            probs = event_probabilities_quadrature(cfg, a2, tol=tol)
            assert math.fsum(probs.as_tuple()) == pytest.approx(
                1.0 + excess * tol, rel=0.0, abs=tol)

    def test_tolerance_validation(self):
        cfg = PairingConfig(6, 2, 5, 100.0)
        for tol in (1e-12, math.nan, math.inf):
            with pytest.raises(ValueError):
                event_probabilities_quadrature(cfg, 0.2, tol=tol)

    def test_budget_exhaustion_raises(self, monkeypatch):
        # the budget it shares with the P(E4) integral runs out during
        # refinement, not at the start: this solve needs 3 levels
        monkeypatch.setattr(analytic, "_QUAD_LEVELS", 2)
        cfg = PairingConfig(10, 2, 7, RHO25)
        with pytest.raises(ConvergenceError, match="residual error estimate"):
            event_probabilities_quadrature(cfg, 1.0 / math.sqrt(RHO25),
                                           tol=1e-9)

    def test_classifier_calls_on_the_quad_grid_points(self, monkeypatch):
        # the five points of the quad-grid benchmark at tol 1e-6: each
        # change of a column's event set is a starting panel edge, so the
        # u-integral does not refine a kink one level at a time; 235 calls
        # and 71 at one point when only the E1 jump was an edge
        calls = []

        def counting(*args, **kwargs):
            calls[-1] += 1
            return classify_many(*args, **kwargs)

        monkeypatch.setattr(quadrature, "classify_many", counting)
        for rho_db, m, n in [(20.0, 1, 10), (20.0, 5, 6), (25.0, 4, 5),
                             (25.0, 1, 2), (30.0, 5, 6)]:
            rho = 10.0**(rho_db / 10.0)
            calls.append(0)
            event_probabilities_quadrature(PairingConfig(10, m, n, rho),
                                           1.0 / math.sqrt(rho), tol=1e-6)
        assert sum(calls) <= 130 and max(calls) <= 32
