import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import bdtrc, betaln

from noma_tdma import analytic, quadrature
from noma_tdma import (
    ConvergenceError,
    EventProbabilities,
    InconsistencyError,
    PairingConfig,
    classify_many,
    e2_threshold,
    event_probabilities_closed,
    event_probabilities_quadrature,
    joint_pdf,
    marginal_cdf_n,
    optimal_a2_special,
    p_eps2_closed,
    p_eps2_special,
    p_eps4_closed,
    strong_user_tail,
)

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


@st.composite
def _event_points(draw, max_M=40, max_db=40.0):
    """(cfg, a2) with M <= max_M, 6.1 dB to max_db, and a2 = 1/sqrt(rho),
    uniform on [0.01, 1/2] or the special split."""
    M = draw(st.integers(2, max_M))
    m = draw(st.integers(1, M - 1))
    n = draw(st.integers(m + 1, M))
    rho = 10.0**(draw(st.floats(6.1, max_db)) / 10.0)
    a2 = draw(st.one_of(st.just(1.0 / math.sqrt(rho)), st.floats(0.01, 0.5),
                        st.just(optimal_a2_special(rho))))
    return PairingConfig(M, m, n, rho), a2


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


class TestEps4Closed:
    def test_boundary_split_vanishes(self):
        # w2 = 0 empties both the integration interval and the event: no
        # node may land on q = 0, where log(q) warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p_eps4_closed(PairingConfig(10, 2, 7, RHO25), 0.5) == 0.0

    def test_against_quadrature_oracle(self):
        for (m, n) in [(1, 10), (2, 7), (5, 6)]:
            cfg = PairingConfig(10, m, n, RHO25)
            a2 = 1.0 / math.sqrt(RHO25)
            oracle = event_probabilities_quadrature(cfg, a2, tol=1e-6).p4
            assert p_eps4_closed(cfg, a2) == pytest.approx(oracle, abs=1e-3)

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
    @given(_event_points(max_M=1000, max_db=80.0))
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
        assert probs.method == "closed_form"
        assert math.fsum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cfg, a2, expect", [
        (PairingConfig(10, 2, 7, RHO25), 1.0 / math.sqrt(RHO25),
         ("0x1.183088fb15a00p-9", "0x1.49efe6120978ep-1",
          "0x1.69b6797d9bd16p-2", "0x1.caca62d88cdb1p-13")),
        (PairingConfig(20, 5, 6, 100.0), 0.1,
         ("0x1.8980d241dac14p-10", "0x1.3c1e8d9e2a664p-8",
          "0x1.f9c23da8b438cp-1", "0x1.806269774289fp-8")),
    ], ids=["M10_m2_n7_25dB", "M20_m5_n6_20dB"])
    def test_pinned_output(self, cfg, a2, expect):
        # exact values, within 2.3e-16 of 40-digit mpmath: any change to the
        # binomial CDFs, the P(E4) integrand or its tolerance moves the bits
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

    def test_invalid_distribution_rejected(self):
        with pytest.raises(InconsistencyError):
            EventProbabilities(0.5, 0.5, 0.5, 0.5, method="closed_form")
        with pytest.raises(InconsistencyError):
            EventProbabilities(1.2, -0.2, 0.0, 0.0, method="closed_form")


def _mpmath_event_probs(M, m, n, rho, a2):
    """[P(E1), ..., P(E4)] at 40 digits for the float inputs, from the
    binomial count of gains below w2 and, for P(E4), the integral over the
    n-th order statistic y of P(x < (w2 - y)/(1 + y) | y)."""
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

        p4 = below_lo + mp.quad(integrand, mp.linspace(lo, w2, 5))
        return [float(p) for p in (p1, p2, 1 - p1 - p2 - p4, p4)]


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
              (91, 6, 10, 52.9, 0.0022722)]
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


class TestQuadratureOracle:
    def test_partition_of_unity(self):
        cfg = PairingConfig(10, 2, 7, RHO25)
        probs = event_probabilities_quadrature(cfg, 1.0 / math.sqrt(RHO25),
                                               tol=1e-5)
        assert math.fsum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-4)
        assert probs.method == "quadrature"

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

    @pytest.mark.parametrize("cfg, a2, b2, tol, expect", [
        (PairingConfig(6, 2, 5, 100.0), 0.2, 0.3, 1e-5,
         ("0x1.fd94f86b66f88p-1", "0x1.358397e138c7bp-8",
          "0x1.6466c891f5a31p-27", "0x1.779c79c78bba3p-30")),
        (PairingConfig(10, 4, 5, RHO25), 1.0 / math.sqrt(RHO25), 0.5, 1e-6,
         ("0x1.05f266cc85f7dp-4", "0x1.f59a8265934d2p-4",
          "0x1.a07d27dbd7066p-1", "0x1.13afde5d11600p-13")),
        (PairingConfig(20, 3, 17, 300.0), 0.1, 0.7, 1e-7,
         ("0x1.b53dcfc8c683dp-177", "0x1.4de8633f1052cp-29",
          "0x1.fff2de34c3918p-1", "0x1.a436cbbd08573p-14")),
        (PairingConfig(10, 1, 10, RHO25), 0.3, 0.5, 1e-6,
         ("0x1.bcde5c61fc8c2p-1", "0x1.0c868e780dcfcp-3",
          "0x0.0p+0", "0x0.0p+0")),
        (PairingConfig(2000, 230, 250, 10.0), 0.4, 0.5, 1e-6,
         ("0x1.6a6b0f9958b60p-2", "0x1.f4b5c400006eep-2",
          "0x1.41be58cd4cf54p-3", "0x1.60216c38bc53cp-123")),
    ], ids=["b2_0.3", "m4_n5_25dB", "b2_0.7_tol1e-7", "a2_0.3_m1_n10",
            "M2000"])
    def test_pinned_output(self, cfg, a2, b2, tol, expect):
        # exact values: any change to the panels refined, their order or the
        # per-node arithmetic moves the last bits
        probs = event_probabilities_quadrature(cfg, a2, b2, tol)
        assert tuple(p.hex() for p in probs.as_tuple()) == expect

    def test_one_classifier_batch_per_refinement_step(self, monkeypatch):
        shapes = []

        def counting(x, y, *args, **kwargs):
            shapes.append(np.shape(y))
            return classify_many(x, y, *args, **kwargs)

        monkeypatch.setattr(quadrature, "classify_many", counting)
        cfg = PairingConfig(10, 4, 5, RHO25)
        event_probabilities_quadrature(cfg, 1.0 / math.sqrt(RHO25), tol=1e-6)
        # one scan call on a u-grid as long as the s-probe grid, bisection
        # calls onto the E1 jump, then per refinement step one (columns x
        # probes) call and bisection calls on the brackets of all its
        # columns; each bisection call classifies the 2**L - 1 interior
        # points of the depth-L bisection tree below every bracket
        (probes,) = shapes[0]
        assert all(len(shape) == 2 for shape in shapes[1:])
        steps = [i for i, shape in enumerate(shapes) if shape[1:] == (probes,)]
        (width,) = {shape[1] for shape in shapes[1:] if shape[1] != probes}
        levels = (width + 1).bit_length() - 1
        assert 2**levels == width + 1 and levels >= 2
        # the 60-halving cap is never reached: every bracket collapses onto
        # adjacent floats first
        assert 1 <= steps[0] - 1 <= math.ceil(60 / levels)
        bisect_calls = np.diff(steps + [len(shapes)]) - 1
        assert all(1 <= c < math.ceil(60 / levels) for c in bisect_calls)
        # the 8 starting panels, split at the one jump, and their 18 halves
        # (8 nodes each) make the first step; each refined panel then adds
        # its 4 quarters; 3 are refined
        assert [shapes[i][0] for i in steps] == [216] + [32] * 3

    def test_large_population(self):
        # the Beta(u_shape) normaliser underflows and w1 overflows a float at
        # M = 2000; P(E2) and P(y > w2) are binomial CDFs there
        cfg = PairingConfig(2000, 230, 250, 10.0)
        probs = event_probabilities_quadrature(cfg, 0.4, tol=1e-6)
        assert probs.p2 == pytest.approx(p_eps2_closed(cfg, 0.4), abs=1e-6)
        assert probs.p1 + probs.p2 == pytest.approx(
            strong_user_tail(cfg, 0.4), abs=1e-6)

    def test_tolerance_validation(self):
        cfg = PairingConfig(6, 2, 5, 100.0)
        for tol in (1e-12, math.nan, math.inf):
            with pytest.raises(ValueError):
                event_probabilities_quadrature(cfg, 0.2, tol=tol)

    def test_budget_exhaustion_raises(self):
        # the budget runs out during refinement, not at the start
        cfg = PairingConfig(10, 4, 5, RHO25)
        with pytest.raises(ConvergenceError, match=r"panels refined: [1-9]"):
            event_probabilities_quadrature(cfg, 1.0 / math.sqrt(RHO25),
                                           tol=1e-9, max_panels=16)

    @pytest.mark.parametrize("M, m, n, rho_db, a2, tol", [
        (38, 26, 27, 39.2, 0.010971, 1e-6),
        # the jump lies within 1e-4 of u = 1
        (6, 1, 4, 28.04, 0.496617, 1e-6),
        (10, 4, 5, 25.0, None, 1e-8),
    ])
    def test_e1_jump_within_tol(self, M, m, n, rho_db, a2, tol):
        # the E1 mass of a u-column jumps from none to all of it where x
        # crosses the E1 threshold; with the jump inside a panel, the panel's
        # error estimate misses it and P(E1), P(E2) drift past tol
        rho = 10.0**(rho_db / 10.0)
        a2 = a2 or 1.0 / math.sqrt(rho)
        cfg = PairingConfig(M, m, n, rho)
        quad = event_probabilities_quadrature(cfg, a2, tol=tol)
        closed = event_probabilities_closed(cfg, a2)
        assert quad.p1 == pytest.approx(closed.p1, abs=tol)
        assert quad.p2 == pytest.approx(closed.p2, abs=tol)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_event_points())
    def test_e1_e2_within_tol_of_closed_forms(self, point):
        cfg, a2 = point
        quad = event_probabilities_quadrature(cfg, a2, tol=1e-6)
        closed = event_probabilities_closed(cfg, a2)
        assert quad.p1 == pytest.approx(closed.p1, abs=1e-6)
        assert quad.p2 == pytest.approx(closed.p2, abs=1e-6)
