import math

import numpy as np
import pytest
from scipy.integrate import quad

from noma_tdma import (
    AverageRates,
    McConfig,
    PairingConfig,
    binomial_interval,
    estimate_average_rates,
    estimate_event_probs,
    optimal_a2_special,
    p_eps2_special,
    sample_pairs,
)
from noma_tdma import montecarlo
from noma_tdma.events import classify_many
from noma_tdma.montecarlo import BLOCK_SIZE, _block_rng
from noma_tdma.regions import noma_rates

RHO25 = 10.0**2.5
CFG = PairingConfig(10, 2, 7, RHO25)
A2 = 1.0 / math.sqrt(RHO25)


class TestMcConfig:
    def test_defaults(self):
        mc = McConfig()
        assert (mc.trials, mc.seed, mc.shards) == (1_000_000, 42, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        with pytest.raises(ValueError):
            McConfig(shards=0)


class TestEventEstimates:
    def test_frequencies_form_distribution(self):
        est = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=50_000))
        assert est.method == "monte_carlo"
        assert math.fsum(est.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in est.as_tuple())
        assert all(se >= 0.0 for se in est.stderr)

    def test_deterministic_for_fixed_seed(self):
        a = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=30_000, seed=9))
        b = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=30_000, seed=9))
        assert a.as_tuple() == b.as_tuple()
        c = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=30_000, seed=10))
        assert a.as_tuple() != c.as_tuple()

    def test_shard_count_does_not_change_the_answer(self):
        # estimates depend only on (seed, trials); shards only controls the
        # worker pool, so 1 and 8 shards must agree bit for bit
        trials = 3 * BLOCK_SIZE + 1234
        a = estimate_event_probs(CFG, A2, 0.5,
                                 McConfig(trials=trials, seed=7, shards=1))
        b = estimate_event_probs(CFG, A2, 0.5,
                                 McConfig(trials=trials, seed=7, shards=8))
        assert a.as_tuple() == b.as_tuple()
        assert a.stderr == b.stderr

    def test_single_trial_matches_direct_draw(self):
        est = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=1, seed=3))
        x, y = sample_pairs(CFG, _block_rng(3, 0), 1)
        label = int(classify_many(x, y, A2, 0.5)[0])
        assert est.as_tuple()[label - 1] == 1.0

    def test_special_case_within_three_stderr(self):
        cfg = PairingConfig(10, 1, 10, RHO25)
        a2 = optimal_a2_special(RHO25)
        est = estimate_event_probs(cfg, a2, 0.5, McConfig(trials=200_000))
        expect = p_eps2_special(10, 0.5)
        assert abs(est.p2 - expect) <= 3.0 * max(est.stderr[1], 1e-6)

    def test_stderr_scales_with_trials(self):
        small = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=20_000))
        large = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=180_000))
        # rare events fluctuate too much for the ratio test, so only compare
        # stderrs where both runs saw the event at a non-trivial frequency
        for p, s, l in zip(large.as_tuple(), small.stderr, large.stderr):
            if p > 0.01:
                assert s / l == pytest.approx(3.0, rel=0.2)


class TestBinomialInterval:
    def test_edge_counts(self):
        lo, hi = binomial_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.06
        lo, hi = binomial_interval(100, 100)
        assert hi == 1.0 and 0.94 < lo < 1.0

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            trials = int(rng.integers(10, 5000))
            successes = int(rng.integers(0, trials + 1))
            lo, hi = binomial_interval(successes, trials)
            assert lo <= successes / trials <= hi

    def test_narrows_with_confidence(self):
        lo90, hi90 = binomial_interval(40, 100, confidence=0.90)
        lo99, hi99 = binomial_interval(40, 100, confidence=0.99)
        assert lo99 < lo90 and hi90 < hi99


class TestAverageRates:
    def test_deterministic_and_shard_invariant(self):
        mc1 = McConfig(trials=BLOCK_SIZE + 100, seed=5, shards=1)
        mc8 = McConfig(trials=BLOCK_SIZE + 100, seed=5, shards=8)
        a = estimate_average_rates(CFG, A2, 0.5, mc1)
        b = estimate_average_rates(CFG, A2, 0.5, mc8)
        assert (a.r1_noma, a.r2_noma, a.r1_tdma, a.r2_tdma) == \
            (b.r1_noma, b.r2_noma, b.r1_tdma, b.r2_tdma)

    def test_weak_user_tdma_mean_against_quadrature(self):
        # M=2, m=1: x = min of two exponentials(rho) ~ exponential(rho/2),
        # and r1_tdma = 0.5 * E[log2(1 + x)]
        rho = 10.0
        cfg = PairingConfig(2, 1, 2, rho)
        est = estimate_average_rates(cfg, 0.2, 0.5,
                                     McConfig(trials=400_000, seed=11))
        expect, _ = quad(
            lambda t: 0.5 * math.log2(1 + t) * (2 / rho) * math.exp(-2 * t / rho),
            0.0, 60.0 * rho, epsabs=1e-12, epsrel=1e-10)
        assert abs(est.r1_tdma - expect) <= 3.0 * est.stderr[2]

    def test_noma_beats_tdma_for_strong_user_at_high_snr(self):
        rho = 10.0**5.5
        cfg = PairingConfig(10, 1, 10, rho)
        a2 = optimal_a2_special(rho)
        est = estimate_average_rates(cfg, a2, 0.5,
                                     McConfig(trials=100_000, seed=12))
        assert est.r2_noma > est.r2_tdma

    def test_stderr_at_high_snr(self, monkeypatch):
        # at 300 dB r1_noma is log2(1/a2) to ~1e-11, where E[r^2] - E[r]^2
        # cancels; compare with numpy's two-pass std over the same draws
        draws = []

        def recording(x, y, a2):
            r1, r2 = noma_rates(x, y, a2)
            draws.append(r1)
            return r1, r2

        monkeypatch.setattr(montecarlo, "noma_rates", recording)
        rho = 1e30
        est = estimate_average_rates(PairingConfig(10, 1, 10, rho),
                                     optimal_a2_special(rho), 0.5,
                                     McConfig(trials=2 * BLOCK_SIZE, seed=1))
        r1 = np.concatenate(draws)
        assert r1.size == 2 * BLOCK_SIZE
        assert est.stderr[0] == pytest.approx(r1.std() / math.sqrt(r1.size),
                                              rel=1e-6)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            AverageRates(-0.1, 1.0, 1.0, 1.0, stderr=(0.0, 0.0, 0.0, 0.0))
