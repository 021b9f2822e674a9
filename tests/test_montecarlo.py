import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from noma_tdma import montecarlo
from noma_tdma.analytic import p_eps2_special
from noma_tdma.events import classify_many, e2_threshold, optimal_a2_special
from noma_tdma.montecarlo import (
    BLOCK_SIZE,
    AverageRates,
    McConfig,
    estimate_average_rates,
    estimate_event_probs,
)
from noma_tdma.order_stats import PairingConfig, sample_pairs
from noma_tdma.validation import binomial_interval
from noma_tdma.regions import noma_rates, tdma_rates

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

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_domain_ends_are_accepted(self, seed):
        est = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=1, seed=seed))
        assert sorted(est.as_tuple()) == [0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_128_bits_rejected(self, seed):
        # SeedSequence would take 2**128 and up; the seed's domain does not
        # grow with the generator
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=seed)


class TestEventEstimates:
    def test_frequencies_form_distribution(self):
        est = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=50_000))
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

    def test_later_calls_reuse_the_worker_threads(self, monkeypatch):
        # a thread started per call would take a malloc arena that the last
        # call's exiting threads may not have freed yet; kept workers cannot
        threads = []

        def recording(*args):
            threads.append(threading.current_thread())
            return sample_pairs(*args)

        monkeypatch.setattr(montecarlo, "sample_pairs", recording)
        mc = McConfig(trials=6 * BLOCK_SIZE, seed=7, shards=2)
        estimate_event_probs(CFG, A2, 0.5, mc)
        first = set(threads)
        threads.clear()
        estimate_event_probs(CFG, A2, 0.5, mc)
        assert threading.main_thread() not in first
        assert 1 <= len(first) <= 2
        assert set(threads) <= first

    @pytest.mark.parametrize("cpus", [1, None])
    def test_threads_capped_at_the_cpu_count(self, monkeypatch, cpus):
        # one CPU (or an unknown count) runs every block on the calling
        # thread, whatever --shards asks for
        threads = []

        def recording(*args):
            threads.append(threading.current_thread())
            return sample_pairs(*args)

        monkeypatch.setattr(montecarlo, "sample_pairs", recording)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        estimate_event_probs(CFG, A2, 0.5, McConfig(trials=2 * BLOCK_SIZE,
                                                    seed=7, shards=2))
        assert len(threads) == 2
        assert set(threads) == {threading.main_thread()}

    def test_single_trial_matches_direct_draw(self):
        est = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=1, seed=3))
        # block 0 of seed 3 draws from the documented stream
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(3, spawn_key=(0,))))
        x, y = sample_pairs(CFG, rng, 1)
        label = int(classify_many(x, y, A2, 0.5)[0])
        assert est.as_tuple()[label - 1] == 1.0

    def test_block_streams_are_distinct(self):
        # 64 (seed, block) streams, (s, b) and (b, s) among them: a dropped
        # spawn key (8 streams), a symmetric mix such as seed + block, or
        # streams that overlap within their first 256 outputs (leading
        # draws included) repeat values; each stream is the documented
        # Generator(SFC64(SeedSequence(seed, spawn_key=(block,))))
        streams = [np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(block,))))
            for seed in range(8) for block in range(8)]
        raw = [rng.bit_generator.random_raw(256) for rng in streams]
        assert len(set(np.concatenate(raw).tolist())) == 64 * 256

    def test_special_case_within_three_stderr(self):
        cfg = PairingConfig(10, 1, 10, RHO25)
        a2 = optimal_a2_special(RHO25)
        est = estimate_event_probs(cfg, a2, 0.5, McConfig(trials=200_000))
        expect = p_eps2_special(10, 0.5)
        assert abs(est.p2 - expect) <= 3.0 * max(est.stderr[1], 1e-6)

    @pytest.mark.parametrize("M", [2, 3, 10, 200])
    def test_extreme_pairing_against_p_eps2_special(self, M):
        # an outside witness for the draw of y - x, which at n = M is one
        # uniform by inversion (a single spacing at M = 2): P(E2) at (M, 1, M)
        # is 1 - (1-d)^M - d^M for d = F(w2), and rho puts P(y < w2) = d^M
        # at 1/2, where P(E2) rests on the law of y
        a2 = 0.25
        w2 = e2_threshold(a2)
        rho = -w2 / math.log1p(-0.5 ** (1.0 / M))
        trials = 4 * BLOCK_SIZE
        est = estimate_event_probs(PairingConfig(M, 1, M, rho), a2, 0.5,
                                   McConfig(trials=trials, seed=31))
        expect = p_eps2_special(M, -math.expm1(-w2 / rho))
        assert abs(est.p2 - expect) <= 6.0 * max(
            est.stderr[1], math.sqrt(expect * (1.0 - expect) / trials))

    def test_stderr_scales_with_trials(self):
        small = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=20_000))
        large = estimate_event_probs(CFG, A2, 0.5, McConfig(trials=180_000))
        # rare events fluctuate too much for the ratio test, so only compare
        # stderrs where both runs saw the event at a non-trivial frequency
        for p, s, l in zip(large.as_tuple(), small.stderr, large.stderr):
            if p > 0.01:
                assert s / l == pytest.approx(3.0, rel=0.2)


def _plain_estimates(cfg, a2, b2, trials, seed):
    """Both estimates from the definition: block b draws its whole block from
    SFC64(SeedSequence(seed, spawn_key=(b,))) and classifies and rates it in
    one call each; rate sums are about each block's first draw."""
    counts = np.zeros(4, dtype=np.int64)
    parts = []
    for block, start in enumerate(range(0, trials, BLOCK_SIZE)):
        count = min(BLOCK_SIZE, trials - start)
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(block,))))
        x, y = sample_pairs(cfg, rng, count)
        counts += np.bincount(classify_many(x, y, a2, b2), minlength=5)[1:]
        rates = np.stack([*noma_rates(x, y, a2), *tdma_rates(x, y, b2)])
        shift = rates[:, 0].copy()
        rates -= shift[:, None]
        sums = rates.sum(axis=1)
        rates -= (sums / count)[:, None]
        parts.append((count, shift, sums, np.square(rates).sum(axis=1)))
    p = counts / trials
    events = (*p, *np.sqrt(p * (1.0 - p) / trials))
    base = parts[0][1]
    total = np.zeros(4)
    for count, shift, block_sums, _ in parts:
        total += count * (shift - base) + block_sums
    mean = total / trials
    sq = np.zeros(4)
    for count, shift, block_sums, block_sq in parts:
        sq += block_sq + count * (shift - base + block_sums / count - mean)**2
    return events, (*(base + mean), *np.sqrt(sq / trials / trials))


class TestLanesAndChunks:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("trials", [1000, 3 * BLOCK_SIZE + 1234])
    # y - x is a sum of spacings, one uniform by inversion, and a gamma
    # ratio with a > 1
    @pytest.mark.parametrize("cfg", [CFG, PairingConfig(200, 1, 200, RHO25),
                                     PairingConfig(200, 1, 190, RHO25)],
                             ids=["sums", "inversion", "gamma"])
    def test_bit_identical_to_plain_definition(self, cfg, trials, shards):
        # 1,000 trials is below CHUNK; 5 shards ask for more lanes than the
        # 4 blocks
        mc = McConfig(trials=trials, seed=21, shards=shards)
        events, rates = _plain_estimates(cfg, A2, 0.5, trials, mc.seed)
        est = estimate_event_probs(cfg, A2, 0.5, mc)
        avg = estimate_average_rates(cfg, A2, 0.5, mc)
        assert [float(v).hex() for v in est.as_tuple() + est.stderr] == \
            [float(v).hex() for v in events]
        assert [float(v).hex() for v in (avg.r1_noma, avg.r2_noma,
                                         avg.r1_tdma, avg.r2_tdma)
                + avg.stderr] == [float(v).hex() for v in rates]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_pinned_output(self, shards):
        # the reference above classifies with the same classify_many, so a
        # change of label would move both; these exact values would not move
        mc = McConfig(trials=3 * BLOCK_SIZE + 17, seed=21, shards=shards)
        est = estimate_event_probs(CFG, A2, 0.5, mc)
        avg = estimate_average_rates(CFG, A2, 0.5, mc)
        assert [float(v).hex() for v in est.as_tuple() + est.stderr] == [
            "0x1.014fa33cb8529p-9", "0x1.49bd5e243fdd4p-1",
            "0x1.6a4aa5ae55242p-2", "0x1.bff6158d85de1p-13",
            "0x1.a2af892ef85b7p-14", "0x1.1b0ffbf49a83bp-10",
            "0x1.1aac1342dfa52p-10", "0x1.14754a4f31fa9p-15"]
        assert [float(v).hex() for v in (avg.r1_noma, avg.r2_noma,
                                         avg.r1_tdma, avg.r2_tdma)
                + avg.stderr] == [
            "0x1.d5c4d1c2b9728p+1", "0x1.10467e52ea81cp+2",
            "0x1.6d93c990762aep+1", "0x1.0a78960c1d6dap+2",
            "0x1.b38332c1fbcc0p-11", "0x1.460f096618c0cp-10",
            "0x1.48c12039a9365p-10", "0x1.59be9533fbb25p-11"]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_pinned_inversion_output(self, shards):
        # (10,1,10): x is one spacing and y - x one uniform by inversion
        mc = McConfig(trials=3 * BLOCK_SIZE + 17, seed=21, shards=shards)
        cfg = PairingConfig(10, 1, 10, RHO25)
        est = estimate_event_probs(cfg, A2, 0.5, mc)
        avg = estimate_average_rates(cfg, A2, 0.5, mc)
        assert [float(v).hex() for v in est.as_tuple() + est.stderr] == [
            "0x1.ea9fce766e0b9p-14", "0x1.fd62b97b3a45bp-1",
            "0x1.42f8d9d32da8ap-8", "0x1.fff4aaeae2225p-15",
            "0x1.992f5a64d50c2p-16", "0x1.5117253529570p-13",
            "0x1.4b313cfa4f655p-13", "0x1.27919a4b21985p-16"]
        assert [float(v).hex() for v in (avg.r1_noma, avg.r2_noma,
                                         avg.r1_tdma, avg.r2_tdma)
                + avg.stderr] == [
            "0x1.8ba903f3b61a2p+1", "0x1.6734f90e77eecp+2",
            "0x1.156307a51186ap+1", "0x1.3780538a4c730p+2",
            "0x1.e723cefc2b406p-10", "0x1.58fe20691bd9bp-10",
            "0x1.cabfc03ad3696p-10", "0x1.608331a7a73f9p-11"]

    @pytest.mark.parametrize("estimate,rows", [
        (estimate_event_probs, 3),  # x, y and the sampler's scratch
        (estimate_average_rates, 6),  # x, y and the four rates
    ])
    def test_peak_memory_is_the_lane_rows_and_chunk_temporaries(
            self, estimate, rows):
        # numpy reports its buffers to tracemalloc, so any full-block
        # temporary beyond the lane's rows would show here
        mc = McConfig(trials=8 * BLOCK_SIZE, seed=3, shards=1)
        estimate(CFG, A2, 0.5, mc)
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            estimate(CFG, A2, 0.5, mc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not outer:
                tracemalloc.stop()
        # classify_many and the rate functions each hold under five
        # CHUNK-sized float64 arrays at their peak
        assert peak <= (rows * BLOCK_SIZE + 6 * montecarlo.CHUNK) * 8


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

    def test_gamma_runs_are_shard_invariant(self):
        # y - x is a run of 189 spacings with a = 11, drawn as a gamma
        # ratio; every draw reaches the means, so any change in the sample
        # set shows
        cfg = PairingConfig(200, 1, 190, RHO25)
        a = estimate_average_rates(cfg, A2, 0.5, McConfig(
            trials=3 * BLOCK_SIZE + 1234, seed=7, shards=1))
        b = estimate_average_rates(cfg, A2, 0.5, McConfig(
            trials=3 * BLOCK_SIZE + 1234, seed=7, shards=2))
        assert a == b

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
        # cancels, and so do block means taken without a shift.  The
        # reference is a two-pass over the same draws less the first, which
        # is exact (the draws are within a factor 2 of each other), with
        # correctly rounded sums
        draws = []

        def recording(x, y, a2, out):
            r1, r2 = noma_rates(x, y, a2, out=out)
            # out is a row of the lane's buffer, which the next chunk reuses
            draws.append(r1.copy())
            return r1, r2

        monkeypatch.setattr(montecarlo, "noma_rates", recording)
        rho = 1e30
        est = estimate_average_rates(PairingConfig(10, 1, 10, rho),
                                     optimal_a2_special(rho), 0.5,
                                     McConfig(trials=2 * BLOCK_SIZE, seed=1))
        r1 = np.concatenate(draws)
        assert r1.size == 2 * BLOCK_SIZE
        d = r1 - r1[0]
        mean = math.fsum(d) / d.size
        var = math.fsum(np.square(d - mean)) / d.size
        assert est.stderr[0] == pytest.approx(math.sqrt(var / d.size),
                                              rel=1e-12, abs=0.0)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            AverageRates(-0.1, 1.0, 1.0, 1.0, stderr=(0.0, 0.0, 0.0, 0.0))
