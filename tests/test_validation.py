import dataclasses
import math

import numpy as np

from noma_tdma import validation
from noma_tdma.analytic import p_eps4_closed
from noma_tdma.montecarlo import McConfig, estimate_event_probs
from noma_tdma.order_stats import GAMMA_RUN, PairingConfig, sample_pairs
from noma_tdma.regions import f_noma_slope


class TestProbabilityAgreement:
    def test_event_never_sampled(self, monkeypatch):
        # at (5,6), 30 dB, P(E4) ~ 2.8e-7: 1e5 trials expect 0.03 E4 draws,
        # so the estimate is 0 with stderr 0; an exact sampler must pass
        monkeypatch.setattr(validation, "AGREEMENT_PAIRS", [(5, 6)])
        monkeypatch.setattr(validation, "AGREEMENT_RHO_DB", [30.0])
        cfg = PairingConfig(10, 5, 6, 1000.0)
        a2 = 1.0 / math.sqrt(1000.0)
        mc = estimate_event_probs(cfg, a2, 0.5, McConfig(trials=100_000, seed=42))
        assert mc.p4 == 0.0 and p_eps4_closed(cfg, a2) > 0.0
        [record] = validation.check_probabilities(42, trials=100_000)
        assert record["passed"], record["detail"]

    def test_grid_is_judged_family_wise(self):
        # 60 intervals at 99.73% each fail an exact sampler on about one seed
        # in ten; seed 3 draws P(E4) 3.2 sigma out at (1,2) 20 dB
        records = validation.check_probabilities(3, quad_tol=1e-4)
        assert len(records) == 15
        assert all(r["passed"] for r in records), \
            [r["detail"] for r in records if not r["passed"]]


def test_chi_square_sees_the_joint_law(monkeypatch):
    # x drawn as the (m+1)-th order statistic leaves the y marginal as it is,
    # so only the joint chi-square can tell
    def shifted(cfg, rng, size):
        if cfg.m + 1 < cfg.n:
            cfg = dataclasses.replace(cfg, m=cfg.m + 1)
        return sample_pairs(cfg, rng, size)

    monkeypatch.setattr(validation, "sample_pairs", shifted)
    records = {r["check"]: r for r in validation.check_orderstats(0)}
    assert not records["sampler_joint_chi_square"]["passed"]
    assert records["sampler_marginal_ks"]["passed"]


def test_regions_see_a_wrong_slope(monkeypatch):
    monkeypatch.setattr(validation, "f_noma_slope",
                        lambda z, x, y: 1.01 * f_noma_slope(z, x, y))
    records = {r["check"]: r for r in validation.check_regions(0)}
    assert not records.pop("analytic_slope")["passed"]
    assert all(r["passed"] for r in records.values())


def test_chi_square_sees_a_wrong_long_run(monkeypatch):
    # a run of b spacings is -rho log B, B ~ Beta(a, b) = G_a/(G_a + G_b);
    # drawing G_(b+1) instead, for both long runs (inversion at a = 1, the
    # gamma ratio at a = 3), shifts only that factor
    def wrong_shape(cfg, rng, size):
        x, y = sample_pairs(cfg, rng, size)
        a, b = cfg.s_shape
        if b >= GAMMA_RUN:
            y = x + cfg.rho * np.log1p(rng.standard_gamma(b + 1, size)
                                       / rng.standard_gamma(a, size))
        return x, y

    monkeypatch.setattr(validation, "sample_pairs", wrong_shape)
    records = {r["check"]: r for r in validation.check_orderstats(0)}
    assert not records.pop("sampler_joint_chi_square_long_run")["passed"]
    assert not records.pop("sampler_joint_chi_square_gamma_run")["passed"]
    assert all(r["passed"] for r in records.values())
