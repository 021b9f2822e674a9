import math

from noma_tdma import McConfig, PairingConfig, estimate_event_probs, p_eps4_closed
from noma_tdma import validation


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
