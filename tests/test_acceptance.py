"""Top-level acceptance suite.

Each test covers one release criterion and prints a single pass/fail line,
so running `pytest tests/test_acceptance.py -v -s` yields a compact report.
"""
import math
import time

from noma_tdma import validation
from noma_tdma.analytic import p_eps2_closed, p_eps4_closed
from noma_tdma.events import optimal_a2_special
from noma_tdma.montecarlo import (
    McConfig,
    estimate_average_rates,
    estimate_event_probs,
)
from noma_tdma.order_stats import PairingConfig
from noma_tdma.quadrature import event_probabilities_quadrature

RHO25 = 10.0**2.5
SEED = 42


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_special_case_probability():
    t0 = time.perf_counter()
    cfg = PairingConfig(10, 1, 10, RHO25)
    a2 = optimal_a2_special(RHO25)
    closed = p_eps2_closed(cfg, a2)
    expect = 1.0 - 2.0**-9
    err = abs(closed - expect)

    mc = estimate_event_probs(cfg, a2, 0.5,
                              McConfig(trials=1_000_000, seed=SEED))
    mc_err = abs(mc.p2 - expect)
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-12 and mc_err <= 3.0 * mc.stderr[1] and elapsed < 10.0
    _report("criterion 1 (special-case probability)", ok,
            f"closed err = {err:.1e}, MC err = {mc_err:.1e} vs "
            f"3*stderr = {3 * mc.stderr[1]:.1e}, {elapsed:.1f} s")


def test_criterion_2_three_way_agreement():
    t0 = time.perf_counter()
    records = validation.check_probabilities(SEED, trials=1_000_000,
                                             quad_tol=1e-6)
    elapsed = time.perf_counter() - t0
    failed = [r["check"] for r in records if not r["passed"]]
    ok = not failed and elapsed < 300.0
    _report("criterion 2 (three-way agreement)", ok,
            f"{len(records) - len(failed)}/{len(records)} grid points agree, "
            f"{elapsed:.0f} s" + (f", failed: {failed}" if failed else ""))


def test_criterion_3_proposition_suite():
    t0 = time.perf_counter()
    records = validation.check_propositions(SEED)
    elapsed = time.perf_counter() - t0
    failed = [r["check"] for r in records if not r["passed"]]
    ok = not failed and elapsed < 60.0
    _report("criterion 3 (proposition suite)", ok,
            f"{len(records) - len(failed)}/{len(records)} checks on 1e6 "
            f"draws, {elapsed:.1f} s" + (f", failed: {failed}" if failed else ""))


def test_criterion_4_region_geometry():
    records = validation.check_regions(SEED)
    failed = [r["check"] for r in records if not r["passed"]]
    _report("criterion 4 (region geometry)", not failed,
            f"{len(records) - len(failed)}/{len(records)} geometry checks"
            + (f", failed: {failed}" if failed else ""))


def test_criterion_5_order_statistics_fidelity():
    records = validation.check_orderstats(SEED, samples=1_000_000)
    failed = [r["check"] for r in records if not r["passed"]]
    _report("criterion 5 (order-statistics fidelity)", not failed,
            f"{len(records) - len(failed)}/{len(records)} fidelity checks at "
            f"1e6 samples" + (f", failed: {failed}" if failed else ""))


def test_criterion_6_pairing_gap_trend():
    a2 = 1.0 / math.sqrt(RHO25)
    vals = [p_eps2_closed(PairingConfig(10, 1, n, RHO25), a2)
            for n in range(2, 11)]
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    spread = vals[-1] > vals[0]
    _report("criterion 6 (pairing gap trend)", monotone and spread,
            f"P(E2) rises from {vals[0]:.4f} at n=2 to {vals[-1]:.4f} at n=10")


def test_criterion_7_average_rate_gaps():
    t0 = time.perf_counter()
    gaps = {}
    for rho_db in (50.0, 55.0):
        rho = 10.0**(rho_db / 10.0)
        cfg = PairingConfig(10, 1, 10, rho)
        a2 = optimal_a2_special(rho)
        est = estimate_average_rates(cfg, a2, 0.5,
                                     McConfig(trials=1_000_000, seed=SEED))
        gaps[rho_db] = (est.r1_noma - est.r1_tdma, est.r2_noma - est.r2_tdma)
    g1, g2 = gaps[55.0]
    drift = max(abs(gaps[55.0][i] - gaps[50.0][i]) for i in (0, 1))
    elapsed = time.perf_counter() - t0
    # the weak user keeps nearly all the power for the full slot, so its gain
    # is the larger one: asymptotically 2.08 + 0.5*log2(ln 2) ~ 1.8 BPCU,
    # while the strong user's gain tends to 1.42 - 0.5*log2(ln 2) ~ 1.0 BPCU
    ok = 1.5 <= g1 <= 2.5 and 0.5 <= g2 <= 1.5 and drift < 0.3 \
        and elapsed < 60.0
    _report("criterion 7 (average rate gaps)", ok,
            f"55 dB gaps r1 = {g1:.3f}, r2 = {g2:.3f} BPCU, "
            f"50-to-55 dB drift = {drift:.3f}, {elapsed:.1f} s")


def test_criterion_8_sum_rate_event_adjudication():
    worst = 0.0
    for (m, n) in validation.AGREEMENT_PAIRS:
        for rho_db in validation.AGREEMENT_RHO_DB:
            rho = 10.0**(rho_db / 10.0)
            cfg = PairingConfig(10, m, n, rho)
            a2 = 1.0 / math.sqrt(rho)
            closed = p_eps4_closed(cfg, a2)
            oracle = event_probabilities_quadrature(cfg, a2, 0.5, 1e-6).p4
            worst = max(worst, abs(closed - oracle))
    # within the oracle's tol
    _report("criterion 8 (sum-rate event adjudication)", worst <= 1e-6,
            f"worst |closed - quadrature| P(E4) = {worst:.1e}; the corrected "
            f"closed form stands")
