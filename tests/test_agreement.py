"""The agreement gate: the closed forms, the quadrature oracle and seeded
Monte Carlo, held to each other and to `benchmarks/refs.json`, which
`benchmarks/refs.py` computes in 40-digit mpmath from first principles,
apart from the package.  Each method pair has one rule:

* the oracle: its error summed over the four events is within its tol;
* the closed forms against refs.json: each event within 1e-12;
* Monte Carlo: each estimate within 6 standard errors, for an event
  frequency the larger of its own and sqrt(p (1 - p) / N) at the
  reference p.

The oracle and Monte Carlo both label pairs with `events.classify_many`,
so they measure the classifier's events, its tie band included; the closed
forms and refs.json do not label pairs.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noma_tdma.analytic import event_probabilities_closed
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

REFS = json.loads((Path(__file__).resolve().parents[1] / "benchmarks"
                   / "refs.json").read_text(encoding="utf-8"))["values"]


@st.composite
def event_points(draw, max_M=40, max_db=40.0):
    """(cfg, a2) with M <= max_M, 6.1 dB to max_db, and a2 = 1/sqrt(rho),
    uniform on [0.01, 1/2] or the special split."""
    M = draw(st.integers(2, max_M))
    m = draw(st.integers(1, M - 1))
    n = draw(st.integers(m + 1, M))
    rho = 10.0**(draw(st.floats(6.1, max_db)) / 10.0)
    a2 = draw(st.one_of(st.just(1.0 / math.sqrt(rho)), st.floats(0.01, 0.5),
                        st.just(optimal_a2_special(rho))))
    return PairingConfig(M, m, n, rho), a2


def _refs(kind: str):
    """(key, cfg, a2, reference) for every `kind` point of refs.json, at
    a2 = 1/sqrt(rho) or the special split, as its key says; the rates are
    at the special split."""
    for key, ref in REFS.items():
        name, M, m, n, rho_db, *mode = key.split("/")
        if name == kind:
            rho = 10.0**(float(rho_db) / 10.0)
            a2 = (1.0 / math.sqrt(rho) if mode == ["inv_sqrt_rho"]
                  else optimal_a2_special(rho))
            yield key, PairingConfig(int(M), int(m), int(n), rho), a2, ref


def _oracle_error(cfg: PairingConfig, a2: float, tol: float,
                  expect) -> float:
    """The oracle's error at tol, b2 = 1/2, summed over the four events."""
    probs = event_probabilities_quadrature(cfg, a2, 0.5, tol)
    return math.fsum(abs(p - e) for p, e in zip(probs.as_tuple(), expect))


def _assert_within_six_sigma(got, expect, stderr, where: str) -> None:
    misses = [(i, g, e, s) for i, (g, e, s) in
              enumerate(zip(got, expect, stderr), start=1)
              if not abs(g - e) <= 6.0 * s]
    assert not misses, f"{where}: (index, got, expect, stderr) {misses}"


@pytest.mark.parametrize("tol", [1e-6, 1e-7, 1e-8])
def test_oracle_within_tol_of_refs(tol):
    misses = [(key, err) for key, cfg, a2, ref in _refs("events")
              if not (err := _oracle_error(cfg, a2, tol, ref)) <= tol]
    assert not misses


def test_closed_forms_within_1e_12_of_refs():
    for key, cfg, a2, ref in _refs("events"):
        assert event_probabilities_closed(cfg, a2).as_tuple() == \
            pytest.approx(ref, abs=1e-12), key


@pytest.mark.parametrize("M, m, n, rho_db, a2, tol", [
    # the quad-grid benchmark's fault: an E3 sliver inside one bracket
    (10, 1, 10, 20.0, None, 1e-6),
    # 1.6e-4 off with the first label change of a bracket cut alone
    (20, 1, 14, 20.0, None, 1e-8),
    # E4 holds only for u > 0.99886, above the top node of its panel
    (10, 1, 4, 58.81, 0.00115, 1e-6),
    # 5.3e-3 off, at exit 0, with the E1 jump the only starting edge
    (27, 1, 10, 10.6, 0.295, 8.3e-8),
    # the u-law within ~1e-4 of u = 1: ConvergenceError without the
    # event-set edges
    (20_000, 1, 2, 25.0, None, 1e-6),
    (1_000_000, 1, 2, 25.0, None, 1e-6),
    # the u-law within ~m/M of u = 1: ConvergenceError without its own
    # sd edges as starting edges; with eight fixed starting panels the
    # masses summed to 0.87 and 0.15
    (100_000, 1, 2, 25.0, None, 1e-6),
    (100_000, 4, 20, 25.0, None, 1e-6),
    # P(E4) = 1.43e-5 for 9.73e-5, at exit 0, with eight fixed panels
    # in place of the u-law's sd edges
    (48, 1, 30, 48.23, 0.0038774638699958118, 1e-6),
    # mass at x = O(1), within ~1e-5 of u = 1: 2.5e-6 and 4.1e-6 off
    # without the x-scale edges
    (19, 1, 15, 55.59, 0.00166, 1e-6),
    (7, 1, 7, 57.773739487652485, 0.0009476178180621937, 1e-6),
    # the x-scale edge exp(-256/rho) is ~1e-322, a subnormal on which
    # Gauss nodes round to u = 0, where x = inf
    (11, 6, 7, -4.625, 0.1, 1e-6),
    # the u-law's own sd edges lie within ~1e-16 of u = 1, where Gauss
    # nodes round onto u = 1
    (100_000_000, 1, 2, 25.0, None, 1e-6),
    # the E1 mass of a u-column jumps from none to all of it where x
    # crosses the E1 threshold; with the jump inside a panel, the panel's
    # error estimate misses it and P(E1), P(E2) drift past tol
    (38, 26, 27, 39.2, 0.010971, 1e-6),
    # the jump lies within 1e-4 of u = 1
    (6, 1, 4, 28.04, 0.496617, 1e-6),
    (10, 4, 5, 25.0, None, 1e-8),
    # a stop on the error summed over all panels alone can leave
    # P(E3)/P(E4) 2e-6 off here
    (10, 5, 6, 20.0, None, 1e-6),
    # criterion-2 grid points at 25 dB that refs.json lacks
    (10, 1, 10, 25.0, None, 1e-6),
    (10, 5, 6, 25.0, None, 1e-6),
    # the Beta(u_shape) normaliser underflows a float at M = 2000
    (2000, 230, 250, 10.0, 0.4, 1e-6),
    # the classifier's tie band, |h| <= TIE_TOL = 1e-12 BPCU, is
    # TIE_TOL ln 2 / |h'| wide in SNR and labelled by the tie-break; near
    # a2 = 1/2 it holds mass the closed forms' strict events do not:
    # P(E2) = 4.798e-4 closed, 3.878e-4 from the oracle (Monte Carlo
    # 3.67e-4), a summed error of 1.84e-4, 184 tol
    pytest.param(60, 1, 2, 0.0, 0.499999, 1e-6, marks=pytest.mark.xfail(
        strict=True, reason="the classifier's tie band holds mass")),
])
def test_oracle_within_tol_of_closed_forms(M, m, n, rho_db, a2, tol):
    rho = 10.0**(rho_db / 10.0)
    a2 = a2 or 1.0 / math.sqrt(rho)
    cfg = PairingConfig(M, m, n, rho)
    closed = event_probabilities_closed(cfg, a2).as_tuple()
    assert _oracle_error(cfg, a2, tol, closed) <= tol


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(event_points())
def test_oracle_within_tol_of_closed_forms_anywhere(point):
    # summed over the four events: P(E3) and P(E4) too, which move with the
    # event bands the probe grids can miss.  At tols down to 1e-8, draws
    # near a2 = 1/2 meet the tie band of the xfail row above
    cfg, a2 = point
    closed = event_probabilities_closed(cfg, a2).as_tuple()
    assert _oracle_error(cfg, a2, 1e-6, closed) <= 1e-6


@pytest.mark.parametrize("M, m, n, trials", [
    # both runs are sums of spacings
    (10, 2, 7, 65_536),
    # y - x is drawn by inversion
    (10, 1, 10, 262_144),
    # x is a sum of five spacings with a large a, y - x a single spacing
    (200, 5, 6, 131_072),
])
def test_monte_carlo_within_six_sigma_of_closed_forms(M, m, n, trials):
    cfg, a2 = PairingConfig(M, m, n, RHO25), 1.0 / math.sqrt(RHO25)
    p = np.array(event_probabilities_closed(cfg, a2).as_tuple())
    mc = estimate_event_probs(cfg, a2, 0.5, McConfig(trials=trials, seed=SEED))
    _assert_within_six_sigma(
        mc.as_tuple(), p,
        np.maximum(mc.stderr, np.sqrt(p * (1.0 - p) / trials)), "events")


def test_monte_carlo_rates_within_six_sigma_of_refs():
    for key, cfg, a2, ref in _refs("rates"):
        est = estimate_average_rates(cfg, a2, 0.5,
                                     McConfig(trials=65_536, seed=SEED))
        _assert_within_six_sigma(
            (est.r1_noma, est.r2_noma, est.r1_tdma, est.r2_tdma), ref,
            est.stderr, key)
