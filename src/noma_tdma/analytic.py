"""Closed-form event probabilities for the equal time split b2 = 1/2.

At b2 = 1/2 the E2 event is the threshold event x < w2 < y.  With
K ~ Binomial(M, F(w2)) the number of the M gains below w2, x < w2 iff
K >= m and y > w2 iff K <= n-1, so P(y > w2) and P(E2) are binomial CDFs.
P(E4) is P(y < sqrt(1+w2) - 1) plus a 1-D integral over y whose
conditional inner probability is a regularized incomplete beta
(David & Nagaraja, *Order Statistics*, section 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import bdtr, bdtrc, betainc

from .events import e2_threshold
from .order_stats import PairingConfig

LN2 = math.log(2.0)

#: slack used when clamping a rounded or integrated result to the unit interval
CLAMP_TOL = 1e-9

#: absolute and relative tolerance of the 1-D P(E4) integral
QUAD_TOL = 1e-12

#: slack allowed on the complement identity before declaring inconsistency
COMPLEMENT_TOL = 1e-6


class InconsistencyError(ArithmeticError):
    """The closed forms produced a value incompatible with a probability."""


class ConvergenceError(RuntimeError):
    """Adaptive numerical integration failed to reach the requested tolerance."""


@dataclass(frozen=True)
class EventProbabilities:
    """Distribution over the four events, with computation-method metadata."""

    p1: float
    p2: float
    p3: float
    p4: float
    method: str  # 'closed_form' | 'quadrature' | 'monte_carlo'
    stderr: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        probs = self.as_tuple()
        for p in probs:
            if not -CLAMP_TOL <= p <= 1.0 + CLAMP_TOL:
                raise InconsistencyError(f"probability {p} outside [0, 1]")
        total = math.fsum(probs)
        if self.method == "monte_carlo":
            slack = 4.0 * math.fsum(self.stderr) if self.stderr else 1e-9
        else:
            slack = 1e-9
        if abs(total - 1.0) > max(slack, 1e-9):
            raise InconsistencyError(f"probabilities sum to {total}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


def _clamp_probability(p: float, what: str) -> float:
    if p < -CLAMP_TOL or p > 1.0 + CLAMP_TOL:
        raise InconsistencyError(f"{what} = {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# special pairing case m = 1, n = M
# ---------------------------------------------------------------------------

def p_eps2_special(M: int, d: float) -> float:
    """P(E2) for the extreme pairing (m, n) = (1, M): 1 - (1-d)^M - d^M."""
    if not 0.0 < d <= 1.0:
        raise ValueError(f"need d in (0, 1], got {d}")
    if M < 2:
        raise ValueError("need M >= 2")
    return 1.0 - (1.0 - d)**M - d**M


def optimal_a2_special(rho: float) -> float:
    """Power split that maximizes P(E2) for (m, n) = (1, M): makes d = 1/2.

    a2 = (sqrt(1 + rho*ln2) - 1) / (rho*ln2), always below 1/2.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    c = rho * LN2
    # sqrt(1+c)-1 rewritten to avoid cancellation for small c
    return math.expm1(0.5 * math.log1p(c)) / c


# ---------------------------------------------------------------------------
# general pairing closed forms (b2 = 1/2)
# ---------------------------------------------------------------------------

def _threshold_cdf(cfg: PairingConfig, a2: float) -> float:
    """F(w2): probability that one gain lies below the E2 threshold."""
    return -math.expm1(-e2_threshold(a2) / cfg.rho)


def p_eps2_closed(cfg: PairingConfig, a2: float) -> float:
    """P(E2) = P(x < w2 < y): NOMA beats naive TDMA on both individual rates.

    P(m <= K <= n-1) for K ~ Binomial(M, F(w2)).
    """
    q = _threshold_cdf(cfg, a2)
    # the difference of two CDFs can land a few ulp below zero
    return _clamp_probability(
        float(bdtr(cfg.n - 1, cfg.M, q) - bdtr(cfg.m - 1, cfg.M, q)), "P(E2)")


def strong_user_tail(cfg: PairingConfig, a2: float) -> float:
    """P(y > w2) = P(K <= n-1): fewer than n of the M gains lie below w2."""
    return float(bdtr(cfg.n - 1, cfg.M, _threshold_cdf(cfg, a2)))


def p_eps4_closed(cfg: PairingConfig, a2: float) -> float:
    """P(E4) = P(sum_N < sum_T): TDMA beats NOMA on the sum rate.

    E4 holds whenever y < lo = sqrt(1+w2) - 1, and for y in [lo, w2] when
    x < g(y) = (w2 - y)/(1 + y).  Given y, the other n-1 gains below y are
    i.i.d. with CDF F/F(y), so P(x < g | y) = I_{F(g)/F(y)}(m, n-m).
    """
    M, m, n, rho = cfg.M, cfg.m, cfg.n, cfg.rho
    w2 = e2_threshold(a2)
    lo = math.sqrt(w2 + 1.0) - 1.0
    below_lo = float(bdtrc(n - 1, M, -math.expm1(-lo / rho)))
    if w2 <= lo:
        return _clamp_probability(below_lo, "P(E4)")

    def integrand(yv: float) -> float:
        Fy = -math.expm1(-yv / rho)
        Fg = -math.expm1(-(w2 - yv) / (1.0 + yv) / rho)
        density = cfg.w3 * Fy**(n - 1) * math.exp(-(M - n + 1) * yv / rho) / rho
        return density * betainc(m, n - m, Fg / Fy)

    # full_output keeps scipy from warning on its own heuristics (e.g.
    # "probably divergent"); the error estimate is judged below instead
    val, err, *_ = quad(integrand, lo, w2, epsabs=QUAD_TOL, epsrel=QUAD_TOL,
                        limit=500, full_output=1)
    if err > max(10.0 * QUAD_TOL, 10.0 * QUAD_TOL * abs(val)):
        raise ConvergenceError(
            f"1-D quadrature error estimate {err} above tolerance {QUAD_TOL}")
    # the integral's own error can carry the sum a hair past 1
    return _clamp_probability(below_lo + val, "P(E4)")


def event_probabilities_closed(cfg: PairingConfig, a2: float) -> EventProbabilities:
    """All four closed-form probabilities, normalized by construction.

    P(E1) = P(R2N > R2T) - P(E2) = P(y > w2) - P(E2), and P(E3) is the
    complement of the other three events.
    """
    tail = strong_user_tail(cfg, a2)
    p2 = p_eps2_closed(cfg, a2)
    p1 = _clamp_probability(tail - p2, "P(E1)")
    p4 = p_eps4_closed(cfg, a2)
    p3 = 1.0 - p1 - p2 - p4
    if p3 < -COMPLEMENT_TOL or p3 > 1.0 + COMPLEMENT_TOL:
        raise InconsistencyError(
            f"complement P(E3) = {p3}: closed forms are mutually inconsistent")
    return EventProbabilities(p1, p2, min(max(p3, 0.0), 1.0), p4,
                              method="closed_form")
