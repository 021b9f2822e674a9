"""Closed-form event probabilities for the equal time split b2 = 1/2.

At b2 = 1/2 the E2 event is the threshold event x < w2 < y.  With
K ~ Binomial(M, F(w2)) the number of the M gains below w2, x < w2 iff
K >= m and y > w2 iff K <= n-1, so P(y > w2) and P(E2) are binomial CDFs.
P(E4) is a 1-D integral over x of the m-th order-statistic density times
the binomial tail of the gap y - x (David & Nagaraja, *Order Statistics*,
section 2), done here by adaptive Gauss-Legendre quadrature in numpy.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, bdtrc, betaln

from .events import e2_threshold
from .order_stats import PairingConfig

LN2 = math.log(2.0)

#: slack used when clamping a rounded or integrated result to the unit interval
CLAMP_TOL = 1e-9

#: absolute tolerance of the 1-D P(E4) integral
QUAD_TOL = 1e-12

#: the 8-node Gauss-Legendre rule on [-1, 1], also used by `quadrature`
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# nodes of the rule on (0, 1), then on its two halves, left half first;
# column j of the weights gives the whole (j = 0) or half estimate
_PANEL_NODES = np.concatenate((_GL_NODES + 1.0, 0.5 * (_GL_NODES + 1.0),
                               0.5 * (_GL_NODES + 3.0))) / 2.0
_PANEL_WEIGHTS = np.zeros((24, 3))
_PANEL_WEIGHTS[:8, 0] = 0.5 * _GL_WEIGHTS
_PANEL_WEIGHTS[8:16, 1] = _PANEL_WEIGHTS[16:, 2] = 0.25 * _GL_WEIGHTS

#: levels of panels (the starting panels are the first), and panels at one
#: level, before the P(E4) integral gives up
_QUAD_LEVELS = 40
_QUAD_PANELS = 1024

# Starting panels of the P(E4) integral end where its integrand can hold
# features narrower than a long panel's node spacing: 0, 1, 3, 7 and 31 sd
# from the mean of a Beta law (beyond 31 sd lies < 1e-13 of its mass);
# 1 + x = (1 + lo)^(1/4, 1/2, 3/4), over which P(E4 | x) can decay as a
# power of 1 + x; and x = rho * 2^k up to 16 rho, where q crowds toward 1
_SD_STEPS = np.array([-31.0, -7.0, -3.0, -1.0, 0.0, 1.0, 3.0, 7.0, 31.0])
_LO_STEPS = np.array([0.25, 0.5, 0.75])
_RHO_STEPS = 2.0 ** np.arange(5.0)

# upper end of the P(E4) integral in q
_Q_MAX = 1.0 - 2.0**-40

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


def _integrate(f: Callable[[np.ndarray], np.ndarray],
               edges: np.ndarray) -> float:
    """Integral of f from edges[0] to edges[-1] to QUAD_TOL, by adaptive
    8-node Gauss-Legendre panels starting from those between the edges; f
    maps an array of nodes to integrand values.

    The error of a panel is |whole - (left + right)|.  A panel whose error
    is within a quarter of its share of the unspent QUAD_TOL (split evenly
    over the panels of its level) contributes its two halves; every other
    panel is split into those halves.  The quarter is a margin for a panel
    too coarse for its integrand, whose halves can be as far off as the
    whole.  The nodes of all panels of a level are evaluated in one call
    of f."""
    lo = edges[:-1]
    width = np.diff(edges)
    fx = f((lo[:, None] + width[:, None] * _PANEL_NODES).ravel())
    est = (fx.reshape(lo.size, 24) @ _PANEL_WEIGHTS) * width[:, None]
    whole, halves = est[:, 0], est[:, 1:]
    budget = QUAD_TOL
    total = 0.0
    for level in range(1, _QUAD_LEVELS + 1):
        err = np.abs(whole - halves.sum(axis=1))
        done = 4.0 * err <= budget / err.size
        if done.all():
            return total + float(halves.sum())
        total += float(halves[done].sum())
        budget -= float(err[done].sum())
        refine = ~done
        if (level == _QUAD_LEVELS
                or 2 * np.count_nonzero(refine) > _QUAD_PANELS):
            break
        width = 0.5 * width[refine]
        lo = np.stack((lo[refine], lo[refine] + width), axis=1).ravel()
        width = np.repeat(width, 2)
        whole = halves[refine].ravel()
        fx = f((lo[:, None] + width[:, None] * _PANEL_NODES[8:]).ravel())
        halves = ((fx.reshape(lo.size, 16) @ _PANEL_WEIGHTS[8:, 1:])
                  * width[:, None])
    raise ConvergenceError(
        f"1-D quadrature budget of {_QUAD_LEVELS} levels or {_QUAD_PANELS} "
        f"panels per level exhausted; residual error estimate "
        f"{float(err[refine].sum()):.3e} above the {budget:.3e} left of "
        f"tolerance {QUAD_TOL}")


def _beta_cuts(a: int, b: int) -> np.ndarray:
    """The points _SD_STEPS standard deviations from the mean of a Beta(a, b)
    law."""
    mean = a / (a + b)
    return mean + math.sqrt(mean * (1.0 - mean) / (a + b + 1)) * _SD_STEPS


def p_eps4_closed(cfg: PairingConfig, a2: float) -> float:
    """P(E4) = P(sum_N < sum_T): TDMA beats NOMA on the sum rate.

    E4 holds iff (1+x)(1+y) < 1+w2, i.e. x < lo = sqrt(1+w2) - 1 and
    y < g(x) = (w2 - x)/(1 + x).  Given x, y - x is the (n-m)-th smallest of
    M-m i.i.d. gains (memoryless), so P(E4 | x) = P(K' >= n-m) for
    K' ~ Binomial(M-m, F(g(x) - x)), and P(E4) = int_0^lo f_m(x) P(E4 | x) dx.
    The integral runs over q = F(x), where f_m is the Beta(m, M-m+1)
    density, so its nodes see the mass of x however far lo lies beyond it.
    """
    M, m, n, rho = cfg.M, cfg.m, cfg.n, cfg.rho
    w2 = e2_threshold(a2)
    lo = math.expm1(0.5 * math.log1p(w2))
    # beyond _Q_MAX lies < M^2 * 1e-24 of q's mass; stopping there keeps
    # every node off q = 1, where log1p(-q) = -inf
    top = min(-math.expm1(-lo / rho), _Q_MAX)
    # at a2 = 1/2, w2 = 0 and the interval is empty
    if not top > 0.0:
        return 0.0
    # log of the Beta normaliser, which overflows a float from M ~ 1,000 on
    log_norm = -betaln(m, M - m + 1)

    def integrand(q: np.ndarray) -> np.ndarray:
        log_u = np.log1p(-q)
        xv = -rho * log_u
        density = np.exp(log_norm + (m - 1) * np.log(q) + (M - m) * log_u)
        # rounding can carry x a hair past lo, where the gap turns negative
        gap = np.maximum((w2 - xv) / (1.0 + xv) - xv, 0.0)
        return density * bdtrc(n - m - 1, M - m, -np.expm1(-gap / rho))

    # a ratio over rho may overflow to inf at extreme w2 or rho, which maps
    # to q = 1 or F = 1 as it should
    with np.errstate(over="ignore"):
        # the integrand is the Beta(m, M-m+1) density of q times P(E4 | x),
        # the Beta(n-m, M-n+1) CDF at p = F(g(x) - x); the cuts of the latter
        # are mapped back to q through the root x of g(x) - x = -rho*log(1-p)
        p = _beta_cuts(n - m, M - n + 1)
        gap = -rho * np.log1p(-p[p < 1.0])
        x_cuts = np.concatenate((
            0.5 * (np.sqrt(gap**2 + 4.0 * (1.0 + w2)) - (2.0 + gap)),
            np.expm1(math.log1p(lo) * _LO_STEPS), rho * _RHO_STEPS))
        cuts = np.concatenate((_beta_cuts(m, M - m + 1),
                               -np.expm1(-x_cuts / rho)))
        edges = np.concatenate(
            ([0.0], np.sort(cuts[(cuts > 0.0) & (cuts < top)]), [top]))
        p4 = _integrate(integrand, edges)
    # the integral's own error can carry it a hair past 1
    return _clamp_probability(p4, "P(E4)")


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
