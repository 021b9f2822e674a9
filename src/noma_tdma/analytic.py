"""Closed-form event probabilities for the equal time split b2 = 1/2.

At b2 = 1/2 the E2 event is the threshold event x < w2 < y.  With
K ~ Binomial(M, F(w2)) the number of the M gains below w2, x < w2 iff
K >= m and y > w2 iff K <= n-1.  So P(E1) = P(K <= m-1), P(E2) =
P(m <= K <= n-1) and, as E4 implies y < w2, P(E3) = P(K >= n) - P(E4):
none is one minus the others, and their sum is checked.  P(E4) is a 1-D
integral over x of the m-th order-statistic density times the binomial
tail of the gap y - x (David & Nagaraja, *Order Statistics*, section 2),
done by adaptive Gauss-Legendre quadrature in numpy to an absolute 1e-12,
with no relative guarantee: at (50,10,30), 60 dB, a2 = 1/sqrt(rho),
P(E4) = 6.0e-49 is 2.8e-7 off relative.
"""
from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from scipy.special import bdtr, bdtrc

from .events import (ConvergenceError, EventProbabilities,
                     InconsistencyError, e2_threshold)
from .order_stats import PairingConfig, _beta_cuts, beta_logpdf

#: slack used when clamping a rounded or integrated result to the unit interval
CLAMP_TOL = 1e-9

#: absolute tolerance of the 1-D P(E4) integral
QUAD_TOL = 1e-12

#: the 8-node Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# nodes of the rule on (0, 1), then on its two halves, left half first;
# column j of the weights gives the whole (j = 0) or half estimate
_PANEL_NODES = np.concatenate((_GL_NODES + 1.0, 0.5 * (_GL_NODES + 1.0),
                               0.5 * (_GL_NODES + 3.0))) / 2.0
_PANEL_WEIGHTS = np.zeros((24, 3))
_PANEL_WEIGHTS[:8, 0] = 0.5 * _GL_WEIGHTS
_PANEL_WEIGHTS[8:16, 1] = _PANEL_WEIGHTS[16:, 2] = 0.25 * _GL_WEIGHTS

#: levels of panels (the starting panels are the first), and panels at one
#: level, before `beta_expect` gives up; the one budget of the P(E4) integral
#: and of the quadrature oracle
_QUAD_LEVELS = 40
_QUAD_PANELS = 1024

# Starting panels of the P(E4) integral end where its integrand can hold
# features narrower than a long panel's node spacing: at the
# `order_stats._beta_cuts` of its two Beta laws; at 1 + x = (1 + lo)^(1/4,
# 1/2, 3/4), over which P(E4 | x) can decay as a power of 1 + x; and at
# x = rho * 2^k up to 16 rho, where q crowds toward 1: without these, P(E4)
# = 1 - 1.47e-11 at (M, m, n) = (5, 4, 5), rho_dB = 24.366, a2 = 2.507e-4 is
# 9.3e-12 off, and so is P(E3) = 1.47e-11
_LO_STEPS = np.array([0.25, 0.5, 0.75])
_RHO_STEPS = 2.0 ** np.arange(5.0)

# upper end of the P(E4) integral in q
_Q_MAX = 1.0 - 2.0**-40


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


# ---------------------------------------------------------------------------
# general pairing closed forms (b2 = 1/2)
# ---------------------------------------------------------------------------

def _threshold_cdf(cfg: PairingConfig, a2: float) -> float:
    """F(w2): probability that one gain lies below the E2 threshold."""
    return -math.expm1(-e2_threshold(a2) / cfg.rho)


def p_eps2_closed(cfg: PairingConfig, a2: float) -> float:
    """P(E2) = P(x < w2 < y): NOMA beats naive TDMA on both individual rates.

    P(m <= K <= n-1) for K ~ Binomial(M, F(w2)), as the difference of the
    two tails nearer 0, so that a small P(E2) keeps its relative accuracy.
    """
    M, m, n, q = cfg.M, cfg.m, cfg.n, _threshold_cdf(cfg, a2)
    if strong_user_tail(cfg, a2) <= 0.5:
        p2 = bdtr(n - 1, M, q) - bdtr(m - 1, M, q)
    else:
        p2 = bdtrc(m - 1, M, q) - bdtrc(n - 1, M, q)
    # the difference of two tails can land a few ulp below zero
    return _clamp_probability(float(p2), "P(E2)")


def strong_user_tail(cfg: PairingConfig, a2: float) -> float:
    """P(y > w2) = P(K <= n-1): fewer than n of the M gains lie below w2."""
    return float(bdtr(cfg.n - 1, cfg.M, _threshold_cdf(cfg, a2)))


def _panel_estimates(fx: np.ndarray, width: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """Gauss-Legendre estimates of panels of the given widths from their
    node values fx, one row of k components per node, len(weights) nodes
    per panel; shape (panels, k, columns of weights)."""
    nodes, cols = weights.shape
    rows = fx.reshape(width.size, nodes, -1).transpose(0, 2, 1)
    est = rows.reshape(-1, nodes) @ weights
    return est.reshape(width.size, -1, cols) * width[:, None, None]


def beta_expect(shape: tuple[int, int], g: Callable[..., np.ndarray],
                cuts: np.ndarray, top: float = 1.0,
                tol: float = QUAD_TOL) -> np.ndarray:
    """The k integrals over (0, top) of g against the Beta(`shape`) density
    (`beta_logpdf`) to an absolute tol, by adaptive 8-node Gauss-Legendre
    panels starting from those split at the `cuts` inside (0, top); g(t,
    log(1 - t)) maps an array of nodes t to one row of k values per node.

    The error of a panel is the sum over the components of
    |whole - (left + right)|.  A panel whose error is within a quarter of
    its share of the unspent tol (split evenly over the panels of its level)
    contributes its two halves; every other panel is split into those
    halves.  The quarter is a margin for a panel too coarse for its
    integrand, whose halves can be as far off as the whole.  The nodes of
    all panels of a level are evaluated in one call of g."""
    def f(t: np.ndarray) -> np.ndarray:
        log_1mt = np.log1p(-t)
        # beta_logpdf is a scalar for the uniform law, both exponents 0
        dens = np.exp(beta_logpdf(np.log(t), log_1mt, shape))
        return dens[..., None] * g(t, log_1mt)

    edges = np.concatenate(
        ([0.0], np.unique(cuts[(cuts > 0.0) & (cuts < top)]), [top]))
    lo = edges[:-1]
    width = np.diff(edges)
    fx = f((lo[:, None] + width[:, None] * _PANEL_NODES).ravel())
    est = _panel_estimates(fx, width, _PANEL_WEIGHTS)
    whole, halves = est[:, :, 0], est[:, :, 1:]
    budget = tol
    total = 0.0
    for level in range(1, _QUAD_LEVELS + 1):
        err = np.abs(whole - halves.sum(axis=2)).sum(axis=1)
        done = 4.0 * err <= budget / err.size
        if done.all():
            return total + halves.sum(axis=(0, 2))
        total += halves[done].sum(axis=(0, 2))
        budget -= float(err[done].sum())
        refine = ~done
        if (level == _QUAD_LEVELS
                or 2 * np.count_nonzero(refine) > _QUAD_PANELS):
            break
        width = 0.5 * width[refine]
        lo = np.stack((lo[refine], lo[refine] + width), axis=1).ravel()
        width = np.repeat(width, 2)
        whole = halves[refine].transpose(0, 2, 1).reshape(lo.size, -1)
        fx = f((lo[:, None] + width[:, None] * _PANEL_NODES[8:]).ravel())
        halves = _panel_estimates(fx, width, _PANEL_WEIGHTS[8:, 1:])
    raise ConvergenceError(
        f"quadrature budget of {_QUAD_LEVELS} levels or {_QUAD_PANELS} "
        f"panels per level exhausted; residual error estimate "
        f"{float(err[refine].sum()):.3e} above the {budget:.3e} left of "
        f"tolerance {tol}")


def p_eps4_closed(cfg: PairingConfig, a2: float) -> float:
    """P(E4) = P(sum_N < sum_T): TDMA beats NOMA on the sum rate.

    E4 holds iff (1+x)(1+y) < 1+w2, i.e. x < lo = sqrt(1+w2) - 1 and
    y < g(x) = (w2 - x)/(1 + x).  Given x, y - x is the (n-m)-th smallest of
    M-m i.i.d. gains (memoryless), so P(E4 | x) = P(K' >= n-m) for
    K' ~ Binomial(M-m, F(g(x) - x)), and P(E4) = int_0^lo f_m(x) P(E4 | x) dx.
    The integral runs over q = F(x) = 1 - u, as `beta_expect` of P(E4 | x)
    against q's law Beta(u_shape[::-1]), so its nodes see the mass of x
    however far lo lies beyond it.
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

    def tail(q: np.ndarray, log_1mq: np.ndarray) -> np.ndarray:
        xv = -rho * log_1mq
        # rounding can carry x a hair past lo, where the gap turns negative
        gap = np.maximum((w2 - xv) / (1.0 + xv) - xv, 0.0)
        return bdtrc(n - m - 1, M - m, -np.expm1(-gap / rho))[:, None]

    # a ratio over rho may overflow to inf at extreme w2 or rho, which maps
    # to q = 1 or F = 1 as it should
    with np.errstate(over="ignore"):
        # the cuts of q's law, and those of P(E4 | x), the Beta(s_shape[::-1])
        # CDF at p = F(g(x) - x), mapped back to q through the root x of
        # g(x) - x = -rho*log(1-p)
        p = _beta_cuts(*cfg.s_shape[::-1])
        gap = -rho * np.log1p(-p[p < 1.0])
        x_cuts = np.concatenate((
            0.5 * (np.sqrt(gap**2 + 4.0 * (1.0 + w2)) - (2.0 + gap)),
            np.expm1(math.log1p(lo) * _LO_STEPS), rho * _RHO_STEPS))
        cuts = np.concatenate((_beta_cuts(*cfg.u_shape[::-1]),
                               -np.expm1(-x_cuts / rho)))
        (p4,) = beta_expect(cfg.u_shape[::-1], tail, cuts, top)
    # the integral's own error can carry it a hair past 1
    return _clamp_probability(float(p4), "P(E4)")


def event_probabilities_closed(cfg: PairingConfig, a2: float) -> EventProbabilities:
    """All four closed-form probabilities, each from its own binomial tail.

    P(E1) = P(K <= m-1), P(E2) is `p_eps2_closed`, and P(E3) = P(K >= n) -
    P(E4).  As none is one minus the others, their sum is a real check:
    this function raises InconsistencyError if it is more than 1e-9 off 1.
    """
    q = _threshold_cdf(cfg, a2)
    p4 = p_eps4_closed(cfg, a2)
    # the integral's error can carry P(E4) a hair past P(K >= n)
    p3 = _clamp_probability(float(bdtrc(cfg.n - 1, cfg.M, q)) - p4, "P(E3)")
    probs = EventProbabilities(float(bdtr(cfg.m - 1, cfg.M, q)),
                               p_eps2_closed(cfg, a2), p3, p4)
    total = math.fsum(probs.as_tuple())
    if abs(total - 1.0) > 1e-9:
        raise InconsistencyError(f"probabilities sum to {total}, not 1")
    return probs
