"""Closed-form event probabilities for the equal time split b2 = 1/2.

The alternating binomial series are accumulated as exact rational
coefficients of the polynomial in d = exp(-w2/rho) and only evaluated in
floating point at the end, so they stay accurate even where the naive
term-by-term sums cancel catastrophically (for example at d = 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from scipy.integrate import quad

from .events import e2_threshold
from .order_stats import PairingConfig

LN2 = math.log(2.0)

#: slack used when clamping a series result to the unit interval
CLAMP_TOL = 1e-9

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


def _fsum_desc(terms) -> float:
    """Exact-compensated sum, largest magnitudes first."""
    return math.fsum(sorted(terms, key=abs, reverse=True))


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

def _eps2_poly_coeffs(cfg: PairingConfig) -> dict[int, Fraction]:
    """Exact rational coefficients of P(E2) as a polynomial in d.

    The alternating binomial sums cancel catastrophically in floating point
    (most visibly at d = 1, where the value is exactly 0), so coefficients
    are accumulated as exact fractions, keyed by the power of d.
    """
    M, m, n = cfg.M, cfg.m, cfg.n
    coeffs: dict[int, Fraction] = {}
    for k in range(m):
        sign_k = -1 if (m - 1 - k) % 2 else 1
        base = Fraction(sign_k * cfg.w1 * math.comb(m - 1, k), n - 1 - k)
        # Q1 contribution
        for i in range(n):
            s = -1 if (n - 1 - i) % 2 else 1
            coeffs[M - i] = coeffs.get(M - i, Fraction(0)) \
                + base * s * Fraction(math.comb(n - 1, i), M - i)
        # -Q_{2,k} contribution
        for i in range(k + 1):
            for j in range(n - k):
                s = -1 if (n - 1 - i - j) % 2 else 1
                coeffs[M - i] = coeffs.get(M - i, Fraction(0)) \
                    - base * s * Fraction(
                        math.comb(k, i) * math.comb(n - 1 - k, j), M - i - j)
    return coeffs


def p_eps2_closed(cfg: PairingConfig, a2: float) -> float:
    """P(E2) = P(x < w2 < y): NOMA beats naive TDMA on both individual rates.

    Alternating double/triple binomial series in d = exp(-w2/rho); the outer
    k-term carries the 1/(n-1-k) factor from the underlying Beta integral.
    """
    logd = -e2_threshold(a2) / cfg.rho
    terms = [float(coef) * math.exp(power * logd)
             for power, coef in _eps2_poly_coeffs(cfg).items()]
    return _clamp_probability(_fsum_desc(terms), "P(E2)")


def strong_user_tail(cfg: PairingConfig, a2: float) -> float:
    """P(y > w2): upper tail of the n-th order statistic at the E2 threshold.

    The constant part of the alternating series (1 - w3*sum(...)) cancels to
    exactly zero, so only the powers of d are evaluated in floating point.
    """
    M, n = cfg.M, cfg.n
    logd = -e2_threshold(a2) / cfg.rho
    terms = []
    for i in range(n):
        s = -1 if i % 2 else 1
        coef = s * cfg.w3 * Fraction(math.comb(n - 1, i), M - n + i + 1)
        terms.append(float(coef) * math.exp((M - n + i + 1) * logd))
    return _clamp_probability(_fsum_desc(terms), "P(y > w2)")


def p_eps4_closed(cfg: PairingConfig, a2: float, quad_tol: float = 1e-8) -> float:
    """P(E4) = P(sum_N < sum_T): TDMA beats NOMA on the sum rate.

    1 - P(y > w2) - P(sum_N > sum_T, y < w2); the second term is a single
    1-D integral over y in [sqrt(w2+1)-1, w2], where given y the sum
    comparison flips at x = (w2 - y)/(1 + y).
    """
    if not 1e-12 <= quad_tol <= 1e-4:
        raise ValueError(f"quad_tol must lie in [1e-12, 1e-4], got {quad_tol}")
    M, m, n, rho = cfg.M, cfg.m, cfg.n, cfg.rho
    w2 = e2_threshold(a2)
    lo = math.sqrt(w2 + 1.0) - 1.0
    hi = w2
    if hi > lo:
        coeffs = [(-1.0 if i % 2 else 1.0) * math.comb(n - 1 - m, i) / (m + i)
                  for i in range(n - m)]

        def integrand(yv: float) -> float:
            Fy = -math.expm1(-yv / rho)
            fy = math.exp(-yv / rho) / rho
            g = (w2 - yv) / (1.0 + yv)
            Fg = -math.expm1(-g / rho)
            acc = 0.0
            for i, coef in enumerate(coeffs):
                acc += coef * Fy**(n - 1 - m - i) * (Fy**(m + i) - Fg**(m + i))
            return fy * (1.0 - Fy)**(M - n) * acc

        val, err = quad(integrand, lo, hi, epsabs=quad_tol, epsrel=quad_tol,
                        limit=500)
        if err > max(10.0 * quad_tol, 10.0 * quad_tol * abs(val)):
            raise ConvergenceError(
                f"1-D quadrature error estimate {err} above tolerance {quad_tol}")
        integral = cfg.w1 * val
    else:
        integral = 0.0
    return _clamp_probability(
        1.0 - integral - strong_user_tail(cfg, a2), "P(E4)")


def event_probabilities_closed(cfg: PairingConfig, a2: float,
                               quad_tol: float = 1e-8) -> EventProbabilities:
    """All four closed-form probabilities, normalized by construction.

    P(E1) = P(R2N > R2T) - P(E2) = P(y > w2) - P(E2), and P(E3) is the
    complement of the other three events.
    """
    tail = strong_user_tail(cfg, a2)
    p2 = p_eps2_closed(cfg, a2)
    p1 = _clamp_probability(tail - p2, "P(E1)")
    p4 = p_eps4_closed(cfg, a2, quad_tol)
    p3 = 1.0 - p1 - p2 - p4
    if p3 < -COMPLEMENT_TOL or p3 > 1.0 + COMPLEMENT_TOL:
        raise InconsistencyError(
            f"complement P(E3) = {p3}: closed forms are mutually inconsistent")
    return EventProbabilities(p1, p2, min(max(p3, 0.0), 1.0), p4,
                              method="closed_form")
