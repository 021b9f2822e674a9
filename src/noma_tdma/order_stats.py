"""Paired order statistics of exponentially distributed effective SNRs.

Out of M i.i.d. Rayleigh users the m-th and n-th weakest (1 <= m < n <= M)
are paired; their effective SNRs x = rho*|h_(m)|^2, y = rho*|h_(n)|^2 are
the m-th and n-th order statistics of M i.i.d. exponential(mean rho) draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtrc


@dataclass(frozen=True)
class PairingConfig:
    """Population size M, paired order indices (m, n), transmit SNR rho."""

    M: int
    m: int
    n: int
    rho: float

    def __post_init__(self):
        if not (isinstance(self.M, int) and isinstance(self.m, int)
                and isinstance(self.n, int)):
            raise ValueError("M, m, n must be integers")
        if not 1 <= self.m < self.n <= self.M:
            raise ValueError(f"need 1 <= m < n <= M, got (M,m,n)=({self.M},{self.m},{self.n})")
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")

    @property
    def w1(self) -> int:
        """Joint order-statistic normalization M!/((m-1)!(n-1-m)!(M-n)!)."""
        return math.factorial(self.M) // (
            math.factorial(self.m - 1) * math.factorial(self.n - 1 - self.m)
            * math.factorial(self.M - self.n))

    @property
    def u_shape(self) -> tuple[int, int]:
        """Beta shape (M-m+1, m) of u = exp(-x/rho)."""
        return self.M - self.m + 1, self.m

    @property
    def s_shape(self) -> tuple[int, int]:
        """Beta shape (M-n+1, n-m) of s = exp(-(y-x)/rho), independent of u."""
        return self.M - self.n + 1, self.n - self.m

    @property
    def w3(self) -> int:
        """n-th order-statistic normalization M!/((n-1)!(M-n)!)."""
        return math.factorial(self.M) // (
            math.factorial(self.n - 1) * math.factorial(self.M - self.n))


def joint_pdf(x, y, cfg: PairingConfig):
    """Joint density of the paired order statistics at (x, y); zero for x >= y.

    With u = exp(-x/rho) ~ Beta(cfg.u_shape) and s = exp(-(y-x)/rho) ~
    Beta(cfg.s_shape) independent (Renyi 1953), and dx dy = rho^2/(u s) du ds,

        f(x, y) = w1/rho^2 u^a_u (1-u)^(b_u-1) s^a_s (1-s)^(b_s-1)

    where w1 = 1/(B(u_shape) B(s_shape)).  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("SNR arguments must be positive")
    (a_u, b_u), (a_s, b_s) = cfg.u_shape, cfg.s_shape
    u = np.exp(-x / cfg.rho)
    # clipped so that exp cannot overflow where x >= y; those are zeroed below
    s = np.exp(-np.maximum(y - x, 0.0) / cfg.rho)
    dens = (cfg.w1 / cfg.rho**2 * u**a_u * (1.0 - u)**(b_u - 1)
            * s**a_s * (1.0 - s)**(b_s - 1))
    out = np.where(x < y, dens, 0.0)
    return float(out) if out.ndim == 0 else out


def marginal_cdf_n(t, cfg: PairingConfig):
    """CDF of the n-th order statistic: P(at least n of M draws <= t)."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    out = bdtrc(cfg.n - 1, cfg.M, -np.expm1(-t / cfg.rho))
    return float(out) if out.ndim == 0 else out


def sample_pairs(cfg: PairingConfig, rng: np.random.Generator,
                 size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw `size` ordered SNR pairs (x, y); vectorized sampler.

    Renyi (1953) representation: the spacings of M i.i.d. exponential(mean
    rho) order statistics are independent, the (k+1)-th exponential with mean
    rho/(M-k).  x sums the first m spacings and y = x plus the next n-m, so
    a pair costs n draws and no sort.  A row with y <= x can only come from
    x + spacings rounding to x; such rows are redrawn.
    """
    x = np.zeros(size)
    s = np.zeros(size)
    for k in range(cfg.n):
        spacing = rng.standard_exponential(size) * (cfg.rho / (cfg.M - k))
        if k < cfg.m:
            x += spacing
        else:
            s += spacing
    y = x + s
    bad = np.flatnonzero(y <= x)
    if bad.size:
        x[bad], y[bad] = sample_pairs(cfg, rng, bad.size)
    return x, y
