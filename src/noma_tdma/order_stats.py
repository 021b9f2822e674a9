"""Paired order statistics of exponentially distributed effective SNRs.

Out of M i.i.d. Rayleigh users the m-th and n-th weakest (1 <= m < n <= M)
are paired; their effective SNRs x = rho*|h_(m)|^2, y = rho*|h_(n)|^2 are
the m-th and n-th order statistics of M i.i.d. exponential(mean rho) draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
        # written so that NaN fails the check; up to 1e300 (3000 dB) every
        # drawn x or y and every oracle node stays below ~1e303, as
        # -log u <= ~37, while from ~3060 dB on x overflows
        if not 0.0 < self.rho <= 1e300:
            raise ValueError(f"need 0 < rho <= 1e300 (3000 dB), got {self.rho}")

    @property
    def u_shape(self) -> tuple[int, int]:
        """Beta shape (M-m+1, m) of u = exp(-x/rho)."""
        return self.M - self.m + 1, self.m

    @property
    def s_shape(self) -> tuple[int, int]:
        """Beta shape (M-n+1, n-m) of s = exp(-(y-x)/rho), independent of u."""
        return self.M - self.n + 1, self.n - self.m


#: panel edges over a Beta law in sd from its mean; 31 sd hold all but 1e-13
_SD_STEPS = np.array([-31.0, -7.0, -3.0, -1.0, 0.0, 1.0, 3.0, 7.0, 31.0])


def _beta_cuts(a: int, b: int) -> np.ndarray:
    """The points _SD_STEPS sd from the mean of the Beta(a, b) law."""
    mean = a / (a + b)
    return mean + math.sqrt(mean * (1.0 - mean) / (a + b + 1)) * _SD_STEPS


def beta_logpdf(log_t, log_1mt, shape: tuple[int, int]):
    """-log B(a, b) + (a-1) log t + (b-1) log(1-t), the log of the
    Beta(a, b) = `shape` density at t, from log t and log(1-t) as the caller
    computes them best; 1/B(a, b) overflows a float from a + b ~ 1,000 on.
    A term whose exponent is 0 is left out: 0 log 0 = 0 at t = 0 or 1."""
    # imported here, so that the sampler, all Monte Carlo needs, is numpy only
    from scipy.special import betaln
    a, b = shape
    out = -betaln(a, b)
    if a != 1:
        out = out + (a - 1) * log_t
    if b != 1:
        out = out + (b - 1) * log_1mt
    return out


def joint_pdf(x, y, cfg: PairingConfig):
    """Joint density of the paired order statistics at (x, y); zero for x >= y.

    With u = exp(-x/rho) ~ Beta(cfg.u_shape) and s = exp(-(y-x)/rho) ~
    Beta(cfg.s_shape) independent (Renyi 1953), and dx dy = rho^2/(u s) du ds,
    f(x, y) is the product of the two Beta densities times u s / rho^2,
    evaluated in logs by `beta_logpdf`.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # written so that NaN fails the check
    if not ((x > 0.0).all() and (y > 0.0).all()):
        raise ValueError("SNR arguments must be positive")
    rho = cfg.rho
    # clipped where x >= y; those rows are zeroed below
    log_u, log_s = -x / rho, -np.maximum(y - x, 0.0) / rho
    # log(1-u) by expm1, as u rounds off a small x/rho; log 0 = -inf is fine
    with np.errstate(divide="ignore"):
        log_1mu, log_1ms = np.log(-np.expm1(log_u)), np.log(-np.expm1(log_s))
    log_dens = (beta_logpdf(log_u, log_1mu, cfg.u_shape)
                + beta_logpdf(log_s, log_1ms, cfg.s_shape)
                + log_u + log_s - 2.0 * math.log(rho))
    out = np.where(x < y, np.exp(log_dens), 0.0)
    return float(out) if out.ndim == 0 else out


def marginal_cdf_n(t, cfg: PairingConfig):
    """CDF of the n-th order statistic: P(at least n of M draws <= t)."""
    from scipy.special import bdtrc
    t = np.asarray(t, dtype=np.float64)
    # written so that NaN fails the check
    if not (t >= 0.0).all():
        raise ValueError("t must be nonnegative")
    out = bdtrc(cfg.n - 1, cfg.M, -np.expm1(-t / cfg.rho))
    return float(out) if out.ndim == 0 else out


#: spacing runs with a > 1 at least this long are drawn as a gamma ratio,
#: shorter ones as a sum of spacings, each by inversion.  Per 65,536 draws
#: into reused rows on a 2-core x86-64 KVM guest (numpy 2.4.6, SFC64; median
#: of 120 interleaved rounds at a in {5, 190}), a sum of k spacings takes
#: ~0.27*k ms (2.36-2.39 ms at k = 9, 2.68-2.69 ms at k = 10) and the ratio
#: of two gammas 2.48-2.53 ms, so the sum is the cheaper up to k = 9.  Runs
#: with a = 1 and k >= 2 are drawn by inversion of their Beta law instead
#: (`_log_beta_draw`), ~0.7 ms where their gamma ratio took ~1.9 ms.  The
#: value fixes which draws a block makes, so it is part of
#: `montecarlo.RNG_SCHEME`.
GAMMA_RUN = 10


def _log_beta_draw(rng: np.random.Generator, shape: tuple[int, int],
                   rho: float, out: np.ndarray,
                   scratch: np.ndarray) -> None:
    """Fill `out` with draws of -rho*log(B) for B ~ Beta(a, b) = `shape`;
    `scratch`, of the same size, is overwritten.

    This is the sum of b consecutive Renyi spacings, exponentials with means
    rho/(a+b-1), ..., rho/a.  With a = 1 and b > 1, B = 1 - U^(1/b) for
    U ~ Uniform[0, 1) (Devroye 1986), one uniform per draw; with a > 1, a
    run of b >= GAMMA_RUN spacings is drawn as rho*log1p(G_b/G_a) from two
    gamma draws, since B = G_a/(G_a+G_b); any other run is summed, each
    spacing by inversion as -(rho/rate)*log(1 - U) from one uniform.
    """
    a, b = shape
    if a == 1 and b > 1:
        # B = 1 - w for w = U^(1/b) = e^t.  log B is log(-expm1(t)) where
        # w >= 1/2 and log1p(-w) where w <= 1/2 (Maechler's log1mexp), so
        # that both ends keep their digits.  Branch-free, it is
        # log(min(2B, 1)) + log1p(-min(w, 1/2)): log(2B) + log(1/2) above
        # w = 1/2, 0 + log1p(-w) below.  U = 0 gives -rho*log B = 0, so
        # y = x, which sample_pairs redraws
        rng.random(out=out)
        with np.errstate(divide="ignore"):
            np.log(out, out=out)
        out /= b
        np.exp(out, out=scratch)
        np.expm1(out, out=out)
        out *= -2.0
        np.minimum(out, 1.0, out=out)
        np.log(out, out=out)
        np.minimum(scratch, 0.5, out=scratch)
        np.negative(scratch, out=scratch)
        np.log1p(scratch, out=scratch)
        out += scratch
        out *= -rho
        return
    if b >= GAMMA_RUN:
        rng.standard_gamma(b, out=out)
        out /= rng.standard_gamma(a, out=scratch)
        np.log1p(out, out=out)
        out *= rho
        return
    # 1 - U is exact and in (0, 1], so U = 0 is a zero spacing, never inf
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    out *= -rho / (a + b - 1)
    for rate in range(a + b - 2, a - 1, -1):
        rng.random(out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.log(scratch, out=scratch)
        scratch *= -rho / rate
        out += scratch


def sample_pairs(cfg: PairingConfig, rng: np.random.Generator, size: int,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw `size` ordered SNR pairs (x, y); vectorized sampler.

    Renyi (1953) representation: the spacings of M i.i.d. exponential(mean
    rho) order statistics are independent, the (k+1)-th exponential with mean
    rho/(M-k).  x sums the first m spacings and y - x the next n-m, so
    x = -rho*log(u) and y - x = -rho*log(s) with u ~ Beta(cfg.u_shape) and
    s ~ Beta(cfg.s_shape); each is drawn by `_log_beta_draw`, x first.  A
    pair costs at most 2*(GAMMA_RUN-1) = 18 draws, whatever M and n, and
    no sort; with n = M, y - x takes one draw.  A row with y <= x can only
    come from x + (y - x) rounding to x; such rows are redrawn.

    `out`, a float64 array of shape (3, >= size), receives x and y in the
    first `size` entries of its rows 0 and 1 (row 2 is scratch), and x and y
    are returned as views of it; without it, the rows are allocated.
    """
    if out is None:
        out = np.empty((3, size))
    elif out.dtype != np.float64 or out.ndim != 2 or out.shape[0] != 3 \
            or out.shape[1] < size:
        raise ValueError(f"out must be float64 of shape (3, >= {size}), "
                         f"got {out.dtype} {out.shape}")
    x, y, scratch = out[:, :size]
    _log_beta_draw(rng, cfg.u_shape, cfg.rho, x, scratch)
    _log_beta_draw(rng, cfg.s_shape, cfg.rho, y, scratch)
    y += x
    bad = np.flatnonzero(y <= x)
    if bad.size:
        x[bad], y[bad] = sample_pairs(cfg, rng, bad.size)
    return x, y
