"""Rate pairs and region boundaries for the two-user downlink Gaussian BC.

Conventions: user 1 is the weaker user (effective SNR x), user 2 the
stronger user (effective SNR y), 0 < x < y.  All rates are in bits per
channel use (BPCU), all SNRs are linear (not dB).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

#: absolute slack accepted outside a boundary's z-domain before erroring
DOMAIN_SLACK = 1e-12


class InfeasibleSplitError(ValueError):
    """The strong user was given more than half the power (a2 > 1/2)."""


def log2_1p(v):
    """log2(1 + v), accurate for small v.  Works on scalars and arrays."""
    return np.log1p(v) / LN2


@dataclass(frozen=True)
class ChannelPair:
    """Ordered effective SNR pair: x for the weaker user, y for the stronger."""

    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("channel SNRs must be finite")
        if not 0.0 < self.x < self.y:
            raise ValueError(f"need 0 < x < y, got x={self.x}, y={self.y}")


@dataclass(frozen=True)
class PowerSplit:
    """NOMA power allocation.  Only a2 is stored; a1 = 1 - a2 by construction."""

    a2: float

    def __post_init__(self):
        if not (np.isfinite(self.a2) and 0.0 <= self.a2 <= 1.0):
            raise ValueError(f"a2 must lie in [0, 1], got {self.a2}")

    @property
    def a1(self) -> float:
        return 1.0 - self.a2

    def require_noma(self) -> None:
        """NOMA gives the weaker user at least half the power."""
        if self.a2 > 0.5:
            raise InfeasibleSplitError(
                f"NOMA requires a2 <= 1/2, got a2={self.a2}"
            )


@dataclass(frozen=True)
class TimeSplit:
    """TDMA time-sharing fractions.  Only b2 is stored; b1 = 1 - b2."""

    b2: float

    def __post_init__(self):
        if not (np.isfinite(self.b2) and 0.0 <= self.b2 <= 1.0):
            raise ValueError(f"b2 must lie in [0, 1], got {self.b2}")

    @property
    def b1(self) -> float:
        return 1.0 - self.b2


@dataclass(frozen=True)
class RatePair:
    """An achievable rate point (r1 weak user, r2 strong user), in BPCU."""

    r1: float
    r2: float

    def __post_init__(self):
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise ValueError(f"rates must be nonnegative, got ({self.r1}, {self.r2})")


# ---------------------------------------------------------------------------
# low-level rate formulas (scalar or ndarray arguments)
# ---------------------------------------------------------------------------

def noma_rates(x, y, a2):
    """Superposition-coding rates (r1, r2) at power split (1-a2, a2).

    r2 = log2(1 + a2*y); r1 = log2(1 + (1-a2)x / (1 + a2*x)), evaluated
    as log2((1+x)/(1+a2*x)) for numerical stability.
    """
    r2 = log2_1p(np.multiply(a2, y))
    r1 = (np.log1p(x) - np.log1p(np.multiply(a2, x))) / LN2
    return r1, r2


def tdma_rates(x, y, b2):
    """Time-sharing rates (b1*R1*, b2*R2*)."""
    return (1.0 - b2) * log2_1p(x), b2 * log2_1p(y)


def f_noma(z, x, y):
    """Weak-user rate f^N(z) = log2((1+x)y / (y + (2^z - 1)x)) on the
    NOMA/capacity boundary at strong-user rate z."""
    return log2_1p(x) - log2_1p(np.expm1(z * LN2) * x / y)


def f_noma_slope(z, x, y):
    """Derivative of f^N at z: -x 2^z / (y - x + x 2^z)."""
    p = np.exp2(z) * x
    return -p / (y - x + p)


def f_tdma(z, x, y):
    """Weak-user rate f^T(z) = (1 - z/R2*) R1* on the TDMA segment."""
    return (1.0 - z / log2_1p(y)) * log2_1p(x)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def single_user_rates(ch: ChannelPair) -> tuple[float, float]:
    """Single-user capacities (R1*, R2*) = (log2(1+x), log2(1+y))."""
    return float(log2_1p(ch.x)), float(log2_1p(ch.y))


def noma_rate_pair(ch: ChannelPair, p: PowerSplit) -> RatePair:
    """Operating point N on the NOMA boundary for power split p."""
    p.require_noma()
    r1, r2 = noma_rates(ch.x, ch.y, p.a2)
    return RatePair(float(r1), float(r2))


def tdma_rate_pair(ch: ChannelPair, t: TimeSplit) -> RatePair:
    """Operating point T on the TDMA segment for time split t."""
    r1, r2 = tdma_rates(ch.x, ch.y, t.b2)
    return RatePair(float(r1), float(r2))


def _check_z(z: float, zmax: float) -> float:
    """Clamp z into [0, zmax] within DOMAIN_SLACK; hard error beyond that."""
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    if z < -DOMAIN_SLACK or z > zmax + DOMAIN_SLACK:
        raise ValueError(f"z={z} outside boundary domain [0, {zmax}]")
    return min(max(z, 0.0), zmax)


def noma_boundary(z: float, ch: ChannelPair) -> float:
    """Weak-user rate on the NOMA/capacity boundary at strong-user rate z.

    Evaluates f_noma for z in [0, R2*].
    """
    _, r2_star = single_user_rates(ch)
    return float(f_noma(_check_z(z, r2_star), ch.x, ch.y))


def tdma_boundary(z: float, ch: ChannelPair) -> float:
    """Weak-user rate on the TDMA segment at strong-user rate z."""
    _, r2_star = single_user_rates(ch)
    return float(f_tdma(_check_z(z, r2_star), ch.x, ch.y))


def noma_boundary_slope(z: float, ch: ChannelPair) -> float:
    """Analytic derivative of the NOMA boundary at strong-user rate z.

    Evaluates f_noma_slope for z in [0, R2*].
    """
    _, r2_star = single_user_rates(ch)
    return float(f_noma_slope(_check_z(z, r2_star), ch.x, ch.y))


#: the capacity boundary is the NOMA curve, swept over all of a2 in [0, 1]
_BOUNDARIES = {
    "capacity": noma_boundary,
    "noma": noma_boundary,
    "tdma": tdma_boundary,
}


def noma_arc_z_max(ch: ChannelPair) -> float:
    """Strong-user rate at point F, the a2 = 1/2 end of the NOMA arc."""
    return float(log2_1p(ch.y / 2.0))


def region_boundary_samples(kind: str, ch: ChannelPair, count: int) -> list[RatePair]:
    """Sample `count` points on the selected boundary, uniform in r2.

    For 'capacity' and 'tdma' the sweep covers [0, R2*]; for 'noma' it stops
    at point F (a2 = 1/2).  The first point is always (R1*, 0).
    """
    if kind not in _BOUNDARIES:
        raise ValueError(f"unknown region kind {kind!r}")
    if count < 2:
        raise ValueError("count must be at least 2")
    _, r2_star = single_user_rates(ch)
    z_max = noma_arc_z_max(ch) if kind == "noma" else r2_star
    fn = _BOUNDARIES[kind]
    z_grid = np.linspace(0.0, z_max, count)
    return [RatePair(max(fn(float(z), ch), 0.0), float(z)) for z in z_grid]
