"""Rate pairs and region boundaries for the two-user downlink Gaussian BC.

Conventions: user 1 is the weaker user (effective SNR x), user 2 the
stronger user (effective SNR y), 0 < x < y.  All rates are in bits per
channel use (BPCU), all SNRs are linear (not dB).
"""
from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def log2_1p(v):
    """log2(1 + v), accurate for small v.  Works on scalars and arrays."""
    return np.log1p(v) / LN2


# ---------------------------------------------------------------------------
# low-level rate formulas (scalar or ndarray arguments)
# ---------------------------------------------------------------------------

def noma_rates(x, y, a2, out=None):
    """Superposition-coding rates (r1, r2) at power split (1-a2, a2).

    r2 = log2(1 + a2*y); r1 = log2(1 + (1-a2)x / (1 + a2*x)), evaluated
    as log2((1+x)/(1+a2*x)) for numerical stability.  Both are written into
    the two rows of `out` (float64, allocated if None) and returned as views.
    """
    if out is None:
        out = np.empty((2, *np.broadcast(x, y, a2).shape))
    r1, r2 = out[0, ...], out[1, ...]
    np.log1p(x, out=r1)
    # r2 holds log1p(a2*x) until r1 is done
    np.multiply(a2, x, out=r2)
    np.log1p(r2, out=r2)
    r1 -= r2
    r1 /= LN2
    np.multiply(a2, y, out=r2)
    np.log1p(r2, out=r2)
    r2 /= LN2
    return r1, r2


def tdma_rates(x, y, b2, out=None):
    """Time-sharing rates (b1*R1*, b2*R2*); `out` as in `noma_rates`."""
    if out is None:
        out = np.empty((2, *np.broadcast(x, y, b2).shape))
    r1, r2 = out[0, ...], out[1, ...]
    np.log1p(x, out=r1)
    r1 /= LN2
    r1 *= 1.0 - b2
    np.log1p(y, out=r2)
    r2 /= LN2
    r2 *= b2
    return r1, r2


def f_noma(z, x, y):
    """Weak-user rate f^N(z) = log2((1+x)y / (y + (2^z - 1)x)) on the
    NOMA/capacity boundary at strong-user rate z."""
    grown = np.expm1(z * LN2)
    with np.errstate(over="ignore"):
        t = grown * x / y
    # (2^z - 1) x leaves the normal floats once x y passes ~1.8e308 or falls
    # below ~2.2e-308; 2^z - 1 <= y times x/y < 1 does not
    redo = np.isinf(t) | (t < np.finfo(np.float64).tiny)
    return log2_1p(x) - log2_1p(np.where(redo, grown * (x / y), t))


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

#: the capacity boundary is the NOMA curve, swept over all of a2 in [0, 1]
_BOUNDARIES = {
    "capacity": f_noma,
    "noma": f_noma,
    "tdma": f_tdma,
}


def region_boundary_samples(kind: str, x: float, y: float,
                            count: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (r1, r2) of `count` points on the selected boundary of the
    channel pair 0 < x < y, uniform in r2.

    For 'capacity' and 'tdma' the sweep covers [0, R2*]; for 'noma' it stops
    at point F (a2 = 1/2).  The first point is always (R1*, 0).
    """
    if kind not in _BOUNDARIES:
        raise ValueError(f"unknown region kind {kind!r}")
    if count < 2:
        raise ValueError("count must be at least 2")
    # written so that NaN fails the check; x = y breaks strict degradedness
    if not 0.0 < x < y < math.inf:
        raise ValueError(f"need 0 < x < y < inf, got x={x}, y={y}")
    # the NOMA arc ends at point F, r2 = log2(1 + y/2)
    z_max = log2_1p(y / 2.0 if kind == "noma" else y)
    z_grid = np.linspace(0.0, z_max, count)
    return np.maximum(_BOUNDARIES[kind](z_grid, x, y), 0.0), z_grid
