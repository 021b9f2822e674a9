"""Deterministic quadrature oracle for the event probabilities.

The joint order-statistic density is pushed through u = exp(-x/rho),
s = exp(-(y-x)/rho) (i.e. s = v/u with v = exp(-y/rho)), which maps the
support 0 < x < y onto the open unit square and turns the density into the
separable polynomial

    w1 (1-u)^(m-1) u^(M-m) * s^(M-n) (1-s)^(n-1-m).

For a fixed u the weak-user SNR x is fixed, so the event label along the
s-direction changes at a handful of points only; those are located by
bisection on the (black-box) classifier and each labelled segment is
integrated exactly via the regularized incomplete beta function.  The outer
u-integral is then done with adaptive Gauss-Legendre panels refined near the
kinks the event boundaries induce.

Every u-column of one refinement step is classified together: one
classifier call on the (columns x probes) grid, then one call per bisection
iteration over the brackets of all columns.  A solve therefore costs
1 + _BISECT_ITERS classifier calls per step, whatever the number of columns.
"""
from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.special import betainc, beta as beta_fn

from .analytic import ConvergenceError, EventProbabilities
from .events import classify_many
from .order_stats import PairingConfig

_BISECT_ITERS = 60   # enough to pin a boundary to ~1e-18 in s
_MAX_PANELS = 4096


def _s_probe_grid() -> np.ndarray:
    """Coarse s-samples used to bracket label changes: uniform in the bulk,
    geometric toward both endpoints so boundaries hugging s=0 (y -> inf) or
    s=1 (y -> x) are still detected."""
    tails = 2.0 ** -np.arange(6, 44, 2.0)
    bulk = (np.arange(64) + 0.5) / 64
    return np.unique(np.concatenate((tails, bulk, 1.0 - tails)))


_SPROBES = _s_probe_grid()


def _column_masses(us: np.ndarray, cfg: PairingConfig, a2: float,
                   b2: float) -> np.ndarray:
    """Row c integrates s^(M-n)(1-s)^(n-1-m) over each event's share of s in
    (0,1) at u = us[c]; shape (len(us), 4)."""
    rho = cfg.rho
    x = np.array([-rho * math.log(u) for u in us])
    a_b, b_b = cfg.M - cfg.n + 1, cfg.n - cfg.m  # beta parameters of the s-factor
    bfull = beta_fn(a_b, b_b)

    s = _SPROBES
    labels = classify_many(x[:, None], x[:, None] - rho * np.log(s), a2, b2)

    # brackets ordered by column, then by s within a column
    col, k = np.nonzero(labels[:, 1:] != labels[:, :-1])
    lo = s[k]
    hi = s[k + 1]
    left_label = labels[col, k]
    xb = x[col]
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        lab_mid = classify_many(xb, xb - rho * np.log(mid), a2, b2)
        take_lo = lab_mid == left_label
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    cuts = 0.5 * (lo + hi)

    # column c splits (0,1) into one more segment than it has cuts; the i-th
    # cut (in column col[i]) closes segment i + col[i] and opens the next
    n_seg = np.bincount(col, minlength=x.size) + 1
    seg_col = np.repeat(np.arange(x.size), n_seg)
    closes = np.arange(col.size) + col
    cdf = bfull * betainc(a_b, b_b, np.concatenate(([0.0, 1.0], cuts)))
    upper = np.full(seg_col.size, cdf[1])
    upper[closes] = cdf[2:]
    lower = np.full(seg_col.size, cdf[0])
    lower[closes + 1] = cdf[2:]
    seg_labels = np.repeat(labels[:, -1], n_seg)
    seg_labels[closes] = left_label

    masses = np.zeros((x.size, 4))
    # unbuffered and in index order, so each row sums its segments in s order
    np.add.at(masses, (seg_col, seg_labels - 1), upper - lower)
    return masses


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _gauss8(panels: list[tuple[float, float]], cfg: PairingConfig, a2: float,
            b2: float, weight_fn) -> list[np.ndarray]:
    """8-node Gauss-Legendre estimates (4-vectors of events) of u-panels
    (lo, hi), with the columns of all panels computed in one batch."""
    nodes = [(0.5 * (hi + lo) + 0.5 * (hi - lo) * _GL_NODES,
              0.5 * (hi - lo) * _GL_WEIGHTS) for lo, hi in panels]
    masses = _column_masses(np.concatenate([u for u, _ in nodes]), cfg, a2, b2)
    estimates = []
    for j, (u, w) in enumerate(nodes):
        acc = np.zeros(4)
        for ui, wi, colmass in zip(u, w, masses[j * _GL_NODES.size:]):
            acc += wi * weight_fn(ui) * colmass
        estimates.append(acc)
    return estimates


def _halves(lo: float, hi: float) -> list[tuple[float, float]]:
    mid = 0.5 * (lo + hi)
    return [(lo, mid), (mid, hi)]


def event_probabilities_quadrature(cfg: PairingConfig, a2: float, b2: float = 0.5,
                                   tol: float = 1e-6,
                                   max_panels: int = _MAX_PANELS) -> EventProbabilities:
    """All four event probabilities by adaptive 2-D quadrature of the joint
    density against the classifier indicator.  Deterministic for fixed tol."""
    if tol < 1e-10:
        raise ValueError(f"tol must be >= 1e-10, got {tol}")
    M, m = cfg.M, cfg.m
    w1 = float(cfg.w1)

    def weight(u: float) -> float:
        return w1 * (1.0 - u)**(m - 1) * u**(M - m)

    # adaptive bisected Gauss: error of a panel is |whole - (left + right)|,
    # refined breadth-first by a worst-first heap with a global budget
    heap = []
    counter = 0  # heap tie-breaker

    def push(lo: float, hi: float, whole: np.ndarray, left: np.ndarray,
             right: np.ndarray) -> None:
        nonlocal counter
        err = float(np.abs(whole - (left + right)).sum())
        counter += 1
        heapq.heappush(heap, (-err, counter, lo, 0.5 * (lo + hi), hi, left, right))

    # the starting panels and their halves form the first batch
    n_start = 8
    starts = [(i / n_start, (i + 1) / n_start) for i in range(n_start)]
    est = _gauss8(starts + [h for lo, hi in starts for h in _halves(lo, hi)],
                  cfg, a2, b2, weight)
    for (lo, hi), whole, left, right in zip(starts, est[:n_start],
                                            est[n_start::2], est[n_start + 1::2]):
        push(lo, hi, whole, left, right)

    refined = 0
    while True:
        total_err = -math.fsum(item[0] for item in heap)
        if total_err <= 0.5 * tol:
            break
        if len(heap) >= max_panels:
            raise ConvergenceError(
                f"u-panel budget {max_panels} exhausted; residual error "
                f"estimate {total_err:.3e} (panels refined: {refined})")
        _, _, lo, mid, hi, left, right = heapq.heappop(heap)
        ll, lr, rl, rr = _gauss8(_halves(lo, mid) + _halves(mid, hi),
                                 cfg, a2, b2, weight)
        push(lo, mid, left, ll, lr)
        push(mid, hi, right, rl, rr)
        refined += 1

    totals = np.zeros(4)
    for _, _, _, _, _, left, right in heap:
        totals += left + right
    if abs(totals.sum() - 1.0) > 10.0 * tol:
        raise ConvergenceError(
            f"event masses sum to {totals.sum()}, outside 1 +/- {10 * tol}")
    p = np.clip(totals, 0.0, 1.0)
    return EventProbabilities(*map(float, p), method="quadrature")
