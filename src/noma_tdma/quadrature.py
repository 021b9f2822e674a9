"""Deterministic quadrature oracle for the event probabilities.

The joint order-statistic density is pushed through u = exp(-x/rho),
s = exp(-(y-x)/rho), which maps the support 0 < x < y onto the open unit
square, where u ~ Beta(cfg.u_shape) and s ~ Beta(cfg.s_shape) are
independent (see `order_stats.joint_pdf`).

For a fixed u the weak-user SNR x is fixed, so the event label along the
s-direction changes at a handful of points only; those are located by
bisection on the (black-box) classifier and the mass of each labelled
segment is a difference of the Beta(s_shape) CDF `betainc`.  The outer
u-integral against the Beta(u_shape) density is then done with adaptive
Gauss-Legendre panels refined near the kinks the event boundaries induce.
Its one jump, where x crosses the E1 threshold and a column goes from
holding no E1 to being all E1, is found first and made a starting panel
edge, since a panel's error estimate does not see a jump inside it.

Classifier calls: one on a u-grid to find where E1 membership changes,
and about 12 more to bisect those changes onto adjacent floats; then per
refinement step, all its u-columns together, one call on the (columns x
probes) grid and one call per _BISECT_LEVELS halvings over the brackets of
all columns, until every bracket has collapsed onto adjacent floats
(~47-52 halvings, capped at _BISECT_ITERS).  A step therefore costs about
1 + 12 classifier calls, whatever the number of columns.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Callable

import numpy as np
from scipy.special import betainc, betaln

from .analytic import (_GL_NODES, _GL_WEIGHTS, ConvergenceError,
                       EventProbabilities)
from .events import classify_many
from .order_stats import PairingConfig

_BISECT_ITERS = 60   # cap on halvings; every bracket reaches adjacent floats first
_BISECT_LEVELS = 4   # halvings per classifier call; divides _BISECT_ITERS
_MAX_PANELS = 4096


def _s_probe_grid() -> np.ndarray:
    """Coarse s-samples used to bracket label changes: uniform in the bulk,
    geometric toward both endpoints so boundaries hugging s=0 (y -> inf) or
    s=1 (y -> x) are still detected.  The E1 scan reuses it as a u-grid."""
    tails = 2.0 ** -np.arange(6, 44, 2.0)
    bulk = (np.arange(64) + 0.5) / 64
    return np.unique(np.concatenate((tails, bulk, 1.0 - tails)))


_SPROBES = _s_probe_grid()


def _bisect(lo: np.ndarray, hi: np.ndarray, left_label: np.ndarray,
            label: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Bisect every bracket (lo, hi) on its label change; lo keeps
    left_label.  `label` maps a (brackets x points) array to its labels, one
    row per bracket.  One call labels the depth-_BISECT_LEVELS bisection
    tree below each bracket, which is then walked level by level
    (label(mid) == left_label -> lo = mid), so the points visited and the
    cuts returned are those of one halving per call."""
    rows = np.arange(lo.size)
    width = 2**_BISECT_LEVELS
    for _ in range(_BISECT_ITERS // _BISECT_LEVELS):
        mid = 0.5 * (lo + hi)
        # a bracket between adjacent floats no longer moves
        if ((mid == lo) | (mid == hi)).all():
            break
        tree = np.empty((lo.size, width + 1))
        tree[:, 0] = lo
        tree[:, width] = hi
        step = width
        while step > 1:
            half = step // 2
            tree[:, half::step] = 0.5 * (tree[:, :-1:step] + tree[:, step::step])
            step = half
        labels = label(tree[:, 1:-1])
        left = np.zeros(lo.size, dtype=np.intp)
        half = width // 2
        while half:
            left[labels[rows, left + half - 1] == left_label] += half
            half //= 2
        lo = tree[rows, left]
        hi = tree[rows, left + 1]
    return 0.5 * (lo + hi)


def _e1_jumps(cfg: PairingConfig, a2: float, b2: float) -> np.ndarray:
    """The u at which a column starts or stops holding E1.

    E1 (R1N < R1T) is decided by x alone, so a u-column is either all E1
    or holds none, and its E1 mass jumps where membership changes; the
    other events only change through kinks.  Membership is read at s = 1/2
    on the u-grid _SPROBES, and each change is bisected onto adjacent
    floats."""
    rho = cfg.rho

    def holds_e1(u: np.ndarray) -> np.ndarray:
        x = -rho * np.log(u)
        return classify_many(x, x + rho * math.log(2.0), a2, b2) == 1

    u = _SPROBES
    e1 = holds_e1(u)
    k = np.flatnonzero(e1[1:] != e1[:-1])
    return _bisect(u[k], u[k + 1], e1[k], holds_e1)


def _column_masses(us: np.ndarray, cfg: PairingConfig, a2: float,
                   b2: float) -> np.ndarray:
    """Row c is the Beta(s_shape) mass of each event's share of s in (0,1)
    at u = us[c]; shape (len(us), 4)."""
    rho = cfg.rho
    x = -rho * np.log(us)

    s = _SPROBES
    labels = classify_many(x[:, None], x[:, None] - rho * np.log(s), a2, b2)

    # brackets ordered by column, then by s within a column
    col, k = np.nonzero(labels[:, 1:] != labels[:, :-1])
    left_label = labels[col, k]
    xb = x[col, None]
    cuts = _bisect(s[k], s[k + 1], left_label,
                   lambda sb: classify_many(xb, xb - rho * np.log(sb), a2, b2))

    # column c splits (0,1) into one more segment than it has cuts; the i-th
    # cut (in column col[i]) closes segment i + col[i] and opens the next
    n_seg = np.bincount(col, minlength=x.size) + 1
    seg_col = np.repeat(np.arange(x.size), n_seg)
    closes = np.arange(col.size) + col
    cdf = betainc(*cfg.s_shape, cuts)
    upper = np.ones(seg_col.size)
    upper[closes] = cdf
    lower = np.zeros(seg_col.size)
    lower[closes + 1] = cdf
    seg_labels = np.repeat(labels[:, -1], n_seg)
    seg_labels[closes] = left_label

    masses = np.zeros((x.size, 4))
    # unbuffered and in index order, so each row sums its segments in s order
    np.add.at(masses, (seg_col, seg_labels - 1), upper - lower)
    return masses


def _gauss8(panels: list[tuple[float, float]], cfg: PairingConfig, a2: float,
            b2: float) -> np.ndarray:
    """8-node Gauss-Legendre estimates of u-panels (lo, hi) against the
    Beta(u_shape) density; row j holds the 4 event masses of panels[j].  The
    columns of all panels are computed in one batch."""
    lo, hi = np.array(panels).T[:, :, None]
    u = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _GL_NODES
    a, b = cfg.u_shape
    # in logs: B(a, b) underflows from M ~ 1,000 on
    density = np.exp((a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
                     - betaln(a, b))
    w = 0.5 * (hi - lo) * _GL_WEIGHTS * density
    masses = _column_masses(u.ravel(), cfg, a2, b2).reshape(*u.shape, 4)
    return (w[:, :, None] * masses).sum(axis=1)


def _halves(lo: float, hi: float) -> list[tuple[float, float]]:
    mid = 0.5 * (lo + hi)
    return [(lo, mid), (mid, hi)]


def event_probabilities_quadrature(cfg: PairingConfig, a2: float, b2: float = 0.5,
                                   tol: float = 1e-6,
                                   max_panels: int = _MAX_PANELS) -> EventProbabilities:
    """All four event probabilities by adaptive 2-D quadrature of the joint
    density against the classifier indicator.  Deterministic for fixed tol."""
    if not 1e-10 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 1e-10, got {tol}")
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

    # the starting panels, split at every jump of the E1 mass, and their
    # halves form the first batch
    edges = np.union1d(np.linspace(0.0, 1.0, 9), _e1_jumps(cfg, a2, b2))
    starts = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
    n_start = len(starts)
    est = _gauss8(starts + [h for lo, hi in starts for h in _halves(lo, hi)],
                  cfg, a2, b2)
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
                                 cfg, a2, b2)
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
