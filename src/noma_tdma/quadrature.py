"""Deterministic quadrature oracle for the event probabilities.

The joint order-statistic density is pushed through u = exp(-x/rho),
s = exp(-(y-x)/rho), which maps the support 0 < x < y onto the open unit
square, where u ~ Beta(cfg.u_shape) and s ~ Beta(cfg.s_shape) are
independent (see `order_stats.joint_pdf`).

For a fixed u the weak-user SNR x is fixed, so the event label along the
s-direction changes at a handful of points only.  One routine, `_cuts`,
finds the label changes along each row of a sampled grid and bisects them
on the (black-box) classifier.  Every label change a bracket holds is cut,
each with its own left and right label, so an event band narrower than
the sampled grid, e.g. the E3 band between E4 and E2 as u -> 1, keeps its
mass.  A u-column's masses are then telescoped: all of its Beta(s_shape)
mass starts on its last label, and a cut at CDF value F (`betainc`) moves
F from the cut's right label to its left one.  The outer u-integral
against the Beta(u_shape) density, `order_stats.beta_logpdf`, is done by
`analytic.beta_expect`, the adaptive Gauss-Legendre rule of the
closed-form P(E4) integral, with the four event masses as one vector
integrand; its panels are refined near the kinks the event boundaries
induce.  Where a column's event set changes with u, its masses have a kink
(an event starts or stops holding in it) or a jump (E1, decided by x
alone, makes a column all E1 or none).  A panel's error estimate need not
see either, and an event that holds only between two Gauss nodes is
missed outright; so every change of the event set, read on the s-probes
of each u-probe column, is cut by the same routine in u and made a
starting panel edge.

Each cut is bisected only as far as the tol needs.  A cut is left at the
midpoint of its bracket, and a bracket of width w moves at most peak * w of
L1 mass in its row, where peak is the largest value of the Beta density
along the bisected direction.  So `_cuts` stops every bracket at
_CUT_SHARE * tol / (c * peak), with c the most cuts in one row, counted
again as brackets split: the columns of a refinement level against
Beta(s_shape), the event-set changes against Beta(u_shape).  As the
u-weights integrate to 1, the s-cuts add at most _CUT_SHARE * tol to the
summed error, and the starting edges at most as much again; the u-integral
is run at the remaining (1 - _CUT_SHARE) * tol.  A bracket that reaches
adjacent floats first stops there.

Classifier calls: one on the (u-probes x s-probes) grid for the event sets,
and about 6 more to bisect their changes, each on a (changes x points x
s-probes) grid; then per refinement level, all its u-columns together, one
call on the (columns x probes) grid and one call per _BISECT_LEVELS
halvings over the brackets of all columns, until every bracket is within
its stop (~24-28 halvings at tol 1e-6).  A level therefore costs about
1 + 7 classifier calls, whatever the number of panels it refines.  A
bracket still open after _BISECT_ITERS halvings raises ConvergenceError.

Each call labels an even grid of 2**_BISECT_LEVELS steps on every bracket.
The next bracket is the step where the grid first leaves the bracket's
left label; where the label at that step's end is not the bracket's right
label, the stretch from there to the bracket's end becomes a bracket too.
That check reads labels the call has already made.  A call costs ~30 numpy
operations here and ~40 in the classifier, each on a few hundred to a few
thousand points, so a solve's time is set by its number of calls more than
by their sizes.
"""
from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from scipy.special import betainc

from .analytic import beta_expect
from .events import ConvergenceError, EventProbabilities, classify_many
from .order_stats import PairingConfig, beta_logpdf

_BISECT_ITERS = 60   # cap on halvings; every bracket reaches its stop first
_BISECT_LEVELS = 4   # halvings per classifier call; divides _BISECT_ITERS

#: share of the tol spent on placing cuts; the u-integral gets the rest
_CUT_SHARE = 1.0 / 100


def _s_probe_grid() -> np.ndarray:
    """Coarse s-samples used to bracket label changes: uniform in the bulk,
    geometric toward both endpoints so boundaries hugging s=0 (y -> inf) or
    s=1 (y -> x) are still detected.  The event-set scan reuses it as a
    u-grid."""
    tails = 2.0 ** -np.arange(6, 44, 2.0)
    bulk = (np.arange(64) + 0.5) / 64
    return np.unique(np.concatenate((tails, bulk, 1.0 - tails)))


_SPROBES = _s_probe_grid()


def _beta_peak(a: int, b: int) -> float:
    """The largest value of the Beta(a, b) density, a, b >= 1."""
    if a == 1:
        return float(b)
    if b == 1:
        return float(a)
    mode = (a - 1) / (a + b - 2)
    return float(np.exp(beta_logpdf(np.log(mode), np.log1p(-mode), (a, b))))


def _cuts(grid: np.ndarray, labels: np.ndarray,
          label: Callable[[np.ndarray, np.ndarray], np.ndarray],
          cut_tol: float, peak: float):
    """Cut every label change along the rows of `labels`, sampled on grid,
    and return (row, left, right, cuts): in row[i], the label changes from
    left[i] to right[i] at cuts[i], the midpoint of a bracket no wider than
    cut_tol / (most cuts in one row * peak) or on adjacent floats.
    `label(row, t)` labels the (brackets x points) array t, line i of it
    along row[i] of `labels`.

    A bracket runs from its left label at lo to its right label at hi.
    One call labels the 2**_BISECT_LEVELS - 1 inner points of an even grid
    on each bracket, and the bracket becomes the grid's first step off its
    left label.  Where the label at that step's end is not the bracket's
    right label, another change lies between there and hi, and that
    stretch becomes a bracket with those two labels.  Raises
    ConvergenceError if a bracket is still open after _BISECT_ITERS
    halvings."""
    row, k = np.nonzero(labels[:, 1:] != labels[:, :-1])
    left, right = labels[row, k], labels[row, k + 1]
    lo, hi = grid[k], grid[k + 1]
    width = 2**_BISECT_LEVELS
    steps = np.arange(width + 1) / width
    for halvings in range(0, _BISECT_ITERS + 1, _BISECT_LEVELS):
        stop = cut_tol / (np.bincount(row).max(initial=1) * peak)
        mid = 0.5 * (lo + hi)
        # a bracket between adjacent floats no longer moves, whatever stop
        if ((hi - lo <= stop) | (mid == lo) | (mid == hi)).all():
            return row, left, right, mid
        if halvings == _BISECT_ITERS:
            break
        points = lo[:, None] + (hi - lo)[:, None] * steps
        points[:, -1] = hi
        # got[i, j]: the label of point j of bracket i's grid
        got = np.empty(points.shape, dtype=labels.dtype)
        got[:, 0], got[:, -1] = left, right
        got[:, 1:-1] = label(row, points[:, 1:-1])
        # flat index of the end of each grid's first step off its left
        # label, a step that becomes the bracket
        end = (got[:, 1:] != left[:, None]).argmax(axis=1)
        end += np.arange(1, got.size, width + 1)
        lo, at_end, end = points.take(end - 1), got.take(end), points.take(end)
        # the stretch from there to hi, where its two labels differ
        rest = at_end != right
        if rest.any():
            row = np.concatenate((row, row[rest]))
            lo = np.concatenate((lo, end[rest]))
            end = np.concatenate((end, hi[rest]))
            left = np.concatenate((left, at_end[rest]))
            at_end = np.concatenate((at_end, right[rest]))
        hi, right = end, at_end
    raise ConvergenceError(
        f"bisection cap of {_BISECT_ITERS} halvings reached with a bracket "
        f"{float((hi - lo).max()):.3e} wide, above its stop {stop:.3e}")


def _onsets(cfg: PairingConfig, a2: float, b2: float,
            cut_tol: float) -> np.ndarray:
    """The u at which the event set of a u-column, read on the s-probes,
    changes; the u-probes bracket the changes."""
    rho = cfg.rho
    y_step = -rho * np.log(_SPROBES)

    def event_set(u: np.ndarray) -> np.ndarray:
        x = -rho * np.log(u)[..., None]
        labels = classify_many(x, x + y_step, a2, b2)
        return np.bitwise_or.reduce(1 << (labels - 1), axis=-1)

    return _cuts(_SPROBES, event_set(_SPROBES)[None],
                 lambda row, u: event_set(u), cut_tol,
                 _beta_peak(*cfg.u_shape))[3]


def _column_masses(us: np.ndarray, cfg: PairingConfig, a2: float,
                   b2: float, cut_tol: float) -> np.ndarray:
    """Row c is the Beta(s_shape) mass of each event's share of s in (0,1)
    at u = us[c], its cuts placed to within cut_tol of L1 mass; shape
    (len(us), 4)."""
    rho = cfg.rho
    x = -rho * np.log(us)

    def label(row: np.ndarray, s: np.ndarray) -> np.ndarray:
        xr = x[row, None]
        return classify_many(xr, xr - rho * np.log(s), a2, b2)

    cols = np.arange(x.size)
    labels = label(cols, _SPROBES)
    row, left, right, cuts = _cuts(_SPROBES, labels, label, cut_tol,
                                   _beta_peak(*cfg.s_shape))
    # all of a column's mass starts on its last label; a cut at CDF value F
    # moves F from the label on its right to the label on its left
    cdf = betainc(*cfg.s_shape, cuts)
    masses = np.zeros((x.size, 4))
    masses[cols, labels[:, -1] - 1] = 1.0
    np.add.at(masses, (row, left - 1), cdf)
    np.subtract.at(masses, (row, right - 1), cdf)
    return masses


def event_probabilities_quadrature(cfg: PairingConfig, a2: float, b2: float = 0.5,
                                   tol: float = 1e-6) -> EventProbabilities:
    """All four event probabilities by adaptive 2-D quadrature of the joint
    density against the classifier indicator.  Deterministic for fixed tol.

    The four masses must sum to 1 within 10 * tol, or ConvergenceError is
    raised; each is then clipped to [0, 1]."""
    if not 1e-10 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 1e-10, got {tol}")
    cut_tol = _CUT_SHARE * tol
    # the 8 starting panels, split where a column's event set changes
    cuts = np.append(np.arange(1, 8) / 8.0, _onsets(cfg, a2, b2, cut_tol))
    totals = beta_expect(
        cfg.u_shape, lambda u, _: _column_masses(u, cfg, a2, b2, cut_tol),
        cuts, tol=(1.0 - _CUT_SHARE) * tol)
    if abs(totals.sum() - 1.0) > 10.0 * tol:
        raise ConvergenceError(
            f"event masses sum to {totals.sum()}, outside 1 +/- {10 * tol}")
    p = np.clip(totals, 0.0, 1.0)
    return EventProbabilities(*map(float, p))
