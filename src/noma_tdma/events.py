"""Classification of a channel realization into the four NOMA-vs-TDMA events.

With the NOMA point N and the TDMA point T fixed, the three comparison lines
(r1 = R1N, r2 = R2N, r1 + r2 = R1N + R2N) split the TDMA segment A-E into
four subsegments; the event index says which subsegment T falls on:

  E1: R1N < R1T, R2N > R2T          (NOMA wins the strong user's rate only)
  E2: R1N > R1T, R2N > R2T          (NOMA wins both individual rates)
  E3: R1N > R1T, R2N < R2T, sum won (NOMA wins the sum rate only)
  E4: sum lost                      (TDMA wins the sum rate)

Each comparison is one function of one SNR of a finite channel pair
0 <= x <= y: with the margin
h(v) = b2*ln(1+v) - ln(1+a2*v) in nats, R1N - R1T = h(x)/ln 2,
R2N - R2T = -h(y)/ln 2 and (R1N + R2N) - (R1T + R2T) = (h(x) - h(y))/ln 2.
The three solvers' result type and errors are here too, on numpy alone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: comparisons closer than this are ties, broken toward the lower event id
TIE_TOL = 1e-12

# TIE_TOL in nats, the unit of the margins h
_TIE_NATS = TIE_TOL * math.log(2.0)


class DegenerateSplitError(ValueError):
    """a2 = 0 or b2 in {0, 1} puts T at a segment endpoint; classification
    is ill-posed there."""


class ClassificationError(RuntimeError):
    """No event condition matched; indicates a numerical tie slipped through."""


class InconsistencyError(ArithmeticError):
    """The closed forms produced a value incompatible with a probability."""


class ConvergenceError(RuntimeError):
    """Adaptive numerical integration failed to reach the requested tolerance."""


@dataclass(frozen=True)
class EventProbabilities:
    """P(E1)..P(E4) as one solver returned them, with the binomial standard
    errors of a Monte Carlo estimate.  Each solver checks its own sum."""

    p1: float
    p2: float
    p3: float
    p4: float
    stderr: tuple[float, float, float, float] | None = None

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


# Required signs of E1..E4, in id order; None = condition not used (reduced
# definitions).  Ties (sign 0) match either direction, and events are tried
# in id order, which implements the lower-id tie-break deterministically.
_FULL_CONDITIONS = [(-1, +1, +1), (+1, +1, +1), (+1, -1, +1), (+1, -1, -1)]
_REDUCED_CONDITIONS = [(-1, +1, None), (+1, +1, None), (None, -1, +1),
                       (None, None, -1)]


def _label_table(conditions) -> np.ndarray:
    """Event id for each of the 27 sign triples, indexed by the code
    s1 + 3*s2 + 9*s3 in -13..13, a negative code counting from the end;
    0 where no event matches."""
    table = np.zeros(27, dtype=np.int8)
    for s1, s2, s3 in itertools.product((-1, 0, 1), repeat=3):
        for event, required in enumerate(conditions, start=1):
            if all(r is None or s in (0, r)
                   for s, r in zip((s1, s2, s3), required)):
                table[s1 + 3 * s2 + 9 * s3] = event
                break
    return table


_FULL_TABLE = _label_table(_FULL_CONDITIONS)
_REDUCED_TABLE = _label_table(_REDUCED_CONDITIONS)


def e2_threshold(a2: float) -> float:
    """SNR threshold w2 = (1 - 2*a2) / a2**2 of event E2 at b2 = 1/2; inf
    where a2**2 underflows to 0."""
    if not 0.0 < a2 <= 0.5:
        raise DegenerateSplitError(f"need 0 < a2 <= 1/2, got {a2}")
    square = a2**2
    return (1.0 - 2.0 * a2) / square if square else math.inf


def optimal_a2_special(rho: float) -> float:
    """Power split that maximizes P(E2) for (m, n) = (1, M): the a2 at which
    w2 = rho*ln2, so that F(w2) = 1/2.

    a2 = (sqrt(1 + rho*ln2) - 1) / (rho*ln2), always below 1/2.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    c = rho * math.log(2.0)
    # sqrt(1+c)-1 rewritten to avoid cancellation for small c
    return math.expm1(0.5 * math.log1p(c)) / c


def classify_many(x, y, a2, b2, reduced: bool = False) -> np.ndarray:
    """Vectorized classification; returns an int8 array of event ids 1..4.

    All four arguments broadcast against each other; scalar arguments give
    a 0-d array.  Each comparison, h(x), -h(y) or h(x) - h(y), becomes a
    sign in {-1, 0, +1} (0 within TIE_TOL BPCU), the three signs are
    summed in place into one int8 code, and the code is looked up in a
    27-entry table derived from the condition tables.  The reduced table is
    written independently of the full one, so agreement between the two is
    a genuine check of the underlying boundary geometry.  A pair that is
    not finite with 0 <= x <= y, NaN included, raises ValueError.
    """
    a2 = np.asarray(a2, dtype=np.float64)
    b2 = np.asarray(b2, dtype=np.float64)
    # written so that NaN fails the check
    if not ((a2 > 0.0) & (a2 <= 0.5)).all():
        raise DegenerateSplitError("need 0 < a2 <= 1/2 everywhere")
    if not ((b2 > 0.0) & (b2 < 1.0)).all():
        raise DegenerateSplitError("need 0 < b2 < 1 everywhere")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # written so that NaN fails the check; finite x and y give finite
    # margins, and a NaN margin would fail every sign comparison, a tie
    if not ((x <= y).all() and x.min(initial=0.0) >= 0.0
            and y.max(initial=0.0) < math.inf):
        raise ValueError("need finite 0 <= x <= y everywhere")
    hx, hy = (b2 * np.log1p(v) - np.log1p(a2 * v) for v in (x, y))
    d = hx - hy
    # code = s1 + 3*s2 + 9*s3 built as (s3*3 + s2)*3 + s1, with s2 the
    # sign of -h(y), each bool read as an int8 0 or 1; d has the full
    # broadcast shape, and asarray keeps a 0-d code an array to update
    code = np.asarray(d > _TIE_NATS).view(np.int8)
    code -= (d < -_TIE_NATS).view(np.int8)
    code *= 3
    code += (hy < -_TIE_NATS).view(np.int8)
    code -= (hy > _TIE_NATS).view(np.int8)
    code *= 3
    code += (hx > _TIE_NATS).view(np.int8)
    code -= (hx < -_TIE_NATS).view(np.int8)
    table = _REDUCED_TABLE if reduced else _FULL_TABLE
    # an intp index looks up ~2.5x faster than an int8 one
    out = np.asarray(table[code.astype(np.intp)])
    if not out.all():
        raise ClassificationError("unclassified samples encountered")
    return out
