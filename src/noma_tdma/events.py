"""Classification of a channel realization into the four NOMA-vs-TDMA events.

With the NOMA point N and the TDMA point T fixed, the three comparison lines
(r1 = R1N, r2 = R2N, r1 + r2 = R1N + R2N) split the TDMA segment A-E into
four subsegments; the event index says which subsegment T falls on:

  E1: R1N < R1T, R2N > R2T          (NOMA wins the strong user's rate only)
  E2: R1N > R1T, R2N > R2T          (NOMA wins both individual rates)
  E3: R1N > R1T, R2N < R2T, sum won (NOMA wins the sum rate only)
  E4: sum lost                      (TDMA wins the sum rate)
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .regions import ChannelPair, PowerSplit, TimeSplit, noma_rates, tdma_rates

#: comparisons closer than this are ties, broken toward the lower event id
TIE_TOL = 1e-12


class DegenerateSplitError(ValueError):
    """a2 = 0 or b2 in {0, 1} puts T at a segment endpoint; classification
    is ill-posed there."""


class ClassificationError(RuntimeError):
    """No event condition matched; indicates a numerical tie slipped through."""


class EventId(Enum):
    E1 = 1
    E2 = 2
    E3 = 3
    E4 = 4


# Required signs per event; None = condition not used (reduced definitions).
# Ties (sign 0) match either direction, and events are tried in id order,
# which implements the lower-id tie-break deterministically.
_FULL_CONDITIONS = [
    (EventId.E1, (-1, +1, +1)),
    (EventId.E2, (+1, +1, +1)),
    (EventId.E3, (+1, -1, +1)),
    (EventId.E4, (+1, -1, -1)),
]
_REDUCED_CONDITIONS = [
    (EventId.E1, (-1, +1, None)),
    (EventId.E2, (+1, +1, None)),
    (EventId.E3, (None, -1, +1)),
    (EventId.E4, (None, None, -1)),
]


def classify_full(ch: ChannelPair, p: PowerSplit, t: TimeSplit) -> EventId:
    """Classify using all three comparisons of the full event definitions."""
    p.require_noma()
    return EventId(int(classify_many(ch.x, ch.y, p.a2, t.b2)))


def classify_reduced(ch: ChannelPair, p: PowerSplit, t: TimeSplit) -> EventId:
    """Classify using only the reduced (redundancy-free) conditions.

    Its condition table is written independently of the full one, so
    agreement between the two is a genuine check of the underlying boundary
    geometry.
    """
    p.require_noma()
    return EventId(int(classify_many(ch.x, ch.y, p.a2, t.b2, reduced=True)))


def e2_threshold(a2: float) -> float:
    """SNR threshold w2 = (1 - 2*a2) / a2**2 of event E2 at b2 = 1/2."""
    if not 0.0 < a2 <= 0.5:
        raise DegenerateSplitError(f"need 0 < a2 <= 1/2, got {a2}")
    return (1.0 - 2.0 * a2) / a2**2


def epsilon2_threshold(ch: ChannelPair, p: PowerSplit) -> bool:
    """Threshold form of event E2 for the equal time split b2 = 1/2:
    E2 occurs iff x < w2 < y."""
    p.require_noma()
    w2 = e2_threshold(p.a2)
    return bool(ch.x < w2 < ch.y)


def classify_many(x, y, a2, b2, reduced: bool = False,
                  tol: float = TIE_TOL) -> np.ndarray:
    """Vectorized classification; returns an int8 array of event ids 1..4.

    All four arguments broadcast against each other.  Same tie-break as the
    scalar classifiers.
    """
    a2 = np.asarray(a2, dtype=np.float64)
    b2 = np.asarray(b2, dtype=np.float64)
    if np.any(a2 <= 0.0) or np.any(a2 > 0.5):
        raise DegenerateSplitError("need 0 < a2 <= 1/2 everywhere")
    if np.any(b2 <= 0.0) or np.any(b2 >= 1.0):
        raise DegenerateSplitError("need 0 < b2 < 1 everywhere")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r1n, r2n = noma_rates(x, y, a2)
    r1t, r2t = tdma_rates(x, y, b2)
    deltas = (r1n - r1t, r2n - r2t, (r1n + r2n) - (r1t + r2t))
    signs = [np.where(np.abs(d) <= tol, 0, np.sign(d)).astype(np.int8)
             for d in deltas]

    conditions = _REDUCED_CONDITIONS if reduced else _FULL_CONDITIONS
    out = np.zeros(np.broadcast(x, y, a2, b2).shape, dtype=np.int8)
    for event, required in conditions:
        ok = out == 0
        for s, r in zip(signs, required):
            if r is not None:
                ok &= (s == r) | (s == 0)
        out[ok] = event.value
    if np.any(out == 0):
        raise ClassificationError("unclassified samples encountered")
    return out
