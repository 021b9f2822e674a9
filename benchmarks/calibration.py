"""Machine-speed calibration: fixed kernels timed between or during solves.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes, and under load by up to 2x, for reasons that have nothing to
do with the package.  Each workload therefore has a calibration kernel of
the same shape as its hot path, built from numpy, scipy and the standard
library only, never from noma_tdma.  Short slices of it are timed all
through the timed phase: between the solves, one after every `EVERY_S`
seconds of solving, or, for a workload whose solves take seconds, during
them, by a thread that runs one slice every `SAMPLE_EVERY_S` seconds while
the solve waits for the interpreter lock.  A speed factor is a mean slice
time over the mean slice time on the reference machine: that of the slices
inside a solve where they were timed during the solves, else that of the
whole run.  Solve timings are reported in reference seconds: wall seconds
divided by the speed factor, i.e. what they would have read on the
reference machine.  A change to the package moves the solves and not the
kernels, so it shows in full; a change of machine speed moves both and
cancels.
"""
from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import quad

#: seconds of solving per calibration slice (about 5% of a run)
EVERY_S = 0.5
#: seconds between the slices a Sampler times during the solves
SAMPLE_EVERY_S = 0.05
#: untimed slices before the first timed one
WARM_SLICES = 3

_Y3 = np.array([1.5, 4.0, 40.0])


def _small_arrays() -> None:
    """Numpy calls on 3-element arrays (argument checks, rate-like log2
    terms, sign tests, int8 masks): the quadrature's classifier pattern,
    where per-call overhead dominates.  About 1 ms, all of it holding the
    interpreter lock, so a Sampler can time it while a solve waits."""
    x = 1.0
    for _ in range(12):
        a = np.asarray(0.1, dtype=np.float64)
        if np.any(a <= 0.0) or np.any(a > 0.5):
            raise ValueError(a)
        y = np.asarray(_Y3, dtype=np.float64)
        r1 = np.log2(1.0 + a * x / (1.0 - a + x))
        r2 = np.log2(1.0 + (1.0 - a) * y)
        d = (r1 - 0.5 * np.log2(1.0 + x), r2 - 0.5 * np.log2(1.0 + y))
        signs = [np.where(np.abs(v) <= 1e-12, 0, np.sign(v)).astype(np.int8)
                 for v in d]
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int8)
        for want in (1, -1):
            ok = out == 0
            for sg in signs:
                ok &= (sg == want) | (sg == 0)
            out[ok] = want + 2
        if np.any(out == 0):
            out[out == 0] = 4


def _row_sorts() -> None:
    """Fresh exponential draws sorted along rows, wide and narrow, then
    elementwise work and a bincount: the Monte Carlo sampler's pattern."""
    rng = np.random.default_rng(12345)  # the same draws in every slice
    for cols, rows in ((200, 4096), (10, 32768)):
        g = rng.exponential(scale=100.0, size=(rows, cols))
        g.sort(axis=1)
        x = g[:, 1].copy()
        y = g[:, -1].copy()
        lab = (np.log1p(x) + np.log1p(y) > 8.0).astype(np.int64)
        np.bincount(lab, minlength=4)


def _fraction_series() -> None:
    """Exact rational series and a scipy 1-D integral: the closed forms'
    pattern."""
    for M in [*range(16, 40)] * 3:
        acc = Fraction(0)
        for i in range(M):
            acc += Fraction((-1) ** i * math.comb(M - 1, i), M - i) \
                * Fraction(math.comb(M, i), i + 2)
        float(acc)
        quad(lambda t: math.exp(-t) * t ** 3 / (M + t), 0.0, 7.0,
             epsabs=1e-10, epsrel=1e-10)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], None]
    #: mean slice time in seconds on the reference machine (see README.md)
    ref_s: float
    #: timed during the solves by a Sampler, rather than between them
    during: bool


# A quadrature solve takes seconds, so slices between solves would sample
# the machine at five moments of a run; its kernel holds the interpreter
# lock and is sampled during the solves instead.  The Monte Carlo kernel
# cannot be: its sorts release the lock and would share the machine with
# the solve's own sorts.
KERNELS = {
    "quad-grid": Kernel(_small_arrays, 0.0013, during=True),
    "mc": Kernel(_row_sorts, 0.0175, during=False),
    "closed-sweep": Kernel(_fraction_series, 0.0185, during=False),
}


def timed_slice(kernel: Callable[[], None]) -> tuple[float, float]:
    """(start, wall seconds) of one slice of `kernel`."""
    t0 = time.perf_counter()
    kernel()
    return t0, time.perf_counter() - t0


class Sampler:
    """Context manager: a thread that times one slice of `kernel` every
    `SAMPLE_EVERY_S` seconds and appends it to `slices` as (start, wall
    seconds), until the block ends.  The thread is joined on the way out."""

    def __init__(self, kernel: Callable[[], None],
                 slices: list[tuple[float, float]]):
        self._kernel = kernel
        self._slices = slices
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._slices.append(timed_slice(self._kernel))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
