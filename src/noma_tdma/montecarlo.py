"""Seeded Monte Carlo estimates of event probabilities and average rates.

Trials are split into fixed-size logical blocks; block b draws from the
counter-based Philox stream `Philox(seed).jumped(b)`, so the sample set is a
pure function of (seed, trials) and results are bit-identical no matter how
many workers execute the blocks.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .analytic import EventProbabilities
from .events import classify_many
from .order_stats import PairingConfig, sample_pairs
from .regions import noma_rates, tdma_rates

#: trials per logical RNG block (independent of the shard/worker count)
BLOCK_SIZE = 1 << 16

#: environment variable capping the number of worker threads
WORKERS_ENV = "NOMA_TDMA_MAX_WORKERS"

#: identifier of the RNG scheme, recorded in run manifests
RNG_SCHEME = "philox4x64-jumped-blocks-v2"


@dataclass(frozen=True)
class McConfig:
    trials: int = 1_000_000
    seed: int = 42
    shards: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


@dataclass(frozen=True)
class AverageRates:
    """Mean per-user rates (BPCU) under NOMA and TDMA, with standard errors
    ordered (r1_noma, r2_noma, r1_tdma, r2_tdma)."""

    r1_noma: float
    r2_noma: float
    r1_tdma: float
    r2_tdma: float
    stderr: tuple[float, float, float, float]

    def __post_init__(self):
        if min(self.r1_noma, self.r2_noma, self.r1_tdma, self.r2_tdma) < 0.0:
            raise ValueError("mean rates must be nonnegative")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(block))


def _blocks(trials: int) -> list[tuple[int, int]]:
    full, rest = divmod(trials, BLOCK_SIZE)
    out = [(b, BLOCK_SIZE) for b in range(full)]
    if rest:
        out.append((full, rest))
    return out


def _n_workers(mc: McConfig) -> int:
    cap = os.environ.get(WORKERS_ENV)
    workers = mc.shards
    if cap is not None:
        workers = min(workers, max(1, int(cap)))
    return workers


def _run_blocks(fn, mc: McConfig) -> list:
    """Run fn(block_index, count) over all blocks; results in block order."""
    blocks = _blocks(mc.trials)
    workers = _n_workers(mc)
    if workers == 1 or len(blocks) == 1:
        return [fn(b, c) for b, c in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, b, c) for b, c in blocks]
        return [f.result() for f in futures]


def estimate_event_probs(cfg: PairingConfig, a2: float, b2: float,
                         mc: McConfig) -> EventProbabilities:
    """Empirical event frequencies over mc.trials sampled channel pairs."""

    def run(block: int, count: int) -> np.ndarray:
        x, y = sample_pairs(cfg, _block_rng(mc.seed, block), count)
        labels = classify_many(x, y, a2, b2)
        return np.bincount(labels, minlength=5)[1:]

    counts = np.zeros(4, dtype=np.int64)
    for c in _run_blocks(run, mc):
        counts += c
    N = mc.trials
    p = counts / N
    stderr = np.sqrt(p * (1.0 - p) / N)
    return EventProbabilities(*map(float, p), method="monte_carlo",
                              stderr=tuple(map(float, stderr)))


def binomial_interval(successes: int, trials: int,
                      confidence: float = 0.95) -> tuple[float, float]:
    """Exact (Clopper-Pearson) binomial confidence interval; use instead of
    the normal-approximation stderr when trials < 1e4 or the frequency is
    within 10/trials of 0 or 1."""
    alpha = 1.0 - confidence
    lo = 0.0 if successes == 0 else \
        float(betaincinv(successes, trials - successes + 1, alpha / 2))
    hi = 1.0 if successes == trials else \
        float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return lo, hi


def estimate_average_rates(cfg: PairingConfig, a2: float, b2: float,
                           mc: McConfig) -> AverageRates:
    """Per-user NOMA and TDMA rates averaged over the fading distribution."""

    def run(block: int, count: int) -> np.ndarray:
        x, y = sample_pairs(cfg, _block_rng(mc.seed, block), count)
        r1n, r2n = noma_rates(x, y, a2)
        r1t, r2t = tdma_rates(x, y, b2)
        rates = np.stack([r1n, r2n, r1t, r2t])
        sums = rates.sum(axis=1)
        # squares about the block mean: E[r^2] - E[r]^2 cancels when the
        # rates barely vary (at high SNR r1_noma is nearly log2(1/a2))
        rates -= (sums / count)[:, None]
        return np.stack([sums, np.square(rates, out=rates).sum(axis=1)])

    partials = _run_blocks(run, mc)
    sums = np.zeros(4)
    for part in partials:  # ordered fold keeps the result scheduler-independent
        sums += part[0]
    N = mc.trials
    means = sums / N
    # pooled squares about the overall mean: within-block plus between-block
    sq = np.zeros(4)
    for (_, count), part in zip(_blocks(N), partials):
        sq += part[1] + count * (part[0] / count - means)**2
    stderr = np.sqrt(sq / N / N)
    return AverageRates(*map(float, means), stderr=tuple(map(float, stderr)))
