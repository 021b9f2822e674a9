"""Seeded Monte Carlo estimates of event probabilities and average rates.

Trials are split into fixed-size logical blocks; block b draws from an
SFC64 generator seeded by `SeedSequence(seed, spawn_key=(b,))`, numpy's way
of deriving independent streams, so the sample set is a pure function of
(seed, trials) and results are bit-identical no matter how many workers
execute the blocks.  Spawn keys need no jump-ahead, so the generator can be
SFC64, whose uniform draws cost about half of Philox's.
"""
from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .events import EventProbabilities, classify_many
from .order_stats import PairingConfig, sample_pairs
from .regions import noma_rates, tdma_rates

#: trials per logical RNG block (independent of the shard/worker count)
BLOCK_SIZE = 1 << 16

#: elements per classify/rate pass over a block.  A pass's float64
#: temporaries are then 64 KiB, in cache and below glibc's default 128 KiB
#: mmap threshold, so a fresh process takes them from the heap: at 1 << 14
#: a fresh 2,097,152-trial events solve took ~30k minor faults, not ~450
CHUNK = 1 << 13

#: identifier of the RNG scheme, recorded in run manifests
RNG_SCHEME = "sfc64-seedseq-blocks-v6"


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
        # checked before any lane starts: SeedSequence takes any non-negative
        # integer, but a seed keeps the 128-bit domain of earlier schemes
        if not 0 <= self.seed < 1 << 128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")


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
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(block,))))


def _blocks(trials: int) -> list[tuple[int, int]]:
    full, rest = divmod(trials, BLOCK_SIZE)
    out = [(b, BLOCK_SIZE) for b in range(full)]
    if rest:
        out.append((full, rest))
    return out


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    """Kept for the process, so each worker keeps its malloc arena: a pool
    per call made a new ~7 MB arena whenever its threads started before the
    last call's had exited, and the resident set grew at random."""
    return ThreadPoolExecutor(max_workers=workers)


def _chunks(count: int):
    """Slices of at most CHUNK elements covering range(count)."""
    return (slice(i, i + CHUNK) for i in range(0, count, CHUNK))


def _run_blocks(fn, mc: McConfig, rows: int) -> list:
    """Run fn(block_index, count, buf) over all blocks; results in block order.

    Lane i of min(mc.shards, CPUs, blocks) runs blocks i, i + lanes, ... and
    hands each the same (rows, block width) float64 buffer, allocated once
    per lane: a fresh ~0.5 MB temporary per block is returned to the OS when
    freed, and every block then page-faults it back in.
    """
    blocks = _blocks(mc.trials)
    # threads beyond the CPUs add no speed, only stacks and lane buffers
    workers = min(mc.shards, os.cpu_count() or 1)
    lanes = min(workers, len(blocks))

    def lane(i: int) -> list:
        buf = np.empty((rows, blocks[0][1]))
        return [fn(b, c, buf) for b, c in blocks[i::lanes]]

    if lanes == 1:
        return lane(0)
    out = [None] * len(blocks)
    for i, results in enumerate(_pool(workers).map(lane, range(lanes))):
        out[i::lanes] = results
    return out


def estimate_event_probs(cfg: PairingConfig, a2: float, b2: float,
                         mc: McConfig) -> EventProbabilities:
    """Empirical event frequencies over mc.trials sampled channel pairs."""

    def run(block: int, count: int, buf: np.ndarray) -> np.ndarray:
        x, y = sample_pairs(cfg, _block_rng(mc.seed, block), count, buf)
        counts = np.zeros(5, dtype=np.int64)
        for s in _chunks(count):
            counts += np.bincount(classify_many(x[s], y[s], a2, b2),
                                  minlength=5)
        return counts[1:]

    counts = np.zeros(4, dtype=np.int64)
    # rows x, y and the sampler's scratch
    for c in _run_blocks(run, mc, 3):
        counts += c
    N = mc.trials
    p = counts / N
    stderr = np.sqrt(p * (1.0 - p) / N)
    return EventProbabilities(*map(float, p),
                              stderr=tuple(map(float, stderr)))


def estimate_average_rates(cfg: PairingConfig, a2: float, b2: float,
                           mc: McConfig) -> AverageRates:
    """Per-user NOMA and TDMA rates averaged over the fading distribution."""

    def run(block: int, count: int, buf: np.ndarray) -> np.ndarray:
        x, y = sample_pairs(cfg, _block_rng(mc.seed, block), count, buf[:3])
        # the sampler's scratch row is free again: it becomes r1_noma
        rates = buf[2:, :count]
        for s in _chunks(count):
            noma_rates(x[s], y[s], a2, out=rates[:2, s])
            tdma_rates(x[s], y[s], b2, out=rates[2:, s])
        # sums and squares of the rates less the block's first draw, so that
        # they keep their digits when the rates barely vary (at high SNR
        # r1_noma is nearly log2(1/a2), and E[r^2] - E[r]^2 cancels)
        shift = rates[:, 0].copy()
        rates -= shift[:, None]
        sums = rates.sum(axis=1)
        rates -= (sums / count)[:, None]
        return np.stack([shift, sums, np.square(rates, out=rates).sum(axis=1)])

    # rows x, y and the four rates
    partials = _run_blocks(run, mc, 6)
    N = mc.trials
    counts = [count for _, count in _blocks(N)]
    # sums about block 0's first draw, then folded in block order, which
    # keeps the result scheduler-independent
    base = partials[0][0]
    offsets = [part[0] - base for part in partials]
    total = np.zeros(4)
    for count, offset, part in zip(counts, offsets, partials):
        total += count * offset + part[1]
    mean = total / N
    # pooled squares about the overall mean: within-block plus between-block
    sq = np.zeros(4)
    for count, offset, part in zip(counts, offsets, partials):
        sq += part[2] + count * (offset + part[1] / count - mean)**2
    stderr = np.sqrt(sq / N / N)
    return AverageRates(*map(float, base + mean),
                        stderr=tuple(map(float, stderr)))
