"""The benchmark's workloads: fixed point sets, and how a seed turns them
into rounds of `noma-tdma` command lines.

Every run repeats whole rounds.  A round always holds the same number of
operations and the same operations that fail every time (`known_fault`),
so the failed share of a run is the same whatever the seed and the run
length.  The seed picks the order of a round and, where the failures allow
it, which of a set of equally sized inputs each operation gets and the
Monte Carlo seeds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from refs import event_key, rates_key


@dataclass(frozen=True)
class Op:
    """One CLI solve: its argv (without --out), how to check its output, and
    the named fault it hits every time, if any."""

    argv: tuple[str, ...]
    method: str           # closed | quadrature | mc | rates
    ref_key: str
    tol: float = 0.0      # allowed error of closed and quadrature outputs
    trials: int = 0
    shards: int = 0
    known_fault: str | None = None

    @property
    def twin_key(self) -> tuple[str, ...]:
        """Argv with the shard count removed: MC outputs with equal keys
        must be bit-identical."""
        argv = list(self.argv)
        if "--shards" in argv:
            i = argv.index("--shards")
            del argv[i:i + 2]
        return tuple(argv)


def _events(M, m, n, rho_db, method, a2_mode="inv_sqrt_rho", extra=()):
    return ("events", "--M", str(M), "--m", str(m), "--n", str(n),
            "--rho-db", repr(float(rho_db)), "--a2-mode", a2_mode,
            "--method", method, *extra)


# --- quad-grid ---------------------------------------------------------------
# Points of the criterion-2 agreement grid (M = 10, a2 = 1/sqrt(rho)).  The
# three listed first miss their own tolerance against the exact binomial
# sums, so each round holds all of them.  Each round adds the same two
# passing points, chosen because their solves take about as long as the
# failing ones (6.0-6.9 reference seconds for all five), so that the median
# of a round's five solves falls inside one cluster of sizes.  The grid's
# other points range from 4.6 to 8.0, and points drawn by the seed moved the
# median by up to a quarter.  The seed picks the order only.
QUAD_M = 10
QUAD_TOL = 1e-6
QUAD_MISSES_TOL = [(20.0, 1, 10), (20.0, 5, 6), (25.0, 4, 5)]
QUAD_PASSING = [(25.0, 1, 2), (30.0, 5, 6)]
QUAD_FAULT = ("event_probabilities_quadrature returns a value off the exact "
              "one by more than its tol")


def _quad_op(rho_db, m, n, fault=None) -> Op:
    argv = _events(QUAD_M, m, n, rho_db, "quadrature",
                   extra=("--quad-tol", repr(QUAD_TOL)))
    return Op(argv, "quadrature",
              event_key(QUAD_M, m, n, rho_db, "inv_sqrt_rho"),
              tol=QUAD_TOL, known_fault=fault)


def quad_round(rng: random.Random) -> list[Op]:
    ops = [_quad_op(*p, fault=QUAD_FAULT) for p in QUAD_MISSES_TOL]
    ops += [_quad_op(*p) for p in QUAD_PASSING]
    rng.shuffle(ops)
    return ops


# --- mc ------------------------------------------------------------------------
# Trial counts are whole 65,536-trial blocks, sized so that every solve takes
# about as long: M = 200 costs ~15x more per trial than M = 10 (per-row sort).
# Every spec runs on 1 shard, the CLI default; two of them also run on 2
# shards with the same seed, which checks bit-identity across shard counts
# and keeps the 1-shard solves the majority, so the median lies in their
# cluster.
BLOCK = 1 << 16
MC_TRIALS = {10: 32 * BLOCK, 200: 2 * BLOCK}
MC_EVENT_SPECS = [(10, 2, 7), (200, 5, 6)]
MC_EVENT_RHO_DB = [20.0, 25.0, 30.0]
MC_RATE_SPECS = [(10, 2, 7), (200, 5, 6), (10, 1, 10), (200, 1, 200)]
MC_RATE_RHO_DB = [25.0, 35.0, 45.0]
MC_TWO_SHARDS = {("events", 200, 5, 6), ("rates", 10, 1, 10)}
#: an MC estimate passes if within this many standard errors of the reference
MC_SIGMAS = 6.0


def mc_round(rng: random.Random) -> list[Op]:
    ops = []
    specs = [("events", *s) for s in MC_EVENT_SPECS] + \
        [("rates", *s) for s in MC_RATE_SPECS]
    for kind, M, m, n in specs:
        trials = MC_TRIALS[M]
        seed = rng.randrange(1 << 31)
        if kind == "events":
            rho_db = rng.choice(MC_EVENT_RHO_DB)
            base = _events(M, m, n, rho_db, "mc")
            ref = event_key(M, m, n, rho_db, "inv_sqrt_rho")
            method = "mc"
        else:
            rho_db = rng.choice(MC_RATE_RHO_DB)
            base = ("rates", "--M", str(M), "--m", str(m), "--n", str(n),
                    "--rho-db", repr(rho_db))
            ref = rates_key(M, m, n, rho_db)
            method = "rates"
        shard_counts = (1, 2) if (kind, M, m, n) in MC_TWO_SHARDS else (1,)
        for shards in shard_counts:
            argv = base + ("--trials", str(trials), "--seed", str(seed),
                           "--shards", str(shards))
            ops.append(Op(argv, method, ref, trials=trials, shards=shards))
    rng.shuffle(ops)
    return ops


# --- closed-sweep ----------------------------------------------------------------
# Every (m, n) of M = 20, with the six SNR and a2-mode settings assigned in
# turn, plus two large-M points.  The inputs do not depend on the seed (only
# their order does) because the faults below hit a fixed subset of them.
# The large-M points hit the named fault of the closed forms (the
# d-polynomial is evaluated in floating point in the monomial basis) every
# time: one raises, one is silently wrong.  The listed M = 20 points miss
# 1e-9 in P(E3) and P(E4), whose 1-D integral runs at quad_tol 1e-8 (the CLI
# cannot change it) and errs by up to 2.9e-8.
CLOSED_M = 20
CLOSED_SETTINGS = [(rho_db, mode) for rho_db in (20.0, 25.0, 30.0)
                   for mode in ("inv_sqrt_rho", "special")]
CLOSED_TOL = 1e-9
CLOSED_E4_MISSES = {(1, 5), (2, 5), (2, 6), (3, 5), (3, 6), (4, 7), (5, 6),
                    (5, 7), (5, 8), (6, 8)}
CLOSED_E4_FAULT = ("closed-form P(E4) and P(E3) off by more than 1e-9: the "
                   "1-D integral runs at quad_tol 1e-8")
CLOSED_LARGE_M = [
    (30, 7, 22, 25.0, "special",
     "closed forms raise InconsistencyError (exit 2): d-polynomial "
     "evaluated in floating point in the monomial basis"),
    (80, 40, 41, 25.0, "inv_sqrt_rho",
     "closed-form P(E2) off by 2.1e-2 with exit 0: d-polynomial evaluated "
     "in floating point in the monomial basis"),
]


def _closed_points() -> list[tuple]:
    """(M, m, n, rho_db, a2_mode, known_fault) of every closed-sweep solve."""
    pairs = [(m, n) for m in range(1, CLOSED_M)
             for n in range(m + 1, CLOSED_M + 1)]
    pts = [(CLOSED_M, m, n, *CLOSED_SETTINGS[i % len(CLOSED_SETTINGS)],
            CLOSED_E4_FAULT if (m, n) in CLOSED_E4_MISSES else None)
           for i, (m, n) in enumerate(pairs)]
    return pts + CLOSED_LARGE_M


def _closed_op(M, m, n, rho_db, mode, fault) -> Op:
    return Op(_events(M, m, n, rho_db, "closed", a2_mode=mode), "closed",
              event_key(M, m, n, rho_db, mode), tol=CLOSED_TOL,
              known_fault=fault)


def closed_round(rng: random.Random) -> list[Op]:
    ops = [_closed_op(*p) for p in _closed_points()]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "quad-grid": quad_round,
    "mc": mc_round,
    "closed-sweep": closed_round,
}


def reference_points() -> list[tuple]:
    """(kind, M, m, n, rho_db, a2_mode) of every reference a round can use."""
    pts = [("events", QUAD_M, m, n, rho_db, "inv_sqrt_rho")
           for rho_db, m, n in QUAD_MISSES_TOL + QUAD_PASSING]
    pts += [("events", M, m, n, rho_db, "inv_sqrt_rho")
            for M, m, n in MC_EVENT_SPECS for rho_db in MC_EVENT_RHO_DB]
    pts += [("rates", M, m, n, rho_db, None)
            for M, m, n in MC_RATE_SPECS for rho_db in MC_RATE_RHO_DB]
    pts += [("events", M, m, n, rho_db, mode)
            for M, m, n, rho_db, mode, _ in _closed_points()]
    return pts
