"""End-to-end benchmark of the noma-tdma command line.

    python3 benchmarks/run.py --workload quad-grid --seed 1 --seconds 20 --trace 0

Drives the package the way users do, through `noma_tdma.cli.main(argv)` in
one process, closed loop: each solve starts when the previous one returned.
Whole rounds of solves (see workloads.py) repeat while the next round is
expected to end within `--seconds`; a run makes at least one round.  A
workload's calibration kernel is timed in short slices all through the
run, and solve timings are reported in reference seconds, scaled by the
machine speed those slices measure (calibration.py).  Every output is
checked against the stored independent references (refs.py).  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a separately traced run with `--trace 1`.  The
package is imported from `src/` of the checkout this file sits in; without
it the benchmark exits with code 1 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 3
#: fresh `-X importtime` interpreters per traced run; medians are reported
IMPORTTIME_REPEATS = 3
IMPORT_CMD = f"import sys; sys.path.insert(0, {SRC!r}); import noma_tdma.cli"
RATE_COLS = ["r1_noma", "r2_noma", "r1_tdma", "r2_tdma"]
#: trace label prefix of sample_pairs calls, followed by the population M
SAMPLER = "order_stats.sample_pairs.M"


@dataclass
class Record:
    op: workloads.Op
    code: int
    wall_s: float
    text: str | None
    error: str
    layers: dict | None = None
    start_s: float = 0.0  # perf_counter() when the solve began


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _fresh_import(*flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", IMPORT_CMD],
                          check=True, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def measure_setup(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing noma_tdma.cli, which every
    CLI call pays.  The benchmark's own import of the package comes first, so
    the page cache is warm and bytecode caches are written where allowed."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _fresh_import()
        times.append(time.perf_counter() - t0)
    return times


def measure_import_cum_s(repeats: int) -> dict[str, float]:
    """Median cumulative import time (s) of each noma_tdma submodule, from
    `python -X importtime`."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        err = _fresh_import("-X", "importtime").stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            name = parts[2].strip()
            if name.startswith("noma_tdma."):
                try:
                    cum_us = float(parts[1])
                except ValueError:
                    continue
                samples.setdefault(name, []).append(cum_us * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "noma_tdma", "cli.py")):
        raise SystemExit(f"benchmark: no package source at {SRC}; run it from "
                         "a checkout of the repository")
    sys.path.insert(0, SRC)
    import noma_tdma
    from noma_tdma import cli
    if os.path.dirname(os.path.abspath(noma_tdma.__file__)) != \
            os.path.join(SRC, "noma_tdma"):
        raise SystemExit(f"benchmark: imported noma_tdma from "
                         f"{noma_tdma.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def install_tracer() -> Tracer:
    """Wrap the public functions each layer exposes, at the module attributes
    their callers look up."""
    from noma_tdma import analytic, montecarlo, quadrature

    tr = Tracer()
    for fn in ("event_probabilities_closed", "p_eps2_closed",
               "strong_user_tail", "p_eps4_closed"):
        tr.wrap(analytic, fn, f"analytic.{fn}")
    tr.wrap(quadrature, "event_probabilities_quadrature", "quadrature.solve")
    for fn in ("estimate_event_probs", "estimate_average_rates"):
        tr.wrap(montecarlo, fn, "montecarlo.estimate")

    def label_count(args, result):
        return int(result.size)

    tr.wrap(quadrature, "classify_many", "events.classify_many", label_count)
    tr.wrap(montecarlo, "classify_many", "events.classify_many", label_count)
    for fn in ("noma_rates", "tdma_rates"):
        tr.wrap(montecarlo, fn, "regions.rates")
    tr.wrap(montecarlo, "sample_pairs", lambda args: f"{SAMPLER}{args[0].M}",
            lambda args, result: int(args[2]))
    return tr


# ---------------------------------------------------------------------------
# the timed phase
# ---------------------------------------------------------------------------

def solve(cli, op: workloads.Op, out_path: str,
          tracer: Tracer | None) -> Record:
    argv = [*op.argv, "--out", out_path]
    err = io.StringIO()
    before = tracer.snapshot() if tracer else None
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught traceback is a failed solve
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    text = None
    if code == 0:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out_path)
    layers = Tracer.delta(tracer.snapshot(), before) if tracer else None
    return Record(op, code, wall, text, err.getvalue().strip(), layers, t0)


def run_rounds(cli, workload, seed: int, seconds: float,
               tracer: Tracer | None,
               kernel: calibration.Kernel | None = None
               ) -> tuple[list[Record], list[tuple[float, float]]]:
    """Whole rounds of solves, with slices of the calibration `kernel`
    timed between or during them (calibration.py).  Returns the records
    and the calibration slices as (start, seconds)."""
    rng = random.Random(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"solve-{os.getpid()}.csv")
    records = []
    slices: list[tuple[float, float]] = []
    during = kernel is not None and kernel.during
    between = kernel is not None and not kernel.during
    if kernel is not None:
        for _ in range(calibration.WARM_SLICES):
            calibration.timed_slice(kernel.run)
    sampler = calibration.Sampler(kernel.run, slices) if during \
        else contextlib.nullcontext()
    owed = 0.0  # seconds of solving not yet matched by a calibration slice
    t_start = time.perf_counter()
    longest = 0.0
    with sampler:
        while True:  # whole rounds, while the next one should end in time
            t_round = time.perf_counter()
            for op in workload(rng):
                rec = solve(cli, op, out_path, tracer)
                records.append(rec)
                owed += rec.wall_s
                while between and owed >= calibration.EVERY_S:
                    slices.append(calibration.timed_slice(kernel.run))
                    owed -= calibration.EVERY_S
            now = time.perf_counter()
            longest = max(longest, now - t_round)
            if now - t_start + longest > seconds:
                break
    if kernel is not None and not slices:  # a run shorter than a slice
        slices.append(calibration.timed_slice(kernel.run))
    for suffix in ("", ".manifest.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path + suffix)
    return records, slices


def warm_up(cli) -> None:
    """One tiny solve of each kind, so that lazy imports inside scipy and
    numpy, which only the first solve of a process pays, are done before
    timing."""
    path = os.path.join(OUT_DIR, f"warm-{os.getpid()}.csv")
    os.makedirs(OUT_DIR, exist_ok=True)
    base = ["--M", "10", "--m", "2", "--n", "7"]
    for argv in (["events", *base, "--method", "closed"],
                 ["events", *base, "--method", "mc", "--trials", "4096"],
                 ["rates", *base, "--rho-db", "30", "--trials", "4096"]):
        if cli.main([*argv, "--out", path]) != 0:
            raise SystemExit(f"benchmark: warm-up solve failed: {argv}")
    for suffix in ("", ".manifest.json"):
        os.remove(path + suffix)


# ---------------------------------------------------------------------------
# checking outputs against the references
# ---------------------------------------------------------------------------

def check(rec: Record, ref: list[float]) -> str | None:
    """None if the output is right, else why not."""
    op = rec.op
    if rec.code != 0:
        return f"exit code {rec.code}: {rec.error}"
    rows = list(csv.DictReader(io.StringIO(rec.text)))
    if len(rows) != 1:
        return f"expected one output row, got {len(rows)}"
    row = rows[0]
    if op.method == "rates":
        got = [float(row[c]) for c in RATE_COLS]
        tols = [workloads.MC_SIGMAS * float(row["stderr_" + c])
                for c in RATE_COLS]
    else:
        if row["method"] != op.method:
            return f"method column {row['method']!r}"
        got = [float(row[f"p_e{i}"]) for i in range(1, 5)]
        if op.method == "mc":
            tols = [workloads.MC_SIGMAS * max(
                float(row[f"stderr_e{i + 1}"]),
                math.sqrt(r * (1.0 - r) / op.trials))
                for i, r in enumerate(ref)]
        else:
            tols = [op.tol] * 4
    errs = [abs(g - r) for g, r in zip(got, ref)]
    if any(not e <= t for e, t in zip(errs, tols)):
        worst = max(range(4), key=lambda i: errs[i] - tols[i])
        return (f"value {worst + 1} off the reference by {errs[worst]:.3g}, "
                f"allowed {tols[worst]:.3g}")
    return None


def verify(records: list[Record], values: dict) -> tuple[int, bool, list[str]]:
    """(failed, correct, messages).  A known-fault operation that fails is
    counted in `failed` only; any other failure also makes `correct` false."""
    failed = 0
    correct = True
    messages = {}
    twins: dict[tuple, str] = {}
    for rec in records:
        why = check(rec, values[rec.op.ref_key])
        if why is None and rec.op.shards:
            first = twins.setdefault(rec.op.twin_key, rec.text)
            if first != rec.text:
                why = "MC output differs between shard counts"
        if why is None:
            continue
        failed += 1
        if rec.op.known_fault is None:
            correct = False
            tag = "UNEXPECTED"
        else:
            tag = f"known fault: {rec.op.known_fault}"
        messages.setdefault(" ".join(rec.op.argv), f"{why} [{tag}]")
    return failed, correct, [f"{k}: {v}" for k, v in messages.items()]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def speed_factor(kernel: calibration.Kernel, slices) -> float:
    """How much slower the machine was than the reference machine while
    `slices` were timed: their mean time over the reference one."""
    return statistics.fmean(dt for _, dt in slices) / kernel.ref_s


def reference_walls(records, kernel: calibration.Kernel, slices) -> list:
    """Each solve's wall time in reference seconds.  Where the kernel was
    timed during the solves, a solve is scaled by the slices inside it;
    otherwise, or if none fell inside, by all the slices of the run."""
    run_speed = speed_factor(kernel, slices)
    out = []
    for r in records:
        speed = run_speed
        if kernel.during:
            end = r.start_s + r.wall_s
            inside = [sl for sl in slices if r.start_s <= sl[0] < end]
            if inside:
                speed = speed_factor(kernel, inside)
        out.append(r.wall_s / speed)
    return out


def end_to_end(ref_walls, setup_times) -> dict:
    """Solve timings in reference seconds (see reference_walls)."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s.p50": (statistics.median(ref_walls), "ref-s"),
        "solves_per_s": (len(ref_walls) / math.fsum(ref_walls), "1/ref-s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def wall_figures(records) -> dict:
    """The same solve timings in wall seconds, printed for reference."""
    walls = [r.wall_s for r in records]
    return {
        "wall.solve_s.p50": (statistics.median(walls), "s"),
        "wall.solves_per_s": (len(records) / math.fsum(walls), "1/s"),
    }


def _sum(records, name: str):
    calls = busy = self_s = elems = 0
    for r in records:
        layer = r.layers.get(name)
        if layer is not None:
            calls += layer.calls
            busy += layer.busy_s
            self_s += layer.self_s
            elems += layer.elems
    return calls, busy, self_s, elems


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(records, ref_walls, import_cum) -> dict:
    out = {}
    for mod in ("analytic", "montecarlo", "quadrature", "validation"):
        out[f"import.{mod}.cum_s"] = (import_cum.get(f"noma_tdma.{mod}", 0.0),
                                      "s")
    n = len(records)
    _, _, cli_self, _ = _sum(records, "cli.main")
    out["cli.main.self_s"] = (_ratio(cli_self, n), "s")

    calls, busy, self_s, elems = _sum(records, "events.classify_many")
    out["events.classify_many.calls"] = (_ratio(calls, n), "count")
    out["events.classify_many.elems_per_call"] = (_ratio(elems, calls), "count")
    out["events.classify_many.self_s"] = (_ratio(self_s, n), "s")
    out["events.classify_many.ns_per_elem"] = (_ratio(busy * 1e9, elems), "ns")

    rates_solves = [r for r in records if r.op.method == "rates"]
    calls, busy, _, _ = _sum(rates_solves, "regions.rates")
    out["regions.rates.calls"] = (_ratio(calls, len(rates_solves)), "count")
    out["regions.rates.s"] = (_ratio(busy, len(rates_solves)), "s")

    quad = [r for r in records if r.op.method == "quadrature"]
    _, busy, self_s, _ = _sum(quad, "quadrature.solve")
    out["quadrature.solve_s"] = (_ratio(busy, len(quad)), "s")
    out["quadrature.self_s"] = (_ratio(self_s, len(quad)), "s")

    sampler: dict[int, list] = {}  # M -> [calls, busy_s, pairs]
    for r in records:
        for name, layer in r.layers.items():
            if name.startswith(SAMPLER):
                acc = sampler.setdefault(int(name[len(SAMPLER):]), [0, 0.0, 0])
                acc[0] += layer.calls
                acc[1] += layer.busy_s
                acc[2] += layer.elems
    for M in (10, 200):
        _, busy, pairs = sampler.get(M, (0, 0.0, 0))
        out[f"order_stats.sample_pairs.ns_per_pair.M{M}"] = \
            (_ratio(busy * 1e9, pairs), "ns")
    # computed, not measured: the float64 row of M gains plus the x, y copies
    pairs_bytes = sum(acc[2] * (M + 2) * 8 for M, acc in sampler.items())
    out["order_stats.sample_pairs.bytes_per_pair"] = (_ratio(
        pairs_bytes, sum(acc[2] for acc in sampler.values())),
        "B/pair-computed")

    mc = [r for r in records if r.op.shards]
    for shards in (1, 2):
        sub = [r for r in mc if r.op.shards == shards]
        _, busy, _, _ = _sum(sub, "montecarlo.estimate")
        out[f"montecarlo.trials_per_s.shards{shards}"] = \
            (_ratio(sum(r.op.trials for r in sub), busy), "1/s")
    blocks = sum(acc[0] for acc in sampler.values())
    out["montecarlo.blocks"] = (_ratio(blocks, len(mc)), "count")
    # On 1 shard the blocks run on the calling thread, so the estimate's self
    # time is exactly its own dispatch, bincount and moment work.
    one = [r for r in mc if r.op.shards == 1]
    out["montecarlo.self_s"] = (_ratio(_sum(one, "montecarlo.estimate")[2],
                                       len(one)), "s")

    closed = [r for r in records if r.op.method == "closed" and r.code == 0]
    solves = _sum(closed, "analytic.event_probabilities_closed")
    for fn in ("p_eps2_closed", "strong_user_tail", "p_eps4_closed"):
        calls, busy, _, _ = _sum(closed, f"analytic.{fn}")
        out[f"analytic.{fn}.calls_per_solve"] = (_ratio(calls, solves[0]),
                                                 "count")
        if fn != "strong_user_tail":
            out[f"analytic.{fn}.s"] = (_ratio(busy, solves[0]), "s")
    out["analytic.self_s"] = (_ratio(solves[2], solves[0]), "s")

    out["traced.solves_per_s"] = (n / math.fsum(ref_walls), "1/ref-s")
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    values = refs.load()["values"]
    if args.trace:
        import_cum = measure_import_cum_s(IMPORTTIME_REPEATS)
    else:
        setup_times = measure_setup(SETUP_REPEATS)
    warm_up(cli)
    tracer = install_tracer() if args.trace else None
    kernel = calibration.KERNELS[args.workload]
    try:
        records, slices = run_rounds(
            cli, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            tracer, kernel)
    finally:
        if tracer:
            tracer.restore()
    failed, correct, messages = verify(records, values)
    for msg in messages:
        print(msg, file=sys.stderr)

    ref_walls = reference_walls(records, kernel, slices)
    if args.trace:
        metrics = per_layer(records, ref_walls, import_cum)
    else:
        metrics = end_to_end(ref_walls, setup_times)
    table = {**metrics, **wall_figures(records),
             "speed_factor": (speed_factor(kernel, slices),
                              f"x ({len(slices)} slices)")}
    for name, (value, unit) in table.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
