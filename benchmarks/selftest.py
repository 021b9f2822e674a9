"""Fast self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 benchmarks/selftest.py

Checks the independent references against values known in closed form and
against the stored refs.json, the output checks and failure accounting of
run.py on synthetic outputs, the tracer's self-time bookkeeping, and one
tiny traced round of real closed-form and Monte Carlo solves, whose metric
names must match BENCHMARK.json.  Quadrature is only checked on synthetic
outputs: its smallest solve takes seconds.  Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import math
import os
import random
import sys
import time
import types

import calibration
import run
import refs
import workloads
from tracing import Tracer


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def test_references() -> None:
    # (m, n) = (1, M) at the special a2 makes d = 1/2: P(E2) = 1 - 2^(1-M)
    p = refs.event_probs(10, 1, 10, 25.0, "special")
    expect(abs(p[1] - (1.0 - 2.0**-9)) < 1e-15, f"special-case P(E2) {p[1]}")
    expect(abs(math.fsum(p) - 1.0) < 1e-15 and min(p) >= 0.0,
           f"probabilities {p}")
    # the strong user's NOMA rate uses at most half the power, so it stays
    # below its single-user rate, which is twice its TDMA rate
    r = refs.mean_rates(2, 1, 2, 0.0)
    expect(all(v > 0.0 for v in r) and r[1] < 2 * r[3], f"mean rates {r}")
    stored = refs.load()["values"]
    keys = [refs.event_key(10, 2, 7, 25.0, "inv_sqrt_rho"),
            refs.event_key(20, 19, 20, 25.0, "special")]
    for key in keys:
        M, m, n, rho_db, mode = key.split("/")[1:]
        fresh = refs.event_probs(int(M), int(m), int(n), float(rho_db), mode)
        expect(stored[key] == fresh, f"stored reference {key} is stale")
    needed = {refs.event_key(M, m, n, db, mode) if kind == "events"
              else refs.rates_key(M, m, n, db)
              for kind, M, m, n, db, mode in workloads.reference_points()}
    expect(needed <= stored.keys(), "refs.json lacks references a round uses")


def _record(method, text, code=0, fault=None, shards=0,
            tol=workloads.CLOSED_TOL):
    op = workloads.Op(("events", method, str(shards)), method, "k",
                      tol=tol, trials=1000, shards=shards, known_fault=fault)
    return run.Record(op, code, 0.0, text, "")


def test_checks() -> None:
    head = "m,n,method,p_e1,p_e2,p_e3,p_e4,stderr_e1,stderr_e2,stderr_e3," \
        "stderr_e4\n"
    ref = [0.1, 0.2, 0.3, 0.4]
    exact = head + "1,2,closed,0.1,0.2,0.3,0.4,,,,\n"
    off = head + "1,2,closed,0.1,0.2,0.3000001,0.3999999,,,,\n"
    expect(run.check(_record("closed", exact), ref) is None, "exact closed")
    expect(run.check(_record("closed", off), ref) is not None,
           "closed off by 1e-7 must fail at 1e-9")
    quad = off.replace("closed", "quadrature")
    expect(run.check(_record("quadrature", quad, tol=1e-6), ref) is None,
           "quadrature within tol")
    mc = head + "1,2,mc,0.11,0.2,0.29,0.4,0.002,0.01,0.01,0.01\n"
    expect(run.check(_record("mc", mc, shards=1), ref) is None,
           "MC within 6 stderr")
    mc_bad = mc.replace("0.11,", "0.2,")
    expect(run.check(_record("mc", mc_bad, shards=1), ref) is not None,
           "MC 9 stderr off must fail")
    expect(run.check(_record("closed", None, code=2), ref) is not None,
           "nonzero exit must fail")

    values = {"k": ref}
    recs = [_record("closed", exact), _record("closed", off, fault="named")]
    expect(run.verify(recs, values)[:2] == (1, True),
           "a known fault is counted, and correct stays true")
    recs.append(_record("closed", off))
    expect(run.verify(recs, values)[:2] == (2, False),
           "an unexpected failure makes correct false")
    twin = mc.replace("0.002", "0.0020000001")
    recs = [_record("mc", mc, shards=1), _record("mc", twin, shards=2)]
    recs[1].op = workloads.Op(("events", "mc", "--shards", "2"), "mc", "k",
                              trials=1000, shards=2)
    recs[0].op = workloads.Op(("events", "mc", "--shards", "1"), "mc", "k",
                              trials=1000, shards=1)
    expect(run.verify(recs, values)[:2] == (1, False),
           "shard outputs that differ must fail")


def test_tracer() -> None:
    mod = types.SimpleNamespace()
    mod.inner = lambda n: sum(range(n))
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    original = mod.outer
    tr = Tracer()
    tr.wrap(mod, "inner", "inner", lambda args, result: args[0])
    tr.wrap(mod, "outer", "outer")
    mod.outer(20000)
    outer, inner = tr.layers["outer"], tr.layers["inner"]
    expect(inner.calls == 2 and inner.elems == 40000, "inner calls/elems")
    expect(abs(outer.self_s - (outer.busy_s - inner.busy_s)) < 1e-9,
           "outer self time excludes traced children")
    tr.restore()
    expect(mod.outer is original, "restore puts the originals back")


def test_sampler() -> None:
    kernel = calibration.KERNELS["quad-grid"]
    slices: list[tuple[float, float]] = []
    t0 = time.perf_counter()
    with calibration.Sampler(kernel.run, slices) as sampler:
        while time.perf_counter() < t0 + 0.4:  # a solve the slices interrupt
            sum(range(1000))
    expect(not sampler._thread.is_alive(), "the sampler thread is joined")
    expect(4 <= len(slices) <= 9 and min(dt for _, dt in slices) > 0.0,
           f"sampler slices in 0.4 s: {slices}")
    # a solve is scaled by the slices inside it, not by those of the run
    inside = run.Record(None, 0, 0.2, None, "", start_s=t0)
    outside = run.Record(None, 0, 0.2, None, "", start_s=t0 + 1.0)
    fast = [(t0 + 0.1, kernel.ref_s / 2)]
    both = fast + [(t0 + 2.0, kernel.ref_s * 2)]
    walls = run.reference_walls([inside, outside], kernel, both)
    expect(walls == [0.4, 0.2 / 1.25], f"reference walls {walls}")


def test_tiny_round() -> None:
    ops = [workloads.Op(("events", "--M", "6", "--m", "2", "--n", "4",
                         "--method", "closed"), "closed",
                        refs.event_key(6, 2, 4, 25.0, "inv_sqrt_rho"),
                        tol=workloads.CLOSED_TOL)]
    for shards in (1, 2):
        common = ("--trials", "8192", "--seed", "3", "--shards", str(shards))
        ops.append(workloads.Op(
            ("events", "--M", "6", "--m", "2", "--n", "4", "--method", "mc",
             *common), "mc", refs.event_key(6, 2, 4, 25.0, "inv_sqrt_rho"),
            trials=8192, shards=shards))
        ops.append(workloads.Op(
            ("rates", "--M", "6", "--m", "1", "--n", "6", "--rho-db", "30",
             *common), "rates", refs.rates_key(6, 1, 6, 30.0),
            trials=8192, shards=shards))
    values = refs.compute_all([
        ("events", 6, 2, 4, 25.0, "inv_sqrt_rho"),
        ("rates", 6, 1, 6, 30.0, None)])

    cli = run.import_cli()
    tracer = run.install_tracer()
    try:
        records, slices = run.run_rounds(
            cli, lambda rng: list(ops), 0, 0.0, tracer,
            calibration.KERNELS["mc"])
    finally:
        tracer.restore()
    failed, correct, messages = run.verify(records, values)
    expect((failed, correct) == (0, True), f"tiny round: {messages}")

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect(len(slices) >= 1 and min(dt for _, dt in slices) > 0.0,
           f"calibration slices {slices}")
    ref_walls = run.reference_walls(records, calibration.KERNELS["mc"],
                                    slices)
    layer = run.per_layer(records, ref_walls, {})
    expect(list(layer) == [m["name"] for m in spec["per_layer"]],
           "per-layer metric names differ from BENCHMARK.json")
    expect(all(layer[m["name"]][1] == m["unit"] for m in spec["per_layer"]),
           "per-layer units differ from BENCHMARK.json")
    expect(layer["analytic.p_eps2_closed.calls_per_solve"][0] > 0
           and layer["order_stats.sample_pairs.bytes_per_pair"][0] == 64,
           "per-layer counts of the tiny round")
    e2e = run.end_to_end(ref_walls, [1.0])
    expect([(k, u) for k, (_, u) in e2e.items()]
           == [(m["name"], m["unit"]) for m in spec["end_to_end"]],
           "end-to-end metric names or units differ from BENCHMARK.json")
    expect(all(v > 0 for v, _ in e2e.values()), "end-to-end metrics are > 0")
    expect(sorted(w["name"] for w in spec["workloads"])
           == sorted(workloads.WORKLOADS) == sorted(calibration.KERNELS),
           "workload names")
    # a round repeats whole: the same seed gives the same operations
    for make in workloads.WORKLOADS.values():
        expect(make(random.Random(5)) == make(random.Random(5)),
               "rounds are a function of the seed")


def main() -> int:
    for test in (test_references, test_checks, test_tracer, test_sampler,
                 test_tiny_round):
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
