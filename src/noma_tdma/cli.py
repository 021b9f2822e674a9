"""Command-line front end emitting plot-ready CSV/JSON data files.

Subcommands: regions, events, sweep-n, rates, validate.  SNR is taken in dB
on the command line and converted to linear rho = 10**(dB/10) internally.
Every file-writing command drops a JSON run manifest next to its outputs so
a run can be reproduced byte-identically.  The modules that import scipy
are imported only by the method or subcommand that runs them, and the
package root imports nothing, so importing this module loads numpy alone.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import math
import sys

from . import __version__, montecarlo
from .events import ConvergenceError, EventProbabilities, optimal_a2_special
from .montecarlo import McConfig, RNG_SCHEME
from .order_stats import PairingConfig
from .regions import (f_tdma, log2_1p, noma_rates, region_boundary_samples,
                      tdma_rates)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

#: the `validate` suites, known here without importing `validation`; suite
#: `name` runs `validation.check_<name>`
VALIDATE_SUITES = ("propositions", "regions", "orderstats", "probabilities")


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        # str of a float is its shortest round-trip decimal
        buf.write(",".join(map(str, row)) + "\n")
    return buf.getvalue()


def _rows_to_json(header: list[str], rows: list[list], manifest: dict) -> str:
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps({"manifest": manifest, "records": records},
                      indent=2) + "\n"


def _manifest(args: argparse.Namespace) -> dict:
    """What determines the data; the run's timestamp is added only to the
    sidecar manifest, so a JSON data file embedding this is reproducible."""
    params = {k: v for k, v in vars(args).items() if k != "func"}
    seed = getattr(args, "seed", None)
    return {
        "command": args.command,
        "parameters": params,
        "seed": seed,
        # a command that draws no random number has no scheme to record
        "rng_scheme": None if seed is None else RNG_SCHEME,
        "version": __version__,
    }


def _emit(args: argparse.Namespace, header: list[str], rows: list[list]) -> None:
    manifest = _manifest(args)
    if args.format == "json":
        payload = _rows_to_json(header, rows, manifest)
    else:
        payload = _rows_to_csv(header, rows)
    if args.out is None:
        sys.stdout.write(payload)
        return
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    manifest["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    manifest["outputs"] = {
        args.out: hashlib.sha256(payload.encode("utf-8")).hexdigest()}
    with open(args.out + ".manifest.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _rho(rho_db: float) -> float:
    """Linear SNR from --rho-db, which must be at most 3000 dB: past ~3083
    dB 10**(dB/10) overflows a float, and every solver caps rho at 1e300."""
    # written so that NaN fails the check
    if not rho_db <= 3000.0:
        raise ValueError(f"--rho-db must be at most 3000 dB, got {rho_db}")
    return 10.0**(rho_db / 10.0)


def _resolve_a2(mode: str, rho: float) -> float:
    if mode == "inv_sqrt_rho":
        return 1.0 / math.sqrt(rho)
    if mode == "special":
        return optimal_a2_special(rho)
    if mode.startswith("fixed:"):
        return float(mode.split(":", 1)[1])
    raise ValueError(
        f"a2 mode must be fixed:<value>, inv_sqrt_rho, or special, got {mode!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_regions(args: argparse.Namespace) -> int:
    x, y, a2, b2 = args.x, args.y, args.mark_a2, args.mark_b2
    rows = []
    for kind in ("capacity", "noma", "tdma"):
        r1, r2 = region_boundary_samples(kind, x, y, args.points)
        rows += [[kind, b, a] for a, b in zip(r1.tolist(), r2.tolist())]
    if a2 is not None:
        # written so that NaN fails the checks; NOMA gives the weaker user
        # at least half the power
        if not 0.0 <= a2 <= 0.5:
            raise ValueError(f"NOMA needs 0 <= a2 <= 1/2, got --mark-a2 {a2}")
        if not 0.0 <= b2 <= 1.0:
            raise ValueError(f"need 0 <= b2 <= 1, got --mark-b2 {b2}")
        r1n, r2n = (float(r) for r in noma_rates(x, y, a2))
        r1t, r2t = (float(r) for r in tdma_rates(x, y, b2))
        # where the comparison lines through N meet the TDMA segment: B on
        # r1 = R1N, C on r2 = R2N, D on the sum rate.  z_B and z_D are R2*
        # times a ratio of logs in [0, 1], so nothing cancels as y -> x or
        # a2 -> 0 and both stay inside the segment.
        r2s = float(log2_1p(y))
        z_b = r2s * (math.log1p(a2 * x) / math.log1p(x))
        z_d = r2s * (math.log1p(a2 * (y - x) / (1.0 + a2 * x))
                     / math.log1p((y - x) / (1.0 + x)))
        rows += [["point_N", r2n, r1n], ["point_T", r2t, r1t],
                 ["point_B", z_b, r1n],
                 ["point_C", r2n, float(f_tdma(r2n, x, y))],
                 ["point_D", z_d, float(f_tdma(z_d, x, y))]]
    _emit(args, ["region", "r2", "r1"], rows)
    return EXIT_OK


def _methods(args: argparse.Namespace) -> list[str]:
    """The methods --method selects; the closed forms exist for b2 = 1/2 only."""
    methods = ["closed", "quadrature", "mc"] if args.method == "all" \
        else [args.method]
    if "closed" in methods and args.b2 != 0.5:
        raise ValueError(
            f"the closed forms hold for b2 = 1/2 only, got --b2 {args.b2}")
    return methods


def _mc_config(args: argparse.Namespace) -> McConfig:
    return McConfig(trials=args.trials, seed=args.seed, shards=args.shards)


def _solve(method: str, cfg: PairingConfig, a2: float,
           args: argparse.Namespace) -> EventProbabilities:
    """The four event probabilities at the time split args.b2 by one method."""
    # imported on first use, since they load scipy; called as module
    # attributes, so that wrappers set on those apply
    if method == "closed":
        from . import analytic
        return analytic.event_probabilities_closed(cfg, a2)
    if method == "quadrature":
        from . import quadrature
        return quadrature.event_probabilities_quadrature(
            cfg, a2, args.b2, args.quad_tol)
    return montecarlo.estimate_event_probs(cfg, a2, args.b2, _mc_config(args))


EVENTS_HEADER = ["m", "n", "method", "p_e1", "p_e2", "p_e3", "p_e4",
                 "stderr_e1", "stderr_e2", "stderr_e3", "stderr_e4"]


def cmd_events(args: argparse.Namespace) -> int:
    rho = _rho(args.rho_db)
    cfg = PairingConfig(args.M, args.m, args.n, rho)
    a2 = _resolve_a2(args.a2_mode, rho)
    rows = []
    for method in _methods(args):
        est = _solve(method, cfg, a2, args)
        rows.append([cfg.m, cfg.n, method, *est.as_tuple(),
                     *(est.stderr or ("",) * 4)])
    _emit(args, EVENTS_HEADER, rows)
    return EXIT_OK


def cmd_sweep_n(args: argparse.Namespace) -> int:
    if not 1 <= args.m < args.M:
        raise ValueError(f"sweep-n needs 1 <= m < M, got m={args.m}, "
                         f"M={args.M}")
    rho = _rho(args.rho_db)
    a2 = _resolve_a2(args.a2_mode, rho)
    methods = _methods(args)
    rows = []
    prev = {}
    for n in range(args.m + 1, args.M + 1):
        cfg = PairingConfig(args.M, args.m, n, rho)
        for method in methods:
            est = _solve(method, cfg, a2, args)
            p2 = est.p2
            if method in prev and p2 < prev[method] - 1e-9:
                print(f"warning: p_e2 not non-decreasing at n={n} "
                      f"({method}: {prev[method]} -> {p2})", file=sys.stderr)
            prev[method] = p2
            rows.append([n, method, p2, est.stderr[1] if est.stderr else ""])
    _emit(args, ["n", "method", "p_e2", "stderr_e2"], rows)
    return EXIT_OK


def cmd_rates(args: argparse.Namespace) -> int:
    rows = []
    for rho_db in args.rho_db:
        rho = _rho(rho_db)
        cfg = PairingConfig(args.M, args.m, args.n, rho)
        a2 = optimal_a2_special(rho)
        est = montecarlo.estimate_average_rates(cfg, a2, 0.5,
                                                _mc_config(args))
        rows.append([rho_db, est.r1_noma, est.r2_noma, est.r1_tdma,
                     est.r2_tdma, *est.stderr])
    _emit(args, ["rho_db", "r1_noma", "r2_noma", "r1_tdma", "r2_tdma",
                 "stderr_r1_noma", "stderr_r2_noma", "stderr_r1_tdma",
                 "stderr_r2_tdma"], rows)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from . import validation
    suites = VALIDATE_SUITES if args.suite == "all" else [args.suite]
    records = [record for name in suites
               for record in getattr(validation, f"check_{name}")(args.seed)]
    rows = [[r["suite"], r["check"], "pass" if r["passed"] else "FAIL",
             r["detail"]] for r in records]
    for row in rows:
        print(f"[{row[2]:>4}] {row[0]}/{row[1]}: {row[3]}")
    if args.out is not None:
        _emit(args, ["suite", "check", "status", "detail"], rows)
    failed = sum(not r["passed"] for r in records)
    print(f"{len(records) - failed}/{len(records)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_output_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")


def _add_mc_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--trials", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--shards", type=int, default=1)


def _add_solver_args(sp: argparse.ArgumentParser, method_default: str) -> None:
    """The operating point and the solver options of `events` and `sweep-n`."""
    sp.add_argument("--rho-db", type=float, default=25.0)
    sp.add_argument("--a2-mode", default="inv_sqrt_rho")
    sp.add_argument("--b2", type=float, default=0.5)
    sp.add_argument("--method", choices=["closed", "quadrature", "mc", "all"],
                    default=method_default)
    sp.add_argument("--quad-tol", type=float, default=1e-6)
    _add_mc_args(sp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-tdma",
        description="Two-user NOMA vs. TDMA rate regions and event probabilities")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("regions", help="sample the three region boundaries")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--points", type=int, default=201)
    sp.add_argument("--mark-a2", type=float, default=None,
                    help="also emit the N/T points and B/C/D intersections")
    sp.add_argument("--mark-b2", type=float, default=0.5)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_regions)

    sp = sub.add_parser("events", help="event probabilities for one pairing")
    sp.add_argument("--M", type=int, default=10)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_solver_args(sp, "all")
    _add_output_args(sp)
    sp.set_defaults(func=cmd_events)

    sp = sub.add_parser("sweep-n", help="P(E2) as a function of n")
    sp.add_argument("--M", type=int, default=10)
    sp.add_argument("--m", type=int, default=1)
    _add_solver_args(sp, "closed")
    _add_output_args(sp)
    sp.set_defaults(func=cmd_sweep_n)

    sp = sub.add_parser("rates", help="average per-user rates vs. SNR")
    sp.add_argument("--M", type=int, default=10)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--rho-db", type=float, nargs="+", required=True)
    _add_mc_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_rates)

    sp = sub.add_parser("validate", help="run the self-check suites")
    sp.add_argument("--suite",
                    choices=[*VALIDATE_SUITES, "all"], default="all")
    sp.add_argument("--seed", type=int, default=42)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
