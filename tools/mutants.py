"""Mutation check: each listed mutant must make the Tier-1 tests fail.

A mutant is one (file, old text, new text) replacement; the old text must
occur exactly once in the file.  Each is applied to its own temporary copy
of the tree, where `python -m pytest -x -q` must fail (exit 1).  The
unmutated copy must pass first.  A mutant that survives, or that no longer
applies, fails the run.  Standard library only:

    python3 tools/mutants.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", ".benchmarks", "_out")

MUTANTS = [
    # a clamp slack a million times wider than rounding
    ("src/noma_tdma/analytic.py",
     "CLAMP_TOL = 1e-9",
     "CLAMP_TOL = 1e-3"),
    # the P(E4) start edges at x = rho 2^k, pinned by the (5, 4, 5) point
    # of test_closed_forms_match_mpmath_up_to_m200
    ("src/noma_tdma/analytic.py",
     "np.expm1(math.log1p(lo) * _LO_STEPS), rho * _RHO_STEPS))",
     "np.expm1(math.log1p(lo) * _LO_STEPS)))"),
    # the P(E4) start edges at 1 + x = (1 + lo)^(1/4, 1/2, 3/4)
    ("src/noma_tdma/analytic.py",
     "np.expm1(math.log1p(lo) * _LO_STEPS), rho * _RHO_STEPS))",
     "rho * _RHO_STEPS))"),
    # the shared Beta density with its shape reversed: both deterministic
    # solvers move together, so only an outside witness sees it, e.g. the
    # moments of TestBetaExpect or the mpmath and QUADPACK points
    ("src/noma_tdma/analytic.py",
     "beta_logpdf(np.log(t), log_1mt, shape)",
     "beta_logpdf(np.log(t), log_1mt, shape[::-1])"),
    # the integrator's quarter margin on a panel's share of the tol: the
    # integrals of t^p, p < 0, of TestBetaExpect land past their tol
    ("src/noma_tdma/analytic.py",
     "done = 4.0 * err <= budget / err.size",
     "done = err <= budget / err.size"),
    # P(E1) as the complement of the upper binomial tail, which loses a
    # small P(E1)'s relative accuracy
    ("src/noma_tdma/analytic.py",
     "EventProbabilities(float(bdtr(cfg.m - 1, cfg.M, q)),",
     "EventProbabilities(float(1.0 - bdtrc(cfg.m - 1, cfg.M, q)),"),
    # P(E2) from the two tails farther from 0, which loses a small P(E2)'s
    # relative accuracy
    ("src/noma_tdma/analytic.py",
     "if strong_user_tail(cfg, a2) <= 0.5:",
     "if strong_user_tail(cfg, a2) > 0.5:"),
    # no Beta-law integral started at its own law's sd edges: the moments
    # of TestBetaExpect at the laws (10000, 4) and (4, 10000), whose mass
    # no node of one panel over (0, 1) sees, come out 0
    ("src/noma_tdma/analytic.py",
     "    cuts = np.append(_beta_cuts(*shape), cuts)\n",
     ""),
    # sd edges no farther out than 7 sd: at (10^6,1,2), 25 dB, the oracle
    # is 6.7e-4 off the closed forms
    ("src/noma_tdma/analytic.py",
     "_SD_STEPS = np.array([-31.0, -7.0, -3.0, -1.0, 0.0, 1.0, 3.0, 7.0, "
     "31.0])",
     "_SD_STEPS = np.array([-7.0, -3.0, -1.0, 0.0, 1.0, 3.0, 7.0])"),
    # half the level budget: the integral of t^-0.5 of TestBetaExpect, whose
    # panel at t = 0 halves once per level, runs out of levels
    ("src/noma_tdma/analytic.py",
     "_QUAD_LEVELS = 40",
     "_QUAD_LEVELS = 20"),
    # a sixteenth of the panel budget, too few for a narrow P(E4) integrand
    ("src/noma_tdma/analytic.py",
     "_QUAD_PANELS = 1024",
     "_QUAD_PANELS = 64"),
    # no check that the four closed forms sum to 1
    ("src/noma_tdma/analytic.py",
     "    if abs(total - 1.0) > 1e-9:\n"
     "        raise InconsistencyError("
     "f\"probabilities sum to {total}, not 1\")\n",
     ""),
    # the oracle's sum window as tight as the closed forms', not 10 * tol;
    # its masses now sum to 1 within ~1e-9 on every input seen, so only
    # test_sum_check_window_is_ten_tol, which scales them, sees it
    ("src/noma_tdma/quadrature.py",
     "abs(totals.sum() - 1.0) > 10.0 * tol",
     "abs(totals.sum() - 1.0) > 1e-9"),
    # no check that the oracle's masses sum to 1: masses that an integral
    # missing part of the u-law leaves are returned as probabilities
    ("src/noma_tdma/quadrature.py",
     "    if abs(totals.sum() - 1.0) > 10.0 * tol:\n"
     "        raise ConvergenceError(\n"
     "            f\"event masses sum to {totals.sum()}, outside 1 +/- "
     "{10 * tol}\")\n",
     ""),
    # the column masses from the CDF of the reversed s-law
    ("src/noma_tdma/quadrature.py",
     "cdf = betainc(*cfg.s_shape, cuts)",
     "cdf = betainc(*cfg.s_shape[::-1], cuts)"),
    # half the oracle's tol spent on cut placement, not a hundredth
    ("src/noma_tdma/quadrature.py",
     "_CUT_SHARE = 1.0 / 100",
     "_CUT_SHARE = 1.0 / 2"),
    # no starting panel edges where a column's event set changes
    ("src/noma_tdma/quadrature.py",
     "cuts = np.append(_onsets(cfg, a2, b2, cut_tol), "
     "x_edges[x_edges > 1e-300])",
     "cuts = x_edges[x_edges > 1e-300]"),
    # no starting edges at the rates' x-scale: at (19,1,15), 55.59 dB, the
    # mass at x = O(1) within ~1e-5 of u = 1 is missed, 2.5e-6 at tol 1e-6
    ("src/noma_tdma/quadrature.py",
     "cuts = np.append(_onsets(cfg, a2, b2, cut_tol), "
     "x_edges[x_edges > 1e-300])",
     "cuts = _onsets(cfg, a2, b2, cut_tol)"),
    # edges only where a column's E1 membership changes, not at every
    # change of its event set: the E4 onset at (10,1,4), 58.81 dB, falls
    # between Gauss nodes; killed by the closed forms
    ("src/noma_tdma/quadrature.py",
     "return np.bitwise_or.reduce(1 << (labels - 1), axis=-1)",
     "return (labels == 1).any(axis=-1)"),
    # a bracket walked to its last label change, not its first
    ("src/noma_tdma/quadrature.py",
     "end = (got[:, 1:] != left[:, None]).argmax(axis=1)",
     "end = width - (got[:, -2::-1] != right[:, None]).argmax(axis=1)"),
    # a bracket cut at its first label change alone, the rest of it never
    # bisected: an E3 sliver inside one bracket is lost; killed by the
    # closed forms at (10,1,10), 20 dB
    ("src/noma_tdma/quadrature.py",
     "rest = at_end != right",
     "rest = at_end != at_end"),
    # the oracle's cut stop without the most cuts in one row
    ("src/noma_tdma/quadrature.py",
     "stop = cut_tol / (np.bincount(row).max(initial=1) * peak)",
     "stop = cut_tol / peak"),
    # the s-cut stop without the Beta(s_shape) peak
    ("src/noma_tdma/quadrature.py",
     "_cuts(_SPROBES, labels, label, cut_tol,\n"
     "                                   _beta_peak(*cfg.s_shape))",
     "_cuts(_SPROBES, labels, label, cut_tol, 1.0)"),
    # s-probe tails that stop at 2^-18 from s = 0 and s = 1: at (200,5,6),
    # 30 dB, tol 1e-8, the oracle misses refs.json by 3.9 tol
    ("src/noma_tdma/quadrature.py",
     "tails = 2.0 ** -np.arange(6, 44, 2.0)",
     "tails = 2.0 ** -np.arange(6, 20, 2.0)"),
    # half the oracle's bulk s-probes
    ("src/noma_tdma/quadrature.py",
     "bulk = (np.arange(64) + 0.5) / 64",
     "bulk = (np.arange(32) + 0.5) / 32"),
    # a channel pair with x = y, which is not degraded
    ("src/noma_tdma/regions.py",
     "if not 0.0 < x < y < math.inf:",
     "if not 0.0 < x <= y < math.inf:"),
    # a marked split with more than half the power to the strong user
    ("src/noma_tdma/cli.py",
     "if not 0.0 <= a2 <= 0.5:",
     "if not 0.0 <= a2 <= 1.0:"),
    # a tie tolerance far above rounding
    ("src/noma_tdma/events.py",
     "TIE_TOL = 1e-12",
     "TIE_TOL = 1e-9"),
    # ties go to the highest matching event id, not the lowest
    ("src/noma_tdma/events.py",
     "                table[s1 + 3 * s2 + 9 * s3] = event\n"
     "                break\n",
     "                table[s1 + 3 * s2 + 9 * s3] = event\n"),
    # an infinite y let through to a NaN margin h(inf) = inf - inf
    ("src/noma_tdma/events.py",
     "x.min(initial=0.0) >= 0.0\n"
     "            and y.max(initial=0.0) < math.inf):",
     "x.min(initial=0.0) >= 0.0):"),
    # a negative x let through and labelled
    ("src/noma_tdma/events.py",
     "(x <= y).all() and x.min(initial=0.0) >= 0.0\n",
     "(x <= y).all()\n"),
    # u's Beta shape reversed: every method moves together, so only an
    # outside witness sees it
    ("src/noma_tdma/order_stats.py",
     "return self.M - self.m + 1, self.m",
     "return self.m, self.M - self.m + 1"),
    # the sampler's sum-to-gamma switch at runs of 3 spacings, not 10
    ("src/noma_tdma/order_stats.py",
     "GAMMA_RUN = 10",
     "GAMMA_RUN = 3"),
    # a summed run's first spacing at rate a + b, not a + b - 1; killed by
    # the KS test of x at (10,2,7), not by a pinned value alone
    ("src/noma_tdma/order_stats.py",
     "out *= -rho / (a + b - 1)",
     "out *= -rho / (a + b)"),
    # the inversion draw of a Beta(1, b) run as 1 - U^(1/(b+1)), which is
    # Beta(1, b+1)
    ("src/noma_tdma/order_stats.py",
     "        out /= b\n",
     "        out /= b + 1\n"),
    # average-rate sums taken about 0, not about each block's first draw
    ("src/noma_tdma/montecarlo.py",
     "shift = rates[:, 0].copy()",
     "shift = np.zeros(4)"),
    # Monte Carlo chunks of 2**10 trials, not 2**13
    ("src/noma_tdma/montecarlo.py",
     "CHUNK = 1 << 13",
     "CHUNK = 1 << 10"),
    # a name in the README's paper-to-code map that no module defines
    ("README.md",
     "`noma_tdma.analytic.p_eps2_special`",
     "`noma_tdma.analytic.p_eps2_exact`"),
]


def run_tests(tree: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q"],
                          cwd=tree, env=env, capture_output=True, text=True)


def failed_line(proc: subprocess.CompletedProcess) -> str:
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line[:160]
    return f"exit {proc.returncode}"


def copy_tree(tmp: str) -> str:
    tree = os.path.join(tmp, "tree")
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = run_tests(copy_tree(tmp))
    if base.returncode != 0:
        print(base.stdout[-3000:])
        print("unmutated tree: tests fail")
        return 1
    survivors = 0
    for i, (path, old, new) in enumerate(MUTANTS, start=1):
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(tmp)
            with open(os.path.join(tree, path)) as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"mutant {i} {path}: old text found {text.count(old)} "
                      f"times")
                survivors += 1
                continue
            line = text[:text.index(old)].count("\n") + 1
            label = f"mutant {i} {path}:{line}"
            with open(os.path.join(tree, path), "w") as fh:
                fh.write(text.replace(old, new))
            proc = run_tests(tree)
        if proc.returncode == 1:
            print(f"{label}: killed, {failed_line(proc)}")
        else:
            print(f"{label}: SURVIVED ({failed_line(proc)})")
            survivors += 1
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
