"""Randomized self-check suites, shared by the CLI `validate` command and the
test suite.  Each check returns a record dict with a boolean `passed`."""
from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaincinv, chdtrc

from . import analytic, montecarlo, quadrature
from .events import classify_many
from .order_stats import PairingConfig, joint_pdf, marginal_cdf_n, sample_pairs
from .regions import f_noma, f_tdma, log2_1p, noma_rates

#: (m, n) pairs and SNRs (dB) of the closed/quadrature/MC agreement grid
AGREEMENT_PAIRS = [(1, 2), (1, 10), (2, 7), (4, 5), (5, 6)]
AGREEMENT_RHO_DB = [20.0, 25.0, 30.0]

#: probability that the exact binomial intervals of the MC frequencies hold
#: every closed-form value of the grid at once: the 3-sigma normal coverage
MC_CONFIDENCE = 0.9973

#: cells per axis of the sampler's chi-square grid over (u, s)
_CHI_SQUARE_GRID = 8


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


def _record(suite: str, check: str, passed: bool, detail: str) -> dict:
    return {"suite": suite, "check": check, "passed": bool(passed),
            "detail": detail}


def _random_channels(rng: np.random.Generator, count: int):
    x = rng.uniform(0.05, 50.0, count)
    y = x * (1.0 + rng.uniform(1e-3, 20.0, count))
    return x, y


def check_propositions(seed: int) -> list[dict]:
    """Monotone-sum and dominance inequalities plus full/reduced classifier
    agreement, on 1e6 random draws."""
    samples = 1_000_000
    rng = np.random.default_rng(seed)
    x, y = _random_channels(rng, samples)
    r2_star = log2_1p(y)

    z_a = rng.uniform(0.0, 1.0, samples) * r2_star
    z_b = rng.uniform(0.0, 1.0, samples) * r2_star
    z_hi = np.maximum(z_a, z_b)
    z_lo = np.minimum(z_a, z_b)
    distinct = z_hi > z_lo

    # sum monotonicity: z > z0 implies f^N(z) + z > f^T(z0) + z0
    lhs = f_noma(z_hi, x, y) + z_hi
    rhs = f_tdma(z_lo, x, y) + z_lo
    v1 = int(np.sum((lhs <= rhs) & distinct))

    # dominance: z < z0 implies f^N(z) > f^T(z0)
    v2 = int(np.sum((f_noma(z_lo, x, y) <= f_tdma(z_hi, x, y)) & distinct))

    a2 = rng.uniform(0.01, 0.5, samples)
    b2 = rng.uniform(0.01, 0.99, samples)
    full = classify_many(x, y, a2, b2, reduced=False)
    red = classify_many(x, y, a2, b2, reduced=True)
    disagreements = int(np.sum(full != red))

    return [
        _record("propositions", "monotone_sum_strict", v1 == 0,
                f"{v1} violations in {samples} draws"),
        _record("propositions", "dominance_strict", v2 == 0,
                f"{v2} violations in {samples} draws"),
        _record("propositions", "full_reduced_agreement", disagreements == 0,
                f"{disagreements} disagreements in {samples} draws"),
    ]


def check_regions(seed: int) -> list[dict]:
    """Boundary endpoint identities, dominance, concavity, and the
    point-F coordinates on 1000 random channels."""
    samples = 1000
    rng = np.random.default_rng(seed)
    x, y = _random_channels(rng, samples)
    r1s, r2s = log2_1p(x), log2_1p(y)
    xc, yc = x[:, None], y[:, None]  # one row per channel

    endpoints = np.max(np.abs([f_noma(0.0, x, y) - r1s, f_noma(r2s, x, y),
                               f_tdma(0.0, x, y) - r1s, f_tdma(r2s, x, y)]))

    z = np.sort(rng.uniform(0.0, r2s[:, None], (samples, 16)), axis=1)
    fn = f_noma(z, xc, yc)
    dominance = np.max(f_tdma(z, xc, yc) - fn)
    monotone_sum = int(np.sum(np.diff(fn + z, axis=1) <= 0.0))

    h = r2s / 64.0
    zi = rng.uniform(2 * h, r2s - 2 * h)
    second = (f_noma(zi + h, x, y) - 2 * f_noma(zi, x, y)
              + f_noma(zi - h, x, y)) / h**2
    concavity = np.max(second / np.maximum(np.abs(second), 1.0))

    r1n, r2n = noma_rates(x, y, rng.uniform(0.0, 0.5, samples))
    consistency = np.max(np.abs(r1n - f_noma(r2n, x, y)))

    r1f, r2f = noma_rates(x, y, 0.5)
    point_f = np.max(np.abs([r2f - np.log2(1 + y / 2),
                             r1f - np.log2(1 + x / (2 + x))]))

    return [
        _record("regions", "endpoint_identities", endpoints <= 1e-12,
                f"worst |err| = {endpoints:.2e}"),
        _record("regions", "noma_dominates_tdma", dominance <= 1e-12,
                f"worst f^T - f^N = {dominance:.2e}"),
        _record("regions", "monotone_sum", monotone_sum == 0,
                f"{monotone_sum} non-increasing steps"),
        _record("regions", "concavity", concavity <= 1e-8,
                f"worst normalized f'' = {concavity:.2e}"),
        _record("regions", "point_on_boundary", consistency <= 1e-10,
                f"worst |r1 - f^N(r2)| = {consistency:.2e}"),
        _record("regions", "point_f_coordinates", point_f <= 1e-10,
                f"worst point-F deviation = {point_f:.2e}"),
    ]


def check_orderstats(seed: int, samples: int = 200_000) -> list[dict]:
    """Joint-PDF normalization, sampler-vs-CDF KS test, sampler-vs-PDF
    chi-square tests with short and long spacing runs, and a closed-form
    mean spot check."""
    records = []
    cfg = PairingConfig(10, 2, 7, 10.0)
    rho = cfg.rho

    # (u, s) = (exp(-x/rho), exp(-(y-x)/rho)) maps the support onto the unit
    # square, with dx dy = rho^2/(u s) du ds
    def us_density(s, u):
        x = -rho * math.log(u)
        return joint_pdf(x, x - rho * math.log(s), cfg) * rho**2 / (u * s)

    # scipy.integrate adds ~25 MB and ~0.2 s to the import of every command,
    # and only this check uses it
    from scipy.integrate import dblquad

    mass, _ = dblquad(us_density, 0.0, 1.0, 0.0, 1.0,
                      epsabs=1e-10, epsrel=1e-10)
    records.append(_record("orderstats", "pdf_normalization",
                           abs(mass - 1.0) <= 1e-6,
                           f"integral = {mass:.9f}"))

    # scipy.stats adds ~20 MB and ~0.6 s to the import of every command, and
    # only this check uses it
    from scipy.stats import kstest

    rng = np.random.default_rng(seed)
    x, y = sample_pairs(cfg, rng, samples)
    ks = kstest(y, lambda t: marginal_cdf_n(t, cfg)).statistic
    crit = 1.628 / math.sqrt(samples)  # 1% critical value
    records.append(_record("orderstats", "sampler_marginal_ks",
                           ks < crit, f"D = {ks:.2e}, 1% critical = {crit:.2e}"))

    pval = _chi_square_pvalue(x, y, cfg)
    records.append(_record("orderstats", "sampler_joint_chi_square",
                           pval > 0.001, f"p-value = {pval:.4f}"))

    # x is one spacing and y - x a run of ten: s ~ Beta(1, 10) at (11,1,11),
    # drawn by inversion from one uniform, and s ~ Beta(3, 10) at (13,1,11),
    # drawn as a gamma ratio
    for check, M, offset in [("sampler_joint_chi_square_long_run", 11, 2),
                             ("sampler_joint_chi_square_gamma_run", 13, 3)]:
        cfg_long = PairingConfig(M, 1, 11, 10.0)
        x, y = sample_pairs(cfg_long, np.random.default_rng(seed + offset),
                            samples)
        pval = _chi_square_pvalue(x, y, cfg_long)
        records.append(_record("orderstats", check, pval > 0.001,
                               f"p-value = {pval:.4f} at ({M},1,11)"))

    cfg2 = PairingConfig(2, 1, 2, 1.0)
    _, y2 = sample_pairs(cfg2, np.random.default_rng(seed + 1), samples)
    mean = float(np.mean(y2))
    se = float(np.std(y2) / math.sqrt(samples))
    records.append(_record("orderstats", "max_of_two_mean",
                           abs(mean - 1.5) <= 3 * se,
                           f"mean = {mean:.4f}, expect 1.5 +/- {3 * se:.4f}"))
    return records


def _chi_square_pvalue(x: np.ndarray, y: np.ndarray,
                       cfg: PairingConfig) -> float:
    """Chi-square of sampled (x, y) on a grid over (u, s) = (exp(-x/rho),
    exp(-(y-x)/rho)) against the cell masses of the independent Beta laws of
    u and s; low-count cells are pooled."""
    u = np.exp(-x / cfg.rho)
    s = np.exp(-(y - x) / cfg.rho)
    edges = np.linspace(0.0, 1.0, _CHI_SQUARE_GRID + 1)
    observed = np.histogram2d(u, s, bins=(edges, edges))[0]
    expected = len(x) * np.outer(np.diff(betainc(*cfg.u_shape, edges)),
                                 np.diff(betainc(*cfg.s_shape, edges)))

    obs = observed.ravel()
    exp_ = expected.ravel()
    # pool cells with small expectation to keep the statistic valid
    small = exp_ < 10.0
    obs_pooled = np.append(obs[~small], obs[small].sum())
    exp_pooled = np.append(exp_[~small], exp_[small].sum())
    keep = exp_pooled > 0
    stat = float(np.sum((obs_pooled[keep] - exp_pooled[keep])**2 / exp_pooled[keep]))
    dof = int(np.sum(keep)) - 1
    return float(chdtrc(dof, stat))


def check_probabilities(seed: int, trials: int = 1_000_000,
                        quad_tol: float = 1e-6) -> list[dict]:
    """Three-way agreement over the grid of pairings of M = 10 users: the
    oracle's error summed over the four events within quad_tol."""
    M = 10
    # Sidak correction: at this per-interval confidence all `count`
    # intervals of the grid hold their closed-form values at once with
    # probability MC_CONFIDENCE
    count = 4 * len(AGREEMENT_PAIRS) * len(AGREEMENT_RHO_DB)
    confidence = MC_CONFIDENCE ** (1.0 / count)
    records = []
    for (m, n) in AGREEMENT_PAIRS:
        for rho_db in AGREEMENT_RHO_DB:
            rho = 10.0**(rho_db / 10.0)
            cfg = PairingConfig(M, m, n, rho)
            a2 = 1.0 / math.sqrt(rho)
            closed = analytic.event_probabilities_closed(cfg, a2)
            quad = quadrature.event_probabilities_quadrature(cfg, a2, 0.5,
                                                             quad_tol)
            mc = montecarlo.estimate_event_probs(
                cfg, a2, 0.5, montecarlo.McConfig(trials=trials, seed=seed))
            dq = math.fsum(abs(a - b) for a, b in
                           zip(closed.as_tuple(), quad.as_tuple()))
            # Clopper-Pearson, not the normal stderr: that is 0 for an event
            # never sampled, and rare events (P(E4) ~ 3e-7) often are not
            intervals = [binomial_interval(round(f * trials), trials,
                                           confidence)
                         for f in mc.as_tuple()]
            dmc = max(max(lo - p, p - hi) for p, (lo, hi) in
                      zip(closed.as_tuple(), intervals))
            ok = dq <= quad_tol and dmc <= 0.0
            records.append(_record(
                "probabilities", f"three_way_m{m}_n{n}_rho{rho_db:g}dB", ok,
                f"summed |closed-quad| = {dq:.2e}, closed beyond the MC "
                f"{confidence:.4%} interval by {dmc:.2e}"))
    return records
