"""Reference values for the benchmark, computed apart from the program.

Nothing here imports noma_tdma.  Every value comes from mpmath at
`DPS` decimal digits, through formulas derived directly from the rate
expressions rather than through the package's series or classifier:

* With b2 = 1/2 and w2 = (1 - 2 a2) / a2^2, NOMA beats TDMA on the weak
  user's rate iff x < w2 and on the strong user's rate iff y > w2.  So with
  K the number of the M gains below w2, K ~ Binomial(M, 1 - exp(-w2/rho)),
  P(E1) = P(K < m) and P(E2) = P(m <= K <= n-1).
* NOMA loses the sum rate iff (1 + x)(1 + y) < 1 + w2.  Given the n-th order
  statistic y, the m-th is the m-th of n-1 gains below y, so
  P(E4) = P(y < lo) + int_lo^w2 f_n(y) I_{F(g)/F(y)}(m, n-m) dy with
  g = (w2 - y)/(1 + y) and lo = sqrt(1 + w2) - 1.  P(E3) is the complement.
* Each of the four rates depends on x alone or on y alone, so the mean
  rates are 1-D integrals against the m-th and n-th order-statistic
  marginals, done in the variable u = F(t), where they are Beta densities.

Run `python3 benchmarks/refs.py` to regenerate `refs.json`, which the
benchmark reads instead of recomputing these (slow) integrals on every run.
"""
from __future__ import annotations

import json
import os
import sys

import mpmath as mp

DPS = 40
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "refs.json")


def _rho(rho_db) -> mp.mpf:
    return mp.power(10, mp.mpf(rho_db) / 10)


def a2_value(mode: str, rho: mp.mpf) -> mp.mpf:
    """Power split for an a2 mode: 1/sqrt(rho), or the split that makes
    exp(-w2/rho) = 1/2 (the maximizer of P(E2) for the (1, M) pairing)."""
    if mode == "inv_sqrt_rho":
        return 1 / mp.sqrt(rho)
    if mode == "special":
        c = rho * mp.log(2)
        return (mp.sqrt(1 + c) - 1) / c
    raise ValueError(f"unknown a2 mode {mode!r}")


def _binom_pmf(M: int, k: int, q: mp.mpf) -> mp.mpf:
    return mp.binomial(M, k) * q**k * (1 - q)**(M - k)


def event_probs(M: int, m: int, n: int, rho_db, a2_mode: str) -> list[float]:
    """[P(E1), P(E2), P(E3), P(E4)] for equal time split b2 = 1/2."""
    with mp.workdps(DPS):
        rho = _rho(rho_db)
        a2 = a2_value(a2_mode, rho)
        w2 = (1 - 2 * a2) / a2**2

        def F(t):
            return -mp.expm1(-t / rho)

        q = F(w2)
        p1 = mp.fsum(_binom_pmf(M, k, q) for k in range(m))
        p2 = mp.fsum(_binom_pmf(M, k, q) for k in range(m, n))

        def cdf_n(t):  # P(at least n of M gains <= t)
            Ft = F(t)
            return mp.fsum(_binom_pmf(M, k, Ft) for k in range(n, M + 1))

        wn = n * mp.binomial(M, n)

        def integrand(y):
            Fy = F(y)
            fy = mp.exp(-y / rho) / rho
            g = (w2 - y) / (1 + y)
            share = mp.betainc(m, n - m, 0, F(g) / Fy, regularized=True)
            return wn * Fy**(n - 1) * (1 - Fy)**(M - n) * fy * share

        lo = mp.sqrt(1 + w2) - 1
        p4 = cdf_n(lo) + mp.quad(integrand, [lo, (lo + w2) / 2, w2])
        p3 = 1 - p1 - p2 - p4
        return [float(p) for p in (p1, p2, p3, p4)]


def _order_stat_mean(M: int, k: int, rho: mp.mpf, fn) -> mp.mpf:
    """E[fn(t)] for t the k-th smallest of M exponential(mean rho) gains,
    integrated in u = F(t), where u ~ Beta(k, M - k + 1)."""
    a, b = k, M - k + 1
    mean = mp.mpf(a) / (a + b)
    sd = mp.sqrt(mean * (1 - mean) / (a + b + 1))
    cuts = sorted({mp.mpf(0), mp.mpf(1), mean,
                   *(min(max(mean + s * j * sd, mp.mpf(0)), mp.mpf(1))
                     for j in (1, 3, 6, 10, 20) for s in (-1, 1))})
    norm = 1 / mp.beta(a, b)

    def integrand(u):
        return norm * u**(a - 1) * (1 - u)**(b - 1) * fn(-rho * mp.log1p(-u))

    return mp.quad(integrand, cuts)


def mean_rates(M: int, m: int, n: int, rho_db) -> list[float]:
    """[E r1_noma, E r2_noma, E r1_tdma, E r2_tdma] at the special a2 and
    b2 = 1/2, which is what `noma-tdma rates` computes."""
    with mp.workdps(DPS):
        rho = _rho(rho_db)
        a2 = a2_value("special", rho)
        ln2 = mp.log(2)
        r1n = _order_stat_mean(
            M, m, rho, lambda t: (mp.log1p(t) - mp.log1p(a2 * t)) / ln2)
        r2n = _order_stat_mean(M, n, rho, lambda t: mp.log1p(a2 * t) / ln2)
        r1t = _order_stat_mean(M, m, rho, lambda t: mp.log1p(t) / ln2) / 2
        r2t = _order_stat_mean(M, n, rho, lambda t: mp.log1p(t) / ln2) / 2
        return [float(r) for r in (r1n, r2n, r1t, r2t)]


def event_key(M, m, n, rho_db, a2_mode) -> str:
    return f"events/{M}/{m}/{n}/{float(rho_db)!r}/{a2_mode}"


def rates_key(M, m, n, rho_db) -> str:
    return f"rates/{M}/{m}/{n}/{float(rho_db)!r}"


def compute_all(points) -> dict:
    """References for every (kind, M, m, n, rho_db, a2_mode) point."""
    out = {}
    for kind, M, m, n, rho_db, mode in points:
        if kind == "events":
            out[event_key(M, m, n, rho_db, mode)] = \
                event_probs(M, m, n, rho_db, mode)
        else:
            out[rates_key(M, m, n, rho_db)] = mean_rates(M, m, n, rho_db)
    return out


def load() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    import workloads  # imports this module, so not at the top

    refs = compute_all(workloads.reference_points())
    with open(REFS_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"dps": DPS, "values": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
