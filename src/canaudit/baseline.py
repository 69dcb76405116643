"""Random-guessing baselines for exposure statistics.

Under an uninformative loss function every canary's rank is uniform on
{1, ..., n+1}. The mean exposure of such a canary is

    log2(n) - log2((n+1)!) / (n+1)

which converges to 1/ln(2) ~ 1.44 (not to 1: the logarithm in the
exposure formula biases the mean above the exposure of the mean rank).
The asymptotic q-quantile of exposure is -log2(1-q), so the median
baseline is exactly 1 bit and the 75th percentile baseline is 2 bits.

Observed exposure aggregates should always be read against these values:
a mean exposure of 1.4 over many canaries indicates no memorization at
all. ``quantile_p_value`` says how unlikely an observed quantile is by
chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exposure import exposure_quantile

LN2 = math.log(2.0)
_LOG_SMALLEST = math.log(math.ulp(0.0))  # exp() of less is 0.0 in float64

_MC_SUMMARY_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class BaselineSummary:
    """Exact, asymptotic, and Monte Carlo values of one baseline statistic.

    ``statistic`` is ``"mean"`` or ``"quantile"`` (with ``q`` set);
    ``exact_value`` is present only where a closed form exists (the mean).
    ``mc_quantiles`` summarizes the across-trial distribution of the
    statistic.
    """

    statistic: str
    q: float | None
    exact_value: float | None
    asymptotic_value: float
    mc_mean: float
    mc_std: float
    mc_quantiles: dict[float, float]
    trials: int
    seed: int
    m: int
    n: int


def expected_exposure_exact(n: int) -> float:
    """Expected exposure of one canary under uniform random ranking.

    Evaluates log2(n) - log2((n+1)!)/(n+1) through the log-gamma
    function, so it is O(1) and accurate to well below 1e-9 for any n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.log2(n) - math.lgamma(n + 2) / ((n + 1) * LN2)


def expected_exposure_asymptote() -> float:
    """Large-n limit of the expected exposure baseline, 1/ln(2)."""
    return 1.0 / LN2


def baseline_quantile_exposure(q: float) -> float:
    """Asymptotic q-quantile of exposure under uniform random ranking.

    Exposure exceeds -log2(1-q) for exactly a (1-q) fraction of randomly
    ranked canaries, so the median baseline is 1 and the 0.75 quantile
    baseline is 2.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    return -math.log2(1.0 - q)


def monte_carlo_baseline(
    m: int,
    n: int,
    statistic: str,
    trials: int,
    seed: int,
    q: float | None = None,
) -> BaselineSummary:
    """Simulate the random-guessing distribution of an exposure aggregate.

    Each trial draws m independent ranks uniformly from {1, ..., n+1},
    converts them to exposures, and evaluates the requested aggregate
    (``"mean"``, or ``"quantile"`` with ``q``). Deterministic given
    ``seed``: trial t draws from child stream t of the seed.

    This iid-rank model ignores reference-sampling noise. An audit ranks
    every canary against the same n references, which moves all ranks
    together, so ``mc_std`` understates an audit's null spread, by up to
    sqrt(2) at m = n. Test an audit with ``quantile_p_value`` instead.
    """
    if m < 1 or n < 1 or trials < 1:
        raise ValueError(f"m, n, trials must all be >= 1, got {(m, n, trials)}")
    if statistic == "mean" and q is None:
        exact, asymptotic = expected_exposure_exact(n), expected_exposure_asymptote()
    elif statistic == "quantile" and q is not None:
        exact, asymptotic = None, baseline_quantile_exposure(q)  # checks q
    else:
        raise ValueError("statistic must be 'mean' without q or 'quantile' with q, "
                         f"got {statistic!r} and q={q!r}")

    log2_n = np.log2(n)
    stats = np.empty(trials, dtype=np.float64)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        exposures = log2_n - np.log2(np.random.default_rng(child).integers(1, n + 2, size=m))
        stats[t] = (exposures.mean() if statistic == "mean"
                    else exposure_quantile(exposures, q))
    return BaselineSummary(
        statistic=statistic,
        q=q,
        exact_value=exact,
        asymptotic_value=asymptotic,
        mc_mean=float(stats.mean()),
        mc_std=float(stats.std(ddof=1)) if trials > 1 else 0.0,
        mc_quantiles={p: float(np.quantile(stats, p)) for p in _MC_SUMMARY_QUANTILES},
        trials=trials,
        seed=seed,
        m=m,
        n=n,
    )


def quantile_p_value(ranks, n: int, q: float) -> float:
    """P(q-quantile exposure >= observed) under the permutation null.

    With no membership signal the canaries and references are exchangeable,
    so every interleaving of their losses is equally likely. The q-quantile
    exposure is that of the k-th smallest rank r, k = m - ceil(q*m) + 1, and
    it is reached exactly when at least k canaries lie among the k + r - 1
    smallest losses: p = P(Hypergeom(m + n, m, k + r - 1) >= k). Ties ranked
    pessimistically only raise ranks, so p is conservative; optimistic ranks
    make it invalid on tied losses. Only the pmf terms within float range of
    the tail's largest are summed, so the cost is O(sd), not O(m + n); a p
    below the smallest float reads 0.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ranks = np.asarray(ranks)
    m = ranks.size
    if m < 1 or n < 1:
        raise ValueError(f"ranks and n must be non-empty, got m={m}, n={n}")
    k = m - math.ceil(q * m) + 1
    r = int(np.partition(ranks, k - 1)[k - 1])
    if not 1 <= r <= n + 1:
        raise ValueError(f"ranks must lie in [1, n+1], got {r} with n={n}")
    draws = k + r - 1
    lgamma = math.lgamma
    log_norm = (lgamma(m + 1) + lgamma(n + 1) + lgamma(draws + 1)
                + lgamma(m + n - draws + 1) - lgamma(m + n + 1))

    def log_pmf(i):
        return log_norm - (lgamma(i + 1) + lgamma(m - i + 1)
                           + lgamma(draws - i + 1) + lgamma(n - draws + i + 1))

    # The pmf is log-concave. Sum the tail without the mode, whose terms fall
    # away from the one next to k; if that is the lower tail, p is 1 - it.
    upper = (draws + 1) * (m + 1) // (m + n + 2) < k
    near, far = (k, min(m, draws) + 1) if upper else (k - 1, max(0, draws - n) - 1)
    if not upper and near <= far:  # empty lower tail
        return 1.0
    peak, edge = log_pmf(near), near
    while abs(far - edge) > 1:  # bisect for the farthest term in float range
        mid = (edge + far) // 2
        edge, far = (mid, far) if log_pmf(mid) >= peak + _LOG_SMALLEST else (edge, mid)
    terms = range(min(near, edge), max(near, edge) + 1)
    log_tail = peak + math.log(math.fsum(math.exp(log_pmf(i) - peak) for i in terms))
    return math.exp(log_tail) if upper else -math.expm1(log_tail)
