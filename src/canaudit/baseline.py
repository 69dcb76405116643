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

from .exposure import _exposure, exposure_quantile
from .ingest import _column, _non_negative_integer, _positive_integer, _unit_interval

LN2 = math.log(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2j / (2j (2j - 1)): the Stirling series of ln Gamma, to 1e-16 from z = 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)

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
    n = _positive_integer(n, "n")
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
    _unit_interval(q, "q")
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

    Each trial samples the permutation null that ``quantile_p_value``
    tests: the canaries take a uniform m-subset of the m + n pooled
    positions, and the i-th smallest position p (both from 0) has p - i
    references below it, so rank p - i + 1, marginally uniform on
    {1, ..., n+1}. The trial evaluates the requested aggregate (``"mean"``,
    or ``"quantile"`` with ``q``) of their exposures. Deterministic given
    ``seed``: trial t draws from child stream t of the seed.
    """
    m, n = _positive_integer(m, "m"), _positive_integer(n, "n")
    trials = _positive_integer(trials, "trials")
    seed = _non_negative_integer(seed, "seed")
    if statistic == "mean" and q is None:
        exact, asymptotic = expected_exposure_exact(n), expected_exposure_asymptote()
    elif statistic == "quantile" and q is not None:
        exact, asymptotic = None, baseline_quantile_exposure(q)  # checks q
    else:
        raise ValueError("statistic must be 'mean' without q or 'quantile' with q, "
                         f"got {statistic!r} and q={q!r}")

    stats = np.empty(trials, dtype=np.float64)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        subset = np.random.default_rng(child).choice(m + n, m, replace=False, shuffle=False)
        exposures = _exposure(np.sort(subset) - np.arange(m) + 1, n)
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
    make it invalid on tied losses. The tail is summed from its largest
    term by the ratio of neighbouring terms, with no lgamma per term, until
    the rest cannot change the double result, so the cost is O(sd) terms,
    not O(m + n); a p below the smallest float reads 0.
    """
    _unit_interval(q, "q")
    n = _positive_integer(n, "n")
    ranks = _column(ranks, "ranks", integer=True)
    m = ranks.size
    if not 1 <= ranks.min() <= ranks.max() <= n + 1:
        raise ValueError(f"ranks must lie in [1, n+1], got {ranks.min()} to {ranks.max()}, n={n}")
    k = m - math.ceil(q * m) + 1
    r = int(np.partition(ranks, k - 1)[k - 1])
    draws = k + r - 1
    if draws == m + n:  # every canary is drawn
        return 1.0
    # pmf(i) = Bin(m, p)(i) Bin(n, p)(draws - i) / Bin(m + n, p)(draws) for
    # any p; p = draws / (m + n) puts all three near their modes
    p = draws / (m + n)
    log_norm = _log_binomial_pmf(draws, m + n, p)

    def log_pmf(i):
        return _log_binomial_pmf(i, m, p) + _log_binomial_pmf(draws - i, n, p) - log_norm

    def up(i):
        return (m - i) * (draws - i) / ((i + 1) * (n - draws + i + 1))

    return math.exp(_log_tail(log_pmf, up, k, max(0, draws - n), min(m, draws), ge=True))


def _stirling_error(z: int) -> float:
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), which is below 1/(12 z)."""
    if z < 10:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * w + c
    return series / z


def _log_binomial_pmf(k: int, n: int, p: float) -> float:
    """ln P[Bin(n, p) = k] for 0 < p < 1.

    Loader's form: Stirling's formula writes it as k ln(p/p0) +
    (n-k) ln((1-p)/(1-p0)) with p0 = k/n, plus terms below 1, so no three
    large lgamma values cancel (at n = 1e5 that costs 1e-9 relative).
    """
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    b = n - k
    d = p * n - k  # n (p - p0), shared by both logarithms
    log_pk = k * math.log1p(d / k) if d > -0.5 * k else k * math.log(p * n / k)
    log_qb = b * math.log1p(-d / b) if d < 0.5 * b else b * math.log((1.0 - p) * n / b)
    return (log_pk + log_qb + 0.5 * math.log(n / (k * b)) - _HALF_LOG_2PI
            - _stirling_error(k) - _stirling_error(b) + _stirling_error(n))


def _log_tail(log_pmf, up, k: int, lo: int, hi: int, ge: bool) -> float:
    """ln P[X >= k] if ``ge``, else ln P[X <= k], for X on [lo, hi] with a
    log-concave pmf; ``up(i)`` is pmf(i + 1) / pmf(i).

    The two tails meet between j and j + 1. The sum starts at whichever of
    the two begins a run of falling terms, multiplies by the ratio, and
    stops once the rest, at most term / (1 - ratio), is below 2^-56 of the
    sum; if that run is the other tail, the result is its complement.
    """
    j = k - 1 if ge else k  # the tails are [lo, j] and [j + 1, hi]
    if not lo <= j < hi:
        return 0.0 if (j < lo) == ge else -math.inf
    down = up(j) >= 1.0  # pmf(j) <= pmf(j + 1): terms fall from j downward
    i, end = (j, lo) if down else (j + 1, hi)
    log_start, total, term = log_pmf(i), 1.0, 1.0
    while i != end:
        ratio = 1.0 / up(i - 1) if down else up(i)
        i += -1 if down else 1
        term *= ratio
        total += term
        if term <= 2.0 ** -56 * total * (1.0 - ratio):
            break
    log_sum = log_start + math.log(total)
    if down != ge:
        return log_sum
    return math.log(-math.expm1(log_sum)) if log_sum < 0.0 else -math.inf
