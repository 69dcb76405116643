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
all. ``exact_baseline`` gives an aggregate's null mean and std exactly,
and ``quantile_p_value`` how unlikely an observed quantile is by chance.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .exposure import _exposure, _quantile_rank
from .ingest import _column, _positive_integer, _unit_interval

LN2 = math.log(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2j / (2j (2j - 1)): the Stirling series of ln Gamma, to 1e-16 from z = 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)

_NULL_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class BaselineSummary:
    """An exposure aggregate's exact mean and std under the permutation null,
    its large-n limit, and its exact null quantile at each level of
    ``_NULL_QUANTILES`` (none for the mean: they have no closed form).
    """

    asymptotic_value: float
    mean: float
    std: float
    quantiles: dict[float, float]


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
    baseline is 2. Below q = 0.5, where 1 - q rounds, log1p keeps the digits.
    """
    q = _unit_interval(q, "q")
    return -math.log1p(-q) / LN2 if q < 0.5 else -math.log2(1.0 - q)


def exact_baseline(m: int, n: int, q: float | None = None) -> BaselineSummary:
    """The exact null distribution of an exposure aggregate of m canaries:
    the mean exposure if ``q`` is None, else the q-quantile exposure.

    Under the permutation null of ``quantile_p_value`` the mean exposure
    has mean ``expected_exposure_exact(n)`` and the Dirichlet-multinomial
    variance V (m + n + 1) / (m (n + 2)), V that of one uniform rank's
    exposure: R's at m = k = 1. The q-quantile exposure is that of R, the
    k-th smallest rank, k from ``_quantile_rank``, whose CDF
    ``quantile_p_value`` sums. No array grows with n.
    """
    m, n = _positive_integer(m, "m"), _positive_integer(n, "n")
    if q is None:
        asymptotic, mean, quantiles = expected_exposure_asymptote(), expected_exposure_exact(n), {}
        std = _kth_rank_exposure_moments(1, n, 1)[1] * math.sqrt((m + n + 1) / (m * (n + 2)))
    else:
        q = _unit_interval(q, "q")
        asymptotic, k = baseline_quantile_exposure(q), _quantile_rank(m, q)
        mean, std = _kth_rank_exposure_moments(m, n, k)
        # the largest r with P(R >= r) >= level less 1e-12: at small m + n
        # a P is a multiple of 1 / C(m + n, m) that can equal a level
        tail = lambda r: 1.0 - _kth_rank_cdf(m, n, k, r - 1)  # P(R >= r)
        ranks = [bisect.bisect_left(range(1, n + 2), True, key=lambda r: tail(r) < level - 1e-12)
                 for level in _NULL_QUANTILES]
        quantiles = dict(zip(_NULL_QUANTILES, _exposure(np.array(ranks), n).tolist()))
    return BaselineSummary(asymptotic_value=asymptotic, mean=mean, std=std, quantiles=quantiles)


def _kth_rank_exposure_moments(m: int, n: int, k: int) -> tuple[float, float]:
    """The mean and std of exposure at R, the k-th smallest rank of m canaries.

    Each P(R = r) is its neighbour's times their ratio, with no lgamma per
    term, walked out from R's mean in numpy chunks of 2^16 ranks. A term
    below the first is past the mode, so the rest of its side is at most
    n + 1 times it; a side stops once that is below 2^-56 of the sum.
    """
    start = round(k * n / (m + 1)) + 1
    sums = np.array([1.0, 0.0, 0.0])  # of p, p d, p d^2; p = P(R = r) / P(R = start)
    for step in (1, -1):
        term, r = 1.0, float(start)
        while 1 <= r + step <= n + 1 and term * (n + 1) >= 2.0**-56 * sums[0]:
            new = np.arange(r + step, np.clip(r + step * 2**16, 1, n + 1) + step, step)
            low = new - (step == 1)  # P(R = low + 1) / P(R = low), inverted walking down
            ratios = ((k + low - 1) * (n - low + 1) / (low * (m - k + n - low + 1))) ** step
            terms = term * np.cumprod(ratios)
            d = np.log1p((new - start) / start)  # ln(r / start)
            sums += terms.sum(), terms @ d, terms @ (d * d)
            term, r = terms[-1], new[-1]
    mean_d, mean_d2 = (sums[1:] / sums[0]).tolist()
    return float(_exposure(start, n)) - mean_d / LN2, math.sqrt(mean_d2 - mean_d**2) / LN2


def quantile_p_value(ranks, n: int, q: float) -> float:
    """P(q-quantile exposure >= observed) under the permutation null.

    With no membership signal the canaries and references are exchangeable,
    so every interleaving of their losses is equally likely. The q-quantile
    exposure is that of the k-th smallest rank r, k from ``_quantile_rank``,
    and it is reached exactly when at least k canaries lie among the k + r - 1
    smallest losses: p = P(Hypergeom(m + n, m, k + r - 1) >= k). Ties only
    raise ranks, so p is conservative on tied losses. The tail is summed
    from its largest term by the ratio of neighbouring terms, with no lgamma
    per term, until the rest cannot change the double result, so the cost
    is O(sd) terms, not O(m + n); a p below the smallest float reads 0.
    """
    q = _unit_interval(q, "q")
    n = _positive_integer(n, "n")
    ranks = _column(ranks, "ranks", integer=True)
    m = ranks.size
    if not 1 <= ranks.min() <= ranks.max() <= n + 1:
        raise ValueError(f"ranks must lie in [1, n+1], got {ranks.min()} to {ranks.max()}, n={n}")
    k = _quantile_rank(m, q)
    return _kth_rank_cdf(m, n, k, int(np.partition(ranks, k - 1)[k - 1]))


def _kth_rank_cdf(m: int, n: int, k: int, r: int) -> float:
    """P(R <= r), R the k-th smallest rank of m canaries, as ``quantile_p_value`` sums it."""
    draws = k + r - 1
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
