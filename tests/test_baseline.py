import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from canaudit import (
    baseline_quantile_exposure,
    expected_exposure_asymptote,
    exact_baseline,
    expected_exposure_exact,
    exposure_quantile,
    quantile_p_value,
)
from canaudit.baseline import _kth_rank_pmf, _log_binomial_pmf, _log_tail

from conftest import comb_quantile_p_value


def summation_oracle(n: int) -> float:
    """Direct-summation form of the expected exposure."""
    return math.log2(n) - math.fsum(math.log2(i) for i in range(1, n + 2)) / (n + 1)


def test_exact_n1_hand_computed():
    # ranks {1, 2} give exposures {0, -1}
    assert expected_exposure_exact(1) == pytest.approx(-0.5, abs=1e-9)


def test_exact_n3_enumerated():
    assert expected_exposure_exact(3) == pytest.approx(0.43872187554086706, abs=1e-9)
    assert summation_oracle(3) == pytest.approx(0.43872187554086706, abs=1e-15)


def test_exact_converges_to_asymptote():
    assert expected_exposure_exact(10**6) == pytest.approx(1.4427, abs=1e-2)
    assert abs(expected_exposure_exact(10**6) - expected_exposure_asymptote()) < 0.01


def test_small_n_bias_is_visible():
    assert abs(expected_exposure_exact(10) - expected_exposure_asymptote()) > 0.1


def test_exact_rejects_bad_n():
    with pytest.raises(ValueError):
        expected_exposure_exact(0)
    for bad in (math.nan, 10.0, True):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            expected_exposure_exact(bad)


def test_asymptote_value():
    assert expected_exposure_asymptote() == 1.0 / math.log(2.0)


def test_exact_matches_summation_oracle():
    for n in (1, 2, 3, 7, 10, 64, 100, 999, 5000):
        assert expected_exposure_exact(n) == pytest.approx(summation_oracle(n), abs=1e-10)


def test_exact_strictly_increasing():
    values = [expected_exposure_exact(n) for n in range(1, 10_001)]
    diffs = np.diff(values)
    assert np.all(diffs > 0)


def test_quantile_baseline_values():
    assert baseline_quantile_exposure(0.5) == 1.0
    assert baseline_quantile_exposure(0.75) == 2.0
    assert baseline_quantile_exposure(0.875) == 3.0


def test_quantile_baseline_keeps_digits_at_small_q():
    # 1 - q rounds at small q; log1p(-q) keeps every digit of the leading term q / ln 2
    for q in (1e-10, 1e-300):
        assert baseline_quantile_exposure(q) == pytest.approx(q / math.log(2.0), rel=1e-12)
    assert baseline_quantile_exposure(1e-300) > 0.0


def test_quantile_baseline_strictly_increasing():
    qs = np.linspace(0.01, 0.99, 99)
    values = [baseline_quantile_exposure(q) for q in qs]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_quantile_baseline_validation():
    for q in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            baseline_quantile_exposure(q)


def test_exact_baseline_summary_fields():
    summary = exact_baseline(10, 5, q=0.75)
    assert summary.asymptotic_value == 2.0 and summary.std > 0.0
    assert list(summary.quantiles) == [0.05, 0.25, 0.5, 0.75, 0.95]
    assert list(summary.quantiles.values()) == sorted(summary.quantiles.values())
    mean = exact_baseline(10, 5)
    assert mean.mean == expected_exposure_exact(5) and mean.quantiles == {}
    assert mean.asymptotic_value == expected_exposure_asymptote()
    assert exact_baseline(1001, 1000, q=0.5).mean == pytest.approx(1.0, abs=0.01)


def test_exact_baseline_validation():
    with pytest.raises(ValueError):
        exact_baseline(0, 5)
    with pytest.raises(ValueError):
        exact_baseline(5, 5, q=1.5)
    # q alone names the statistic: None is the mean
    with pytest.raises(TypeError):
        exact_baseline(5, 5, statistic="mean")
    with pytest.raises(TypeError):
        exact_baseline(5, 5, "quantile", q=0.5)


def _interleavings(m, n):
    """Sorted canary ranks of every placement of m canaries among n references."""
    for positions in itertools.combinations(range(m + n), m):
        yield np.array([p - i + 1 for i, p in enumerate(positions)])


def _statistic(exposures, q):
    return exposures.mean() if q is None else exposure_quantile(exposures, q)


@pytest.mark.parametrize("m, n", [(1, 4), (2, 3), (3, 4), (4, 2), (3, 6), (1, 1)])
@pytest.mark.parametrize("q", [None, 0.5, 0.75])
def test_exact_baseline_matches_enumeration(m, n, q):
    # the null weighs every interleaving equally, so its exact mean, std and
    # nearest-rank quantiles are those over every placement
    every = np.array([_statistic(np.log2(n) - np.log2(ranks), q)
                      for ranks in _interleavings(m, n)])
    summary = exact_baseline(m, n, q)
    assert abs(summary.mean - every.mean()) <= 1e-12
    assert abs(summary.std - every.std()) <= 1e-12
    assert summary.quantiles == ({} if q is None else {
        p: exposure_quantile(every, p) for p in (0.05, 0.25, 0.5, 0.75, 0.95)})


def _permutation_null(m, n, trials, q, seed):
    """The statistic over ``trials`` shuffles of m canary and n reference
    slots; a canary's rank is 1 + the references shuffled before it."""
    rng = np.random.default_rng(seed)
    slots = np.arange(m + n) < m
    stats = []
    for _ in range(trials):
        is_canary = rng.permutation(slots)
        ranks = 1 + np.cumsum(~is_canary)[is_canary]
        stats.append(_statistic(np.log2(n) - np.log2(ranks), q))
    return np.array(stats)


@pytest.mark.parametrize("m, n", [(30, 50), (50, 30), (400, 100), (100, 400), (1000, 1000)])
@pytest.mark.parametrize("q", [None, 0.5])
def test_exact_std_matches_permutation_null(m, n, q):
    # every canary is ranked against the same references, which moves the
    # ranks together: at m = n independent ranks give about 0.7 of this std
    trials = 4000
    stats = _permutation_null(m, n, trials, q, seed=9)
    std, fourth = stats.std(), ((stats - stats.mean()) ** 4).mean()
    summary = exact_baseline(m, n, q)
    # three standard errors of the sample std, by the delta method
    error = math.sqrt((fourth - std**4) / trials) / (2 * std)
    assert abs(summary.std - stats.std(ddof=1)) <= 3 * error


@pytest.mark.parametrize("size", [10**3, 10**5, 10**6])
@pytest.mark.parametrize("q", [0.5, 0.75])
def test_kth_rank_pmf_matches_quantile_p_value(size, q):
    # P(R <= r) is quantile_p_value of any ranks whose k-th smallest is r; as
    # the pmf is scaled to sum to 1, this also checks that it misses no mass
    m = n = size
    cdf = np.cumsum(_kth_rank_pmf(m, n, m - math.ceil(q * m) + 1)[::-1])
    held = np.flatnonzero(cdf >= 1e-9)
    for i in np.unique(np.r_[held[:10], held[::max(1, held.size // 40)], held[-1]]):
        want = quantile_p_value(np.full(m, i + 1), n, q)
        assert cdf[i] == pytest.approx(want, rel=1e-10, abs=0.0), (size, q, i + 1)


@pytest.mark.parametrize("m, n", [(1, 4), (2, 3), (3, 4), (4, 2), (3, 6)])
@pytest.mark.parametrize("q", [0.5, 0.75])
def test_quantile_p_value_matches_enumeration(m, n, q):
    # every interleaving is equally likely under the null; p is the share
    # whose quantile exposure is at least the observed one
    every = list(_interleavings(m, n))
    stats = [exposure_quantile(np.log2(n) - np.log2(ranks), q) for ranks in every]
    for ranks, observed in zip(every, stats):
        expected = sum(s >= observed for s in stats) / len(stats)
        assert abs(quantile_p_value(ranks, n, q) - expected) <= 1e-12


def test_quantile_p_value_matches_exact_integer_sum():
    # at m = n = 3000 three lgamma values near lgamma(m + n) would cancel in
    # a direct pmf (1e-11 relative); the Stirling form keeps ~1e-15
    rng = np.random.default_rng(5)
    cases = [(np.ones(200, dtype=np.int64), 200), (np.full(200, 201), 200),
             (np.array([1]), 1), (np.array([2]), 1)]
    for _ in range(200):
        m, n = (int(x) for x in rng.integers(1, 201, size=2))
        cases.append((rng.integers(1, n + 2, size=m), n))
    cases += [(rng.integers(1, m + 2, size=m), m) for m in (1000, 3000)]
    for ranks, n in cases:
        for q in (0.01, 0.5, 0.75, 0.99):
            want = comb_quantile_p_value(ranks.tolist(), n, q)
            assert quantile_p_value(ranks, n, q) == pytest.approx(want, rel=1e-13, abs=0.0)


def _exact_log_binomial_tails(n, p):
    """{(k, ge): ln P[Bin(n, p) >= k] (ge) or <= k}, from the exact integer
    terms comb(n, i) a^i (2^e - a)^(n - i) over 2^(e n), where p = a / 2^e."""
    a, den = p.as_integer_ratio()
    e = den.bit_length() - 1
    cum = list(itertools.accumulate(
        math.comb(n, i) * a**i * (den - a) ** (n - i) for i in range(n + 1)))
    tails = {}
    with localcontext() as ctx:
        ctx.prec = 25
        ln2 = Decimal(2).ln()
        for k in range(n + 1):
            for ge, num in ((True, cum[-1] - (cum[k - 1] if k else 0)), (False, cum[k])):
                shift = max(0, num.bit_length() - 64)  # keeps 64 leading bits
                tails[k, ge] = float(Decimal(num >> shift).ln() + (shift - e * n) * ln2)
    return tails


def test_binomial_tail_matches_exact_rationals():
    # every k on both sides reaches the direct sum, the complement and the
    # stop rule; the log tail is within 1e-13 max(1, |ln T|), so the tail
    # is within 1e-13 relative wherever it is above 1/e
    for p in (1e-300, 1e-6, 0.3, 0.5, 1.0 - 2.0**-53):
        odds = p / (1.0 - p)
        for n in range(1, 61):
            for (k, ge), want in _exact_log_binomial_tails(n, p).items():
                got = _log_tail(lambda i: _log_binomial_pmf(i, n, p),
                                lambda i: (n - i) * odds / (i + 1), k, 0, n, ge)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (p, n, k, ge)


def test_quantile_p_value_validation():
    for ranks, n, q in (([1, 2], 2, 0.0), ([1, 2], 2, 1.0), ([], 2, 0.5),
                        ([1, 2], 0, 0.5), ([0, 2], 2, 0.99), ([1, 4], 2, 0.01)):
        with pytest.raises(ValueError):
            quantile_p_value(np.array(ranks, dtype=np.int64), n, q)
