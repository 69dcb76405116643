"""Random-guessing baselines for exposure statistics.

Under an uninformative loss function every canary's rank is uniform on
{1, ..., n+1}, independently across canaries. The mean exposure of such a
canary is

    log2(n) - log2((n+1)!) / (n+1)

which converges to 1/ln(2) ~ 1.44 (not to 1: the logarithm in the
exposure formula biases the mean above the exposure of the mean rank).
The asymptotic q-quantile of exposure is -log2(1-q), so the median
baseline is exactly 1 bit and the 75th percentile baseline is 2 bits.

Observed exposure aggregates should always be read against these values:
a mean exposure of 1.4 over many canaries indicates no memorization at
all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exposure import exposure_quantile

LN2 = math.log(2.0)

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
    m: int = field(default=0)
    n: int = field(default=0)


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


def _validate_statistic(statistic: str, q: float | None) -> None:
    if statistic not in ("mean", "quantile"):
        raise ValueError(f"statistic must be 'mean' or 'quantile', got {statistic!r}")
    if statistic == "quantile":
        if q is None:
            raise ValueError("statistic 'quantile' requires q")
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
    elif q is not None:
        raise ValueError("q is only meaningful for statistic 'quantile'")


def _trial_streams(seed: int, trials: int) -> list[np.random.Generator]:
    # One child stream per trial, keyed on (seed, trial index), so results
    # do not depend on execution order.
    children = np.random.SeedSequence(seed).spawn(trials)
    return [np.random.default_rng(child) for child in children]


def _monte_carlo_stats(
    m: int,
    n: int,
    specs: list[tuple[str, float | None]],
    trials: int,
    seed: int,
) -> list[BaselineSummary]:
    """Shared-draw Monte Carlo: evaluate several aggregates per trial.

    Each statistic sees exactly the draws it would see from a standalone
    ``monte_carlo_baseline`` call with the same seed, because draws depend
    only on (seed, trial index).
    """
    if m < 1 or n < 1 or trials < 1:
        raise ValueError(f"m, n, trials must all be >= 1, got {(m, n, trials)}")
    for statistic, q in specs:
        _validate_statistic(statistic, q)

    log2_n = np.log2(n)
    stats = np.empty((len(specs), trials), dtype=np.float64)
    for t, rng in enumerate(_trial_streams(seed, trials)):
        ranks = rng.integers(1, n + 2, size=m)
        exposures = log2_n - np.log2(ranks)
        for s, (statistic, q) in enumerate(specs):
            stats[s, t] = (float(exposures.mean()) if statistic == "mean"
                           else exposure_quantile(exposures, q))

    summaries = []
    for s, (statistic, q) in enumerate(specs):
        if statistic == "mean":
            exact = expected_exposure_exact(n)
            asymptotic = expected_exposure_asymptote()
        else:
            exact = None
            asymptotic = baseline_quantile_exposure(q)
        summaries.append(
            BaselineSummary(
                statistic=statistic,
                q=q,
                exact_value=exact,
                asymptotic_value=asymptotic,
                mc_mean=float(stats[s].mean()),
                mc_std=float(stats[s].std(ddof=1)) if trials > 1 else 0.0,
                mc_quantiles={
                    p: float(np.quantile(stats[s], p)) for p in _MC_SUMMARY_QUANTILES
                },
                trials=trials,
                seed=seed,
                m=m,
                n=n,
            )
        )
    return summaries


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
    ``seed``.
    """
    return _monte_carlo_stats(m, n, [(statistic, q)], trials, seed)[0]
