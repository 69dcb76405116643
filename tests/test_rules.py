"""Each shared input rule rejects a bad value with its one message, wherever
the value enters the library."""

from __future__ import annotations

import pytest

from canaudit import (GaussianShiftModel, audit_pipeline, clopper_pearson, monte_carlo_baseline,
                      operating_points, quantile_p_value)
from conftest import make_dataset

_D = make_dataset([1.0, 2.0], [1.5, 3.0])


def _seed_cases():
    entries = (lambda s: GaussianShiftModel(mu=1.0, sigma=1.0, m=3, n=3, seed=s),
               lambda s: monte_carlo_baseline(3, 3, "mean", 10, s))
    for entry, name in zip(entries, ("GaussianShiftModel", "monte_carlo_baseline")):
        for seed in (1.5, True, -1):
            yield pytest.param(entry, seed, f"seed must be a non-negative integer, got {seed!r}",
                               id=f"{name}-seed={seed!r}")


def _k_cases():
    def entry(k):
        return clopper_pearson(k, 10, 0.05, "lower")
    for k in (1.5, True, -1):
        yield pytest.param(entry, k, f"k must be a non-negative integer, got {k!r}",
                           id=f"clopper_pearson-k={k!r}")
    yield pytest.param(entry, 11, "k must be in [0, trials], got k=11, trials=10",
                       id="clopper_pearson-k=11")


def _n_cases():
    for n in (2.5, 0):
        yield pytest.param(lambda n: quantile_p_value([1, 2, 3], n, 0.5), n,
                           f"n must be a positive integer, got {n!r}",
                           id=f"quantile_p_value-n={n!r}")


def _point_cases():
    entries = (lambda p: audit_pipeline(_D, p), lambda p: operating_points(_D, p))
    for entry, name in zip(entries, ("audit_pipeline", "operating_points")):
        for points in ("median", 0.5):
            yield pytest.param(entry, points,
                               f"expected a sequence of operating points, got {points!r}",
                               id=f"{name}-bare={points!r}")
        yield pytest.param(entry, [1.5], "fpr target must be in [0, 1], got 1.5",
                           id=f"{name}-fpr-target=1.5")


@pytest.mark.parametrize("entry,value,message",
                         [*_seed_cases(), *_k_cases(), *_n_cases(), *_point_cases()])
def test_input_rule_rejects_with_its_one_message(entry, value, message):
    with pytest.raises(ValueError) as exc:
        entry(value)
    assert str(exc.value) == message
