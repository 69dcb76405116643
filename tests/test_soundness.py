"""False certification under the null, for every bound a report holds.

Canary and reference losses from one distribution carry no membership
signal, so a sound 95% bound may certify eps > 0 in at most about 5% of
such audits. This is checked for every operating point, replication
count and tie policy the tool offers, row by row and for the family-wise
event that any bound in one report is positive. Likewise each baseline
row's p-value may be <= 0.05 in at most about 5% of them. Run with
``pytest -s`` to see the measured rates.
"""

import math

import numpy as np
import pytest

from canaudit import (
    TIE_POLICIES,
    AuditDataset,
    GaussianShiftModel,
    audit_pipeline,
    exposure_all,
    simulate,
)
from canaudit.report import _baseline_rows

SEEDS = 400
OPERATING_POINTS = ("median", 0.001, 0.01, 0.1)
LIMIT = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / SEEDS)


@pytest.mark.parametrize("replications", [1, 3])
def test_null_false_certification_rate(replications):
    positives = {}  # row name -> null audits in which that row certified eps > 0
    for seed in range(SEEDS):
        null = simulate(GaussianShiftModel(mu=0.0, sigma=1.0, m=1000, n=1000, seed=seed))
        d = AuditDataset(null.canary_losses, null.reference_losses,
                         replications=replications)
        pessimistic, optimistic = (
            audit_pipeline(d, OPERATING_POINTS, tie_policy=tie_policy)
            for tie_policy in TIE_POLICIES
        )
        assert pessimistic.outcomes == optimistic.outcomes
        for outcome in pessimistic.outcomes:
            for bound in (outcome.bound, outcome.per_example_bound):
                if bound is not None:
                    name = outcome.operating_point + " per-example" * bound.per_example
                    positives[name] = positives.get(name, 0) + (
                        bound.confident_lower_bound > 0.0)
        positives["any bound"] = positives.get("any bound", 0) + any(
            bound.confident_lower_bound > 0.0 for bound in pessimistic.bounds())

    rates = {name: count / SEEDS for name, count in positives.items()}
    for name, rate in rates.items():
        print(f"[null soundness, replications {replications}] {name}: "
              f"{rate:.4f} (limit {LIMIT:.4f})")
    assert all(rate <= LIMIT for rate in rates.values()), rates


# (m, n, decimals the losses are rounded to; None keeps them continuous)
@pytest.mark.parametrize("m, n, decimals", [(1000, 1000, None), (100, 1000, None),
                                            (1000, 100, None), (1000, 1000, 2)])
def test_null_p_value_rejection_rate(m, n, decimals):
    # rounded losses tie often; pessimistic ranks keep the p-values valid
    rejections = {}  # q -> null audits whose quantile row has p <= 0.05
    for seed in range(SEEDS):
        null = simulate(GaussianShiftModel(mu=0.0, sigma=1.0, m=m, n=n, seed=seed))
        if decimals is not None:
            null = AuditDataset(np.round(null.canary_losses, decimals),
                                np.round(null.reference_losses, decimals))
        for row in _baseline_rows(exposure_all(null, "pessimistic")):
            if row["p_value"] is not None:
                rejections[row["q"]] = rejections.get(row["q"], 0) + (row["p_value"] <= 0.05)

    rates = {q: count / SEEDS for q, count in rejections.items()}
    print(f"[null p-values, m={m}, n={n}, decimals={decimals}] {rates} (limit {LIMIT:.4f})")
    assert set(rates) == {0.5, 0.75}
    assert all(rate <= LIMIT for rate in rates.values()), rates
