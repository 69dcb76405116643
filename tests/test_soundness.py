"""False certification under the null, for every bound a report holds.

Canary and reference losses from one distribution carry no membership
signal, so a sound 95% bound may certify eps > 0 in at most about 5% of
such audits. This is checked for every operating point, replication
count and tie policy the tool offers, row by row and for the family-wise
event that any bound in one report is positive. Run with ``pytest -s``
to see the measured rates.
"""

import math

import pytest

from canaudit import (
    TIE_POLICIES,
    AuditDataset,
    GaussianShiftModel,
    audit_pipeline,
    simulate,
)

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
