"""False certification, for every bound a report holds.

Canary and reference losses from one distribution carry no membership
signal, so a sound 95% bound may certify eps > 0 in at most about 5% of
such audits. This is checked for every operating point and
replication count the tool offers, row by row and for the family-wise
event that any bound in one report is positive. Likewise each baseline
row's p-value may be <= 0.05 in at most about 5% of them, on continuous
losses and on losses rounded until most of them tie.

Laplace-shifted losses have a known eps > 0, and a sound bound may
exceed it in at most about 5% of audits; a certificate read off the
point estimate instead fails that check. Run with ``pytest -s`` to see
the measured rates.
"""

import math

import numpy as np
import pytest

from canaudit import (
    AuditDataset,
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
        null = simulate(mu=0.0, m=1000, n=1000, seed=seed)
        d = AuditDataset(null.canary_losses, null.reference_losses,
                         replications=replications)
        result = audit_pipeline(d, OPERATING_POINTS)
        for row in result.outcomes:
            name = row.operating_point + " per-example" * row.bound.per_example
            positives[name] = positives.get(name, 0) + (row.bound.confident_lower_bound > 0.0)
        positives["any bound"] = positives.get("any bound", 0) + any(
            row.bound.confident_lower_bound > 0.0 for row in result.outcomes)

    rates = {name: count / SEEDS for name, count in positives.items()}
    for name, rate in rates.items():
        print(f"[null soundness, replications {replications}] {name}: "
              f"{rate:.4f} (limit {LIMIT:.4f})")
    assert all(rate <= LIMIT for rate in rates.values()), rates


# (m, n, decimals the losses are rounded to; None keeps them continuous)
@pytest.mark.parametrize("m, n, decimals", [(1000, 1000, None), (100, 1000, None),
                                            (1000, 100, None), (1000, 1000, 2),
                                            (1000, 1000, 1), (100, 10000, 1)])
def test_null_p_value_rejection_rate(m, n, decimals):
    # rounded losses tie often; ties raise ranks, so the p-values stay valid
    rejections = {}  # q -> null audits whose quantile row has p <= 0.05
    for seed in range(SEEDS):
        null = simulate(mu=0.0, m=m, n=n, seed=seed)
        if decimals is not None:
            null = AuditDataset(np.round(null.canary_losses, decimals),
                                np.round(null.reference_losses, decimals))
        for row in _baseline_rows(exposure_all(null), null.n):
            if row["p_value"] is not None:
                rejections[row["q"]] = rejections.get(row["q"], 0) + (row["p_value"] <= 0.05)

    rates = {q: count / SEEDS for q, count in rejections.items()}
    print(f"[null p-values, m={m}, n={n}, decimals={decimals}] {rates} (limit {LIMIT:.4f})")
    assert set(rates) == {0.5, 0.75}
    assert all(rate <= LIMIT for rate in rates.values()), rates


def _laplace_audit(epsilon, replications, seed):
    """Audit of m = n = 1000 Laplace-shifted losses whose canaries were
    replicated: the row names and, per row, its certified bound, its point
    estimate floored at 0 and its true epsilon, divided by the replications
    on a per-example row."""
    rng = np.random.default_rng(seed)
    d = AuditDataset(rng.laplace(-epsilon, 1.0, 1000), rng.laplace(0.0, 1.0, 1000),
                     replications=replications)
    names, values = [], []
    for row in audit_pipeline(d, OPERATING_POINTS).outcomes:
        bound = row.bound
        names.append(row.operating_point + " per-example" * bound.per_example)
        values.append([bound.confident_lower_bound, max(0.0, bound.point_estimate),
                       epsilon / replications if bound.per_example else epsilon])
    return names, values


@pytest.mark.parametrize("replications", [1, 3])
@pytest.mark.parametrize("epsilon", [1.0, 2.0, 4.0])
def test_known_epsilon_false_certification_rate(epsilon, replications):
    # canaries ~ Laplace(-eps, 1) and references ~ Laplace(0, 1): the density
    # ratio is at most e^eps, so no threshold attack beats tpr <= e^eps fpr
    audits = [_laplace_audit(epsilon, replications, seed) for seed in range(SEEDS)]
    names = [*audits[0][0], "any bound"]
    values = np.array([row_values for _, row_values in audits])  # seed, row, column
    over = values[..., :2] > values[..., 2:]  # bound, point estimate over the truth
    rates = np.vstack([over.mean(axis=0), over.any(axis=1).mean(axis=0)])
    ratios = np.median(values[..., 0] / values[..., 2], axis=0)
    tag = f"[known eps {epsilon:g}, replications {replications}]"
    for name, (bound_rate, point_rate) in zip(names, rates):
        print(f"{tag} {name}: bound {bound_rate:.4f}, point estimate {point_rate:.4f} "
              f"(limit {LIMIT:.4f})")
    print(f"{tag} median certified/true: "
          + ", ".join(f"{name} {ratio:.3f}" for name, ratio in zip(names, ratios)))
    assert rates[:, 0].max() <= LIMIT, dict(zip(names, rates[:, 0]))
    # the control: certifying the point estimate is unsound, and this check sees it
    assert rates[:, 1].max() > LIMIT, dict(zip(names, rates[:, 1]))
