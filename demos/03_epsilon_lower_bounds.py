"""From exposures to certified epsilon-DP lower bounds.

Any eps-DP guarantee caps a membership attack at TPR/FPR <= exp(eps), so
every operating point reports eps >= ln(TPR/FPR) at its own counts. The
loss-threshold attack at the median canary loss counts canaries strictly
below it, so its TPR is just under 1/2. The median exposure gives the
paper's exposure reading of the ratio, ln(2) * (median exposure - 1),
which the report keeps beside the exposure statistics. Clopper-Pearson
intervals convert the empirical rates into a bound that holds with 95%
confidence; duplicated canaries divide the result by the duplication
count (group privacy).

Run: python demos/03_epsilon_lower_bounds.py
"""

from canaudit import (
    AuditDataset,
    audit_pipeline,
    epsilon_from_median_exposure,
    simulate,
)


def show(d, result, title):
    median_exposure = result.exposure_report.quantile_exposures[0.5]
    print(f"--- {title} ---")
    print(f"  median exposure {median_exposure:+.4f} "
          f"(random-guessing baseline 1.0), exposure-form eps "
          f"{epsilon_from_median_exposure(median_exposure):+.4f}")
    for row in result.outcomes:
        bound = row.bound
        if bound.per_example:
            print(f"      per-example (replications {d.replications}): "
                  f"eps >= {bound.confident_lower_bound:.4f}")
            continue
        point = (f"{bound.point_estimate:.4f}"
                 if bound.point_estimate != float("inf") else "inf")
        print(f"  [{row.operating_point}] tpr {row.mi.tpr:.4f} "
              f"fpr {row.mi.fpr:.4f}  eps point {point}  "
              f"eps certified >= {bound.confident_lower_bound:.4f} "
              f"@ {result.confidence:.0%}")
    for warning in result.warnings[1:]:  # after the independence notice
        print(f"  warning: {warning}")
    print()


def main():
    # A model that memorized its canaries: canary losses sit 3 standard deviations low.
    leaky = simulate(mu=3.0, m=10_000, n=10_000, seed=1)
    show(leaky, audit_pipeline(leaky, operating_points=("median", 0.001)), "memorizing model")

    # The same audit on a model that learned nothing about its canaries.
    null = simulate(mu=0.0, m=10_000, n=10_000, seed=1)
    show(null, audit_pipeline(null, operating_points=("median", 0.001)),
         "null model (no memorization)")

    # Duplicated canaries make memorization easier to see, but the
    # certified per-example epsilon divides by the duplication count.
    strong = simulate(mu=4.0, m=1000, n=1000, seed=2)
    duplicated = AuditDataset(
        canary_losses=strong.canary_losses,
        reference_losses=strong.reference_losses,
        replications=8,
    )
    show(duplicated, audit_pipeline(duplicated), "canaries duplicated 8x in training")


if __name__ == "__main__":
    main()
