"""Threshold sweeps, low-FPR auditing, and plot-ready report data.

A single threshold gives one operating point; sweeping every distinct
loss traces the attack's ROC curve. Low-FPR points probe the privacy of
the most exposed examples but need enough references to resolve small
rates, and the achieved FPR is quantized to multiples of 1/n.

Run: python demos/04_roc_and_low_fpr.py
"""

import json

from canaudit import (
    GaussianShiftModel,
    audit_pipeline,
    build_report,
    operating_points,
    roc,
    roc_to_csv,
    simulate,
)


def main():
    d = simulate(GaussianShiftModel(mu=2.0, sigma=1.0, m=5000, n=5000, seed=3))

    print("=== ROC sweep (CSV head) ===")
    points = roc(d)
    lines = roc_to_csv(points).splitlines()
    for line in lines[:6]:
        print(f"  {line}")
    print(f"  ... {len(points)} operating points total")

    print()
    print("=== best attack at capped false positive rates ===")
    targets = (0.1, 0.01, 0.001, 0.0001)
    for target, mi in zip(targets, operating_points(d, targets)):
        print(f"  fpr <= {target:<7} -> achieved fpr {mi.fpr:.4f}, tpr {mi.tpr:.4f}")
    print("  (with n = 5000, targets below 1/n = 0.0002 collapse to fpr 0)")

    print()
    print("=== full report document (plot-ready) ===")
    result = audit_pipeline(d, operating_points=("median", 0.01, 0.0001))
    document = build_report(d, result, histogram_bins=12)
    hist = document["histogram"]
    peak = max(hist["counts"])
    for lo, hi, count in zip(hist["bin_edges"], hist["bin_edges"][1:], hist["counts"]):
        bar = "#" * round(40 * count / peak)
        print(f"  [{lo:+7.3f}, {hi:+7.3f}) {count:>5}  {bar}")
    print()
    print("  warnings recorded in the document:")
    for warning in document["warnings"]:
        print(f"    - {warning}")
    print()
    print("  the same document serializes to JSON for plotting pipelines:")
    blob = json.dumps(document)
    print(f"    {len(blob):,} bytes, keys: {', '.join(sorted(document))}")


if __name__ == "__main__":
    main()
