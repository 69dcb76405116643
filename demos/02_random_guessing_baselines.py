"""What exposure looks like when the model memorized nothing.

With an uninformative loss the ranks are uniformly random, yet the MEAN
exposure sits near 1.44 bits, not 1 -- the log in the exposure formula
biases it upward. The MEDIAN baseline is 1 bit and quantile baselines
follow -log2(1-q). At finite m and n every aggregate's null mean and std
are exact, with no sampling. Comparing observations against these values
prevents reading pure noise as leakage.

Run: python demos/02_random_guessing_baselines.py
"""

from canaudit import (
    baseline_quantile_exposure,
    exact_baseline,
    expected_exposure_asymptote,
    expected_exposure_exact,
)


def main():
    print("=== exact mean-exposure baseline vs n ===")
    for n in (1, 3, 10, 100, 10_000, 1_000_000):
        print(f"  n = {n:>9,}: expected exposure {expected_exposure_exact(n):+.5f}")
    print(f"  asymptote (1/ln 2): {expected_exposure_asymptote():+.5f}")

    print()
    print("=== asymptotic quantile baselines ===")
    for q in (0.5, 0.75, 0.875, 0.99):
        print(f"  q = {q:<6} -> exposure {baseline_quantile_exposure(q):.3f} bits")

    print()
    print("=== exact finite-sample baselines (m=1001 canaries, n=1000) ===")
    for q in (None, 0.5, 0.75):  # None is the mean
        summary = exact_baseline(1001, 1000, q)
        name = "mean" if q is None else f"quantile {q}"
        print(f"  {name:<14} exact mean {summary.mean:+.4f} (std {summary.std:.4f})  "
              f"asymptote {summary.asymptotic_value:+.4f}")
        if summary.quantiles:
            values = ", ".join(f"{value:+.4f}" for value in summary.quantiles.values())
            print(f"{'':17}null quantiles 0.05-0.95: {values}")

    print()
    print("A mean exposure of ~1.44 over many canaries is exactly what random")
    print("guessing produces; only values beyond the baseline suggest leakage.")


if __name__ == "__main__":
    main()
