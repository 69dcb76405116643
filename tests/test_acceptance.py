"""Acceptance suite: every release gate at its fixed tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s``) and asserts the same condition, so the suite doubles as a
human-readable checklist and a hard gate.
"""

import math
import time

import numpy as np
import pytest

from canaudit import (
    audit_pipeline,
    clopper_pearson,
    epsilon_confident,
    epsilon_from_median_exposure,
    epsilon_point,
    exact_baseline,
    expected_exposure_asymptote,
    expected_exposure_exact,
    exposure_all,
    exposure_of,
    group_privacy_adjust,
    operating_points,
    parse_dataset,
    roc,
    serialize_dataset,
    simulate,
    threshold_attack,
)

from conftest import (
    brute_exposure,
    brute_rank,
    brute_roc,
    grid_clopper_pearson,
    make_dataset,
    random_instance,
)


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def summation_oracle(n: int) -> float:
    return math.log2(n) - math.fsum(math.log2(i) for i in range(1, n + 2)) / (n + 1)


def test_criterion_01_expected_exposure_baseline():
    start = time.perf_counter()
    value = expected_exposure_exact(10**6)
    elapsed = time.perf_counter() - start
    close = abs(value - expected_exposure_asymptote()) < 0.01
    fast = elapsed < 1.0

    grid = list(range(1, 51)) + [100, 500, 1000, 5000, 10_000, 50_000, 100_000]
    worst = max(abs(expected_exposure_exact(n) - summation_oracle(n)) for n in grid)
    agrees = worst <= 1e-8

    _criterion(
        1,
        "expected exposure baseline matches 1/ln(2) and the summation oracle",
        close and fast and agrees,
        f"exact(1e6)={value:.6f}, {elapsed * 1e3:.1f} ms, worst gap {worst:.2e}",
    )


def test_criterion_02_median_and_quantile_baselines():
    median = exact_baseline(10_001, 10**4, q=0.5)
    upper = exact_baseline(10_001, 10**4, q=0.75)
    ok_median = abs(median.mean - 1.0) < 0.05
    ok_upper = abs(upper.mean - 2.0) < 0.1
    _criterion(
        2,
        "exact median baseline is 1 and 75th percentile baseline is 2",
        ok_median and ok_upper,
        f"median={median.mean:.4f}, q75={upper.mean:.4f}",
    )


def test_criterion_03_exposure_endpoints_exact():
    ok = True
    for n in (1, 2, 10, 1024):
        refs = np.arange(n, dtype=float)
        top = exposure_of(-1.0, refs)
        bottom = exposure_of(float(n + 1), refs)
        ok = ok and top == math.log2(n)
        ok = ok and bottom == math.log2(n) - math.log2(n + 1)
    _criterion(3, "rank-1 and rank-(n+1) exposures hit both endpoints exactly", ok)


def test_criterion_04_median_exposure_identity():
    worst = 0.0
    for k in range(1, 21):
        p_r = 2.0**-k
        gap = abs(
            epsilon_point(0.5, p_r)
            - epsilon_from_median_exposure(math.log2(1.0 / p_r))
        )
        worst = max(worst, gap)
    _criterion(
        4,
        "epsilon from the attack and from median exposure agree algebraically",
        worst <= 1e-12,
        f"worst gap {worst:.2e}",
    )


def test_criterion_05_brute_force_oracle_equivalence():
    rng = np.random.default_rng(2025)
    ok = True
    for _ in range(1000):
        d = random_instance(rng, max_size=50)
        refs = d.reference_losses.tolist()
        report = exposure_all(d)
        for i, loss in enumerate(d.canary_losses.tolist()):
            ok = ok and report.ranks[i] == brute_rank(loss, refs)
            ok = ok and report.exposures[i] == brute_exposure(loss, refs)
        points = roc(d)
        expected = brute_roc(d)
        ok = ok and len(points) == len(expected)
        ok = ok and all(
            threshold == t and hits == ch and ref_hits == rh
            for threshold, hits, ref_hits, (t, ch, rh) in zip(
                points.threshold, points.canary_hits, points.reference_hits, expected
            )
        )
        if not ok:
            break
    _criterion(5, "exposure_all and roc match linear-scan oracles on 1000 instances", ok)


def test_criterion_06_clopper_pearson_correctness():
    closed_worst = 0.0
    for n in (1, 2, 5, 20, 100, 400):
        for alpha in (0.01, 0.025, 0.05, 0.2):
            got = clopper_pearson(n, n, alpha, "lower")
            closed_worst = max(closed_worst, abs(got - alpha ** (1.0 / n)))

    rng = np.random.default_rng(99)
    grid_worst = 0.0
    for _ in range(200):
        trials = int(rng.integers(1, 300))
        k = int(rng.integers(0, trials + 1))
        alpha = float(rng.uniform(0.005, 0.45))
        side = "lower" if rng.random() < 0.5 else "upper"
        got = clopper_pearson(k, trials, alpha, side)
        want = grid_clopper_pearson(k, trials, alpha, side)
        grid_worst = max(grid_worst, abs(got - want))

    _criterion(
        6,
        "Clopper-Pearson matches the closed form and a 1e-6-grid CDF scan",
        closed_worst <= 1e-9 and grid_worst <= 2e-6,
        f"closed-form gap {closed_worst:.2e}, grid gap {grid_worst:.2e}",
    )


def test_criterion_07_soundness_under_the_null():
    seeds = 500
    positives = 0
    for seed in range(seeds):
        d = simulate(mu=0.0, m=1000, n=1000, seed=seed)
        mi = threshold_attack(d, operating_points(d, ["median"])[0].threshold)
        bound = epsilon_confident(mi, 0.95)
        if bound.confident_lower_bound > 0.0:
            positives += 1
    limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / seeds)
    rate = positives / seeds
    _criterion(
        7,
        "null-data false-certification rate stays within the confidence level",
        rate <= limit,
        f"{positives}/{seeds} positives, limit {limit:.4f}",
    )


def test_criterion_08_power_under_strong_memorization():
    seeds = 100
    hits = 0
    for seed in range(seeds):
        d = simulate(mu=3.0, m=10_000, n=10_000, seed=10_000 + seed)
        result = audit_pipeline(d, operating_points=("median",), confidence=0.95)
        bound = result.outcomes[0].bound
        if bound.point_estimate > 1.0 and bound.confident_lower_bound > 0.5:
            hits += 1
    _criterion(
        8,
        "strong memorization is certified in at least 95% of seeds",
        hits >= 95,
        f"{hits}/{seeds} seeds certified",
    )


def test_criterion_09_group_privacy_division():
    ok = group_privacy_adjust(2.0, 4) == 0.5
    rng = np.random.default_rng(77)
    for k in (2, 4, 7):
        d = make_dataset(rng.normal(-3.0, 1.0, size=401), rng.normal(size=400),
                         replications=k)
        result = audit_pipeline(d, operating_points=("median", 0.05))
        # each raw row is followed by its per-example row
        rows = result.outcomes
        ok = ok and len(rows) == 4
        for raw, per in zip(rows[::2], rows[1::2]):
            ok = ok and per.bound.per_example and not raw.bound.per_example
            ok = ok and per.bound.point_estimate == raw.bound.point_estimate / k
            ok = ok and per.bound.confident_lower_bound == (
                raw.bound.confident_lower_bound / k
            )
    _criterion(9, "per-example epsilon is exactly the raw bound divided by k", ok)


def test_criterion_10_full_audit_performance():
    d0 = simulate(mu=1.0, m=100_000, n=100_000, seed=0)
    text = serialize_dataset(d0, "csv").encode()

    start = time.perf_counter()
    d = parse_dataset(text)
    result = audit_pipeline(d, operating_points=("median", 0.001))
    points = roc(d)
    elapsed = time.perf_counter() - start

    sane = len(points) > 0 and len(result.outcomes) == 2
    _criterion(
        10,
        "full audit of m = n = 100000 finishes in under 5 seconds",
        elapsed < 5.0 and sane,
        f"{elapsed:.2f} s",
    )
