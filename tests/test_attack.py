import math

import numpy as np
import pytest

from canaudit import (
    exposure_all,
    operating_points,
    roc,
    roc_to_csv,
    threshold_attack,
)

from conftest import brute_roc, make_dataset, random_instance, scan_tpr_at_fpr


def test_threshold_below_everything():
    d = make_dataset([1.0, 2.0], [3.0, 4.0])
    mi = threshold_attack(d, 0.5)
    assert mi.tpr == 0.0 and mi.fpr == 0.0
    assert mi.canary_hits == 0 and mi.reference_hits == 0


def test_threshold_above_everything():
    d = make_dataset([1.0, 2.0], [3.0, 4.0])
    mi = threshold_attack(d, 10.0)
    assert mi.tpr == 1.0 and mi.fpr == 1.0


def test_threshold_at_median_counts_strictly():
    losses = [float(x) for x in (5.0, 1.0, 3.0, 2.0, 4.0)]  # odd m, distinct
    d = make_dataset(losses, [0.0, 6.0])
    t = operating_points(d, ["median"])[0].threshold
    assert t == 3.0
    mi = threshold_attack(d, t)
    assert mi.canary_hits == (d.m - 1) // 2
    assert mi.tpr == pytest.approx(0.4)


def test_threshold_rejects_non_finite():
    d = make_dataset([1.0], [2.0])
    with pytest.raises(ValueError):
        threshold_attack(d, math.nan)
    with pytest.raises(ValueError):
        threshold_attack(d, math.inf)


def test_median_threshold_examples():
    def median(canaries):
        return operating_points(make_dataset(canaries, [0.0]), ["median"])[0].threshold
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.0
    assert median([7.0]) == 7.0


def test_roc_separated_pair():
    d = make_dataset([1.0], [2.0])
    points = roc(d)
    assert len(points) == 4  # two distinct losses plus both endpoints
    assert any(fpr == 0.0 and tpr == 1.0 for fpr, tpr in zip(points.fpr, points.tpr))
    assert points.tpr[0] == 0.0 and points.fpr[0] == 0.0
    assert points.tpr[-1] == 1.0 and points.fpr[-1] == 1.0


def test_roc_identical_multisets_lie_on_diagonal():
    losses = [1.0, 2.0, 2.0, 5.0]
    d = make_dataset(losses, losses)
    points = roc(d)
    for tpr, fpr in zip(points.tpr, points.fpr):
        assert tpr == fpr


def test_roc_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = random_instance(rng)
        points = roc(d)
        expected = brute_roc(d)
        assert len(points) == len(expected)
        columns = zip(points.threshold, points.canary_hits, points.reference_hits,
                      points.tpr, points.fpr)
        for (threshold, hits, ref_hits, tpr, fpr), (t, ch, rh) in zip(columns, expected):
            assert threshold == t
            assert hits == ch
            assert ref_hits == rh
            assert tpr == ch / d.m
            assert fpr == rh / d.n


def test_roc_counts_non_decreasing():
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = random_instance(rng)
        points = roc(d)
        assert np.all(np.diff(points.canary_hits) >= 0)
        assert np.all(np.diff(points.reference_hits) >= 0)


def test_tpr_at_fpr_full_budget():
    rng = np.random.default_rng(31)
    d = random_instance(rng)
    mi, = operating_points(d, [1.0])
    assert mi.tpr == 1.0


def test_tpr_at_fpr_separated_at_zero():
    d = make_dataset([1.0, 2.0], [5.0, 6.0, 7.0])
    mi, = operating_points(d, [0.0])
    assert mi.tpr == 1.0 and mi.fpr == 0.0


def test_tpr_at_fpr_achieved_granularity():
    rng = np.random.default_rng(37)
    for _ in range(20):
        d = random_instance(rng, max_size=10)
        d = make_dataset(
            d.canary_losses,
            list(rng.normal(size=10)),  # exactly n=10
        )
        mi, = operating_points(d, [0.1])
        assert mi.fpr in (0.0, 0.1)
        assert mi.fpr <= 0.1


def test_tpr_at_fpr_matches_roc_scan():
    # targets on, and one ulp either side of, the achievable rates k/n
    rng = np.random.default_rng(47)
    for _ in range(300):
        d = random_instance(rng, tie_prob=0.8)
        targets = {0.0, 1.0}
        for k in rng.integers(0, d.n + 1, size=3):
            at = float(k) / d.n
            targets |= {at, float(np.nextafter(at, -1.0)), float(np.nextafter(at, 2.0))}
        targets = sorted(t for t in targets if 0.0 <= t <= 1.0)
        median, *at_targets = operating_points(d, ["median", *targets])
        assert median == threshold_attack(d, sorted(d.canary_losses)[(d.m + 1) // 2 - 1])
        for target, mi in zip(targets, at_targets, strict=True):
            got = (mi.threshold, mi.canary_hits, mi.reference_hits)
            assert got == scan_tpr_at_fpr(d, target)


def test_tpr_at_fpr_validation():
    d = make_dataset([1.0], [2.0])
    with pytest.raises(ValueError):
        operating_points(d, [-0.1])
    with pytest.raises(ValueError):
        operating_points(d, [1.5])


def test_operating_points_batch_equals_single_calls():
    rng = np.random.default_rng(43)
    for _ in range(50):
        d = random_instance(rng, tie_prob=0.5)
        points = [0.5, "median", 0.0, 1.0, 0.5, 1.0 / d.n, "median", 0.25]
        batch = operating_points(d, points)
        assert batch == [operating_points(d, [point])[0] for point in points]
    assert operating_points(d, []) == []


def test_operating_points_count_at_their_own_thresholds():
    rng = np.random.default_rng(53)
    for _ in range(200):
        d = random_instance(rng, tie_prob=float(rng.random()))
        points = ["median", 0.0, 1.0, *rng.random(4).tolist(),
                  *(k / d.n for k in rng.integers(0, d.n + 1, size=3))]
        for mi in operating_points(d, points):
            if math.isfinite(mi.threshold):
                assert mi == threshold_attack(d, mi.threshold)
            else:
                expected = (0, 0) if mi.threshold < 0 else (d.m, d.n)
                assert (mi.canary_hits, mi.reference_hits) == expected


def test_attack_fpr_matches_optimistic_exposure_fpr():
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = random_instance(rng, tie_prob=1.0)
        report = exposure_all(d, "optimistic")
        for loss, empirical_fpr in zip(d.canary_losses, report.empirical_fprs):
            mi = threshold_attack(d, loss)
            assert mi.fpr == empirical_fpr


def test_null_symmetry_of_rates():
    # same distribution for both roles: E[tpr - fpr] = 0 at fixed thresholds
    rng = np.random.default_rng(43)
    thresholds = (-0.5, 0.0, 0.7)
    m, n, seeds = 40, 60, 300
    for t in thresholds:
        diffs = []
        for _ in range(seeds):
            d = make_dataset(rng.normal(size=m), rng.normal(size=n))
            mi = threshold_attack(d, t)
            diffs.append(mi.tpr - mi.fpr)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / math.sqrt(seeds)
        assert abs(diffs.mean()) < 3 * se + 1e-12


def test_roc_csv_round_trips():
    d = make_dataset([1.0, 3.0], [2.0, 4.0])
    text = roc_to_csv(roc(d))
    lines = text.strip().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    parsed = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
    points = roc(d)
    assert len(parsed) == len(points)
    columns = zip(points.threshold, points.fpr, points.tpr)
    for (t, fpr, tpr), (threshold, point_fpr, point_tpr) in zip(parsed, columns):
        assert t == threshold
        assert fpr == point_fpr
        assert tpr == point_tpr
