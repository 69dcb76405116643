import dataclasses
import math

import numpy as np
import pytest

from canaudit import ExposureReport, exposure_all, exposure_of, quantile_p_value, rank
from canaudit.exposure import _quantile_rank

from conftest import (brute_exposure, brute_rank, comb_quantile_p_value, make_dataset,
                      nearest_rank_quantile, random_instance)


def test_rank_below_all_references():
    refs = np.arange(100, dtype=float)
    assert rank(-1.0, refs) == 1


def test_rank_above_all_references():
    refs = np.arange(100, dtype=float)
    assert rank(1000.0, refs) == 101


def test_rank_counts_tied_references_against_the_canary():
    refs = [1.0, 2.0, 2.0, 3.0]
    assert rank(2.0, refs) == 4
    assert exposure_of(2.0, refs) == 0.0  # log2(4) - log2(4)


def test_rank_and_exposure_take_unsorted_references():
    rng = np.random.default_rng(23)
    refs = rng.integers(-5, 6, size=40) / 2.0
    for loss in np.linspace(-3.0, 3.0, 25).tolist():
        shuffled = rng.permutation(refs)
        assert rank(loss, shuffled) == brute_rank(loss, refs.tolist())
        assert exposure_of(loss, shuffled) == brute_exposure(loss, refs.tolist())
    assert rank(1.0, [3.0, 0.0]) == 2
    assert exposure_of(1.0, [3.0, 0.0]) == 0.0


def test_rank_rejects_empty_references():
    with pytest.raises(ValueError, match="non-empty"):
        rank(1.0, [])


@pytest.mark.parametrize("loss", [math.nan, math.inf, -math.inf])
def test_rank_and_exposure_reject_non_finite_loss(loss):
    # NaN sorts above every reference, so it would read as rank n+1
    with pytest.raises(ValueError, match="loss must be finite"):
        rank(loss, [1.0, 2.0])
    with pytest.raises(ValueError, match="loss must be finite"):
        exposure_of(loss, [1.0, 2.0])


def test_exposure_rank_one_is_log2_n():
    refs = np.arange(1024, dtype=float)
    assert exposure_of(-1.0, refs) == 10.0


def test_exposure_midpoint_rank():
    # rank 513 among n=1024 references
    refs = np.arange(1024, dtype=float)
    assert exposure_of(511.5, refs) == pytest.approx(0.9971849843929466, abs=1e-12)


def test_exposure_bottom_rank():
    # rank n+1 = 1025 among n=1024 references
    refs = np.arange(1024, dtype=float)
    assert exposure_of(2000.0, refs) == pytest.approx(-0.0014081943928090368, abs=1e-12)


def test_exposure_all_single_canary():
    d = make_dataset([-1.0], np.arange(16, dtype=float))
    report = exposure_all(d)
    assert len(report.ranks) == 1
    assert report.exposures[0] == 4.0
    assert report.ranks[0] == 1
    assert report.quantile_exposures[0.5] == 4.0
    assert report.mean_exposure == 4.0


def test_exposure_all_median_of_three_ranks():
    refs = np.arange(1024, dtype=float)
    # losses landing at ranks 1, 513, and 1025
    d = make_dataset([-1.0, 511.5, 2000.0], refs)
    report = exposure_all(d)
    assert sorted(report.ranks.tolist()) == [1, 513, 1025]
    assert report.quantile_exposures[0.5] == pytest.approx(0.9971849843929466, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("q", [1e-9, 0.1234567, 0.5, 0.75, 1 - 1e-9])
def test_quantile_rank_reads_the_nearest_rank_quantile(q, m):
    # the q-quantile exposure is the ceil(q m)-th smallest; the report, the
    # p-values and the baselines read it at the k-th smallest rank
    rng = np.random.default_rng(m)
    n = 6
    canaries = rng.integers(0, 4, size=m) / 2.0
    canaries[-1] = canaries[0]  # tied ranks from m = 2 on
    report = exposure_all(make_dataset(canaries, rng.integers(0, 4, size=n) / 2.0))
    k = _quantile_rank(m, q)
    want = nearest_rank_quantile(report.exposures, q)
    assert report.exposures[np.argsort(report.ranks)[k - 1]] == want
    assert report.quantile_exposures.get(q, want) == want
    assert quantile_p_value(report.ranks, n, q) == pytest.approx(
        comb_quantile_p_value(report.ranks.tolist(), n, q), rel=1e-12, abs=0.0)


def test_exposure_monotone_in_loss():
    rng = np.random.default_rng(11)
    for _ in range(20):
        refs = np.sort(rng.integers(-4, 5, size=9) / 2.0)
        losses = np.sort(rng.uniform(-3, 3, size=15))
        exposures = [exposure_of(loss, refs) for loss in losses]
        assert all(a >= b for a, b in zip(exposures, exposures[1:]))


def test_exposure_range_endpoints():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = random_instance(rng, max_size=30)
        report = exposure_all(d)
        n = d.n
        lo = float(np.log2(n) - np.log2(n + 1))
        hi = float(np.log2(n))
        for exposure in report.exposures:
            assert lo <= exposure <= hi


def test_exposure_all_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = random_instance(rng)
        report = exposure_all(d)
        fprs = (report.ranks - 1) / d.n
        refs = d.reference_losses.tolist()
        for i, loss in enumerate(d.canary_losses.tolist()):
            rank = int(report.ranks[i])
            assert rank == brute_rank(loss, refs)
            assert report.exposures[i] == brute_exposure(loss, refs)
            assert fprs[i] == (rank - 1) / d.n


def test_exposure_fpr_identity():
    # for rank >= 2: |exposure - log2(1/fpr)| = log2(rank / (rank - 1))
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = random_instance(rng)
        report = exposure_all(d)
        for rank, exposure, fpr in zip(report.ranks.tolist(), report.exposures.tolist(),
                                       ((report.ranks - 1) / d.n).tolist()):
            if rank < 2:
                continue
            gap = abs(exposure - math.log2(1.0 / fpr))
            assert gap == pytest.approx(math.log2(rank / (rank - 1)), rel=1e-12)


def test_identical_multisets_give_median_exposure_near_one():
    rng = np.random.default_rng(101)
    medians = []
    for _ in range(10):
        losses = rng.normal(size=1001)
        d = make_dataset(losses, losses)
        medians.append(exposure_all(d).quantile_exposures[0.5])
    assert float(np.mean(medians)) == pytest.approx(1.0, abs=0.1)


def test_report_aggregates_are_consistent():
    rng = np.random.default_rng(19)
    d = random_instance(rng)
    report = exposure_all(d)
    exposures = report.exposures
    assert report.mean_exposure == float(exposures.mean())
    assert report.quantile_exposures[0.5] == nearest_rank_quantile(exposures, 0.5)
    assert report.quantile_exposures[0.75] == nearest_rank_quantile(exposures, 0.75)


def test_report_holds_ranks_exposures_and_aggregates_only():
    # m and n are the dataset's; the empirical FPR is (rank - 1)/n of its ranks
    assert [f.name for f in dataclasses.fields(ExposureReport)] == [
        "ranks", "exposures", "mean_exposure", "quantile_exposures"]
    report = exposure_all(make_dataset([1.0, 2.0], [0.5, 1.5, 2.5]))
    assert not hasattr(report, "empirical_fprs")
    fields = dict(ranks=report.ranks, exposures=report.exposures, mean_exposure=0.0,
                  quantile_exposures={})
    for extra in ({"m": 2}, {"n": 3}):
        with pytest.raises(TypeError):
            ExposureReport(**fields, **extra)
