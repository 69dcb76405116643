import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from canaudit import (
    INDEPENDENCE_NOTICE,
    GaussianShiftModel,
    audit_pipeline,
    build_report,
    clopper_pearson,
    epsilon_confident,
    epsilon_from_median_exposure,
    epsilon_point,
    group_privacy_adjust,
    operating_points,
    render_json,
    simulate,
    threshold_attack,
)

from conftest import grid_clopper_pearson, make_dataset


def test_epsilon_point_values():
    assert epsilon_point(0.5, 0.25) == pytest.approx(math.log(2.0), abs=1e-15)
    assert epsilon_point(0.3, 0.3) == 0.0
    assert epsilon_point(0.5, 0.05) == pytest.approx(math.log(10.0), abs=1e-12)


def test_epsilon_point_edge_cases():
    assert epsilon_point(0.4, 0.0) == math.inf
    assert epsilon_point(0.0, 0.0) == 0.0
    assert epsilon_point(0.0, 0.4) == -math.inf
    assert epsilon_point(0.2, 0.4) < 0.0


def test_epsilon_point_validation():
    with pytest.raises(ValueError):
        epsilon_point(1.5, 0.5)
    with pytest.raises(ValueError):
        epsilon_point(0.5, -0.1)


def test_epsilon_from_median_exposure_values():
    assert epsilon_from_median_exposure(1.0) == 0.0
    assert epsilon_from_median_exposure(3.0) == pytest.approx(2 * math.log(2.0), abs=1e-15)
    with pytest.raises(ValueError):
        epsilon_from_median_exposure(math.inf)


def test_median_exposure_identity_with_point_estimate():
    # epsilon_point(0.5, p_r) == epsilon_from_median_exposure(log2(1/p_r))
    for k in range(1, 21):
        p_r = 2.0**-k
        lhs = epsilon_point(0.5, p_r)
        rhs = epsilon_from_median_exposure(math.log2(1.0 / p_r))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_clopper_pearson_degenerate_counts():
    assert clopper_pearson(0, 17, 0.05, "lower") == 0.0
    assert clopper_pearson(17, 17, 0.05, "upper") == 1.0


def test_clopper_pearson_all_successes_closed_form():
    assert clopper_pearson(20, 20, 0.05, "lower") == pytest.approx(
        0.05 ** (1 / 20), abs=1e-12
    )


def test_clopper_pearson_matches_grid_oracle():
    rng = np.random.default_rng(47)
    for _ in range(25):
        trials = int(rng.integers(1, 120))
        k = int(rng.integers(0, trials + 1))
        alpha = float(rng.uniform(0.01, 0.4))
        for side in ("lower", "upper"):
            got = clopper_pearson(k, trials, alpha, side)
            want = grid_clopper_pearson(k, trials, alpha, side)
            assert got == pytest.approx(want, abs=2e-6)


# alpha = 0.999 is left out: at k = 1000, trials = 1e6 (lower) betaincinv is
# 4.3e-10 off the root, while a 40-digit sum of the 1000-term lower tail
# agrees with clopper_pearson to 5e-16.
_GRID_ALPHAS = (1e-100, 1e-6, 0.005, 0.025, 0.2, 0.5, 0.9, 0.99)


def _grid_counts():
    """(k, trials) pairs of the betaincinv grid."""
    for trials in (1, 2, 5, 20, 100, 10**3, 10**4, 10**5, 10**6):
        ks = {0, 1, 2, trials // 1000, trials // 100, trials // 10, trials // 2,
              trials - 1, trials}
        for k in sorted(k for k in ks if k <= trials):
            yield k, trials


def test_clopper_pearson_matches_betaincinv():
    from scipy.special import betaincinv

    for k, trials in _grid_counts():
        for alpha in _GRID_ALPHAS:
            lower = 0.0 if k == 0 else float(betaincinv(k, trials - k + 1, alpha))
            assert clopper_pearson(k, trials, alpha, "lower") == pytest.approx(
                lower, rel=1e-10, abs=0.0), (k, trials, alpha)
            if alpha == 1e-100:  # the upper oracle's 1 - alpha rounds to 1
                continue
            upper = (1.0 if k == trials
                     else float(betaincinv(k + 1, trials - k, 1.0 - alpha)))
            assert clopper_pearson(k, trials, alpha, "upper") == pytest.approx(
                upper, rel=1e-10, abs=0.0), (k, trials, alpha)


def test_clopper_pearson_roots_at_the_ends_of_the_unit_interval():
    # upper roots within rounding of p = 1
    for k, trials, alpha in ((3, 5, 2.288216802230563e-229),
                             (14, 16, 1.2695482514058656e-227),
                             (0, 1, 4.545862977730304e-81)):
        assert clopper_pearson(k, trials, alpha, "upper") == 1.0, (k, trials, alpha)
    # a lower root within rounding of p = 1: alpha^(1/trials) = 1 - 1e-18
    alpha = 1.0 - 1e-12
    assert alpha ** (1 / 10**6) == 1.0
    assert clopper_pearson(10**6, 10**6, alpha, "lower") == 1.0
    # a normal-approximation start beyond p = 0
    alpha = 0.6725478637836166
    assert clopper_pearson(0, 4, alpha, "upper") == pytest.approx(
        -math.expm1(math.log(alpha) / 4), rel=1e-12, abs=0.0)


def test_clopper_pearson_tail_sums_per_bound(monkeypatch):
    import canaudit.audit

    calls = [0]
    log_tail = canaudit.audit._log_tail

    def counted(*args):
        calls[0] += 1
        return log_tail(*args)

    monkeypatch.setattr(canaudit.audit, "_log_tail", counted)

    def tail_sums(k, trials, alpha, side):
        calls[0] = 0
        clopper_pearson(k, trials, alpha, side)
        return calls[0]

    for side in ("lower", "upper"):
        assert tail_sums(5 * 10**5, 10**6, 0.025, side) <= 3, side
    assert max(tail_sums(k, trials, alpha, side)
               for k, trials in _grid_counts() for alpha in _GRID_ALPHAS
               for side in ("lower", "upper")) <= 10


def test_clopper_pearson_no_successes_upper_closed_form():
    # (1 - p)^trials = alpha; an lgamma(a+b) - lgamma(a) - lgamma(b)
    # prefactor is already 1e-9 off at trials = 1e5
    for trials in (1, 10, 100, 10**3, 10**4, 10**5, 10**6):
        for alpha in (1e-6, 0.005, 0.025, 0.2):
            assert clopper_pearson(0, trials, alpha, "upper") == pytest.approx(
                -math.expm1(math.log(alpha) / trials), rel=1e-12, abs=0.0)


def test_clopper_pearson_brackets_empirical_rate():
    rng = np.random.default_rng(53)
    for _ in range(50):
        trials = int(rng.integers(1, 200))
        k = int(rng.integers(0, trials + 1))
        alpha = float(rng.uniform(0.001, 0.49))
        lower = clopper_pearson(k, trials, alpha, "lower")
        upper = clopper_pearson(k, trials, alpha, "upper")
        assert lower <= k / trials <= upper


def test_clopper_pearson_validation():
    with pytest.raises(ValueError):
        clopper_pearson(-1, 10, 0.05, "lower")
    with pytest.raises(ValueError):
        clopper_pearson(11, 10, 0.05, "lower")
    with pytest.raises(ValueError):
        clopper_pearson(5, 10, 0.0, "lower")
    with pytest.raises(ValueError):
        clopper_pearson(5, 10, 1.0, "upper")
    with pytest.raises(ValueError):
        clopper_pearson(5, 10, 0.05, "middle")
    with pytest.raises(ValueError):
        clopper_pearson(5, 0, 0.05, "lower")


def test_confident_bound_positive_when_separated():
    d = simulate(GaussianShiftModel(mu=8.0, m=1000, n=1000, seed=1))
    mi = threshold_attack(d, operating_points(d, ["median"])[0].threshold)
    bound = epsilon_confident(mi, 0.95)
    assert bound.confident_lower_bound > 0.0
    assert bound.point_estimate == math.inf  # fully separated: fpr = 0
    assert bound.fpr_upper > 0.0  # corrected bound stays finite
    assert math.isfinite(bound.confident_lower_bound)


def test_confident_bound_zero_on_tiny_samples():
    # tpr 0.5, fpr 0.3 with m = n = 10: intervals too wide to certify leakage
    d = make_dataset(
        [0.0] * 5 + [2.0] * 5,
        [0.0] * 3 + [2.0] * 7,
    )
    mi = threshold_attack(d, 1.0)
    assert mi.tpr == 0.5 and mi.fpr == pytest.approx(0.3)
    bound = epsilon_confident(mi, 0.95)
    assert bound.confident_lower_bound == 0.0


def test_confident_bound_records_inputs():
    d = make_dataset([0.0, 1.0, 4.0], [2.0, 3.0, 5.0])
    mi = threshold_attack(d, operating_points(d, ["median"])[0].threshold)
    bound = epsilon_confident(mi, 0.9)
    # the row's values only: confidence and replications are the audit's and the dataset's
    assert [field.name for field in dataclasses.fields(bound)] == [
        "point_estimate", "confident_lower_bound", "tpr_lower", "fpr_upper", "per_example"]
    # the error budget splits evenly between the two Clopper-Pearson sides
    assert bound.tpr_lower == clopper_pearson(mi.canary_hits, mi.m, (1 - 0.9) / 2, "lower")
    assert bound.fpr_upper == clopper_pearson(mi.reference_hits, mi.n, (1 - 0.9) / 2, "upper")
    assert not bound.per_example
    assert bound.tpr_lower <= mi.tpr
    assert bound.fpr_upper >= mi.fpr
    assert bound.confident_lower_bound >= 0.0


def test_confident_bound_non_increasing_in_confidence():
    d = simulate(GaussianShiftModel(mu=2.0, m=400, n=400, seed=5))
    mi = threshold_attack(d, operating_points(d, ["median"])[0].threshold)
    bounds = [
        epsilon_confident(mi, c).confident_lower_bound
        for c in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
    ]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def test_confident_validation():
    d = make_dataset([1.0], [2.0])
    mi = threshold_attack(d, 1.5)
    for confidence in (0.0, 1.0, -1.0, 2.0):
        with pytest.raises(ValueError):
            epsilon_confident(mi, confidence)
    with pytest.raises(TypeError):  # the bound reads no dataset
        epsilon_confident(d, mi, 0.95)


def test_group_privacy_adjust():
    assert group_privacy_adjust(2.0, 4) == 0.5
    assert group_privacy_adjust(1.0, 1) == 1.0
    assert group_privacy_adjust(0.0, 7) == 0.0
    assert group_privacy_adjust(1.0, np.int64(2)) == 0.5
    for bad in (0, True, 2.0):
        with pytest.raises(ValueError, match="replications must be a positive integer"):
            group_privacy_adjust(1.0, bad)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            group_privacy_adjust(bad, 2)


def test_pipeline_null_data_certifies_nothing():
    d = simulate(GaussianShiftModel(mu=0.0, m=2001, n=2000, seed=2))
    result = audit_pipeline(d, operating_points=("median",), confidence=0.95)
    assert result.exposure_report.quantile_exposures[0.5] == pytest.approx(1.0, abs=0.2)
    assert result.outcomes[0].bound.confident_lower_bound == 0.0


def test_pipeline_point_estimate_is_internally_consistent():
    d = simulate(GaussianShiftModel(mu=3.0, m=10_000, n=10_000, seed=3))
    result = audit_pipeline(d, operating_points=("median",))
    outcome = result.outcomes[0]
    by_hand = math.log(outcome.mi.tpr / outcome.mi.fpr)
    assert outcome.bound.point_estimate == by_hand
    assert outcome.bound.point_estimate == epsilon_point(outcome.mi.tpr, outcome.mi.fpr)
    median_exposure = result.exposure_report.quantile_exposures[0.5]
    document = build_report(d, result)
    assert document["exposure"]["epsilon_from_median_exposure"] == pytest.approx(
        math.log(2.0) * (median_exposure - 1.0), rel=1e-12)
    assert document["exposure"]["epsilon_from_median_exposure"] == (
        epsilon_from_median_exposure(median_exposure))
    assert outcome.bound.point_estimate > 1.0
    assert outcome.bound.confident_lower_bound > 0.5


def test_pipeline_unachievable_fpr_target_warns():
    d = simulate(GaussianShiftModel(mu=1.0, m=100, n=100, seed=4))
    result = audit_pipeline(d, operating_points=("median", 0.001))
    low_fpr = result.outcomes[1]
    assert low_fpr.mi.fpr == 0.0
    # the notice, then one warning for the target; the median row adds none
    notice, warning = result.warnings
    assert notice == INDEPENDENCE_NOTICE
    assert warning.startswith("fpr target 0.001 ") and "resolution" in warning


def test_pipeline_replications_emit_per_example_bounds():
    rng = np.random.default_rng(59)
    d = make_dataset(rng.normal(-3.0, 1.0, size=200), rng.normal(size=200),
                     replications=4)
    result = audit_pipeline(d, operating_points=("median", 0.05))
    assert len(result.outcomes) == 4
    # each raw row is followed by its per-example row, with the same label and attack
    for raw_row, per_row in zip(result.outcomes[::2], result.outcomes[1::2]):
        raw, per = raw_row.bound, per_row.bound
        assert not raw.per_example and per.per_example
        assert (per_row.operating_point, per_row.mi) == (raw_row.operating_point, raw_row.mi)
        assert per.confident_lower_bound == raw.confident_lower_bound / 4
        assert per.point_estimate == raw.point_estimate / 4
        assert (per.tpr_lower, per.fpr_upper) == (raw.tpr_lower, raw.fpr_upper)


def test_pipeline_bound_invariants_across_seeds():
    for seed in range(8):
        mu = 0.5 * seed
        d = simulate(GaussianShiftModel(mu=mu, m=300, n=300, seed=seed))
        result = audit_pipeline(d, operating_points=("median", 0.1, 0.01))
        for outcome in result.outcomes:
            bound = outcome.bound
            assert bound.confident_lower_bound >= 0.0
            assert bound.tpr_lower <= outcome.mi.tpr
            assert bound.fpr_upper >= outcome.mi.fpr
            if math.isfinite(bound.point_estimate) and bound.point_estimate >= 0.0:
                assert bound.confident_lower_bound <= bound.point_estimate + 1e-12


def test_pipeline_respects_request_order_and_baselines():
    d = make_dataset([1.0, 2.0, 3.0], [0.5, 1.5, 2.5, 3.5])
    result = audit_pipeline(d, operating_points=(0.5, "median"))
    assert result.outcomes[0].operating_point == "fpr_target=0.5"
    assert result.outcomes[1].operating_point == "median"


def test_pipeline_labels_near_equal_targets_apart():
    # :g keeps 6 significant digits; a target it would round is spelled by repr
    d = make_dataset([1.0, 2.0, 3.0], [0.5, 1.5, 2.5, 3.5])
    targets = (0.00100000001, 0.001, Fraction(1, 3), 1e-5, 0.25)
    labels = [o.operating_point for o in audit_pipeline(d, targets).outcomes]
    assert labels == ["fpr_target=0.00100000001", "fpr_target=0.001",
                      "fpr_target=0.3333333333333333", "fpr_target=1e-05", "fpr_target=0.25"]
    for label, target in zip(labels, targets):
        assert float(label.removeprefix("fpr_target=")) == float(target)
    # the resolution warning spells its target the same way
    warning = audit_pipeline(d, [0.00100000001]).warnings[1]
    assert warning.startswith("fpr target 0.00100000001 is below")


def test_pipeline_reads_a_generator_of_points_once():
    d = make_dataset([1.0, 2.0, 3.0], [0.5, 1.5, 2.5, 3.5])
    points = ("median", 0.5)
    result = audit_pipeline(d, operating_points=(point for point in points))
    assert result.outcomes == audit_pipeline(d, operating_points=points).outcomes
    assert len(result.outcomes) == 2


def test_pipeline_accepts_numpy_scalar_targets():
    d = simulate(GaussianShiftModel(mu=1.0, m=200, n=300, seed=6))
    numpy_points = ("median", np.float32(0.5), np.int64(0))
    python_points = ("median", 0.5, 0)
    assert render_json(build_report(d, audit_pipeline(d, numpy_points))) == \
        render_json(build_report(d, audit_pipeline(d, python_points)))


def test_pipeline_rejects_bad_operating_point():
    d = make_dataset([1.0], [2.0])
    with pytest.raises(ValueError):
        audit_pipeline(d, operating_points=("mean",))
    with pytest.raises(ValueError):
        audit_pipeline(d, operating_points=(True,))
    for point in (np.True_, math.nan, None):
        with pytest.raises(ValueError):
            audit_pipeline(d, operating_points=(point,))
    with pytest.raises(ValueError):
        audit_pipeline(d, confidence=1.5)
