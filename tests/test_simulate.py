import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import kstest

from canaudit import (
    GaussianShiftModel,
    analytic_operating_point,
    exposure_all,
    parse_dataset,
    serialize_dataset,
    simulate,
    threshold_attack,
)

# The sampling path (child streams + numpy's standard normal sampler) is
# part of the output contract; these values pin it.
GOLDEN_SEED0_CANARIES = [
    0.8050894723742356,
    -1.9120592174903859,
    -3.496649248417975,
    0.9337796912588993,
    1.293634306772906,
]
GOLDEN_SEED0_REFERENCES = [
    1.4436909546981256,
    -0.8959459763857414,
    0.735955670177038,
    0.005877040405094311,
    0.853381789726193,
]


@pytest.mark.parametrize("seed", range(3))
def test_simulate_draws_are_standard_normal(seed):
    # references are N(0, 1) and canaries N(-mu, 1), so canaries + mu are N(0, 1)
    mu = 1.5
    d = simulate(GaussianShiftModel(mu=mu, m=100_000, n=100_000, seed=seed))
    assert kstest(d.reference_losses, "norm").pvalue > 1e-3
    assert kstest(d.canary_losses + mu, "norm").pvalue > 1e-3


def test_simulate_deterministic():
    model = GaussianShiftModel(mu=1.0, m=50, n=40, seed=11)
    assert simulate(model) == simulate(model)


def test_simulate_seed_sensitivity():
    a = simulate(GaussianShiftModel(mu=0.0, m=5, n=5, seed=0))
    b = simulate(GaussianShiftModel(mu=0.0, m=5, n=5, seed=1))
    assert a != b


def test_simulate_golden_values():
    d = simulate(GaussianShiftModel(mu=0.0, m=5, n=5, seed=0))
    assert d.canary_losses.tolist() == GOLDEN_SEED0_CANARIES
    assert d.reference_losses.tolist() == GOLDEN_SEED0_REFERENCES


def test_simulate_shift_and_scale():
    base = simulate(GaussianShiftModel(mu=0.0, m=5, n=5, seed=0))
    shifted = simulate(GaussianShiftModel(mu=2.5, m=5, n=5, seed=0))
    for a, b in zip(base.canary_losses, shifted.canary_losses):
        assert b == pytest.approx(a - 2.5, abs=1e-12)
    for a, b in zip(base.reference_losses, shifted.reference_losses):
        assert b == a  # references carry no shift


def test_simulate_canaries_independent_of_n():
    a = simulate(GaussianShiftModel(mu=0.0, m=5, n=3, seed=9))
    b = simulate(GaussianShiftModel(mu=0.0, m=5, n=30, seed=9))
    assert a.canary_losses.tolist() == b.canary_losses.tolist()


def test_simulate_validation():
    with pytest.raises(ValueError):
        GaussianShiftModel(mu=-0.1, m=1, n=1, seed=0)
    with pytest.raises(ValueError):
        GaussianShiftModel(mu=0.0, m=0, n=1, seed=0)
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            GaussianShiftModel(mu=mu, m=1, n=1, seed=0)


def test_model_has_no_scale():
    # a common scale multiplies every loss and changes no rank, so there is none
    assert [f.name for f in dataclasses.fields(GaussianShiftModel)] == ["mu", "m", "n", "seed"]
    with pytest.raises(TypeError):
        GaussianShiftModel(mu=1.0, sigma=2.0, m=1, n=1, seed=0)


def test_null_model_median_exposure_near_one():
    for seed in range(3):
        d = simulate(GaussianShiftModel(mu=0.0, m=10_001, n=10_000, seed=seed))
        report = exposure_all(d)
        assert report.quantile_exposures[0.5] == pytest.approx(1.0, abs=0.1)


def test_strong_shift_saturates_exposure():
    d = simulate(GaussianShiftModel(mu=6.0, m=1000, n=1000, seed=21))
    report = exposure_all(d)
    assert report.quantile_exposures[0.5] == pytest.approx(np.log2(1000), abs=0.1)


def test_analytic_operating_point_null_model():
    model = GaussianShiftModel(mu=0.0, m=10, n=10, seed=0)
    for t in (-1.0, 0.0, 0.3, 2.0):
        tpr, fpr = analytic_operating_point(model, t)
        assert tpr == fpr
    assert analytic_operating_point(model, 0.0) == (0.5, 0.5)


def test_analytic_operating_point_symmetry():
    model = GaussianShiftModel(mu=3.0, m=10, n=10, seed=0)
    tpr, fpr = analytic_operating_point(model, -model.mu / 2)
    assert tpr + fpr == pytest.approx(1.0, abs=1e-12)


def test_empirical_rates_converge_to_analytic():
    model = GaussianShiftModel(mu=1.0, m=100_000, n=100_000, seed=33)
    d = simulate(model)
    for t in (-1.5, -0.5, 0.0, 1.0):
        mi = threshold_attack(d, t)
        tpr, fpr = analytic_operating_point(model, t)
        assert abs(mi.tpr - tpr) < 0.01
        assert abs(mi.fpr - fpr) < 0.01


def test_median_exposure_non_decreasing_in_mu():
    mus = (0.0, 0.5, 1.0, 2.0, 4.0)
    seeds = range(5)
    averages = []
    for mu in mus:
        medians = [
            exposure_all(
                simulate(GaussianShiftModel(mu=mu, m=501, n=500, seed=s))
            ).quantile_exposures[0.5]
            for s in seeds
        ]
        averages.append(float(np.mean(medians)))
    assert all(a <= b for a, b in zip(averages, averages[1:]))


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_simulated_dataset_round_trips_through_files(format):
    d = simulate(GaussianShiftModel(mu=1.5, m=20, n=30, seed=8))
    text = serialize_dataset(d, format)
    assert parse_dataset(text, format) == d
