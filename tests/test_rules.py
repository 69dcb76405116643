"""Each shared input rule rejects a bad value with its one message, wherever
the value enters the library."""

from __future__ import annotations

import math

import numpy as np
import pytest

from canaudit import (AuditDataset, DatasetError, GaussianShiftModel, analytic_operating_point,
                      audit_pipeline, clopper_pearson, epsilon_from_median_exposure,
                      epsilon_point, exposure_quantile, group_privacy_adjust, operating_points,
                      quantile_p_value, rank, threshold_attack)
from conftest import make_dataset

_D = make_dataset([1.0, 2.0], [1.5, 3.0])


def _seed_cases():
    def entry(seed):
        return GaussianShiftModel(mu=1.0, m=3, n=3, seed=seed)
    for seed in (1.5, True, -1):
        yield pytest.param(entry, seed, f"seed must be a non-negative integer, got {seed!r}",
                           id=f"GaussianShiftModel-seed={seed!r}")


def _k_cases():
    def entry(k):
        return clopper_pearson(k, 10, 0.05, "lower")
    for k in (1.5, True, -1):
        yield pytest.param(entry, k, f"k must be a non-negative integer, got {k!r}",
                           id=f"clopper_pearson-k={k!r}")
    yield pytest.param(entry, 11, "k must be in [0, trials], got k=11, trials=10",
                       id="clopper_pearson-k=11")


def _n_cases():
    for n in (2.5, 0):
        yield pytest.param(lambda n: quantile_p_value([1, 2, 3], n, 0.5), n,
                           f"n must be a positive integer, got {n!r}",
                           id=f"quantile_p_value-n={n!r}")


def _point_cases():
    entries = (lambda p: audit_pipeline(_D, p), lambda p: operating_points(_D, p))
    for entry, name in zip(entries, ("audit_pipeline", "operating_points")):
        for points in ("median", 0.5):
            yield pytest.param(entry, points,
                               f"expected a sequence of operating points, got {points!r}",
                               id=f"{name}-bare={points!r}")
        yield pytest.param(entry, [1.5], "fpr target must be in [0, 1], got 1.5",
                           id=f"{name}-fpr-target=1.5")


def _real_cases():
    """A string or bool where a real number belongs fails the real-number rule,
    inside a range rule too; an fpr target keeps the operating-point wording."""
    entries = {"confidence": (lambda v: audit_pipeline(_D, confidence=v), "0.9"),
               "q": (lambda v: exposure_quantile([1.0, 2.0], v), "0.9"),
               "alpha": (lambda v: clopper_pearson(1, 10, v, "lower"), "0.9"),
               "tpr": (lambda v: epsilon_point(v, 0.5), "0.9"),
               "threshold": (lambda v: threshold_attack(_D, v), "1.0")}
    for name, (entry, text) in entries.items():
        for value in (text, True):
            yield pytest.param(entry, value, f"{name} must be a real number, got {value!r}",
                               id=f"{name}={value!r}")
    for value in ("0.9", True):
        yield pytest.param(lambda v: operating_points(_D, [v]), value,
                           f"operating point must be 'median' or an fpr target, got {value!r}",
                           id=f"fpr-target={value!r}")
    yield pytest.param(lambda v: rank(v, [1.0, 2.0]), "1.0",
                       "loss must be a real number, got '1.0'", id="rank-loss='1.0'")
    # an int beyond the doubles fails the rule, not float()
    yield pytest.param(lambda v: threshold_attack(_D, v), 10**400,
                       "threshold must be within the float range", id="threshold=10**400")
    # the population rates take a threshold by the rule threshold_attack applies
    def analytic(threshold):
        return analytic_operating_point(GaussianShiftModel(mu=1.0, m=3, n=3, seed=0), threshold)
    for value in ("1", True):
        yield pytest.param(analytic, value, f"threshold must be a real number, got {value!r}",
                           id=f"analytic_operating_point-threshold={value!r}")
    for value in (math.nan, math.inf):
        yield pytest.param(analytic, value, f"threshold must be finite, got {value!r}",
                           id=f"analytic_operating_point-threshold={value!r}")
    entries = {"mu": lambda v: GaussianShiftModel(mu=v, m=3, n=3, seed=0),
               "exposure_median": epsilon_from_median_exposure,
               "epsilon": lambda v: group_privacy_adjust(v, 2)}
    for name, entry in entries.items():
        yield pytest.param(entry, True, f"{name} must be a real number, got True",
                           id=f"{name}=True")


def _column_cases():
    def with_ids(ids):
        return AuditDataset([1.0, 2.0, 3.0], [1.0], canary_ids=ids)
    for ids in ("abc", 5):
        yield pytest.param(with_ids, ids, f"expected a sequence of canary ids, got {ids!r}",
                           id=f"canary_ids={ids!r}")
    # UTF-8 cannot encode a lone surrogate, so no report could write the id
    yield pytest.param(with_ids, ["a", "b\ud800", None],
                       "id must not hold a lone surrogate, got 'b\\ud800'",
                       id="canary_ids-lone-surrogate")
    yield pytest.param(lambda r: quantile_p_value(r, 10, 0.5), [1.5, 2.5],
                       "ranks must be integers, got dtype float64", id="ranks=[1.5, 2.5]")
    for losses, dtype in (([True, False], "bool"), (np.array(["1.5"]), "<U3"),
                          (np.array(["2020-01-01"], dtype="datetime64[D]"), "datetime64[D]")):
        yield pytest.param(lambda c: AuditDataset(c, [1.0]), losses,
                           f"canary losses must be real numbers, got dtype {dtype}",
                           id=f"canary-losses-{dtype}")
    # text inside an object array is not parsed
    yield pytest.param(lambda c: AuditDataset(c, [1.0]), np.array(["1.5", 2], dtype=object),
                       "an element of canary losses must be a real number, got '1.5'",
                       id="canary-losses-object-text")
    yield pytest.param(lambda c: AuditDataset(c, [1.0]), np.array([10**400], dtype=object),
                       "an element of canary losses must be within the float range",
                       id="canary-losses-object-10**400")
    yield pytest.param(lambda c: AuditDataset(c, [1.0]), [[1.0], [1.0, 2.0]],
                       "canary losses must be 1-D, got a ragged sequence",
                       id="canary-losses-ragged")
    # a bool among numbers in a list or tuple is not read as 1 or 0
    for entry, values, name in (
            (lambda c: AuditDataset(c, [1.0]), [True, 1.5], "canary losses"),
            (lambda c: AuditDataset(c, [1.0]), (1.5, np.True_), "canary losses"),
            (lambda e: exposure_quantile(e, 0.5), [True, 2.0], "exposures"),
            (lambda r: quantile_p_value(r, 5, 0.5), [True, 2], "ranks")):
        bad = next(value for value in values if isinstance(value, (bool, np.bool_)))
        yield pytest.param(entry, values,
                           f"an element of {name} must be a real number, got {bad!r}",
                           id=f"{name.replace(' ', '-')}-bool-in-{type(values).__name__}")
    yield pytest.param(lambda r: rank(1.0, r), ["0.5", "2.0"],
                       "reference_losses must be real numbers, got dtype <U3",
                       id="rank-reference_losses-text")
    for exposures, message, case in (
            (["1", "2", True], "exposures must be real numbers, got dtype <U5", "text"),
            (3.0, "exposures must be 1-D, got shape ()", "scalar"),
            (np.ones((2, 3)), "exposures must be 1-D, got shape (2, 3)", "2-D"),
            ([1.0, math.nan, 0.5], "exposures must be finite", "nan")):
        yield pytest.param(lambda e: exposure_quantile(e, 0.5), exposures, message,
                           id=f"exposures-{case}")
    for ranks, message, case in (
            (np.array([[1, 2], [3, 4]]), "ranks must be 1-D, got shape (2, 2)", "2-D"),
            ([0, 5, 7], "ranks must lie in [1, n+1], got 0 to 7, n=5", "outside-[1, n+1]")):
        yield pytest.param(lambda r: quantile_p_value(r, 5, 0.5), ranks, message,
                           id=f"ranks-{case}")


@pytest.mark.parametrize("entry,value,message",
                         [*_seed_cases(), *_k_cases(), *_n_cases(),
                          *_point_cases(), *_real_cases(), *_column_cases()])
def test_input_rule_rejects_with_its_one_message(entry, value, message):
    with pytest.raises(ValueError) as exc:
        entry(value)
    assert str(exc.value) == message


@pytest.mark.parametrize("losses", [np.array([10**400], dtype=object), [[1.0], [1.0, 2.0]]],
                         ids=["object-10**400", "ragged"])
def test_dataset_column_rule_raises_dataset_error(losses):
    with pytest.raises(DatasetError):
        AuditDataset(losses, [1.0])


def test_input_rules_accept_numpy_scalars_and_arrays():
    assert threshold_attack(_D, np.float32(1.5)) == threshold_attack(_D, 1.5)
    assert audit_pipeline(_D, confidence=np.float64(0.9)).confidence == 0.9
    assert quantile_p_value(np.array([1, 3], dtype=np.int64), 10, 0.5) \
        == quantile_p_value([1, 3], 10, 0.5)
    d = AuditDataset([1.0, 2.0], [1.0], canary_ids=np.array(["a", "b"]))
    assert d.canary_ids == ("a", "b")
    assert group_privacy_adjust(math.inf, 2) == math.inf
    assert AuditDataset([10**30], [1.0]).canary_losses.tolist() == [1e30]
