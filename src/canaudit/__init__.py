"""Canary-exposure privacy auditing.

Computes exposure statistics from canary/reference losses, compares them
against random-guessing baselines, and converts threshold
membership-inference results into confidence-corrected epsilon-DP lower
bounds. Losses are produced elsewhere; this library consumes them from
CSV/JSONL files or in-memory numpy arrays.
"""

__version__ = "0.1.0"

from .attack import (
    MIResult,
    RocCurve,
    operating_points,
    roc,
    roc_to_csv,
    threshold_attack,
)
from .audit import (
    INDEPENDENCE_NOTICE,
    AuditOutcome,
    AuditResult,
    EpsilonBound,
    audit_pipeline,
    clopper_pearson,
    epsilon_confident,
    epsilon_from_median_exposure,
    epsilon_point,
    group_privacy_adjust,
)
from .baseline import (
    BaselineSummary,
    baseline_quantile_exposure,
    exact_baseline,
    expected_exposure_asymptote,
    expected_exposure_exact,
    quantile_p_value,
)
from .exposure import (
    ExposureReport,
    exposure_all,
    exposure_of,
    rank,
)
from .ingest import (
    AuditDataset,
    DatasetError,
    dataset_summary,
    parse_dataset,
    serialize_dataset,
)
from .report import build_report, render_csv, render_json, render_markdown
from .simulate import GaussianShiftModel, analytic_operating_point, simulate

__all__ = [
    "AuditDataset",
    "AuditOutcome",
    "AuditResult",
    "BaselineSummary",
    "DatasetError",
    "EpsilonBound",
    "ExposureReport",
    "GaussianShiftModel",
    "INDEPENDENCE_NOTICE",
    "MIResult",
    "RocCurve",
    "analytic_operating_point",
    "audit_pipeline",
    "baseline_quantile_exposure",
    "build_report",
    "clopper_pearson",
    "dataset_summary",
    "epsilon_confident",
    "epsilon_from_median_exposure",
    "epsilon_point",
    "exact_baseline",
    "exposure_all",
    "exposure_of",
    "expected_exposure_asymptote",
    "expected_exposure_exact",
    "group_privacy_adjust",
    "operating_points",
    "parse_dataset",
    "quantile_p_value",
    "rank",
    "render_csv",
    "render_json",
    "render_markdown",
    "roc",
    "roc_to_csv",
    "serialize_dataset",
    "simulate",
    "threshold_attack",
]
