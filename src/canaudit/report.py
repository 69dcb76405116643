"""Audit report documents: plot-ready JSON, Markdown, and CSV renderings.

The JSON document is the single source of truth; the Markdown rendering
formats values straight out of the document (via ``json.dumps`` per
value), so every number in the Markdown appears verbatim in the JSON and
nothing is ever computed twice. The one exception is each canary's
empirical FPR, exactly (rank - 1)/n, which the JSON leaves out and the
Markdown and CSV renderings derive from its rank.

Per-canary values are stored as columns; the JSON is strict (null for inf)
and compact, one line (``jq .`` indents it). The CSV quotes ids by the
dataset writer's rule (``ingest._csv_field``).

Each ``baselines`` row holds an exposure aggregate, its ``exact``
(finite-n, mean only) and ``asymptotic`` random-guessing values, and a
``p_value`` under the permutation null (``baseline.quantile_p_value``).
Pessimistic ties make the p-value conservative; with optimistic ties it
is not valid on tied losses. The mean has none: its null has no closed
form, and a normal approximation rejects too often at small m.
"""

from __future__ import annotations

import io
import itertools
import json
import math

import numpy as np

from . import __version__
from .audit import INDEPENDENCE_NOTICE, AuditResult, epsilon_from_median_exposure
from .baseline import (baseline_quantile_exposure, expected_exposure_asymptote,
                       expected_exposure_exact, quantile_p_value)
from .exposure import ExposureReport
from .ingest import AuditDataset, _csv_field, _csv_text, dataset_summary

SCHEMA_VERSION = 5


def _histogram(exposures: np.ndarray, n: int, bins: int | None) -> dict:
    # Exposure can only fall in [log2(n) - log2(n+1), log2(n)], the
    # exposures of ranks n+1 and 1 by exposure_all's own expression.
    lo, hi = np.log2(n) - np.log2([n + 1, 1])
    if bins is None:
        width = 0.5
        count = max(1, math.ceil((hi - lo) / width))
        edges = lo + width * np.arange(count + 1)
    elif isinstance(bins, bool) or not isinstance(bins, int) or bins < 1:
        raise ValueError(f"histogram_bins must be a positive integer, got {bins!r}")
    else:
        edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(exposures, bins=edges)
    return {
        "bin_edges": [float(e) for e in edges],
        "counts": [int(c) for c in counts],
    }


def _baseline_rows(report: ExposureReport) -> list[dict]:
    rows = [{"statistic": "mean", "q": None, "observed": report.mean_exposure,
             "exact": expected_exposure_exact(report.n),
             "asymptotic": expected_exposure_asymptote(), "p_value": None}]
    for q, observed in report.quantile_exposures.items():
        rows.append({"statistic": "quantile", "q": q, "observed": observed,
                     "exact": None, "asymptotic": baseline_quantile_exposure(q),
                     "p_value": quantile_p_value(report.ranks, report.n, q)})
    return rows


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _bound_rows(result: AuditResult) -> list[dict]:
    rows = []
    for outcome in result.outcomes:
        for bound in ([outcome.bound] if outcome.per_example_bound is None
                      else [outcome.bound, outcome.per_example_bound]):
            rows.append(
                {
                    "operating_point": outcome.operating_point,
                    "threshold": _finite_or_none(outcome.mi.threshold),
                    "tpr": outcome.mi.tpr,
                    "fpr": outcome.mi.fpr,
                    "canary_hits": outcome.mi.canary_hits,
                    "reference_hits": outcome.mi.reference_hits,
                    "point_estimate": _finite_or_none(bound.point_estimate),
                    "confident_lower_bound": bound.confident_lower_bound,
                    "confidence": bound.confidence,
                    "alpha_split": list(bound.alpha_split),
                    "tpr_lower": bound.tpr_lower,
                    "fpr_upper": bound.fpr_upper,
                    "replications": bound.replications,
                    "per_example": bound.per_example,
                }
            )
    return rows


def build_report(
    d: AuditDataset, result: AuditResult, histogram_bins: int | None = None
) -> dict:
    """Assemble the full audit report document as JSON-ready primitives."""
    report = result.exposure_report
    warnings = [INDEPENDENCE_NOTICE]
    warnings += [o.warning for o in result.outcomes if o.warning is not None]
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "dataset": dataset_summary(d),
        "parameters": {
            "confidence": result.confidence,
            "tie_policy": result.tie_policy,
            "operating_points": [o.operating_point for o in result.outcomes],
        },
        "exposure": {
            "m": report.m,
            "n": report.n,
            "mean_exposure": report.mean_exposure,
            "quantile_exposures": {str(q): v for q, v in report.quantile_exposures.items()},
            "epsilon_from_median_exposure": epsilon_from_median_exposure(
                report.quantile_exposures[0.5]),
            "per_canary": {
                "id": None if d.canary_ids is None else list(d.canary_ids),
                "loss": d.canary_losses.tolist(),
                "rank": report.ranks.tolist(),
                "exposure": report.exposures.tolist(),
            },
        },
        "baselines": _baseline_rows(report),
        "epsilon_bounds": _bound_rows(result),
        "warnings": warnings,
        "histogram": _histogram(report.exposures, d.n, histogram_bins),
    }


def render_json(document: dict) -> str:
    return json.dumps(document, allow_nan=False) + "\n"


def _fmt(value) -> str:
    # json.dumps of a scalar reproduces exactly the token the JSON
    # rendering contains, keeping Markdown numbers verbatim-checkable.
    return json.dumps(value)


def _cell(text: str) -> str:
    """Text as one Markdown table cell: backslashes and pipes escaped, and
    each line break written as <br>, so it stays one cell of one row."""
    text = text.replace("\\", "\\\\").replace("|", "\\|").replace("\r\n", "\n")
    return text.replace("\r", "\n").replace("\n", "<br>")


def _canary_columns(document: dict):
    """index, id, loss, rank, exposure and empirical_fpr columns; the first
    two are endless. Python's int/int division rounds (rank - 1)/n to the
    same double as ``ExposureReport.empirical_fprs``."""
    columns = document["exposure"]["per_canary"]
    n = document["exposure"]["n"]
    ids = itertools.repeat(None) if columns["id"] is None else columns["id"]
    return (itertools.count(), ids, columns["loss"], columns["rank"],
            columns["exposure"], ((rank - 1) / n for rank in columns["rank"]))


def render_markdown(document: dict, max_canary_rows: int = 20) -> str:
    """Human-readable rendering of a report document."""
    out = io.StringIO()
    ds = document["dataset"]
    out.write("# Canary exposure audit\n\n")
    out.write(f"tool version {document['tool_version']}, ")
    out.write(f"schema version {_fmt(document['schema_version'])}\n\n")

    out.write("## Dataset\n\n")
    out.write(f"- canaries (m): {_fmt(ds['m'])}\n")
    out.write(f"- references (n): {_fmt(ds['n'])}\n")
    out.write(f"- canary replications: {_fmt(ds['replications'])}\n")
    for role in ("canary_loss", "reference_loss"):
        stats = ds[role]
        out.write(
            f"- {role.replace('_', ' ')}: min {_fmt(stats['min'])}, "
            f"max {_fmt(stats['max'])}, mean {_fmt(stats['mean'])}\n"
        )

    out.write("\n## Exposure vs. random guessing\n\n")
    out.write("| statistic | observed | exact baseline | asymptotic baseline "
              "| p-value |\n")
    out.write("|---|---|---|---|---|\n")
    for row in document["baselines"]:
        name = row["statistic"] if row["q"] is None else f"quantile {_fmt(row['q'])}"
        exact, p_value = ("-" if row[key] is None else _fmt(row[key])
                          for key in ("exact", "p_value"))
        out.write(f"| {name} | {_fmt(row['observed'])} | {exact} "
                  f"| {_fmt(row['asymptotic'])} | {p_value} |\n")
    out.write(
        "\nepsilon from median exposure, ln(2) * (median exposure - 1), "
        f"tie policy {document['parameters']['tie_policy']}: "
        f"{_fmt(document['exposure']['epsilon_from_median_exposure'])}\n"
    )

    out.write("\n## Epsilon lower bounds\n\n")
    out.write("| operating point | per-example | point estimate "
              "| confident lower bound | confidence | tpr | fpr |\n")
    out.write("|---|---|---|---|---|---|---|\n")
    for row in document["epsilon_bounds"]:
        out.write(
            f"| {row['operating_point']} | {_fmt(row['per_example'])} "
            f"| {_fmt(row['point_estimate'])} "
            f"| {_fmt(row['confident_lower_bound'])} | {_fmt(row['confidence'])} "
            f"| {_fmt(row['tpr'])} | {_fmt(row['fpr'])} |\n"
        )

    out.write("\n## Warnings\n\n")
    for warning in document["warnings"]:
        out.write(f"- {warning}\n")

    hist = document["histogram"]
    out.write("\n## Exposure histogram\n\n")
    out.write("| bin | count |\n|---|---|\n")
    for i, count in enumerate(hist["counts"]):
        lo, hi = hist["bin_edges"][i], hist["bin_edges"][i + 1]
        out.write(f"| [{_fmt(lo)}, {_fmt(hi)}] | {_fmt(count)} |\n")

    out.write("\n## Per-canary exposure\n\n")
    out.write("| index | id | loss | rank | exposure | empirical fpr |\n")
    out.write("|---|---|---|---|---|---|\n")
    rows = itertools.islice(zip(*_canary_columns(document)), max_canary_rows)
    for index, rec_id, loss, rank, exposure, fpr in rows:
        rec_id = "-" if rec_id is None else _cell(rec_id)
        out.write(
            f"| {_fmt(index)} | {rec_id} | {_fmt(loss)} "
            f"| {_fmt(rank)} | {_fmt(exposure)} | {_fmt(fpr)} |\n"
        )
    if document["exposure"]["m"] > max_canary_rows:
        out.write("\n(table truncated; the JSON report carries every row)\n")
    return out.getvalue()


def render_csv(document: dict) -> str:
    """Per-canary exposure table as CSV (plot-ready)."""
    index, ids, losses, ranks, exposures, fprs = _canary_columns(document)
    replications = itertools.repeat(str(document["dataset"]["replications"]))
    return _csv_text(
        ("index", "id", "loss", "replications", "rank", "exposure", "empirical_fpr"),
        (map(str, index), map(_csv_field, ids), map(repr, losses), replications,
         map(str, ranks), map(repr, exposures), map(repr, fprs)))
