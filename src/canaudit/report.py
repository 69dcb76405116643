"""Audit report documents: plot-ready JSON, Markdown, and CSV renderings.

The JSON document is the single source of truth; the Markdown rendering
formats values straight out of the document (via ``json.dumps`` per
value), so every number in the Markdown appears verbatim in the JSON and
nothing is ever computed twice. The exceptions are each canary's
exposure, log2(n) - log2(rank), and empirical FPR, (rank - 1)/n, which
the JSON leaves out and the Markdown and CSV renderings derive from its
rank. One writer, ``_table``, lays out every Markdown table.

An ``epsilon_bounds`` row is one of ``AuditResult.outcomes``: its operating
point and counts, then every ``EpsilonBound`` field in declaration order
(inf as null), so a new field is a schema change. The rows share
``parameters.confidence`` and ``dataset.replications``.

Per-canary values are stored as columns; the JSON is strict (null for inf)
and compact, one line (``jq .`` indents it). The CSV quotes ids by the
dataset writer's rule (``ingest._csv_field``).

Each ``baselines`` row holds an exposure aggregate, its ``exact``
(finite-n, mean only) and ``asymptotic`` random-guessing values, and a
``p_value`` under the permutation null (``baseline.quantile_p_value``),
conservative on tied losses because ties raise ranks. The mean has none:
its null has no closed form, and a normal approximation rejects too
often at small m.
"""

from __future__ import annotations

import io
import itertools
import json
import math

import numpy as np

from . import __version__
from .audit import AuditResult, epsilon_from_median_exposure
from .baseline import (baseline_quantile_exposure, expected_exposure_asymptote,
                       expected_exposure_exact, quantile_p_value)
from .exposure import ExposureReport, _exposure
from .ingest import AuditDataset, _csv_field, _csv_text, dataset_summary

SCHEMA_VERSION = 8
# The Markdown lists the first this many canaries; the JSON and CSV list every one.
_MARKDOWN_CANARY_ROWS = 20


def _histogram(exposures: np.ndarray, n: int) -> dict:
    # Width-0.5 bins from exposure(rank n+1), the least, up to or past exposure(rank 1).
    lo, hi = _exposure(np.array([n + 1, 1]), n)
    edges = lo + 0.5 * np.arange(max(1, math.ceil(2.0 * (hi - lo))) + 1)
    counts, _ = np.histogram(exposures, bins=edges)
    return {"bin_edges": edges.tolist(), "counts": counts.tolist()}


def _baseline_rows(report: ExposureReport, n: int) -> list[dict]:
    rows = [{"statistic": "mean", "q": None, "observed": report.mean_exposure,
             "exact": expected_exposure_exact(n),
             "asymptotic": expected_exposure_asymptote(), "p_value": None}]
    for q, observed in report.quantile_exposures.items():
        rows.append({"statistic": "quantile", "q": q, "observed": observed,
                     "exact": None, "asymptotic": baseline_quantile_exposure(q),
                     "p_value": quantile_p_value(report.ranks, n, q)})
    return rows


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _bound_rows(result: AuditResult) -> list[dict]:
    """Per row of ``AuditResult.outcomes``: its attack's operating point and
    counts, then the bound's fields in declaration order."""
    return [{"operating_point": outcome.operating_point,
             "threshold": _finite_or_none(outcome.mi.threshold), "tpr": outcome.mi.tpr,
             "fpr": outcome.mi.fpr, "canary_hits": outcome.mi.canary_hits,
             "reference_hits": outcome.mi.reference_hits, **vars(outcome.bound),
             "point_estimate": _finite_or_none(outcome.bound.point_estimate)}
            for outcome in result.outcomes]


def build_report(d: AuditDataset, result: AuditResult) -> dict:
    """Assemble the full audit report document as JSON-ready primitives."""
    report = result.exposure_report
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "dataset": dataset_summary(d),
        "parameters": {
            "confidence": result.confidence,
            "operating_points": [o.operating_point for o in result.outcomes
                                 if not o.bound.per_example],
        },
        "exposure": {
            "m": d.m,
            "n": d.n,
            "mean_exposure": report.mean_exposure,
            "quantile_exposures": {str(q): v for q, v in report.quantile_exposures.items()},
            "epsilon_from_median_exposure": epsilon_from_median_exposure(
                report.quantile_exposures[0.5]),
            "per_canary": {"id": None if d.canary_ids is None else list(d.canary_ids),
                           "rank": report.ranks.tolist()},
        },
        "baselines": _baseline_rows(report, d.n),
        "epsilon_bounds": _bound_rows(result),
        "warnings": list(result.warnings),
        "histogram": _histogram(report.exposures, d.n),
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


def _canary_columns(document: dict, rows: int | None = None):
    """index, id, rank, exposure and empirical_fpr of the first ``rows`` canaries (all
    if None); index and id are endless. ``_exposure`` of the int64 ranks gives the doubles
    of ``ExposureReport.exposures``; int/int (rank - 1)/n is the one empirical FPR."""
    ranks = list(itertools.islice(document["exposure"]["per_canary"]["rank"], rows))
    n = document["exposure"]["n"]
    ids = document["exposure"]["per_canary"]["id"] or itertools.repeat(None)
    return (itertools.count(), ids, ranks, _exposure(np.array(ranks, np.int64), n).tolist(),
            ((rank - 1) / n for rank in ranks))


def _opt(value) -> str:
    return "-" if value is None else _fmt(value)


def _table(out: io.StringIO, header: tuple[str, ...], rows) -> None:
    """A Markdown table: the header line, its rule, then a line per list of cells."""
    out.write(f"| {' | '.join(header)} |\n|{'---|' * len(header)}\n")
    for cells in rows:
        out.write(f"| {' | '.join(cells)} |\n")


def render_markdown(document: dict) -> str:
    """Human-readable rendering of a report document."""
    out = io.StringIO()
    ds = document["dataset"]
    out.write(f"# Canary exposure audit\n\ntool version {document['tool_version']}, "
              f"schema version {_fmt(document['schema_version'])}\n\n")
    out.write(f"## Dataset\n\n- canaries (m): {_fmt(ds['m'])}\n"
              f"- references (n): {_fmt(ds['n'])}\n"
              f"- canary replications: {_fmt(ds['replications'])}\n")
    for role in ("canary_loss", "reference_loss"):
        stats = ds[role]
        out.write(f"- {role.replace('_', ' ')}: min {_fmt(stats['min'])}, "
                  f"max {_fmt(stats['max'])}, mean {_fmt(stats['mean'])}\n")

    out.write("\n## Exposure vs. random guessing\n\n")
    _table(out, ("statistic", "observed", "exact baseline", "asymptotic baseline", "p-value"),
           ([row["statistic"] if row["q"] is None else f"quantile {_fmt(row['q'])}",
             _fmt(row["observed"]), _opt(row["exact"]), _fmt(row["asymptotic"]),
             _opt(row["p_value"])] for row in document["baselines"]))
    out.write("\nepsilon from median exposure, ln(2) * (median exposure - 1): "
              f"{_fmt(document['exposure']['epsilon_from_median_exposure'])}\n")

    out.write("\n## Epsilon lower bounds\n\n"
              f"confidence {_fmt(document['parameters']['confidence'])}, "
              "each Clopper-Pearson side at (1 - confidence)/2\n\n")
    keys = ("per_example", "point_estimate", "confident_lower_bound", "tpr", "fpr")
    _table(out, ("operating point", "per-example", "point estimate", "confident lower bound",
                 "tpr", "fpr"),
           ([row["operating_point"], *(_fmt(row[key]) for key in keys)]
            for row in document["epsilon_bounds"]))

    out.write("\n## Warnings\n\n")
    out.writelines(f"- {warning}\n" for warning in document["warnings"])

    edges, counts = document["histogram"]["bin_edges"], document["histogram"]["counts"]
    out.write("\n## Exposure histogram\n\n")
    _table(out, ("bin", "count"), ([f"[{_fmt(lo)}, {_fmt(hi)}]", _fmt(count)]
                                   for lo, hi, count in zip(edges, edges[1:], counts)))

    out.write("\n## Per-canary exposure\n\n")
    rows = zip(*_canary_columns(document, _MARKDOWN_CANARY_ROWS))
    _table(out, ("index", "id", "rank", "exposure", "empirical fpr"),
           ([_fmt(index), "-" if rec_id is None else _cell(rec_id), *map(_fmt, values)]
            for index, rec_id, *values in rows))
    if document["exposure"]["m"] > _MARKDOWN_CANARY_ROWS:
        out.write("\n(table truncated; the JSON report carries every row)\n")
    return out.getvalue()


def render_csv(document: dict) -> str:
    """Per-canary exposure table as CSV (plot-ready)."""
    index, ids, ranks, exposures, fprs = _canary_columns(document)
    replications = itertools.repeat(str(document["dataset"]["replications"]))
    return _csv_text(
        ("index", "id", "replications", "rank", "exposure", "empirical_fpr"),
        (map(str, index), map(_csv_field, ids), replications,
         map(str, ranks), map(repr, exposures), map(repr, fprs)))
