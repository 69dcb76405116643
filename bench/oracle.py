"""Independent expectations for the CLI's outputs, and the checks against them.

Nothing here imports canaudit. Ranks and attack counts come from numpy
sort/searchsorted, certified bounds from ``scipy.special.betaincinv``.
The checks read only fields whose meaning the report keeps: m, n, the mean
exposure and the FPR-target rows' hits and certified bound. They skip the
median row and the per-canary layout, which are expected to be redefined.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy.special import betaincinv

REL_TOL = 1e-9


class CheckError(Exception):
    """An output disagrees with the oracle."""


def fpr_label(target: float) -> str:
    return f"fpr_target={target:g}"


def _max_reference_hits(target: float, n: int) -> int:
    """Largest k with k / n <= target, compared in float as the attack does."""
    k = min(n, int(math.floor(target * n)))
    while k < n and (k + 1) / n <= target:
        k += 1
    while k > 0 and k / n > target:
        k -= 1
    return k


def _certified_bound(canary_hits: int, m: int, reference_hits: int, n: int,
                     confidence: float) -> float:
    half_alpha = (1.0 - confidence) / 2.0
    if canary_hits == 0:
        return 0.0
    tpr_lower = float(betaincinv(canary_hits, m - canary_hits + 1, half_alpha))
    fpr_upper = 1.0 if reference_hits == n else float(
        betaincinv(reference_hits + 1, n - reference_hits, 1.0 - half_alpha))
    return max(0.0, math.log(tpr_lower / fpr_upper))


def audit_expectation(canaries: np.ndarray, references: np.ndarray,
                      fpr_targets, confidence: float = 0.95) -> dict:
    """What a pessimistic-tie audit of these losses must report.

    The best attack with fpr <= target thresholds at the (k+1)-th smallest
    reference, k the largest admissible reference-hit count; among points
    with that tpr the smallest fpr is the one just above the h-th smallest
    canary.
    """
    c = np.sort(canaries)
    r = np.sort(references)
    m, n = c.size, r.size
    ranks = np.searchsorted(r, canaries, side="right") + 1
    rows = {}
    for target in fpr_targets:
        k_max = _max_reference_hits(target, n)
        h = m if k_max == n else int(np.searchsorted(c, r[k_max], side="left"))
        k = 0 if h == 0 else int(np.searchsorted(r, c[h - 1], side="right"))
        rows[fpr_label(target)] = {
            "canary_hits": h,
            "reference_hits": k,
            "confident_lower_bound": _certified_bound(h, m, k, n, confidence),
        }
    return {
        "m": m,
        "n": n,
        "mean_exposure": float(np.mean(np.log2(n) - np.log2(ranks))),
        "rows": rows,
    }


def _close(name: str, got: float, want: float) -> None:
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
        raise CheckError(f"{name}: got {got!r}, expected {want!r}")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{name}: got {got!r}, expected {want!r}")


def check_audit_json(text: str, exp: dict) -> None:
    doc = json.loads(text)
    exposure = doc["exposure"]
    _equal("m", exposure["m"], exp["m"])
    _equal("n", exposure["n"], exp["n"])
    _close("mean_exposure", exposure["mean_exposure"], exp["mean_exposure"])
    rows = {row["operating_point"]: row for row in doc["epsilon_bounds"]
            if not row["per_example"]}
    for label, want in exp["rows"].items():
        if label not in rows:
            raise CheckError(f"no epsilon bound row {label!r}")
        row = rows[label]
        _equal(f"{label} canary_hits", row["canary_hits"], want["canary_hits"])
        _equal(f"{label} reference_hits", row["reference_hits"], want["reference_hits"])
        _close(f"{label} confident_lower_bound", row["confident_lower_bound"],
               want["confident_lower_bound"])


def _markdown_tables(text: str) -> list[list[dict]]:
    """Every pipe table in a Markdown document, as rows keyed by header."""
    lines = text.splitlines()
    tables = []
    for i in range(len(lines) - 1):
        if lines[i].startswith("|") and re.fullmatch(r"\|(-+\|)+", lines[i + 1]):
            header = [cell.strip() for cell in lines[i].strip("|").split("|")]
            rows = []
            for line in lines[i + 2:]:
                if not line.startswith("|"):
                    break
                cells = [cell.strip() for cell in line.strip("|").split("|")]
                rows.append(dict(zip(header, cells)))
            tables.append(rows)
    return tables


def _count_from_rate(name: str, rate: float, total: int) -> int:
    count = round(rate * total)
    if abs(count - rate * total) > 1e-6 * max(1, total):
        raise CheckError(f"{name}: rate {rate!r} is not a multiple of 1/{total}")
    return count


def check_audit_markdown(text: str, exp: dict) -> None:
    m = re.search(r"^- canaries \(m\): (\d+)$", text, re.M)
    n = re.search(r"^- references \(n\): (\d+)$", text, re.M)
    if m is None or n is None:
        raise CheckError("dataset m/n lines missing")
    _equal("m", int(m.group(1)), exp["m"])
    _equal("n", int(n.group(1)), exp["n"])
    rows = [row for table in _markdown_tables(text) for row in table]
    mean = [row for row in rows if row.get("statistic") == "mean"]
    if not mean:
        raise CheckError("no mean exposure row")
    _close("mean_exposure", float(mean[0]["observed"]), exp["mean_exposure"])
    bounds = {row["operating point"]: row for row in rows
              if "operating point" in row and row.get("per-example") == "false"}
    for label, want in exp["rows"].items():
        if label not in bounds:
            raise CheckError(f"no epsilon bound row {label!r}")
        row = bounds[label]
        hits = _count_from_rate(f"{label} tpr", float(row["tpr"]), exp["m"])
        refs = _count_from_rate(f"{label} fpr", float(row["fpr"]), exp["n"])
        _equal(f"{label} canary_hits", hits, want["canary_hits"])
        _equal(f"{label} reference_hits", refs, want["reference_hits"])
        _close(f"{label} confident_lower_bound",
               float(row["confident lower bound"]), want["confident_lower_bound"])


def check_sweep(dataset_text: str, roc_text: str, m: int, n: int) -> None:
    """A simulated loss file holds m canaries and n references, and its ROC
    has one row per distinct loss plus the two endpoints."""
    lines = dataset_text.splitlines()
    _equal("dataset header", lines[0], "role,loss")
    rows = [line.split(",") for line in lines[1:] if line]
    roles = [row[0] for row in rows]
    _equal("canaries", roles.count("canary"), m)
    _equal("references", roles.count("reference"), n)
    distinct = np.unique(np.array([float(row[1]) for row in rows]))

    lines = roc_text.splitlines()
    _equal("roc header", lines[0], "threshold,fpr,tpr")
    points = [tuple(float(x) for x in line.split(",")) for line in lines[1:] if line]
    _equal("roc rows", len(points), distinct.size + 2)
    _equal("first roc point", points[0], (-math.inf, 0.0, 0.0))
    _equal("last roc point", points[-1], (math.inf, 1.0, 1.0))
    if not np.array_equal(np.array([p[0] for p in points[1:-1]]), distinct):
        raise CheckError("roc thresholds are not the sorted distinct losses")
