"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's sorted/binary-search
code paths: ranks and attack counts come from linear scans, binomial
CDFs from exact math.comb summation. Only the final log2 formula is
shared, so counting logic is verified independently.
"""

from __future__ import annotations

import csv
import io
import json
import math
from math import comb

import numpy as np
from hypothesis import settings

from canaudit import AuditDataset

# The same examples on every run, and no deadline on a loaded host.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def make_dataset(canary_losses, reference_losses, replications=1, ids=None):
    return AuditDataset(
        canary_losses=canary_losses,
        reference_losses=reference_losses,
        canary_ids=ids,
        replications=replications,
    )


def csv_writer_serialize(d: AuditDataset) -> str:
    """A dataset as CSV through csv.writer, the way serialize_dataset once wrote it.

    csv.writer leaves an id holding "\r" unquoted, which parse_dataset then
    rejects; for every other dataset this is the reference output.
    """
    with_id = d.canary_ids is not None or d.reference_ids is not None
    with_reps = d.replications != 1
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["role", "loss"] + (["id"] if with_id else [])
                    + (["replications"] if with_reps else []))
    for role, losses, ids, reps in (
        ("canary", d.canary_losses, d.canary_ids, d.replications),
        ("reference", d.reference_losses, d.reference_ids, 1),
    ):
        for loss, rec_id in zip(losses.tolist(), ids or (None,) * losses.size):
            row = [role, repr(loss)]
            if with_id:
                row.append(rec_id if rec_id is not None else "")
            if with_reps:
                row.append(str(reps))
            writer.writerow(row)
    return buf.getvalue()


def json_dumps_serialize(d: AuditDataset) -> str:
    """A dataset as JSONL through one dict and json.dumps per row, the way
    serialize_dataset once wrote it."""
    lines = []
    for role, losses, ids, reps in (
        ("canary", d.canary_losses, d.canary_ids, d.replications),
        ("reference", d.reference_losses, d.reference_ids, 1),
    ):
        for loss, rec_id in zip(losses.tolist(), ids or (None,) * losses.size):
            obj = {"role": role, "loss": loss}
            if rec_id is not None:
                obj["id"] = rec_id
            if reps != 1:
                obj["replications"] = reps
            lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


def brute_rank(loss, reference_losses):
    return 1 + sum(1 for r in reference_losses if r <= loss)


def brute_exposure(loss, reference_losses):
    n = len(reference_losses)
    r = brute_rank(loss, reference_losses)
    return float(np.log2(n) - np.log2(r))


def brute_roc(d: AuditDataset):
    """All-pairs threshold sweep with linear counting.

    Returns (threshold, canary_hits, reference_hits) tuples in the same
    order the library produces.
    """
    canaries = d.canary_losses.tolist()
    references = d.reference_losses.tolist()
    thresholds = [-math.inf] + sorted(set(canaries + references)) + [math.inf]
    points = []
    for t in thresholds:
        ch = sum(1 for loss in canaries if loss < t)
        rh = sum(1 for loss in references if loss < t)
        points.append((t, ch, rh))
    return points


def scan_tpr_at_fpr(d: AuditDataset, target_fpr: float):
    """Reference for an FPR-target operating point: scan the whole
    threshold sweep in order.

    Keeps the first point with the largest tpr among those with
    fpr <= target_fpr, as (threshold, canary_hits, reference_hits).
    """
    best = None
    for t, ch, rh in brute_roc(d):
        if rh / d.n <= target_fpr and (best is None or ch / d.m > best[1] / d.m):
            best = (t, ch, rh)
    return best


def binom_cdf(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) <= k] by exact term summation."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    return math.fsum(comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def comb_quantile_p_value(ranks, n: int, q: float) -> float:
    """P[k-th smallest canary rank <= observed] over all interleavings of the
    m canaries among the n references, by exact math.comb summation; k is
    the rank behind the q-quantile exposure."""
    m = len(ranks)
    k = m - math.ceil(q * m) + 1
    draws = k + sorted(ranks)[k - 1] - 1  # the first positions hold >= k canaries
    hits = sum(comb(m, i) * comb(n, draws - i) for i in range(k, min(m, draws) + 1))
    return hits / comb(m + n, draws)  # int / int rounds correctly


def grid_clopper_pearson(k: int, n: int, alpha: float, side: str, step: float = 1e-6):
    """Clopper-Pearson bound located on a uniform p-grid.

    Scans the grid for the boundary point of the (monotone) defining
    predicate; binary search over grid indices returns exactly the point
    a linear scan would.
    """
    last = int(round(1.0 / step))
    if side == "lower":
        if k == 0:
            return 0.0
        lo, hi = 0, last  # predicate P[Bin >= k] >= alpha: false at 0, true at 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if 1.0 - binom_cdf(k - 1, n, mid * step) >= alpha:
                hi = mid
            else:
                lo = mid
        return hi * step
    if k == n:
        return 1.0
    lo, hi = 0, last  # predicate P[Bin <= k] >= alpha: true at 0, false at 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom_cdf(k, n, mid * step) >= alpha:
            lo = mid
        else:
            hi = mid
    return lo * step


def random_instance(rng: np.random.Generator, max_size: int = 50, tie_prob: float = 0.5):
    """A random small dataset, with ties likely (losses from a coarse grid)."""
    m = int(rng.integers(1, max_size + 1))
    n = int(rng.integers(1, max_size + 1))
    if rng.random() < tie_prob:
        canaries = rng.integers(-5, 6, size=m) / 2.0
        references = rng.integers(-5, 6, size=n) / 2.0
    else:
        canaries = rng.normal(size=m)
        references = rng.normal(size=n)
    return make_dataset(canaries, references)
