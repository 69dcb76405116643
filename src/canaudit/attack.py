"""Loss-threshold membership inference against an audit dataset.

The attack classifies an example as a training member when its loss is
strictly below a threshold. Its true positive rate is the fraction of
canaries so classified; its false positive rate is the fraction of
references. Sweeping the threshold over every distinct loss traces the
attack's full ROC curve, a ``RocCurve`` of aligned arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .exposure import exposure_quantile
from .ingest import AuditDataset, _csv_text


class _Rates:
    """tpr and fpr, derived from hit counts the same way for one point or many."""

    @property
    def tpr(self):
        return self.canary_hits / self.m

    @property
    def fpr(self):
        return self.reference_hits / self.n


@dataclass(frozen=True)
class MIResult(_Rates):
    """Operating point of the threshold attack: counts and rates."""

    threshold: float
    canary_hits: int
    reference_hits: int
    m: int
    n: int


@dataclass(frozen=True, eq=False)
class RocCurve(_Rates):
    """The full threshold sweep as aligned columns, one entry per point.

    Thresholds ascend; ``canary_hits`` and ``reference_hits`` count the
    canaries and references with loss strictly below each threshold.
    """

    threshold: np.ndarray
    canary_hits: np.ndarray
    reference_hits: np.ndarray
    m: int
    n: int

    def __len__(self) -> int:
        return self.threshold.size


def _hits(sorted_losses: np.ndarray, threshold):
    """How many losses lie strictly below ``threshold`` (elementwise for arrays)."""
    return np.searchsorted(sorted_losses, threshold, side="left")


def threshold_attack(d: AuditDataset, threshold: float) -> MIResult:
    """Classify every record with loss < threshold as a member.

    A canary with replications k still contributes a single sample to the
    TPR; duplication enters only through the group-privacy adjustment of
    the final epsilon bound.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    canary_hits = _hits(d.sorted_canary_losses, threshold)
    reference_hits = _hits(d.sorted_reference_losses, threshold)
    return MIResult(float(threshold), int(canary_hits), int(reference_hits), d.m, d.n)


def median_threshold(d: AuditDataset) -> float:
    """The nearest-rank lower median of the canary losses.

    Always an actual canary's loss. The attack at this threshold counts
    losses strictly below it, so it catches ceil(m/2) - 1 canaries when
    no other canary ties the median loss (fewer when one does): its TPR
    is below 1/2.
    """
    return exposure_quantile(d.sorted_canary_losses, 0.5)


def roc(d: AuditDataset) -> RocCurve:
    """Full threshold sweep: one operating point per distinct loss.

    Thresholds ascend over every distinct loss in the pooled dataset,
    bracketed by the two degenerate endpoints (classify nothing / classify
    everything), so tpr and fpr are non-decreasing along the curve.
    """
    canaries = d.sorted_canary_losses
    references = d.sorted_reference_losses
    distinct = np.unique(np.concatenate([canaries, references]))
    thresholds = np.concatenate([[-np.inf], distinct, [np.inf]])
    return RocCurve(
        threshold=thresholds,
        canary_hits=_hits(canaries, thresholds),
        reference_hits=_hits(references, thresholds),
        m=d.m,
        n=d.n,
    )


def tpr_at_fpr(d: AuditDataset, target_fpr: float) -> MIResult:
    """Best operating point with false positive rate at most ``target_fpr``.

    Maximizes tpr subject to fpr <= target_fpr, breaking ties toward the
    smaller fpr; the returned point carries the achieved (not the target)
    fpr. The classify-nothing endpoint always qualifies, so the result is
    defined even at target_fpr = 0. This is the point of ``roc(d)`` that a
    scan would pick, found by binary search without building the sweep.
    """
    if not 0.0 <= target_fpr <= 1.0:
        raise ValueError(f"target_fpr must be in [0, 1], got {target_fpr}")
    canaries = d.sorted_canary_losses
    references = d.sorted_reference_losses
    # k: the most references a point may catch, i.e. the largest k with
    # k / n <= target_fpr, compared in float as fpr is.
    k = bisect_right(range(d.n + 1), target_fpr, key=lambda j: j / d.n) - 1
    # A threshold t catches at most k references iff t <= references[k];
    # the most canaries such a threshold catches is the count below it.
    h = d.m if k == d.n else int(_hits(canaries, references[k]))
    if h == 0:
        return MIResult(-math.inf, 0, 0, d.m, d.n)
    # The first sweep point catching h canaries is the smallest pooled
    # loss above the h-th smallest canary (canaries[h] lies above it, as
    # it is >= references[k]); it catches every reference up to that loss.
    reference_hits = int(np.searchsorted(references, canaries[h - 1], side="right"))
    threshold = min(
        canaries[h] if h < d.m else math.inf,
        references[reference_hits] if reference_hits < d.n else math.inf,
    )
    return MIResult(float(threshold), h, reference_hits, d.m, d.n)


def roc_to_csv(curve: RocCurve) -> str:
    """Serialize a threshold sweep as ``threshold,fpr,tpr`` rows."""
    # tolist() gives Python floats: their repr round-trips, while numpy 2
    # writes np.float64(...) for a numpy scalar.
    return _csv_text(("threshold", "fpr", "tpr"),
                     [map(repr, column.tolist())
                      for column in (curve.threshold, curve.fpr, curve.tpr)])
