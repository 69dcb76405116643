"""Loss-threshold membership inference against an audit dataset.

The attack classifies an example as a training member when its loss is
strictly below a threshold. Its true positive rate is the fraction of
canaries so classified; its false positive rate is the fraction of
references. Sweeping the threshold over every distinct loss traces the
attack's full ROC curve, a ``RocCurve`` of aligned arrays, and
``operating_points`` is the one reader of named points on that curve.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .exposure import exposure_quantile
from .ingest import AuditDataset, _csv_text, _real, _sequence, _unit_interval


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


def _attack(d: AuditDataset, thresholds) -> list[MIResult]:
    """The attack at each threshold: the one evaluator, one search per role."""
    canary_hits = _hits(d.sorted_canary_losses, thresholds)
    reference_hits = _hits(d.sorted_reference_losses, thresholds)
    return [MIResult(float(t), int(c), int(r), d.m, d.n)
            for t, c, r in zip(thresholds, canary_hits, reference_hits)]


def threshold_attack(d: AuditDataset, threshold: float) -> MIResult:
    """Classify every record with loss < threshold as a member.

    A canary with replications k still contributes a single sample to the
    TPR; duplication enters only through the group-privacy adjustment of
    the final epsilon bound.
    """
    return _attack(d, [_real(threshold, "threshold", finite=True)])[0]


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


def _threshold(canaries: np.ndarray, references: np.ndarray, point) -> float:
    """The threshold of one operating point (see ``operating_points``)."""
    if point == "median":
        return exposure_quantile(canaries, 0.5)
    if not isinstance(point, numbers.Real) or isinstance(point, bool):
        raise ValueError(f"operating point must be 'median' or an fpr target, got {point!r}")
    target = float(point)
    _unit_interval(target, "fpr target", closed=True)
    n = references.size
    # k: the most references a point may catch, i.e. the largest k with
    # k / n <= target, compared in float as fpr is.
    k = bisect_right(range(n + 1), target, key=lambda j: j / n) - 1
    # That point catches the h canaries below references[k] (all m when
    # k = n). The first sweep point to do so is the next pooled loss above
    # canaries[h - 1], a reference, as canaries[h] >= references[k].
    h = canaries.size if k == n else np.searchsorted(canaries, references[k])
    if h == 0:
        return -math.inf
    j = np.searchsorted(references, canaries[h - 1], side="right")
    return float(references[j]) if j < n else math.inf


def operating_points(d: AuditDataset, points) -> list[MIResult]:
    """The attack at each operating point in ``points``, in request order.

    A point is ``"median"``, the nearest-rank lower median of the canary
    losses: a canary's loss, so the TPR there is at most (ceil(m/2) - 1)/m.
    Or it is an FPR target, a real number in [0, 1] but not a bool: the
    point of ``roc(d)`` with the largest tpr at fpr <= target, the smaller
    fpr on ties, found by binary search. It carries the achieved fpr, and
    the classify-nothing endpoint (threshold -inf) always qualifies.
    Anything else, a bare point instead of a sequence included, raises
    ``ValueError``. All thresholds are counted at once, one search per
    role, so every result's counts are the attack's at its own threshold.
    ``points`` is read once.
    """
    canaries = d.sorted_canary_losses
    references = d.sorted_reference_losses
    return _attack(d, [_threshold(canaries, references, point)
                       for point in _sequence(points, "operating points")])


def _rate_cells(hits: np.ndarray, total: int):
    """repr(hits[i] / total) per point, formatting each distinct count's rate
    once per chunk of 65536 points, so no list spans the whole sweep.
    ``(counts / total)[j]`` is the same division as every such point's rate."""
    def chunk_cells(chunk):
        counts, inverse = np.unique(chunk, return_inverse=True)
        cells = list(map(repr, (counts / total).tolist()))
        return map(cells.__getitem__, inverse.tolist())
    step = 1 << 16
    return chain.from_iterable(map(chunk_cells, np.split(hits, range(step, hits.size, step))))


def roc_to_csv(curve: RocCurve) -> str:
    """Serialize a threshold sweep as ``threshold,fpr,tpr`` rows."""
    # tolist() gives Python floats: their repr round-trips, while numpy 2
    # writes np.float64(...) for a numpy scalar.
    return _csv_text(("threshold", "fpr", "tpr"),
                     [map(repr, curve.threshold.tolist()),
                      _rate_cells(curve.reference_hits, curve.n),
                      _rate_cells(curve.canary_hits, curve.m)])
