"""Rank and exposure of canaries against a reference loss set.

A canary's rank is 1 + #{references with loss <= the canary's}, so it
runs from 1 (below every reference) to n+1 (at or above every reference).
Exposure rescales rank to bits:

    exposure = log2(n) - log2(rank)

which is maximal, log2(n), at rank 1 and slightly negative,
log2(n) - log2(n+1), at rank n+1.

A reference that ties the canary's loss counts against the canary. Ties
only raise ranks, so exposure and the p-values read from ranks stay
conservative on tied (rounded, bf16) losses: leakage is never
over-claimed.

``exposure_all`` returns every canary's rank and exposure as arrays, in
canary order. Its q-quantile exposures, the p-values of ``quantile_p_value``
and the null of ``exact_baseline`` all read the one rank that
``_quantile_rank`` names.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .ingest import AuditDataset, _column, _real

@dataclass(frozen=True, eq=False)
class ExposureReport:
    """Per-canary ranks and exposures (bits), in canary order, plus aggregates."""

    ranks: np.ndarray
    exposures: np.ndarray
    mean_exposure: float
    quantile_exposures: dict[float, float]


def _exposure(ranks, n: int):
    """log2(n) - log2(rank), the one spelling of exposure in bits."""
    return np.log2(n) - np.log2(ranks)


def rank(loss: float, reference_losses) -> int:
    """Rank of a loss among reference losses, in [1, n+1]: 1 plus the
    number of references with loss <= it. A non-finite loss has no rank."""
    loss = _real(loss, "loss", finite=True)
    return int(np.count_nonzero(_column(reference_losses, "reference_losses") <= loss)) + 1


def exposure_of(loss: float, reference_losses) -> float:
    """Exposure in bits of a loss against reference losses."""
    return float(_exposure(rank(loss, reference_losses), len(reference_losses)))


def _quantile_rank(m: int, q: float) -> int:
    """k such that the q-quantile exposure of m canaries is their k-th smallest rank's.

    The q-quantile is the nearest-rank one, the ceil(q m)-th smallest
    exposure, so it is a canary's own; exposure falls as rank rises, so that
    canary holds the k-th smallest rank, k = m - ceil(q m) + 1.
    """
    return m - ceil(q * m) + 1


def exposure_all(d: AuditDataset) -> ExposureReport:
    """Rank and exposure of every canary in a dataset, with aggregates.

    References are sorted once and each canary is ranked by binary
    search, so the whole report costs O((m+n) log n).
    """
    refs = d.sorted_reference_losses
    ranks = np.searchsorted(refs, d.canary_losses, side="right") + 1
    exposures = _exposure(ranks, refs.size)
    levels = (0.5, 0.75)
    at = [_quantile_rank(ranks.size, q) - 1 for q in levels]
    quantiles = dict(zip(levels, _exposure(np.partition(ranks, at)[at], refs.size).tolist()))
    return ExposureReport(
        ranks=ranks,
        exposures=exposures,
        mean_exposure=float(exposures.mean()),
        quantile_exposures=quantiles,
    )
