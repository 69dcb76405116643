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
canary order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .ingest import AuditDataset, _column, _real, _unit_interval

@dataclass(frozen=True, eq=False)
class ExposureReport:
    """Per-canary ranks and exposures (bits), in canary order, plus aggregates."""

    ranks: np.ndarray
    exposures: np.ndarray
    mean_exposure: float
    quantile_exposures: dict[float, float]
    n: int
    m: int

    @property
    def empirical_fprs(self) -> np.ndarray:
        """(rank - 1)/n per canary: the fraction of references that a
        loss-threshold membership test at that canary's loss would
        classify as training members."""
        return (self.ranks - 1) / self.n


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


def exposure_quantile(exposures, q: float) -> float:
    """Nearest-rank lower quantile: the ceil(q*m)-th smallest element.

    Always returns an actual element of ``exposures``; q = 0.5 gives the
    lower median.
    """
    _unit_interval(q, "q")
    values = _column(exposures, "exposures")
    k = ceil(q * values.size) - 1
    return float(np.partition(values, k)[k])


def exposure_all(d: AuditDataset) -> ExposureReport:
    """Rank and exposure of every canary in a dataset, with aggregates.

    References are sorted once and each canary is ranked by binary
    search, so the whole report costs O((m+n) log n).
    """
    refs = d.sorted_reference_losses
    ranks = np.searchsorted(refs, d.canary_losses, side="right") + 1
    exposures = _exposure(ranks, refs.size)
    quantiles = {q: exposure_quantile(exposures, q) for q in (0.5, 0.75)}
    return ExposureReport(
        ranks=ranks,
        exposures=exposures,
        mean_exposure=float(exposures.mean()),
        quantile_exposures=quantiles,
        n=d.n,
        m=d.m,
    )
