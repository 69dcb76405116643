"""Synthetic audit datasets with known ground truth.

The Gaussian shift family draws reference losses from N(0, sigma^2) and
canary losses from N(-mu, sigma^2): mu = 0 reproduces the random-guessing
regime exactly, and larger mu models stronger memorization (canaries more
probable, hence lower loss). Its threshold attack has a closed form,

    tpr = Phi((t + mu) / sigma),   fpr = Phi(t / sigma),

which makes the family an independent oracle for the attack and audit
machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import AuditDataset

# Smallest uniform fed to the inverse normal CDF; keeps samples finite.
_U_FLOOR = 2.0 ** -53


@dataclass(frozen=True)
class GaussianShiftModel:
    """Parameters of the synthetic loss generator."""

    mu: float
    sigma: float
    m: int
    n: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be >= 1, got m={self.m}, n={self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _normal_samples(rng: np.random.Generator, size: int) -> np.ndarray:
    # Inverse-CDF transform of uniforms; this sampling path is part of the
    # output contract and pinned by golden tests.
    from scipy.special import ndtri
    u = np.maximum(rng.random(size), _U_FLOOR)
    return ndtri(u)


def simulate(model: GaussianShiftModel) -> AuditDataset:
    """Draw an AuditDataset from the model; deterministic given the seed.

    References and canaries use separate child streams of the seed, so the
    canary draws do not depend on n (nor the reference draws on m).
    """
    ref_seq, can_seq = np.random.SeedSequence(model.seed).spawn(2)
    references = model.sigma * _normal_samples(np.random.default_rng(ref_seq), model.n)
    canaries = -model.mu + model.sigma * _normal_samples(
        np.random.default_rng(can_seq), model.m
    )
    return AuditDataset(canary_losses=canaries, reference_losses=references)


def _normal_cdf(x: float) -> float:
    # erfc keeps the lower tail's relative precision; Phi(0) is exactly 0.5
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def analytic_operating_point(
    model: GaussianShiftModel, threshold: float
) -> tuple[float, float]:
    """Population (tpr, fpr) of the threshold attack under the model."""
    tpr = _normal_cdf((threshold + model.mu) / model.sigma)
    fpr = _normal_cdf(threshold / model.sigma)
    return tpr, fpr
