"""Synthetic audit datasets with known ground truth.

The Gaussian shift family draws reference losses from N(0, 1) and canary
losses from N(-mu, 1): mu = 0 reproduces the random-guessing regime
exactly, and larger mu models stronger memorization (canaries more
probable, hence lower loss). A common scale would change no rank, so the
family has none. Its threshold attack has a closed form, mu-Gaussian DP's
trade-off curve, which makes the family an independent oracle for the
attack and audit machinery:

    tpr = Phi(t + mu) = Phi(Phi^-1(fpr) + mu),   fpr = Phi(t).
"""

from __future__ import annotations

import math

import numpy as np

from .ingest import AuditDataset, _non_negative_integer, _positive_integer, _real


def _mu(mu) -> float:
    """``mu`` as a float, finite and >= 0: the one rule for the shift."""
    real = _real(mu, "mu")
    if not 0.0 <= real < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    return real


def simulate(mu: float, m: int, n: int, seed: int) -> AuditDataset:
    """Draw m canaries from N(-mu, 1) and n references from N(0, 1);
    deterministic given the seed.

    References and canaries use separate child streams of the seed, so the
    canary draws do not depend on n (nor the reference draws on m).
    """
    mu = _mu(mu)
    m = _positive_integer(m, "m")
    n = _positive_integer(n, "n")
    seed = _non_negative_integer(seed, "seed")
    ref_seq, can_seq = np.random.SeedSequence(seed).spawn(2)
    references = np.random.default_rng(ref_seq).standard_normal(n)
    canaries = -mu + np.random.default_rng(can_seq).standard_normal(m)
    return AuditDataset(canary_losses=canaries, reference_losses=references)


def _normal_cdf(x: float) -> float:
    # erfc keeps the lower tail's relative precision; Phi(0) is exactly 0.5
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def analytic_operating_point(mu: float, threshold: float) -> tuple[float, float]:
    """Population (tpr, fpr) of the threshold attack under the shift mu."""
    mu = _mu(mu)
    threshold = _real(threshold, "threshold", finite=True)
    return _normal_cdf(threshold + mu), _normal_cdf(threshold)
