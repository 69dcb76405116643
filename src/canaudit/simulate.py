"""Synthetic audit datasets with known ground truth.

The Gaussian shift family draws reference losses from N(0, 1) and canary
losses from N(-mu, 1): mu = 0 reproduces the random-guessing regime
exactly, and larger mu models stronger memorization (canaries more
probable, hence lower loss). A common scale would change no rank, so the
family has none. Its threshold attack has a closed form, mu-Gaussian DP's
trade-off curve, which makes the family an independent oracle for the
attack and audit machinery:

    tpr = Phi(t + mu) = Phi(Phi^-1(fpr) + mu),   fpr = Phi(t).

Normal draws are the inverse normal CDF of uniforms, computed by a numpy
port of Cephes ``ndtri``, the algorithm behind ``scipy.special.ndtri``:
given the same libm, every draw is bit-identical to scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import AuditDataset, _non_negative_integer, _positive_integer, _real

# Smallest uniform fed to the inverse normal CDF; keeps samples finite.
_U_FLOOR = 2.0 ** -53

# Cephes ndtri: rational approximations in y - 1/2 on the central branch
# |y - 1/2| <= 1/2 - e^-2, and in 1/x with x = sqrt(-2 ln y) on the tails,
# one pair for x < 8 (y > e^-32) and one beyond. Coefficients run from the
# highest power down; each Q leads with the 1 that Cephes' p1evl implies.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    # Horner's rule in Cephes' order; a leading 1 gives exactly its p1evl
    result = coefs[0]
    for c in coefs[1:]:
        result = result * x + c
    return result


def _log(x: np.ndarray) -> np.ndarray:
    # libm's log, as Cephes calls it; numpy's SIMD log can differ in the last bit
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of uniforms in (0, 1), as Cephes computes it."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    central = y > _EXP_M2
    x = np.empty_like(u)
    w = y[central] - 0.5
    w2 = w * w
    x[central] = (w + w * (w2 * _polevl(w2, _P0) / _polevl(w2, _Q0))) * _SQRT_2PI
    tail = ~central
    t = np.sqrt(-2.0 * _log(y[tail]))
    z = 1.0 / t
    correction = np.where(t < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                          z * _polevl(z, _P2) / _polevl(z, _Q2))
    t = t - _log(t) / t - correction
    x[tail] = np.where(upper[tail], t, -t)
    return x


@dataclass(frozen=True)
class GaussianShiftModel:
    """Parameters of the synthetic loss generator."""

    mu: float
    m: int
    n: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= _real(self.mu, "mu") < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        _positive_integer(self.m, "m")
        _positive_integer(self.n, "n")
        _non_negative_integer(self.seed, "seed")


def _normal_samples(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal draws: Cephes ``ndtri`` of uniforms floored at 2^-53.

    Bit-identical to ``scipy.special.ndtri`` given the same libm. This
    sampling path is part of the output contract and pinned by golden tests.
    """
    return _ndtri(np.maximum(rng.random(size), _U_FLOOR))


def simulate(model: GaussianShiftModel) -> AuditDataset:
    """Draw an AuditDataset from the model; deterministic given the seed.

    References and canaries use separate child streams of the seed, so the
    canary draws do not depend on n (nor the reference draws on m).
    """
    ref_seq, can_seq = np.random.SeedSequence(model.seed).spawn(2)
    references = _normal_samples(np.random.default_rng(ref_seq), model.n)
    canaries = -model.mu + _normal_samples(np.random.default_rng(can_seq), model.m)
    return AuditDataset(canary_losses=canaries, reference_losses=references)


def _normal_cdf(x: float) -> float:
    # erfc keeps the lower tail's relative precision; Phi(0) is exactly 0.5
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def analytic_operating_point(
    model: GaussianShiftModel, threshold: float
) -> tuple[float, float]:
    """Population (tpr, fpr) of the threshold attack under the model."""
    threshold = _real(threshold, "threshold", finite=True)
    return _normal_cdf(threshold + model.mu), _normal_cdf(threshold)
