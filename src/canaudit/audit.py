"""Epsilon lower bounds from attack results and exposure statistics.

Any eps-DP training procedure caps every membership inference attack at
TPR/FPR <= exp(eps), so an observed operating point certifies

    eps >= ln(TPR / FPR).

Every operating point reports this one point estimate, at its own
counts. The ``median`` point thresholds at the lower-median canary loss
and counts losses strictly below it, so its TPR is (ceil(m/2) - 1)/m
when no other canary ties that loss (less when one does), not 1/2.
Exposure gives the paper's reading of the same ratio,
ln(2) * (median exposure - 1); it is a function of the ranks alone, not a
confidence bound, so the report keeps it next to the exposure statistics
and no bound uses it.

Empirical rates carry sampling error, so point estimates are paired with
confidence-corrected bounds: one-sided Clopper-Pearson intervals on TPR
(lower) and FPR (upper), the error budget split evenly between the two
sides by a union bound. All canary and reference losses are assumed
independent; this is a heuristic, and every report says so.

Canaries duplicated k times in training leak through group privacy; the
certified per-example epsilon, a row after the raw one, divides it by k.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

from . import attack
from .attack import MIResult
from .baseline import LN2, _log_binomial_pmf, _log_tail
from .exposure import ExposureReport, exposure_all
from .ingest import (AuditDataset, _non_negative_integer, _positive_integer, _real, _sequence,
                     _unit_interval)

INDEPENDENCE_NOTICE = (
    "canary and reference losses are assumed independent (heuristic); "
    "dependence-aware corrections are out of scope"
)


@dataclass(frozen=True)
class EpsilonBound:
    """A certified epsilon lower bound: the values that vary by row.

    ``point_estimate`` is the raw ln(TPR/FPR); it may be negative or
    infinite and is reported unfloored for diagnostics.
    ``confident_lower_bound`` is the Clopper-Pearson corrected value,
    floored at zero, and is finite even when the point estimate is
    infinite because the FPR upper bound is always positive. The confidence
    is ``AuditResult.confidence``, and the replication count the dataset's.
    """

    point_estimate: float
    confident_lower_bound: float
    tpr_lower: float
    fpr_upper: float
    per_example: bool


@dataclass(frozen=True)
class AuditOutcome:
    """One report row: an operating point's attack result and one of its bounds."""

    operating_point: str
    mi: MIResult
    bound: EpsilonBound


@dataclass(frozen=True)
class AuditResult:
    """audit_pipeline's result: the report's bound rows and its warnings."""

    exposure_report: ExposureReport
    outcomes: tuple[AuditOutcome, ...]
    confidence: float
    warnings: tuple[str, ...]


def epsilon_point(tpr: float, fpr: float) -> float:
    """Raw epsilon point estimate ln(tpr/fpr).

    Returns +inf when fpr = 0 with tpr > 0 (the sample cannot bound the
    ratio), -inf when tpr = 0 with fpr > 0, and 0 when both rates are
    zero. Negative values are reported as-is.
    """
    _unit_interval(tpr, "tpr", closed=True)
    _unit_interval(fpr, "fpr", closed=True)
    if fpr == 0.0:
        return math.inf if tpr > 0.0 else 0.0
    if tpr == 0.0:
        return -math.inf
    return math.log(tpr / fpr)


def epsilon_from_median_exposure(exposure_median: float) -> float:
    """The paper's exposure reading of epsilon, ln(2) * (exposure - 1).

    A median exposure of 1 (the random-guessing baseline) maps to zero.
    It is read from the ranks with no sampling correction, so it is not a
    confidence bound and no bound uses it.
    """
    return LN2 * (_real(exposure_median, "exposure_median", finite=True) - 1.0)


def _binomial_tail_root(k: int, trials: int, alpha: float, ge: bool) -> float:
    """The p in (0, 1) where P[Bin(trials, p) >= k], or P[Bin(trials, p) <= k]
    if not ``ge``, is alpha.

    With x = p and c = k, or x = 1 - p and c = trials - k, the tail is
    P[Bin(trials, x) >= c]: the CDF of a Beta variable, whose log has a
    log-concave density. So ln(tail) is increasing and concave in ln x,
    with slope c pmf(c) / tail, and each Newton step on
    ln(tail) = ln(alpha) lands at or below the root: after the first, the
    tail stays <= alpha and climbs to it. The start is the normal
    approximation, kept inside (0, 1) and at or above the floor where
    (e trials x / c)^c = alpha; the tail there is at most alpha, and no
    step goes below it. A relative step below 1e-13, the tail sum's own
    precision, or a tail >= alpha after the first step ends the search;
    an iterate that rounds to 0 or 1 is returned as the root.
    """
    target, count = math.log(alpha), (k if ge else trials - k)
    log_floor = math.log(count / trials) - 1.0 + target / count
    z = statistics.NormalDist().inv_cdf(alpha)
    x = count / trials + z * math.sqrt(max(k * (trials - k), 1)) / trials ** 1.5
    x = min(max(x, math.exp(log_floor), 2.0 ** -52), (trials + count) / (2 * trials + 1))
    p, first = (x if ge else 1.0 - x), True
    while 0.0 < p < 1.0:
        odds = p / (1.0 - p)
        log_tail = _log_tail(lambda i: _log_binomial_pmf(i, trials, p),
                             lambda i: (trials - i) * odds / (i + 1), k, 0, trials, ge)
        f = log_tail - target
        if f >= 0.0 and not first:
            return p
        log_x = math.log(p) if ge else math.log1p(-p)
        w = min(f * math.exp(log_tail - _log_binomial_pmf(k, trials, p)) / count,
                log_x - log_floor)  # ln x falls by w, to the floor at most
        nxt = p * math.exp(-w) if ge else p - (1.0 - p) * math.expm1(-w)
        if abs(nxt - p) <= 1e-13 * p:
            return nxt
        p, first = nxt, False
    return p


def clopper_pearson(k: int, trials: int, alpha: float, side: str) -> float:
    """One-sided exact binomial confidence bound on a proportion.

    ``side="lower"`` returns inf{p : P[Bin(trials, p) >= k] >= alpha}
    (0 when k = 0); ``side="upper"`` returns
    sup{p : P[Bin(trials, p) <= k] >= alpha} (1 when k = trials). Each is
    the root in p of a binomial tail, found without scipy:
    ``baseline._log_tail`` sums the tail from the term next to k by
    the ratio of neighbouring terms of a Stirling-form pmf, and Newton's
    method from the normal approximation solves ln(tail) = ln(alpha),
    approaching the root from the conservative side. Each step costs
    O(sqrt(trials p (1 - p))) terms; one bound at k = 5e5, trials = 1e6
    takes 3 tail sums. The upper tail is solved at alpha itself, not at
    1 - alpha. It agrees with ``scipy.special.betaincinv`` to 1e-10
    relative for trials up to 1e6 and alpha from 1e-100 to 0.99 (the
    tests pin this; the worst case seen on their grid is 5e-11).
    """
    trials = _positive_integer(trials, "trials")
    k = _non_negative_integer(k, "k")
    if k > trials:
        raise ValueError(f"k must be in [0, trials], got k={k}, trials={trials}")
    _unit_interval(alpha, "alpha")
    if side == "lower":
        return 0.0 if k == 0 else _binomial_tail_root(k, trials, alpha, ge=True)
    if side == "upper":
        return 1.0 if k == trials else _binomial_tail_root(k, trials, alpha, ge=False)
    raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")


def epsilon_confident(mi: MIResult, confidence: float) -> EpsilonBound:
    """Confidence-corrected epsilon bound for one attack operating point.

    Splits the error budget 1 - confidence evenly between a lower
    Clopper-Pearson bound on TPR and an upper one on FPR; the certified
    bound is max(0, ln(tpr_lower / fpr_upper)).
    """
    _unit_interval(confidence, "confidence")
    side_alpha = (1.0 - confidence) / 2.0
    tpr_lower = clopper_pearson(mi.canary_hits, mi.m, side_alpha, "lower")
    fpr_upper = clopper_pearson(mi.reference_hits, mi.n, side_alpha, "upper")
    # fpr_upper > 0 whenever side_alpha < 1, so the corrected bound is finite.
    corrected = max(0.0, math.log(tpr_lower / fpr_upper)) if tpr_lower > 0.0 else 0.0
    return EpsilonBound(point_estimate=epsilon_point(mi.tpr, mi.fpr),
                        confident_lower_bound=corrected, tpr_lower=tpr_lower,
                        fpr_upper=fpr_upper, per_example=False)


def group_privacy_adjust(epsilon: float, replications: int) -> float:
    """Per-example epsilon when a canary was duplicated ``replications`` times."""
    replications = _positive_integer(replications, "replications")
    if not _real(epsilon, "epsilon") >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return epsilon / replications


def _per_example(bound: EpsilonBound, k: int) -> EpsilonBound:
    return replace(bound, point_estimate=bound.point_estimate / k,  # signed diagnostics divide too
                   confident_lower_bound=group_privacy_adjust(bound.confident_lower_bound, k),
                   per_example=True)


def audit_pipeline(
    d: AuditDataset,
    operating_points=("median",),
    confidence: float = 0.95,
) -> AuditResult:
    """Exposure report plus epsilon bounds at each requested operating point.

    ``attack.operating_points`` says what a point is and evaluates them
    all. Every bound is ``epsilon_confident`` at its own attack's counts,
    not at the exposure report's ranks. Rows appear in request order, each
    raw row followed, when canaries were replicated, by its per-example row.
    A target is spelled by ``:g``, or by ``repr`` where ``:g`` rounds it.
    """
    _unit_interval(confidence, "confidence")
    report = exposure_all(d)
    points = _sequence(operating_points, "operating points")  # labelled and evaluated: read once
    outcomes, warnings = [], [INDEPENDENCE_NOTICE]
    for op, mi in zip(points, attack.operating_points(d, points)):
        label = "median"
        if not isinstance(op, str):  # an fpr target
            target = float(op)
            spelled = f"{target:g}" if float(f"{target:g}") == target else repr(target)
            label = f"fpr_target={spelled}"
            if 0.0 < target < 1.0 / d.n:
                warnings.append(
                    f"fpr target {spelled} is below the achievable resolution "
                    f"1/n = {1.0 / d.n:g}; bound computed at achieved fpr {mi.fpr:g}"
                )
        bound = epsilon_confident(mi, confidence)
        outcomes.append(AuditOutcome(label, mi, bound))
        if d.replications > 1:
            outcomes.append(AuditOutcome(label, mi, _per_example(bound, d.replications)))
    return AuditResult(report, tuple(outcomes), confidence, tuple(warnings))
