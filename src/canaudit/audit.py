"""Epsilon lower bounds from attack results and exposure statistics.

Any eps-DP training procedure caps every membership inference attack at
TPR/FPR <= exp(eps), so an observed operating point certifies

    eps >= ln(TPR / FPR).

Every operating point reports this one point estimate, at its own
counts. The ``median`` point thresholds at the lower-median canary loss
and counts losses strictly below it, so its TPR is (ceil(m/2) - 1)/m
when no other canary ties that loss (less when one does), not 1/2.
Exposure gives the paper's reading of the same ratio,
ln(2) * (median exposure - 1); it depends on the tie policy, so the
report keeps it next to the exposure statistics, and no bound uses it.

Empirical rates carry sampling error, so point estimates are paired with
confidence-corrected bounds: one-sided Clopper-Pearson intervals on TPR
(lower) and FPR (upper), the error budget split evenly between the two
sides by a union bound. All canary and reference losses are assumed
independent; this is a heuristic, and every report says so.

Canaries duplicated k times in training leak through group privacy; the
certified per-example epsilon divides the raw bound by k.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

from . import attack
from .attack import MIResult
from .baseline import LN2, _log_binomial_pmf, _log_tail
from .exposure import ExposureReport, exposure_all
from .ingest import AuditDataset

INDEPENDENCE_NOTICE = (
    "canary and reference losses are assumed independent (heuristic); "
    "dependence-aware corrections are out of scope"
)


@dataclass(frozen=True)
class EpsilonBound:
    """A certified epsilon lower bound with every input recorded.

    ``point_estimate`` is the raw ln(TPR/FPR); it may be negative or
    infinite and is reported unfloored for diagnostics.
    ``confident_lower_bound`` is the Clopper-Pearson corrected value,
    floored at zero, and is finite even when the point estimate is
    infinite because the FPR upper bound is always positive.
    """

    point_estimate: float
    confident_lower_bound: float
    confidence: float
    alpha_split: tuple[float, float]
    tpr_lower: float
    fpr_upper: float
    replications: int
    per_example: bool


@dataclass(frozen=True)
class AuditOutcome:
    """One operating point's attack result and bounds."""

    operating_point: str
    mi: MIResult
    bound: EpsilonBound
    per_example_bound: EpsilonBound | None
    warning: str | None


@dataclass(frozen=True)
class AuditResult:
    """Everything audit_pipeline computed for one dataset."""

    exposure_report: ExposureReport
    outcomes: tuple[AuditOutcome, ...]
    confidence: float
    tie_policy: str

    def bounds(self) -> list[EpsilonBound]:
        return [bound for outcome in self.outcomes
                for bound in (outcome.bound, outcome.per_example_bound) if bound is not None]


def epsilon_point(tpr: float, fpr: float) -> float:
    """Raw epsilon point estimate ln(tpr/fpr).

    Returns +inf when fpr = 0 with tpr > 0 (the sample cannot bound the
    ratio), -inf when tpr = 0 with fpr > 0, and 0 when both rates are
    zero. Negative values are reported as-is.
    """
    if not 0.0 <= tpr <= 1.0:
        raise ValueError(f"tpr must be in [0, 1], got {tpr}")
    if not 0.0 <= fpr <= 1.0:
        raise ValueError(f"fpr must be in [0, 1], got {fpr}")
    if fpr == 0.0:
        return math.inf if tpr > 0.0 else 0.0
    if tpr == 0.0:
        return -math.inf
    return math.log(tpr / fpr)


def epsilon_from_median_exposure(exposure_median: float) -> float:
    """The paper's exposure reading of epsilon, ln(2) * (exposure - 1).

    A median exposure of 1 (the random-guessing baseline) maps to zero.
    It depends on the tie policy, so no bound uses it.
    """
    if not math.isfinite(exposure_median):
        raise ValueError(f"exposure_median must be finite, got {exposure_median!r}")
    return LN2 * (exposure_median - 1.0)


def _bits_midpoint(lo: float, hi: float) -> float:
    """The float halfway between lo and hi >= 0 in bit pattern, so halving
    reaches a root of any magnitude in at most 64 steps."""
    lo_bits, hi_bits = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    return struct.unpack("<d", struct.pack("<q", (lo_bits + hi_bits) // 2))[0]


def _binomial_tail_root(k: int, trials: int, alpha: float, ge: bool) -> float:
    """The p in (0, 1) where P[Bin(trials, p) >= k], or P[Bin(trials, p) <= k]
    if not ``ge``, is alpha.

    Newton's method on ln(tail) against ln p, or against ln(1 - p) for
    P[Bin <= k], in which the tail is log-concave; the slope is
    k pmf(k) / tail, or (trials - k) pmf(k) / tail. A step that leaves the
    bracket, or is not half the last one, is replaced by a bisection of
    the bracket's bit patterns. A relative step below 1e-13 ends the
    search: the evaluation itself is no more precise than that.
    """
    target, count = math.log(alpha), (k if ge else trials - k)
    lo, hi = 0.0, 1.0
    p, last_step = (k if ge else k + 1) / (trials + 1), math.inf
    while True:
        odds = p / (1.0 - p)
        log_tail = _log_tail(lambda i: _log_binomial_pmf(i, trials, p),
                             lambda i: (trials - i) * odds / (i + 1), k, 0, trials, ge)
        f = log_tail - target
        if f == 0.0:
            return p
        if (f < 0.0) == ge:
            lo = p
        else:
            hi = p
        if log_tail == -math.inf:  # underflowed: no slope, so bisect
            nxt = math.nan
        else:  # exp() capped, so a wild step only leaves the bracket
            w = f * math.exp(min(log_tail - _log_binomial_pmf(k, trials, p), 700.0)) / count
            nxt = (p * math.exp(min(-w, 700.0)) if ge
                   else p - (1.0 - p) * math.expm1(min(-w, 700.0)))
            if abs(nxt - p) <= 1e-13 * p:
                return nxt
        if not (lo < nxt < hi and abs(nxt - p) <= 0.5 * last_step):
            nxt = _bits_midpoint(lo, hi)
            if nxt in (lo, hi):
                return p
        last_step, p = abs(nxt - p), nxt


def clopper_pearson(k: int, trials: int, alpha: float, side: str) -> float:
    """One-sided exact binomial confidence bound on a proportion.

    ``side="lower"`` returns inf{p : P[Bin(trials, p) >= k] >= alpha}
    (0 when k = 0); ``side="upper"`` returns
    sup{p : P[Bin(trials, p) <= k] >= alpha} (1 when k = trials). Each is
    the root in p of a binomial tail, found with the standard library
    alone: ``baseline._log_tail`` sums the tail from the term next to k by
    the ratio of neighbouring terms of a Stirling-form pmf, and a
    safeguarded Newton search solves ln(tail) = ln(alpha), so each step
    costs O(sqrt(trials p (1 - p))) terms. The upper tail is solved at
    alpha itself, not at 1 - alpha. It agrees with
    ``scipy.special.betaincinv`` to 1e-10 relative for trials up to 1e6
    and alpha from 1e-6 to 0.2 (the tests pin this; the worst case seen
    on their grid is 1e-11, and 4e-13 over 20000 random cases).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= k <= trials:
        raise ValueError(f"k must be in [0, trials], got k={k}, trials={trials}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if side == "lower":
        return 0.0 if k == 0 else _binomial_tail_root(k, trials, alpha, ge=True)
    if side == "upper":
        return 1.0 if k == trials else _binomial_tail_root(k, trials, alpha, ge=False)
    raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")


def epsilon_confident(d: AuditDataset, mi: MIResult, confidence: float) -> EpsilonBound:
    """Confidence-corrected epsilon bound for one attack operating point.

    Splits the error budget 1 - confidence evenly between a lower
    Clopper-Pearson bound on TPR and an upper one on FPR; the certified
    bound is max(0, ln(tpr_lower / fpr_upper)).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    tpr_lower = clopper_pearson(mi.canary_hits, mi.m, alpha / 2.0, "lower")
    fpr_upper = clopper_pearson(mi.reference_hits, mi.n, alpha / 2.0, "upper")
    # fpr_upper > 0 whenever alpha < 1, so the corrected bound is finite.
    if tpr_lower == 0.0:
        corrected = 0.0
    else:
        corrected = max(0.0, math.log(tpr_lower / fpr_upper))
    return EpsilonBound(
        point_estimate=epsilon_point(mi.tpr, mi.fpr),
        confident_lower_bound=corrected,
        confidence=confidence,
        alpha_split=(alpha / 2.0, alpha / 2.0),
        tpr_lower=tpr_lower,
        fpr_upper=fpr_upper,
        replications=d.replications,
        per_example=False,
    )


def group_privacy_adjust(epsilon: float, replications: int) -> float:
    """Per-example epsilon when a canary was duplicated ``replications`` times."""
    if isinstance(replications, bool) or not isinstance(replications, int) \
            or replications < 1:
        raise ValueError(f"replications must be a positive integer, got {replications!r}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return epsilon / replications


def _per_example(bound: EpsilonBound) -> EpsilonBound:
    k = bound.replications
    return replace(
        bound,
        point_estimate=bound.point_estimate / k,  # signed diagnostics divide too
        confident_lower_bound=group_privacy_adjust(bound.confident_lower_bound, k),
        per_example=True,
    )


def audit_pipeline(
    d: AuditDataset,
    operating_points=("median",),
    confidence: float = 0.95,
    tie_policy: str = "pessimistic",
) -> AuditResult:
    """Exposure report plus epsilon bounds at each requested operating point.

    ``attack.operating_points`` says what a point is and evaluates them
    all. Every bound is ``epsilon_confident`` at its own attack's counts,
    so no bound depends on ``tie_policy``, which only sets the exposure
    report's ranks. When canaries were replicated, a per-example bound
    divided by the replication count accompanies the raw one. Outcomes
    appear in request order.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    report = exposure_all(d, tie_policy)
    points = list(operating_points)  # labelled and evaluated: read it once
    outcomes = []
    for op, mi in zip(points, attack.operating_points(d, points)):
        label, warning = "median", None
        if not isinstance(op, str):  # an fpr target
            target = float(op)
            label = f"fpr_target={target:g}"
            if 0.0 < target < 1.0 / d.n:
                warning = (
                    f"fpr target {target:g} is below the achievable resolution "
                    f"1/n = {1.0 / d.n:g}; bound computed at achieved fpr {mi.fpr:g}"
                )
        bound = epsilon_confident(d, mi, confidence)
        per_example_bound = _per_example(bound) if d.replications > 1 else None
        outcomes.append(AuditOutcome(operating_point=label, mi=mi, bound=bound,
                                     per_example_bound=per_example_bound, warning=warning))
    return AuditResult(
        exposure_report=report,
        outcomes=tuple(outcomes),
        confidence=confidence,
        tie_policy=tie_policy,
    )
